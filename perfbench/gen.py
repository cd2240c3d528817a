"""Seeded input generator for the benchmark's three workloads.

The generator belongs to the benchmark, not to the program: it copies the
shape of ``logjuicer_ray/synth.py`` but imports nothing from it, so a change
to the program cannot change the benchmark's inputs.

One input is a Parquet directory of transcript turns
(``conv_id, turn_idx, role, text, tool, ts, split``) plus ``expected.json``,
the outputs the job must produce, derived from what was planted:

- normal target turns reuse a template of their own (role, tool) group, and
  every template of a group occurs in that group's baseline, so a normal
  turn scores distance 0 and is never an anomaly;
- anomaly turns (1% of target turns) come from templates and traceback lines
  that never occur in the baseline, so each scores far above the threshold;
- after the per-conversation and global dedup, the report keeps one anomaly
  per planted kind, at its first (conv_id, turn_idx) occurrence, and the
  errors report does the same for the kinds that the errors parser flags.

``perfbench/test_perfbench.py`` certifies these rules against the sequential
reference in ``tests/_oracle.py``.

Workloads:

- ``transcripts``: 7 (role, tool) groups sharing 20 templates filled with
  random hex, uuid and IP material; rows sorted by (conv_id, turn_idx).
- ``wide_vocab``: the same shape, but each group has its own
  ``WIDE_TEMPLATES`` seeded pseudo-word templates, so each baseline index
  holds about that many rows and scoring dominates.
- ``unsorted``: exactly the ``transcripts`` rows of the same seed, in a
  seeded random row order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("transcripts", "wide_vocab", "unsorted")

AVG_TURNS = 200
BASELINE_SHARE = 0.4
ANOMALY_RATE = 0.01
TRACEBACK_SHARE = 0.2
DUP_RATE = 0.05
NULL_TS_RATE = 0.05
WIDE_TEMPLATES = 600
WIDE_WORDS = 6000
BASE_EPOCH_MS = 1_706_745_600_000  # 2024-02-01T00:00:00Z
ROWS_PER_FILE = 150_000

GROUPS = [
    ("assistant", "bash"),
    ("assistant", "editor"),
    ("assistant", "search"),
    ("tool", "bash"),
    ("tool", "browser"),
    ("user", ""),
    ("system", ""),
]
GROUP_WEIGHTS = np.array([0.50, 0.12, 0.10, 0.10, 0.08, 0.06, 0.04])

TEMPLATES = [
    "2024-02-1{d} 0{h}:1{m}:2{s},140 INFO worker {hex} processed request req-{uuid} in {num}ms",
    "starting service unit {hex} with config /etc/service/conf.yaml retries={num}",
    "connection established toward https://{ip}/identity/v3/auth/tokens status {num}",
    "writing output chunk {num} into /tmp/tmp{hex} staging area done",
    "cache lookup finished entries={num} misses={num} backend redis://{ip}:6379",
    "scheduler assigned task {uuid} onto node compute-{hex} within quota",
    "periodic health probe succeeded latency {num}ms endpoint {ip}:8080",
    "applying configuration snapshot {hex} revision {num} onto cluster member",
    "downloaded artifact sha256:{hex}{hex} size {num} bytes from mirror",
    "1{h}:2{m}:3{s}.812 DEBUG reconcile loop iteration {num} drift corrected",
    "session token refreshed AUTH_{hex} expires within {num} seconds",
    "queue depth currently {num} consumer lag {num}ms partition {num}",
    "volume attachment completed device /dev/vd{d} instance {uuid}",
    "metrics exporter flushed {num} samples toward collector {ip}:4317",
    "ansible task completed changed={num} unreachable=0 rc=0 host node-{hex}",
    "image prefetch finished layer {hex}{hex} registry mirror {ip}:5000",
    "leader election renewed lease holder compute-{hex} term {num}",
    "rotating credential secret_{num} next rotation within {num} hours",
    "tempest.lib.common.rest_client [req-{uuid} ] Request (main): 201 POST https://{ip}/identity/v3/auth/tokens",
    "garbage collector reclaimed {num} objects heap now {num}MB",
]

ANOMALY_TEMPLATES = [
    "ERROR 5032 (HY000): cannot connect to upstream server on '{ip}' ({num})",
    "unexpected disconnect from peer {ip} during replication stream",
    "kernel oops detected at address 0x{hex} while handling interrupt",
    "corrupted checkpoint manifest {hex} found during recovery scan",
    "watchdog timeout expired after {num}ms forcing emergency restart",
    "[Zuul] Job complete, result: FAILURE",
    "assertion mismatch expected {num} observed {num} in invariant check",
    "fatal: unable to resolve dependency graph cycle at package {hex}",
]

TRACEBACK = [
    "Traceback (most recent call last):",
    '  File "/srv/agent/executor.py", line {num}, in run_step',
    "    result = handler.invoke(payload)",
    '  File "/srv/agent/handler.py", line {num}, in invoke',
    "    raise RuntimeError('tool invocation failed')",
    "RuntimeError: tool invocation failed",
]
MARKER = "TASK [run-logjuicer : collect logs]"
AFTER_MARKER = "ERROR 9999 (PLANTED): after-marker line must not be reported"

# Kind codes: normal templates are >= 0; planted kinds are negative.
_ANOMALY_KIND0 = -100  # -100 .. -93: ANOMALY_TEMPLATES[i] is kind -100 + i
_TB_KIND0 = -200  # -200 .. -195: TRACEBACK[j] is kind -200 + j
_MARKER_KIND = -300
_AFTER_MARKER_KIND = -301
# Kinds the errors parser flags: the "ERROR dddd" lines, and a traceback,
# which completes (and is reported) on its last line.
ERROR_KINDS = (_ANOMALY_KIND0 + 0, _TB_KIND0 + len(TRACEBACK) - 1, _AFTER_MARKER_KIND)

_FIELD_RE = re.compile(r"\{(hex|uuid|ip|num|d|h|m|s)\}")
_FIELDS = ("hex", "uuid", "ip", "num", "d")


@functools.cache
def version() -> str:
    """Digest of this file: editing the generator invalidates cached inputs
    and recorded outputs."""
    with open(__file__, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:12]


def _compile(template: str) -> tuple[list[str], list[str]]:
    """Split a template into literals and field kinds (h/m/s draw digits)."""
    lits, kinds, pos = [], [], 0
    for m in _FIELD_RE.finditer(template):
        lits.append(template[pos : m.start()])
        kinds.append("d" if m.group(1) in ("d", "h", "m", "s") else m.group(1))
        pos = m.end()
    lits.append(template[pos:])
    return lits, kinds


def _pseudo_words(rng, n: int) -> list[str]:
    """``n`` distinct lowercase consonant-vowel words: never hex, never a
    keyword the errors parser looks for, never an English template word."""
    cons = np.array(list("bgjkmnprstvwz"))
    vows = np.array(list("aiou"))
    words: dict[str, None] = {}
    while len(words) < n:
        sylls = rng.integers(2, 5, size=n)
        c = cons[rng.integers(0, len(cons), size=(n, 4))]
        v = vows[rng.integers(0, len(vows), size=(n, 4))]
        for i in range(n):
            words["".join(c[i, j] + v[i, j] for j in range(sylls[i]))] = None
    return list(words)[:n]


def _group_templates(workload: str, seed: int) -> list[list[str]]:
    """Normal templates of each (role, tool) group."""
    if workload != "wide_vocab":
        return [TEMPLATES] * len(GROUPS)
    rng = np.random.default_rng([seed, 7])
    vocab = np.array(_pseudo_words(rng, WIDE_WORDS))
    out = []
    for _ in GROUPS:
        lengths = rng.integers(6, 10, size=WIDE_TEMPLATES)
        out.append(
            [" ".join(vocab[rng.integers(0, len(vocab), size=k)]) + " ref {hex} took {num}ms"
             for k in lengths]
        )
    return out


def _fit(weights: np.ndarray, total: int) -> np.ndarray:
    """Turn counts proportional to ``weights``, at least 8, summing to
    ``total``."""
    n = np.maximum(8, np.floor(weights * (total - 8 * len(weights)) / weights.sum()).astype(np.int64) + 8)
    n[np.argmax(n)] += total - n.sum()
    return n


def _plan(rng, rows: int):
    """Conversation descriptors: (conv_id, group, n_turns, split), sorted by
    conv_id.  The first target conversation is hot (20x the average turns),
    the second is a job-output conversation."""
    n_convs = max(10, rows // AVG_TURNS)
    n_base = max(len(GROUPS), int(n_convs * BASELINE_SHARE))
    groups = rng.choice(len(GROUPS), size=n_convs, p=GROUP_WEIGHTS)
    groups[: len(GROUPS)] = np.arange(len(GROUPS))  # every group has a baseline
    weights = np.exp(rng.normal(0, 0.6, size=n_convs))
    # exact split sizes, so every seed gives inputs of the same size
    base_rows = int(rows * BASELINE_SHARE)
    hot = min(AVG_TURNS * 20, (rows - base_rows) // 4)
    turns = np.empty(n_convs, dtype=np.int64)
    turns[:n_base] = _fit(weights[:n_base], base_rows)
    turns[n_base] = hot
    turns[n_base + 1 :] = _fit(weights[n_base + 1 :], rows - base_rows - hot)
    plan = []
    for c in range(n_convs):
        split = "baseline" if c < n_base else "target"
        cid = f"job-output-{c:06d}" if c == n_base + 1 else f"conv-{split[0]}{c:06d}"
        plan.append((cid, int(groups[c]), int(turns[c]), split))
    plan.sort()
    return plan


def _field_pools(rng, need: dict[str, int]) -> dict:
    """Iterators over pre-drawn random field values, one draw per use."""
    hexes = rng.bytes(6 * need["hex"]).hex()
    uuids = rng.bytes(16 * need["uuid"]).hex()
    ips = rng.integers(0, 255, size=(need["ip"], 3))
    nums = rng.integers(1, 99999, size=need["num"])
    digits = rng.integers(0, 10, size=need["d"])
    return {
        "hex": iter([hexes[i : i + 12] for i in range(0, len(hexes), 12)]).__next__,
        "uuid": iter(
            [f"{u[:8]}-{u[8:12]}-{u[12:16]}-{u[16:20]}-{u[20:32]}"
             for u in (uuids[i : i + 32] for i in range(0, len(uuids), 32))]
        ).__next__,
        "ip": iter([f"10.{a}.{b}.{c}" for a, b, c in ips.tolist()]).__next__,
        "num": iter([str(x) for x in nums.tolist()]).__next__,
        "d": iter([str(x) for x in digits.tolist()]).__next__,
    }


def generate(workload: str, seed: int, k: int, rows: int) -> tuple[pa.Table, dict]:
    """Input ``k`` of a run with ``seed``: the turns table and the expected
    outputs (see the module docstring)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = 1 if workload == "wide_vocab" else 0
    rng = np.random.default_rng([seed, k, shape])
    group_tpl = _group_templates(workload, seed)
    plan = _plan(rng, rows)

    conv_ids, kinds, tpl_refs, groups, splits, turn_idx = [], [], [], [], [], []
    cycle = [0] * len(GROUPS)
    perms = [rng.permutation(len(t)) for t in group_tpl]
    covered = [np.zeros(len(t), dtype=bool) for t in group_tpl]
    for cid, g, n, split in plan:
        target = split == "target"
        if target:
            # only templates the group's baseline holds
            held = np.flatnonzero(covered[g])
            tids = held[rng.integers(0, len(held), size=n)]
        else:
            # the baseline cycles through every template of its group
            tids = perms[g][(cycle[g] + np.arange(n)) % len(group_tpl[g])]
            cycle[g] += n
        kind = tids.astype(np.int64)
        if target:
            flagged = np.flatnonzero(rng.random(n) < ANOMALY_RATE)
            tb_draw = rng.random(len(flagged)) < TRACEBACK_SHARE
            which = rng.integers(0, len(ANOMALY_TEMPLATES), size=len(flagged))
            nxt = 0
            for pos, tb, a in zip(flagged.tolist(), tb_draw.tolist(), which.tolist()):
                if pos < nxt:
                    continue
                if tb and pos + len(TRACEBACK) <= n:
                    kind[pos : pos + len(TRACEBACK)] = _TB_KIND0 + np.arange(len(TRACEBACK))
                    nxt = pos + len(TRACEBACK)
                else:
                    kind[pos] = _ANOMALY_KIND0 + a
                    nxt = pos + 1
        dup = rng.random(n) < DUP_RATE
        dup[0] = False
        # a duplicate repeats the previous normal turn's text
        dup &= (kind >= 0) & (np.r_[-1, kind[:-1]] >= 0)
        ref = np.where(dup, -1, kind)
        if not target:
            covered[g][ref[ref >= 0]] = True
        if cid.startswith("job-output"):
            ref = np.r_[ref, _MARKER_KIND, _AFTER_MARKER_KIND]
            kind = np.r_[kind, _MARKER_KIND, _AFTER_MARKER_KIND]
        m = len(kind)
        conv_ids.append(np.full(m, cid, dtype=object))
        kinds.append(kind)
        tpl_refs.append(ref)
        groups.append(np.full(m, g))
        splits.append(np.full(m, split, dtype=object))
        turn_idx.append(np.arange(1, m + 1, dtype=np.int32))
    kind = np.concatenate(kinds)
    ref = np.concatenate(tpl_refs)
    group = np.concatenate(groups)
    n_rows = len(kind)

    compiled = [[_compile(t) for t in tpls] for tpls in group_tpl]
    planted = {**{_ANOMALY_KIND0 + i: _compile(t) for i, t in enumerate(ANOMALY_TEMPLATES)},
               **{_TB_KIND0 + j: _compile(t) for j, t in enumerate(TRACEBACK)},
               _MARKER_KIND: ([MARKER], []), _AFTER_MARKER_KIND: ([AFTER_MARKER], [])}
    row_tpls = [None if r == -1 else (compiled[g][r] if r >= 0 else planted[r])
                for r, g in zip(ref.tolist(), group.tolist())]
    need = dict.fromkeys(_FIELDS, 0)
    for t in row_tpls:
        if t is not None:
            for f in t[1]:
                need[f] += 1
    pools = _field_pools(rng, need)
    texts: list[str] = []
    for t in row_tpls:
        if t is None:
            texts.append(texts[-1])
            continue
        lits, fields = t
        parts = [lits[0]]
        for f, lit in zip(fields, lits[1:]):
            parts.append(pools[f]())
            parts.append(lit)
        texts.append("".join(parts))

    conv_col = np.concatenate(conv_ids)
    starts = np.flatnonzero(np.r_[True, conv_col[1:] != conv_col[:-1]])
    steps = rng.integers(100, 4000, size=n_rows)
    conv_t0 = BASE_EPOCH_MS + rng.integers(0, 86_400_000, size=len(starts))
    csum = np.cumsum(steps)
    base = np.repeat(csum[starts] - steps[starts], np.diff(np.r_[starts, n_rows]))
    ts = np.repeat(conv_t0, np.diff(np.r_[starts, n_rows])) + csum - base
    ts_null = rng.random(n_rows) < NULL_TS_RATE
    roles = np.array([r for r, _ in GROUPS], dtype=object)[group]
    tools = np.array([t for _, t in GROUPS], dtype=object)[group]
    table = pa.table(
        {
            "conv_id": pa.array(conv_col, pa.string()),
            "turn_idx": pa.array(np.concatenate(turn_idx), pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array(tools, pa.string()),
            "ts": pa.array(ts, pa.timestamp("ms"), mask=ts_null),
            "split": pa.array(np.concatenate(splits), pa.string()),
        }
    )
    expected = _expected(table, kind)
    if workload == "unsorted":
        perm = np.random.default_rng([seed, k, 2]).permutation(n_rows)
        table = table.take(pa.array(perm))
    return table, expected


def _first_per_kind(conv: np.ndarray, turn: np.ndarray, kind: np.ndarray, kinds) -> list:
    """Rows at the first (conv_id, turn_idx) occurrence of each of ``kinds``,
    in (conv_id, turn_idx) order; rows are already in that order."""
    first: dict[int, int] = {}
    for i in np.flatnonzero(np.isin(kind, list(kinds))).tolist():
        first.setdefault(int(kind[i]), i)
    return [[str(conv[i]), int(turn[i])] for i in sorted(first.values())]


def _expected(table: pa.Table, kind: np.ndarray) -> dict:
    """Expected report anomalies, per-conversation report counts and errors
    anomalies of a sorted input, as (conv_id, turn_idx) lists."""
    target = np.asarray(table.column("split").to_numpy(zero_copy_only=False)) == "target"
    conv = table.column("conv_id").to_numpy(zero_copy_only=False)[target]
    turn = table.column("turn_idx").to_numpy()[target]
    kind = kind[target]
    scored = [k for k in np.unique(kind).tolist() if k < 0 and k not in (_MARKER_KIND, _AFTER_MARKER_KIND)]
    anomalies = _first_per_kind(conv, turn, kind, scored)
    reports: dict[str, int] = {}
    for c, _ in anomalies:
        reports[c] = reports.get(c, 0) + 1
    errors = _first_per_kind(conv, turn, kind, ERROR_KINDS)
    return {"anomalies": anomalies, "reports": reports, "errors": errors,
            "target_turns": int(target.sum())}


def ensure_input(cache_dir: str, workload: str, seed: int, k: int, rows: int) -> tuple[str, dict]:
    """Path of input ``k`` (``<dir>/turns``) and its expected outputs,
    generated once and cached on disk by (workload, seed, k, rows) and
    ``version()``."""
    path = os.path.join(cache_dir, f"{workload}-r{rows}-s{seed}-k{k}-{version()}")
    exp_file = os.path.join(path, "expected.json")
    if not os.path.exists(exp_file):
        table, expected = generate(workload, seed, k, rows)
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        write_turns(table, os.path.join(tmp, "turns"))
        with open(os.path.join(tmp, "expected.json"), "w") as f:
            json.dump(expected, f)
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    with open(exp_file) as f:
        return os.path.join(path, "turns"), json.load(f)


def write_turns(table: pa.Table, path: str) -> None:
    """Parquet part files of at most ``ROWS_PER_FILE`` rows, like the
    program's own synthetic tables."""
    os.makedirs(path, exist_ok=True)
    for i in range(max(1, -(-table.num_rows // ROWS_PER_FILE))):
        pq.write_table(table.slice(i * ROWS_PER_FILE, ROWS_PER_FILE),
                       os.path.join(path, f"part-{i:05d}.parquet"), row_group_size=65_536)
