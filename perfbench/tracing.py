"""Spans around the program's layer entry points, taken from outside.

Nothing under ``logjuicer_ray/`` is edited.  ``install_worker`` runs in
every Ray worker (``runtime_env={"worker_process_setup_hook": ...}``) and
``install_driver`` in the benchmark's own process; each replaces a layer's
entry point with a wrapper that records a span ``(name, pid, start_ns,
end_ns, counts)``.

Where a wrapper goes decides what it sees:

- Ray Data UDFs (``tokenize_batch``, ``score_batch``, ``_prepare_batch``,
  ``_build_partial``, ``_merge_group``) are pickled by reference on the
  driver and looked up by module attribute in the worker, so the worker's
  module attribute is replaced.  The driver's must stay the original, or
  cloudpickle would ship the function by value.
- Functions called through another module's globals are replaced in that
  module (``stages.score.distances``, ``stages.context.scan_conversation``).
- The scan classes are instantiated on the driver and pickled by reference
  to their class, so their ``__call__`` is replaced on the class itself.

Workers append their spans to ``<trace dir>/spans-<pid>.jsonl`` each time a
top-level span ends, before the task returns; the driver keeps its spans in
memory.  All times are ``CLOCK_MONOTONIC``, which every process shares.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# span name -> layer
LAYERS = {
    "tokenize": "tokenize",
    "score_batch": "score",
    "score_table": "score",
    "build_index": "score",
    "distances": "score",
    "prepare": "train.prepare",
    "build_partial": "train.build",
    "merge_group": "train.merge",
    "train.unpickle": "train.driver",
    "scan.block": "scan",
    "scan.conv": "scan",
    "scan.python": "scan",
    "errors_scan.block": "errors_scan",
    "errors_scan.conv": "errors_scan",
    "errors_scan.python": "errors_scan",
    "report.collect": "report.collect",
    "report.repair": "report.repair",
    "report.finish": "report.finish",
}


class Tracer:
    """Span recorder for one process.  ``path`` set: spans are appended to
    that file whenever the outermost span of a thread ends."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, *, before=None, after=None):
        """``fn`` recording a span per call.  ``name`` is a string or a
        function of the call's arguments; ``before(args)`` runs before the
        clock starts and ``after(args, result, state)`` after it stops, and
        returns the span's counts."""
        pid = os.getpid()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            local.depth = getattr(local, "depth", 0) + 1
            state = before(args) if before else None
            t0 = time.monotonic_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic_ns()
                local.depth -= 1
            span_name = name(args) if callable(name) else name
            counts = after(args, out, state) if after else None
            with self._lock:
                self.spans.append([span_name, pid, t0, t1, counts])
            if local.depth == 0 and self.path:
                self.flush()
            return out

        return traced

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            with open(self.path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


def _tokenize_state(args):
    from logjuicer_ray.stages import tokenize

    live = tokenize._token_cache.live
    return id(live), len(live)


def _tokenize_counts(args, out, state):
    from logjuicer_ray.stages import tokenize

    cache = tokenize._token_cache
    live_id, live_before = state
    if id(cache.live) == live_id:
        new = len(cache.live) - live_before
    else:  # the cache rotated its generations during the call
        new = cache.max_entries - live_before + len(cache.live)
    tokens = out.column("tokens")
    unique = sum(len(c.dictionary) for c in tokens.chunks)
    return {"rows": out.num_rows, "unique": unique, "new_cache": new}


def _distances_counts(args, out, state):
    from logjuicer_ray.vectorize import CHUNK_SIZE  # the GEMM tile of distances()

    baselines, targets = args[0], args[1]
    nt = targets.nrows
    nb = 0 if baselines is None else baselines.nrows
    return {"unique": nt, "pairs": nt * nb,
            "chunks": math.ceil(nt / CHUNK_SIZE) * math.ceil(nb / CHUNK_SIZE)}


def _rows_in_out(args, out, state):
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}


def _index_rows(args, out, state):
    return {"index_rows": int(sum(out.column("rows").to_pylist()))}


def _count_rows(args, out, state):
    return {"rows": out.num_rows}


def _scan_name(args):
    from logjuicer_ray.stages.context import ErrorsScan

    return "errors_scan.block" if isinstance(args[0].inner, ErrorsScan) else "scan.block"


def _fragments(args):
    import pyarrow.compute as pc

    table = args[0]
    frag = table.filter(pc.equal(table.column("row_type"), "fragment"))
    return pc.count_distinct(frag.column("conv_id")).as_py() if frag.num_rows else 0


def _repair_counts(args, out, state):
    import pyarrow.compute as pc

    convs = pc.sum(pc.cast(pc.equal(out.column("row_type"), "counts"), "int64")).as_py()
    return {"fragments": state, "convs": convs or 0}


def _install_scans(tracer: Tracer) -> None:
    from logjuicer_ray.stages import context

    context.scan_conversation = tracer.wrap("scan.python", context.scan_conversation)
    context.scan_errors = tracer.wrap("errors_scan.python", context.scan_errors)
    context.ConversationScan.__call__ = tracer.wrap("scan.conv", context.ConversationScan.__call__)
    context.ErrorsScan.__call__ = tracer.wrap("errors_scan.conv", context.ErrorsScan.__call__)
    context.BlockScan.__call__ = tracer.wrap(_scan_name, context.BlockScan.__call__,
                                             after=_count_rows)


def install_worker() -> None:
    """Worker-process setup hook: wrap every layer entry point that runs in
    a Ray task."""
    from logjuicer_ray.pipelines import train
    from logjuicer_ray.stages import score, tokenize

    tracer = Tracer(os.path.join(os.environ[TRACE_DIR_ENV], f"spans-{os.getpid()}.jsonl"))
    tokenize.tokenize_batch = tracer.wrap("tokenize", tokenize.tokenize_batch,
                                          before=_tokenize_state, after=_tokenize_counts)
    score.score_batch = tracer.wrap("score_batch", score.score_batch)
    score.score_table = tracer.wrap("score_table", score.score_table, after=_count_rows)
    score.build_index = tracer.wrap("build_index", score.build_index)
    score.distances = tracer.wrap("distances", score.distances, after=_distances_counts)
    train._prepare_batch = tracer.wrap("prepare", train._prepare_batch, after=_rows_in_out)
    train._build_partial = tracer.wrap("build_partial", train._build_partial)
    train._merge_group = tracer.wrap("merge_group", train._merge_group, after=_index_rows)
    _install_scans(tracer)


class _PickleShim:
    """Stand-in for the ``pickle`` module inside ``pipelines.train`` on the
    driver, where ``loads`` only unpickles the collected group indexes."""

    def __init__(self, tracer: Tracer):
        import pickle

        self.dump = pickle.dump
        self.loads = tracer.wrap("train.unpickle", pickle.loads)


def install_driver(tracer: Tracer) -> None:
    """Wrap the layer entry points that run in the driver process."""
    from logjuicer_ray.pipelines import report, train

    report._collect_scan = tracer.wrap("report.collect", report._collect_scan, after=_count_rows)
    report._repair_fragments_table = tracer.wrap(
        "report.repair", report._repair_fragments_table, before=_fragments, after=_repair_counts)
    report._driver_finish = tracer.wrap("report.finish", report._driver_finish)
    train.pickle = _PickleShim(tracer)
    _install_scans(tracer)


def read_spans(trace_dir: str) -> list[list]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f)
    return spans


def self_times(spans: list[list], t0: int, t1: int) -> tuple[list[tuple], int]:
    """Spans clipped to the window ``[t0, t1]`` with their self time: the
    span's duration minus the part its child spans cover.  A child is a span
    that lies wholly inside another; spans of different processes nest too,
    which is right on one core, where only one runs at a time.  Returns
    ``([(span, self_ns), ...], covered_ns)``, where ``covered_ns`` is the
    length of the union of the spans inside the window."""
    inside = []
    for s in spans:
        a, b = max(s[2], t0), min(s[3], t1)
        if b > a:
            inside.append((s, a, b))
    inside.sort(key=lambda x: (x[1], -x[2]))
    selfs = [b - a for _, a, b in inside]
    stack: list[int] = []
    covered = 0
    reach = t0
    for i, (_, a, b) in enumerate(inside):
        while stack and inside[stack[-1]][2] <= a:
            stack.pop()
        if stack and inside[stack[-1]][2] >= b:
            selfs[stack[-1]] -= b - a
        stack.append(i)
        covered += max(0, b - max(a, reach))
        reach = max(reach, b)
    return [(s, d) for (s, _, _), d in zip(inside, selfs)], covered


def phase_breakdown(spans: list[list], t0: int, t1: int) -> dict:
    """Self seconds per layer inside one phase window, the unattributed
    leftover, and the counts of the spans, summed per span name."""
    timed, covered = self_times(spans, t0, t1)
    layers: dict[str, float] = {}
    names: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    calls: dict[str, int] = {}
    for s, d in timed:
        layer = LAYERS.get(s[0], s[0])
        layers[layer] = layers.get(layer, 0.0) + d / 1e9
        names[s[0]] = names.get(s[0], 0.0) + d / 1e9
        calls[s[0]] = calls.get(s[0], 0) + 1
        for k, v in (s[4] or {}).items():
            c = counts.setdefault(s[0], {})
            c[k] = c.get(k, 0) + v
    wall = (t1 - t0) / 1e9
    return {"wall_s": wall, "other_s": wall - covered / 1e9, "layers": layers,
            "names": names, "calls": calls, "counts": counts}
