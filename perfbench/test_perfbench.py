"""Tests of the benchmark's own parts: the seeded generator, its expected
outputs, and the span arithmetic of the traced run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pyarrow.compute as pc
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gen, tracing  # noqa: E402


def _files(path: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(path):
        for n in names:
            full = os.path.join(dirpath, n)
            out[os.path.relpath(full, path)] = Path(full).read_bytes()
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    a, _ = gen.ensure_input(str(tmp_path / "a"), workload, 5, 0, 4000)
    b, _ = gen.ensure_input(str(tmp_path / "b"), workload, 5, 0, 4000)
    c, _ = gen.ensure_input(str(tmp_path / "c"), workload, 6, 0, 4000)
    d, _ = gen.ensure_input(str(tmp_path / "d"), workload, 5, 1, 4000)
    fa = _files(os.path.dirname(a))
    assert fa == _files(os.path.dirname(b))
    assert fa != _files(os.path.dirname(c))
    assert fa != _files(os.path.dirname(d))


def test_unsorted_is_a_permutation_of_transcripts():
    t, et = gen.generate("transcripts", 3, 0, 4000)
    u, eu = gen.generate("unsorted", 3, 0, 4000)
    assert et == eu
    assert u.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]).equals(t)
    assert not u.equals(t)


def test_input_size_does_not_depend_on_seed():
    sizes = {gen.generate("transcripts", s, 0, 6000)[0].num_rows for s in range(4)}
    assert len(sizes) == 1


@pytest.mark.parametrize("workload,seed", [("transcripts", 3), ("wide_vocab", 4), ("unsorted", 5)])
def test_expected_outputs_match_the_sequential_reference(workload, seed):
    """Certifies the planted-output rules of gen.py against tests/_oracle.py."""
    sys.path.insert(0, str(ROOT / "tests"))
    import _oracle

    table, expected = gen.generate(workload, seed, 0, 6000)
    base = table.filter(pc.equal(table["split"], "baseline"))
    target = table.filter(pc.equal(table["split"], "target"))
    anomalies, reports, unknown = _oracle.oracle_report(base, target)
    errors = _oracle.oracle_errors(target)
    assert [[a["conv_id"], a["turn_idx"]] for a in anomalies] == expected["anomalies"]
    assert {r["conv_id"]: r["anomaly_count"] for r in reports} == expected["reports"]
    assert [[a["conv_id"], a["turn_idx"]] for a in errors] == expected["errors"]
    assert unknown == []
    assert target.num_rows == expected["target_turns"]


def _span(name, t0, t1, pid=1):
    return [name, pid, t0, t1, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0, 10),
        _span("b", 2, 5, pid=2),  # another process nests too
        _span("d", 3, 4, pid=2),
        _span("c", 6, 8),
        _span("e", 11, 12),
    ]
    timed, covered = tracing.self_times(spans, 0, 14)
    selfs = {s[0]: d for s, d in timed}
    assert selfs == {"a": 5, "b": 2, "d": 1, "c": 2, "e": 1}
    assert covered == 11
    assert sum(selfs.values()) == covered


def test_spans_are_clipped_to_the_window_and_leftover_fills_it():
    spans = [_span("tokenize", 5_000_000_000, 8_000_000_000),
             _span("distances", 6_000_000_000, 7_000_000_000),
             _span("prepare", 9_000_000_000, 12_000_000_000)]
    ph = tracing.phase_breakdown(spans, 4_000_000_000, 10_000_000_000)
    assert ph["wall_s"] == 6.0
    assert ph["layers"] == {"tokenize": 2.0, "score": 1.0, "train.prepare": 1.0}
    assert ph["other_s"] == 2.0
    assert sum(ph["layers"].values()) + ph["other_s"] == ph["wall_s"]


def test_tracer_flushes_spans_when_the_outermost_call_ends(tmp_path):
    path = tmp_path / "spans-1.jsonl"
    tracer = tracing.Tracer(str(path))
    inner = tracer.wrap("inner", lambda x: x + 1, after=lambda args, out, st: {"n": out})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    spans = tracing.read_spans(str(tmp_path))
    assert [s[0] for s in spans] == ["inner", "outer"]
    assert spans[0][4] == {"n": 2}
    assert spans[1][2] <= spans[0][2] <= spans[0][3] <= spans[1][3]
    assert tracer.spans == []
