"""Self-tests of the benchmark's own arithmetic and workload generator.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import harness
import workloads
from spans import Span, Tracer, self_time
from stats import (
    alert_latencies,
    compare_predictions,
    due_offsets,
    predictions_digest,
    quantile,
    summarize,
    tail_percentile,
    unflagged_failures,
)

ROOT = Path(__file__).resolve().parent.parent
Pred = namedtuple("Pred", "node chain_id flagged_at prediction_time "
                          "matched_tokens")


def _digests(directory: Path) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in (workloads.LOG, workloads.BUNDLE, workloads.TRUTH)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_workload_bytes(tmp_path, workload):
    scale = 0.05
    first = workloads.ensure(ROOT, tmp_path / "a", workload, 5, scale)
    again = workloads.ensure(ROOT, tmp_path / "b", workload, 5, scale)
    other = workloads.ensure(ROOT, tmp_path / "c", workload, 6, scale)
    assert _digests(first) == _digests(again)
    assert (_digests(first)[workloads.LOG]
            != _digests(other)[workloads.LOG])
    # A second ensure reuses the cached files instead of regenerating.
    assert workloads.ensure(ROOT, tmp_path / "a", workload, 5, scale) == first


def test_latency_arithmetic_on_synthetic_timeline():
    segments = [(10, 10.0), (20, 100.0)]
    t0 = 100.0
    due = due_offsets(segments)
    assert len(due) == 30
    assert due[3] == pytest.approx(0.3)
    assert due[15] == pytest.approx(1.05)
    completing = {("a", 1.0): 3, ("b", 2.0): 15, ("c", 3.0): 29}
    seen = {("a", 1.0): 100.35, ("b", 2.0): 101.25, ("z", 9.0): 1e9}
    per_segment, missing = alert_latencies(t0, segments, completing, seen)
    assert per_segment[0] == pytest.approx([0.05])
    assert per_segment[1] == pytest.approx([0.2])
    assert missing == [("c", 3.0)]
    # The last line of a segment belongs to it, the next to the next.
    edge = {("d", 4.0): 9, ("e", 5.0): 10}
    per_segment, _ = alert_latencies(
        t0, segments, edge, {("d", 4.0): 101.0, ("e", 5.0): 101.0})
    assert per_segment == [pytest.approx([0.1]), pytest.approx([0.0])]
    with pytest.raises(IndexError):
        alert_latencies(t0, segments, {("f", 6.0): 30}, {("f", 6.0): 0.0})


def test_summary_reports_tail_with_ten_samples_beyond():
    xs = list(range(1, 201))
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(19) is None
    s = summarize(xs)
    assert (s["median"], s["tail_p"], s["tail"], s["n"]) == (100.5, 95.0,
                                                             190, 200)
    assert summarize(xs, higher_is_better=True)["tail"] == 10
    assert quantile([3, 1, 2], 0.5) == 2


def test_span_self_time_with_overlapping_children():
    # Children [1,4] and [3,6] overlap; [8,12] runs past the parent.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) \
        == pytest.approx(3.0)
    # Spans from concurrent work (threads, worker processes) can
    # overlap under one parent; the union is subtracted once.
    tr = Tracer(run="t")
    tr.spans = [Span(0, "root", 0.0, 10.0, None, "t"),
                Span(1, "a", 1.0, 4.0, 0, "t"),
                Span(2, "b", 3.0, 6.0, 0, "t"),
                Span(3, "c", 4.0, 5.0, 2, "t")]
    selfs = tr.self_times()
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert tr.self_by_name()["c"] == pytest.approx(1.0)
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.end >= inner.end


def test_gate_catches_injected_prediction_mismatch():
    reference = [Pred("n1", "FC_a", 10.0, 0.0, (1, 2)),
                 Pred("n2", "FC_b", 20.0, 0.0, (3, 4))]
    gate = harness.Gate()
    assert gate.predictions("same, reordered", reference,
                            list(reversed(reference)))
    assert gate.failed == 0
    wrong = [reference[0], reference[1]._replace(flagged_at=20.5)]
    assert not gate.predictions("shifted", reference, wrong)
    assert gate.failed == 2 and len(gate.notes) == 1
    missing, extra = compare_predictions(reference, reference[:1])
    assert len(missing) == 1 and not extra
    # Runs in another process are gated on a digest of the same keys.
    assert predictions_digest(reversed(reference)) \
        == predictions_digest(reference)
    assert predictions_digest(wrong) != predictions_digest(reference)


def test_unflagged_failures_skips_chains_beyond_the_timeout():
    injections = [
        {"kind": "detectable", "node": "n1", "chain": "FC_a",
         "phrase_times": [0.0, 5.0, 10.0]},
        {"kind": "detectable", "node": "n2", "chain": "FC_a",
         "phrase_times": [0.0, 500.0]},  # gap beyond the timeout
        {"kind": "novel", "node": "n3", "chain": "FC_x",
         "phrase_times": [0.0, 1.0]},
    ]
    assert unflagged_failures([Pred("n1", "FC_a", 10.0, 0.0, ())],
                              injections, timeout=240.0) == []
    assert unflagged_failures([], injections, timeout=240.0) \
        == injections[:1]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the child subreaper is Linux-only")
def test_run_reaps_orphaned_descendants():
    # A grandchild orphaned by its parent, as the multiprocessing
    # resource tracker is when the benchmark exits, must be reaped.
    script = (
        "import subprocess, run\n"
        "run.become_subreaper()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'], check=True)\n"
        "assert run.children(), 'the orphan was not reparented'\n"
        "run.reap(0.2)\n"
        "assert not run.children()\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=30,
                   cwd=Path(__file__).resolve().parent)
