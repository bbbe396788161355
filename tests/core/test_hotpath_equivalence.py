"""Differential equivalence suite for the batched hot path.

The batched hit loop behind :meth:`PredictorFleet.run` (``timing``
``"sampled"`` / ``"off"``) is a pure performance restructuring of the
per-event reference (``timing="full"``): under a constant clock it must
produce **byte-identical** predictions and stats to the per-event
:meth:`AarohiPredictor.process` loop, for both backends, with and
without timeout pressure, on multi-node interleaved streams with
benign noise.
"""

import itertools

import pytest

from repro.core import ChainSet, FailureChain, LogEvent, PredictorFleet
from repro.core.events import Severity
from repro.core.predictor import PredictorStats
from repro.templates import TemplateStore

ZERO_CLOCK = lambda: 0.0  # noqa: E731 — constant clock: timings byte-compare


@pytest.fixture(scope="module")
def store():
    s = TemplateStore()
    s.add("alpha fault *", Severity.ERRONEOUS, token=301)
    s.add("beta warn *", Severity.UNKNOWN, token=302)
    s.add("gamma err *", Severity.ERRONEOUS, token=303)
    s.add("delta panic *", Severity.ERRONEOUS, token=304)
    s.add("epsilon trap *", Severity.UNKNOWN, token=305)
    return s


@pytest.fixture(scope="module")
def chains():
    return ChainSet([
        FailureChain("FC_x", (301, 302, 303)),
        FailureChain("FC_y", (304, 305)),
    ])


def mixed_stream(n_nodes=4, repeats=6, gap_every=5):
    """Interleaved multi-node stream: chain phrases, benign noise, and
    periodic long gaps that trip small timeouts mid-chain."""
    msgs = [
        "alpha fault a", "benign chatter one", "beta warn b",
        "delta panic d", "unrelated noise xyz", "gamma err c",
        "epsilon trap e", "zeta nothing at all",
    ]
    events = []
    t = 0.0
    for r in range(repeats):
        for i, m in enumerate(msgs):
            node = f"node-{(r + i) % n_nodes}"
            t += 100.0 if (r * len(msgs) + i) % gap_every == 0 else 1.0
            events.append(LogEvent(t, node, m))
    return events


def run_per_event(fleet, events):
    """The reference path: one process() call per event, stream order."""
    out = []
    for event in events:
        prediction = fleet.process(event)
        if prediction is not None:
            out.append(prediction)
    return out


def fleet_stats(fleet):
    return {
        node: (p.stats.lines_seen, p.stats.lines_tokenized,
               p.stats.predictions, p.stats.tokenize_seconds,
               p.stats.feed_seconds)
        for node, p in fleet._predictors.items()
    }


@pytest.mark.parametrize("backend", ["matcher", "lalr"])
@pytest.mark.parametrize("timeout", [100.0, 3.0])
@pytest.mark.parametrize("timing", ["full", "sampled", "off"])
class TestFleetBatchedEquivalence:
    def test_identical_predictions_and_stats(
        self, store, chains, backend, timeout, timing
    ):
        events = mixed_stream()
        reference = PredictorFleet.from_store(
            chains, store, timeout=timeout, backend=backend, clock=ZERO_CLOCK)
        expected = run_per_event(reference, events)

        batched = PredictorFleet.from_store(
            chains, store, timeout=timeout, backend=backend, clock=ZERO_CLOCK)
        report = batched.run(events, timing=timing)

        assert report.predictions == expected  # dataclass eq: every field
        assert fleet_stats(batched) == fleet_stats(reference)
        assert report.lines_seen == len(events)
        assert report.lines_tokenized == sum(
            p.stats.lines_tokenized for p in reference._predictors.values())


def ticking_clock():
    """A clock that advances one unit per read: every timed interval
    costs exactly 1.0, so prediction times count a chain's timed steps
    and any lost or double-counted chain cost shows up."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


@pytest.mark.parametrize("backend", ["matcher", "lalr"])
@pytest.mark.parametrize("timing", ["full", "sampled", "off"])
class TestRunBoundaries:
    def test_split_equals_whole(self, store, chains, backend, timing):
        """Splitting one stream across several run() calls keeps each
        node's mid-chain state (engine position, accumulated chain
        cost) intact: the split runs add up to the single run."""
        # Three nodes with 100 s timeouts: chains complete on one node
        # while periodic gaps time the others out mid-chain.
        events = mixed_stream(n_nodes=3)
        whole = PredictorFleet.from_store(
            chains, store, timeout=100.0, backend=backend,
            clock=ticking_clock())
        expected = whole.run(events, timing=timing)
        assert expected.predictions

        split = PredictorFleet.from_store(
            chains, store, timeout=100.0, backend=backend,
            clock=ticking_clock())
        got = []
        stats = PredictorStats()
        for start in range(0, len(events), 7):
            report = split.run(events[start:start + 7], timing=timing)
            got.extend(report.predictions)
            stats.add(report.stats)
        assert got == expected.predictions
        assert stats == expected.stats
        assert fleet_stats(split) == fleet_stats(whole)
        if timing != "off":
            # The ticking clock makes every timed chain cost positive.
            assert all(p.prediction_time > 0 for p in got)


@pytest.mark.parametrize("timing", ["sampled", "off"])
class TestTokenizerOnlyFleets:
    """A fleet whose scanner has no batched ``scan_hits`` (the naive
    scanner, or a bare tokenizer) takes the same hit loop through a
    per-line adapter, with the same answers as the per-event path."""

    def test_naive_scanner(self, store, chains, timing):
        events = mixed_stream(n_nodes=3)
        reference = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, optimized=False)
        expected = run_per_event(reference, events)
        assert expected
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, optimized=False)
        assert getattr(fleet.scanner, "scan_hits", None) is None
        assert fleet.run(events, timing=timing).predictions == expected
        assert fleet_stats(fleet) == fleet_stats(reference)

    def test_bare_tokenizer(self, store, chains, timing):
        events = mixed_stream(n_nodes=3)
        tokenize = store.compile_scanner(keep=chains.token_set).tokenize
        reference = PredictorFleet(
            chains, tokenize, timeout=100.0, clock=ZERO_CLOCK)
        expected = run_per_event(reference, events)
        assert expected
        fleet = PredictorFleet(chains, tokenize, timeout=100.0, clock=ZERO_CLOCK)
        assert fleet.run(events, timing=timing).predictions == expected
        assert fleet_stats(fleet) == fleet_stats(reference)


class TestTimingModes:
    def test_off_reads_no_clock(self, store, chains):
        reads = []

        def counting_clock():
            reads.append(1)
            return 0.0

        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=counting_clock)
        fleet.run(mixed_stream(), timing="off")
        assert not reads

    def test_sampled_skips_discarded_lines(self, store, chains):
        reads = []

        def counting_clock():
            reads.append(1)
            return 0.0

        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=counting_clock)
        report = fleet.run(mixed_stream(), timing="sampled")
        # Exactly two reads per FC-related phrase, none for discards.
        assert len(reads) == 2 * report.lines_tokenized

    def test_unknown_timing_rejected(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        with pytest.raises(ValueError):
            fleet.run(mixed_stream(), timing="warp")


class TestInstrumentedEquivalence:
    """The counting scanner and obs wiring are pure observers: they must
    not change predictions, and the funnel stages must account for every
    line exactly once."""

    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_instrumented_run_identical(self, store, chains, backend):
        from repro.obs import Observability

        events = mixed_stream()
        plain = PredictorFleet.from_store(
            chains, store, timeout=3.0, backend=backend, clock=ZERO_CLOCK)
        expected = plain.run(events, timing="off")

        obs = Observability()
        wired = PredictorFleet.from_store(
            chains, store, timeout=3.0, backend=backend, clock=ZERO_CLOCK,
            obs=obs)
        report = wired.run(events, timing="off")
        assert report.predictions == expected.predictions
        assert report.stats == expected.stats

    def test_funnel_counters_sum_to_lines_seen(self, store, chains):
        from repro.obs import FUNNEL_STAGES, LINES_SEEN, Observability

        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, obs=obs)
        fleet.run(mixed_stream())
        fleet.run(mixed_stream())  # funnel identity holds cumulatively
        snap = obs.registry.snapshot()

        def total(name):
            return sum(e["value"] for e in snap[name]["series"])

        assert sum(total(name) for name, _ in FUNNEL_STAGES) == total(LINES_SEEN)


class TestRunWindowAccounting:
    def test_second_run_not_double_counted(self, store, chains):
        """Regression: FleetReport summed cumulative per-predictor
        counters, so a second run() re-reported the first window."""
        events = mixed_stream()
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        first = fleet.run(events)
        second = fleet.run(events)
        assert first.lines_seen == len(events)
        assert second.lines_seen == len(events)
        assert second.lines_tokenized == first.lines_tokenized

    def test_mixed_process_and_run_windows(self, store, chains):
        events = mixed_stream()
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        for event in events[:10]:
            fleet.process(event)
        report = fleet.run(events[10:])
        assert report.lines_seen == len(events) - 10
