"""Tests for the multiprocess sharded fleet."""

import pytest

from repro.core import PredictorFleet, pair_predictions
from repro.core.events import LogEvent
from repro.core.parallel import (
    ParallelFleet,
    partition_events,
    route_key,
    shard_of,
)
from repro.logsim import ClusterLogGenerator, HPC3
from repro.persistence import PredictorBundle


@pytest.fixture(scope="module")
def gen():
    return ClusterLogGenerator(HPC3, seed=61)


@pytest.fixture(scope="module")
def bundle(gen):
    return PredictorBundle(
        store=gen.store, chains=gen.chains,
        timeout=gen.recommended_timeout, system="HPC3")


@pytest.fixture(scope="module")
def window(gen):
    return gen.generate_window(
        duration=3600.0, n_nodes=24, n_failures=8, n_spurious=0)


class TestSharding:
    def test_shard_of_stable(self):
        assert shard_of("c0-0c2s0n2", 8) == shard_of("c0-0c2s0n2", 8)

    def test_shard_in_range(self):
        for i in range(50):
            assert 0 <= shard_of(f"c{i}-0c0s0n0", 7) < 7

    def test_route_key(self):
        line = LogEvent(12.5, "c0-0c1s2n3", "link failed x y").to_line()
        assert route_key(line) == "c0-0c1s2n3"
        # Truncated (inside the stamp, or after the node field),
        # garbled or empty: the whole line is the key, so it always
        # lands on — and is quarantined by — one worker.
        truncated = " ".join(line.split(" ")[:2])
        for bad in (line[:20], truncated, "garbled\x00line", "\ufffd", ""):
            assert route_key(bad) == bad

    def test_partition_preserves_order_and_coverage(self, window):
        shards = partition_events(window.events, 4)
        assert sum(len(s) for s in shards) == len(window.events)
        for shard in shards:
            times = [e.time for e in shard]
            assert times == sorted(times)
        # A node's events all land in one shard.
        for shard_idx, shard in enumerate(shards):
            for event in shard:
                assert shard_of(event.node, 4) == shard_idx


class TestParallelFleet:
    def test_matches_serial_fleet(self, gen, bundle, window):
        serial = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout)
        serial_preds = serial.run(window.events).predictions
        with ParallelFleet(bundle, n_workers=3) as parallel:
            parallel_preds = parallel.run(window.events)
        key = lambda p: (p.node, p.chain_id, round(p.flagged_at, 6))
        assert sorted(map(key, serial_preds)) == sorted(map(key, parallel_preds))

    def test_predictions_pair_with_failures(self, bundle, window):
        with ParallelFleet(bundle, n_workers=2) as parallel:
            predictions = parallel.run(window.events)
        pairing = pair_predictions(predictions, window.failures)
        detectable = sum(
            1 for i in window.injections if i.kind == "detectable")
        assert pairing.true_positives == detectable

    def test_reusable_across_windows(self, gen, bundle):
        w1 = gen.generate_window(duration=900.0, n_nodes=8, n_failures=2,
                                 n_spurious=0)
        w2 = gen.generate_window(duration=900.0, n_nodes=8, n_failures=2,
                                 n_spurious=0)
        with ParallelFleet(bundle, n_workers=2) as parallel:
            p1 = parallel.run(w1.events)
            p2 = parallel.run(w2.events)
        assert len(p1) >= 1 and len(p2) >= 1

    def test_invalid_workers(self, bundle):
        with pytest.raises(ValueError):
            ParallelFleet(bundle, n_workers=0)
