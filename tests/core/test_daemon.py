"""Live-ingest daemon drills (``repro.core.daemon``).

The acceptance drill for the sharded daemon: stream a corrupted log
over TCP, ``kill -9`` a worker mid-stream, and prove the service is
*transparent* — predictions identical to the batch
:class:`~repro.core.parallel.ParallelFleet` on the same lines, the
ingest funnel identity intact across the takeover, the outage visible
(and then resolved) on ``/healthz`` and the ``aarohi_daemon_*``
series.

The stream drills run on every scan backend, fed the way a messy
forwarder sends: CRLF endings, blank lines, invalid UTF-8 inside a node
field and a final record with no newline.  Without a C compiler the
``native`` leg degrades to ``bytes`` and must still match the batch
reference.

Everything here is numpy-free: the bundle is the handmade two-chain
fixture from the state-handoff tests, so the drills also run on the
no-numpy CI leg.  Run just these with ``pytest -m daemon``.
"""

import json
import os
import signal
import socket
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ChainSet, FailureChain, LogEvent, ParallelFleet
from repro.core.daemon import FleetDaemon, _RecordSplitter
from repro.core.events import Severity
from repro.core.parallel import (
    _memo_shard,
    record_shard,
    route_key,
    shard_of,
)
from repro.native import native_available
from repro.obs import Observability, ObsServer
from repro.obs.names import (
    INGEST_DECODED,
    INGEST_LINES_READ,
    INGEST_QUARANTINED,
)
from repro.persistence import PredictorBundle
from repro.templates import TemplateStore

pytestmark = pytest.mark.daemon

BACKENDS = ("str", "bytes", "native")

# A node whose field goes over the wire as invalid UTF-8: the lines are
# built with the placeholder name, which the wire encoding swaps for
# the raw bytes and the batch reference for their replace-decoding.
PLACEHOLDER = "nodeQQ"
BAD_NODE = b"n\xffbad"

CHAIN_TOKENS = {
    "FC1": (176, 177, 178, 179, 180, 137),
    "FC5": (172, 177, 178, 193, 137),
}
WORDS = {
    176: "alpha x", 177: "bravo x", 178: "charlie x", 179: "delta x",
    180: "echo x", 137: "foxtrot x", 172: "golf x", 193: "hotel x",
}


def make_bundle() -> PredictorBundle:
    chains = ChainSet([
        FailureChain(cid, toks) for cid, toks in CHAIN_TOKENS.items()
    ])
    store = TemplateStore()
    for pattern, severity, token in [
        ("alpha *", Severity.ERRONEOUS, 176),
        ("bravo *", Severity.UNKNOWN, 177),
        ("charlie *", Severity.UNKNOWN, 178),
        ("delta *", Severity.UNKNOWN, 179),
        ("echo *", Severity.ERRONEOUS, 180),
        ("foxtrot *", Severity.ERRONEOUS, 137),
        ("golf *", Severity.ERRONEOUS, 172),
        ("hotel *", Severity.UNKNOWN, 193),
    ]:
        store.add(pattern, severity, token=token)
    return PredictorBundle(store=store, chains=chains, timeout=120.0)


def make_lines(nodes, reps=2, t0=1000.0, dt=0.25):
    """Interleaved FC5 walks for every node — ``reps`` completions per
    node, so expected predictions = ``len(nodes) * reps``."""
    lines = []
    t = t0
    for _ in range(reps):
        for tok in CHAIN_TOKENS["FC5"]:
            for node in nodes:
                lines.append(
                    LogEvent(time=t, node=node, message=WORDS[tok]).to_line())
                t += dt
    return lines


def dirty_wire(lines):
    """Encode ``lines`` as a messy forwarder sends them: CRLF after
    every other record, blank lines (bare and CRLF) every few records,
    the placeholder node as invalid UTF-8, and no newline after the
    last record.  Returns the wire bytes and the lines the batch
    reference must see."""
    out = []
    for i, line in enumerate(lines):
        out.append(line.encode().replace(PLACEHOLDER.encode(), BAD_NODE))
        out.append(b"\r\n" if i % 2 else b"\n")
        if i % 5 == 0:
            out.append(b"\r\n" if i % 10 else b"\n")
    wire = b"".join(out).rstrip(b"\r\n")
    decoded = BAD_NODE.decode("utf-8", "replace")
    return wire, [line.replace(PLACEHOLDER, decoded) for line in lines]


def resolved(backend):
    """The backend a daemon asked for ``backend`` runs: ``native``
    degrades to ``bytes`` without a C compiler."""
    if backend == "native" and not native_available():
        return "bytes"
    return backend


def counter_total(snapshot, name):
    family = snapshot.get(name, {"series": []})
    return sum(entry["value"] for entry in family["series"])


def batch_predictions(bundle, lines):
    """The batch ground truth the daemon must reproduce byte-for-byte."""
    fleet = ParallelFleet(bundle, n_workers=2, chunk_lines=16)
    try:
        predictions = fleet.run_lines(list(lines))
    finally:
        fleet.close()
    return pred_keys(predictions)


def pred_keys(predictions):
    return sorted(
        (p.node, p.chain_id, p.flagged_at, p.matched_tokens)
        for p in predictions
    )


def send_all(addr, payload: bytes, chunk=997):
    """Stream a payload in deliberately unaligned chunks, so record
    boundaries land mid-``recv`` like real socket traffic."""
    with socket.create_connection(addr) as sock:
        for i in range(0, len(payload), chunk):
            sock.sendall(payload[i:i + chunk])


def wait_lines(daemon, n, timeout=30.0):
    """Poll until the daemon has accepted ``n`` lines (socket delivery
    is asynchronous; stop() must not race the reader threads)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if daemon.status()["lines_received"] >= n:
            return True
        time.sleep(0.005)
    return False


def http_get(url, timeout=5.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", "replace")


class TestKillMinus9Drill:
    """The headline drill: TCP stream + corruption + worker murder."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_equals_batch_across_takeover(self, backend):
        bundle = make_bundle()
        nodes = [f"node{i:02d}" for i in range(7)] + [PLACEHOLDER]
        lines = make_lines(nodes, reps=2)
        # Corruption mid-stream: a truncated header and invalid UTF-8.
        lines.insert(7, "truncated line")
        raw_garbage = b"\xfe\xff garbled \x00 record"
        n_shards = 2
        # The drill's stream is deliberately dirty (2 junk lines); a
        # 10% quarantine SLO keeps that gate green so the /healthz dip
        # below isolates the *shard* outage.
        obs = Observability(quarantine_slo=0.10)
        daemon = FleetDaemon(
            bundle, n_shards=n_shards, chunk_lines=8,
            poll_interval=0.02, obs=obs, scan_backend=backend,
        ).start()
        assert daemon.scan_backend == resolved(backend)
        try:
            assert daemon.wait_ready(30.0)
            addr = daemon.listen_tcp()
            with ObsServer(obs) as server:
                status, body = http_get(server.url("/healthz"))
                assert status == 200, body
                assert '"daemon"' in body

                # Phase 1: every node walks 3 of FC5's 5 phrases, so
                # every shard holds mid-chain state when the axe falls.
                boundary = 3 * len(nodes) + 1  # +1: the inserted junk
                head, head_lines = dirty_wire(lines[:boundary])
                # The garbage is the connection's last record, sent
                # without a newline: it ships when the sender closes.
                send_all(addr, head + b"\r\n\n" + raw_garbage)
                assert wait_lines(daemon, boundary + 1)
                assert daemon.drain(30.0)
                before = daemon.status()
                assert before["ok"] and before["up"] == n_shards

                pid = daemon.worker_pid(0)
                os.kill(pid, signal.SIGKILL)

                # The outage must be *visible*: /healthz dips to 503
                # while the replacement boots...
                deadline = time.monotonic() + 30.0
                dipped = False
                while time.monotonic() < deadline:
                    status, body = http_get(server.url("/healthz"))
                    if status == 503:
                        dipped = True
                        break
                    time.sleep(0.005)
                assert dipped, "healthz never reported the dead shard"
                # ...and recover once the handoff completes.
                deadline = time.monotonic() + 30.0
                recovered = False
                while time.monotonic() < deadline:
                    status, body = http_get(server.url("/healthz"))
                    if status == 200:
                        recovered = True
                        break
                    time.sleep(0.01)
                assert recovered, "healthz never recovered after takeover"

                # Phase 2: the rest of the stream over a fresh
                # connection, through the replacement worker.
                tail, tail_lines = dirty_wire(lines[boundary:])
                send_all(addr, tail)
                assert wait_lines(daemon, len(lines) + 1)
                report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)

        assert report.drained
        # Byte-identical predictions: daemon-over-TCP == batch fleet on
        # the same decoded lines (replace-decoded, like the workers).
        expected_lines = (
            head_lines + [raw_garbage.decode("utf-8", "replace")]
            + tail_lines)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, expected_lines)
        assert len(report.predictions) == len(nodes) * 2
        # The invalid-UTF-8 node walked its chains like any other.
        bad = BAD_NODE.decode("utf-8", "replace")
        assert sum(p.node == bad for p in report.predictions) == 2

        # Funnel identity holds across the takeover: every line the
        # daemon accepted was either decoded or quarantined.
        ingest = report.ingest
        assert ingest.lines_read == len(expected_lines)
        assert ingest.decoded + ingest.quarantined == ingest.lines_read
        assert ingest.quarantined == 2

        # The handoff restored in-flight chains (every phase-1 node was
        # mid-chain) and the whole episode is on the metrics plane.
        status = daemon.status()
        assert status["worker_deaths"] == 1
        assert status["handoffs"] == 1
        assert status["chains_restored"] >= 1
        text = obs.prometheus()
        assert "aarohi_daemon_worker_deaths_total 1" in text
        assert "aarohi_daemon_handoffs_total 1" in text
        assert "aarohi_daemon_shards_up 2" in text


class TestConcurrentConnections:
    def test_parallel_senders_lose_nothing(self):
        """More forwarders than cores, each on its own connection and
        its own nodes, with a short thread switch interval: every
        record is counted once and predictions match the batch run.  A
        lost update in the shared routing buffers would break both."""
        bundle = make_bundle()
        groups = [[f"c{k}n{i}" for i in range(3)] for k in range(6)]
        streams = [make_lines(nodes, reps=2) for nodes in groups]
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
        ).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert daemon.wait_ready(30.0)
            addr = daemon.listen_tcp()
            senders = [
                threading.Thread(
                    target=send_all,
                    args=(addr, ("\n".join(lines) + "\n").encode(), 61))
                for lines in streams
            ]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(timeout=30.0)
                assert not sender.is_alive()
            total = sum(map(len, streams))
            assert wait_lines(daemon, total)
            report = daemon.stop(drain=True)
        finally:
            sys.setswitchinterval(interval)
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        assert daemon.status()["lines_received"] == total
        assert report.ingest.lines_read == total
        # Node sets are disjoint, so one batch run over the streams
        # back to back keeps every node's order.
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, [line for lines in streams for line in lines])


class TestBackpressure:
    def test_high_water_stalls_ingest_and_bounds_memory(self):
        bundle = make_bundle()
        daemon = FleetDaemon(
            bundle, n_shards=1, chunk_lines=1, window=1,
            high_water_chunks=2, poll_interval=0.02, throttle_s=0.05,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            lines = make_lines(["node00", "node01"], reps=2)
            max_pending = 0
            for line in lines:
                daemon.submit(line)
                max_pending = max(max_pending, daemon.pending_chunks())
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        status = daemon.status()
        # The slow worker pushed back on the submitter...
        assert status["backpressure_stalls"] >= 1
        # ...and the queue never grew past the high-water mark.
        assert max_pending <= 2
        # Slow, not wrong: nothing was dropped.
        assert status["lines_received"] == len(lines)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)


class TestUnixSocket:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unix_stream_matches_batch(self, tmp_path, backend):
        bundle = make_bundle()
        wire, lines = dirty_wire(
            make_lines([f"n{i}" for i in range(3)] + [PLACEHOLDER], reps=1))
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            scan_backend=backend,
        ).start()
        assert daemon.scan_backend == resolved(backend)
        try:
            assert daemon.wait_ready(30.0)
            path = daemon.listen_unix(tmp_path / "aarohi.sock")
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(path)
                sock.sendall(wire)
            assert wait_lines(daemon, len(lines))
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert not os.path.exists(path)  # cleaned up on stop


class TestTailRotation:
    def test_tail_survives_logrotate(self, tmp_path):
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(4)], reps=1)
        half = len(lines) // 2
        target = tmp_path / "cluster.log"
        target.write_text("\n".join(lines[:half]) + "\n")
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            daemon.tail_file(target, poll=0.02)
            deadline = time.monotonic() + 30.0
            while (daemon.status()["lines_received"] < half
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            # logrotate: rename the live file away, recreate the name.
            target.rename(tmp_path / "cluster.log.1")
            target.write_text("\n".join(lines[half:]) + "\n")
            deadline = time.monotonic() + 30.0
            while (daemon.status()["lines_received"] < len(lines)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        status = daemon.status()
        assert status["tail_rotations"] == 1
        assert status["lines_received"] == len(lines)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)


class TestReorderRepair:
    def test_connection_sort_buffer_repairs_skew(self):
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(4)], reps=1, dt=1.0)
        # Adjacent-swap skew: displacement of one record (1 s), well
        # inside the 10 s horizon.
        skewed = lines[:]
        for i in range(0, len(skewed) - 1, 2):
            skewed[i], skewed[i + 1] = skewed[i + 1], skewed[i]
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            reorder_horizon=10.0,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            addr = daemon.listen_tcp()
            send_all(addr, ("\n".join(skewed) + "\n").encode())
            assert wait_lines(daemon, len(skewed))
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        # The buffer restored time order, so predictions match a batch
        # run over the *clean* stream — and the repairs were counted.
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert report.ingest.reordered > 0


class TestDaemonValidation:
    def test_rejects_bad_configuration(self):
        bundle = make_bundle()
        with pytest.raises(ValueError, match="shard"):
            FleetDaemon(bundle, n_shards=0)
        with pytest.raises(ValueError, match="high_water"):
            FleetDaemon(bundle, window=8, high_water_chunks=2)
        with pytest.raises(ValueError, match="on_error"):
            FleetDaemon(bundle, on_error="explode")

    def test_rejects_strict_policy(self):
        """A strict worker dies on the first malformed record and its
        replacement replays the same chunk into the same death, so a
        live service cannot run under strict."""
        with pytest.raises(ValueError, match="strict"):
            FleetDaemon(make_bundle(), on_error="strict")

    def test_status_is_json_serializable(self):
        bundle = make_bundle()
        daemon = FleetDaemon(bundle, n_shards=1, poll_interval=0.02).start()
        try:
            assert daemon.wait_ready(30.0)
            payload = json.dumps(daemon.status())
            assert '"ok": true' in payload
        finally:
            daemon.stop(drain=False)


# Raw records built from fragments that stress the router: spaces (the
# field separator), invalid and truncated UTF-8, valid multi-byte text,
# CR bytes and arbitrary binary.
RECORD_FRAGMENTS = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([
        b" ", b"  ", b"\xff", b"\xe2\x82", b"\xf0\x9f\x98", b"\xc3\xa9",
        b"\r", b"node07",
    ]),
)
RAW_RECORDS = st.lists(RECORD_FRAGMENTS, max_size=12).map(
    lambda parts: b"".join(parts).replace(b"\n", b""))


class TestByteRouting:
    @given(RAW_RECORDS, st.integers(1, 5))
    def test_byte_router_matches_decoded_routing(self, raw, n_shards):
        """Every raw record lands on the shard its replace-decoded line
        routes to, so stream and batch shard identically."""
        line = raw.decode("utf-8", "replace")
        assert record_shard(raw, n_shards) == shard_of(
            route_key(line), n_shards)

    def test_long_keys_bypass_the_memo(self):
        """Oversized node fields and the whole-line key of a malformed
        record are hashed on every call rather than memoized, yet route
        exactly as their decoded text does."""
        records = [
            b"2020-01-01T00:00:00 " + b"x" * 1000 + b" msg",
            b"no-spaces-at-all-" * 40,
            b"\xff" + b"garbage-" * (1 << 17),
        ]
        memoized = _memo_shard.cache_info().currsize
        for raw in records:
            line = raw.decode("utf-8", "replace")
            assert record_shard(raw, 3) == shard_of(route_key(line), 3)
            shard_of(line, 3)
        assert _memo_shard.cache_info().currsize == memoized


class TestRecordFraming:
    @given(st.binary(max_size=200).map(lambda raw: raw.replace(b"x", b"\n")),
           st.lists(st.integers(0, 200), max_size=8))
    def test_reads_reassemble_the_stream(self, stream, cuts):
        """However a stream is cut into reads, the splitter yields the
        records a single split of the whole stream gives, and holds the
        unterminated rest."""
        splitter = _RecordSplitter()
        bounds = [0, *sorted(cuts), len(stream)]
        records = []
        for lo, hi in zip(bounds, bounds[1:]):
            records.extend(splitter.feed(stream[lo:hi]))
        *whole, rest = stream.split(b"\n")
        assert records == whole
        assert splitter.rest() == rest


class TestIngestCountedOnce:
    """Workers ship each chunk's ingest funnel with its result and the
    parent folds it in once: every line appears once in the summed
    ``aarohi_ingest_*`` series and once in ``obs.ingest``."""

    def corrupted(self):
        lines = make_lines([f"n{i}" for i in range(4)], reps=1)
        lines.insert(3, "truncated line")
        lines.insert(9, "not-a-time node07 golf x")
        return lines

    def assert_counted_once(self, obs, ingest):
        snap = obs.registry.snapshot()
        assert counter_total(snap, INGEST_LINES_READ) == ingest.lines_read
        assert (counter_total(snap, INGEST_DECODED)
                + counter_total(snap, INGEST_QUARANTINED)
                == ingest.lines_read)
        assert counter_total(snap, INGEST_QUARANTINED) == 2
        assert obs.ingest.lines_read == ingest.lines_read
        assert ingest.funnel_ok

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_daemon_counts_each_line_once(self, backend):
        lines = self.corrupted()
        obs = Observability(quarantine_slo=0.5)
        daemon = FleetDaemon(
            make_bundle(), n_shards=2, chunk_lines=4, poll_interval=0.02,
            obs=obs, scan_backend=backend,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            for line in lines:
                daemon.submit(line)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        assert report.ingest.lines_read == len(lines)
        self.assert_counted_once(obs, report.ingest)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_fleet_counts_each_line_once(self, backend):
        lines = self.corrupted()
        obs = Observability(quarantine_slo=0.5)
        with ParallelFleet(make_bundle(), n_workers=2, chunk_lines=4,
                           obs=obs, scan_backend=backend) as fleet:
            fleet.run_lines(lines)
        assert fleet.ingest.lines_read == len(lines)
        self.assert_counted_once(obs, fleet.ingest)
