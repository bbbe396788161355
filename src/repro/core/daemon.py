"""Persistent sharded live-ingest daemon (``aarohi serve``).

Everything before this module is batch-over-files; the daemon is the
deployment shape the paper's HSS aggregation point actually has: a
long-running service that *receives* a cluster's log traffic.  It
accepts newline-delimited records over TCP and unix-socket connections
(one syslog forwarder per connection), tails rotating files, routes
every record to a worker shard by consistent node hash, and keeps
predicting across worker death.

The design deliberately reuses the batch machinery rather than
reinventing it — the drill in ``tests/core/test_daemon.py`` asserts
that a TCP-streamed run produces predictions identical to the
equivalent :class:`~repro.core.parallel.ParallelFleet` batch run, and
that identity only holds because the pieces *are* the same:

* **routing** — the parent never decodes a record.  Each ``recv`` is
  split once and :func:`~repro.core.parallel.record_shard` routes every
  raw record on its node field through the memoized
  :func:`~repro.core.parallel.shard_of`, landing it where
  ``route_key`` + ``shard_of`` — the pair ``ParallelFleet.run_lines``
  uses — put its decoded line.  One ``recv`` takes the daemon lock
  once, and a dispatched chunk is one newline-joined byte blob;
* **workers** — each shard process calls
  :func:`repro.core.parallel._init_worker` /
  :func:`repro.core.parallel._run_chunk` verbatim: the fleet's own
  ``run_lines`` under its ``on_error`` policy (the fused native kernel
  when the backend is ``native``), per-chunk ``IngestStats`` +
  shard-labeled obs registry deltas shipped with every result;
* **reorder repair** — an optional per-connection
  :class:`~repro.logsim.stream.SortBuffer` over the line timestamps
  (each forwarder is near-sorted on its own; the merged stream is
  not, which is exactly the buffer's contract);
* **service plane** — the daemon publishes ``aarohi_daemon_*`` series
  into an :class:`~repro.obs.Observability` and mounts its health and
  expvar blocks through ``add_health_hook``/``add_debug_provider``, so
  the existing :class:`~repro.obs.ObsServer` serves ``/metrics``,
  ``/healthz``, ``/alerts`` and ``/debug/*`` unchanged.

Exactly-once under ``kill -9`` (the handoff protocol):

1. The parent keeps every dispatched chunk in a per-shard *pending*
   map until the worker acks it.  An ack carries the chunk's
   predictions, stats, ingest funnel, obs delta — and a fresh
   :meth:`~repro.core.fleet.PredictorFleet.state_snapshot` (per-node
   chain state, a few scalars per mid-chain node).
2. Chunks are submitted at-least-once, results applied exactly-once:
   an ack from a stale worker generation is dropped, because its
   chunks will be replayed by the replacement.
3. On worker death the supervisor bumps the shard generation, spawns a
   replacement seeded with the **last acked** state snapshot, and
   re-dispatches the pending chunks in sequence order.  The replayed
   stream continues from precisely the state the acked prefix left
   behind, so predictions — and the ingest funnel identity
   ``decoded + quarantined == lines_read`` — are preserved across the
   takeover.

Backpressure is bounded by construction: each shard queues at most
``window`` chunks into its worker and holds at most
``high_water_chunks`` unacked; past the high-water mark
:meth:`FleetDaemon.submit` *stalls the ingest thread* (counted in
``aarohi_daemon_backpressure_stalls_total``), which slows the socket
reads and lets TCP flow control push back on the sender — memory never
grows without bound.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import threading
import time as _time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..logsim.emitter import parse_time_prefix
from ..logsim.stream import ERROR_POLICIES, IngestStats, SortBuffer
from ..obs import (
    DAEMON_BACKPRESSURE_STALLS,
    DAEMON_CHAINS_RESTORED,
    DAEMON_CONNECTIONS_ACTIVE,
    DAEMON_CONNECTIONS_TOTAL,
    DAEMON_HANDOFFS,
    DAEMON_LINES_RECEIVED,
    DAEMON_QUEUE_CHUNKS,
    DAEMON_SHARDS,
    DAEMON_SHARDS_DOWN,
    DAEMON_SHARDS_UP,
    DAEMON_TAIL_ROTATIONS,
    DAEMON_UPTIME_SECONDS,
    DAEMON_WORKER_DEATHS,
    Observability,
)
from .events import Prediction
from .predictor import PredictorStats
from . import parallel as _par


class _TimedRecord(NamedTuple):
    """Timestamp carrier for replaying raw records through a SortBuffer
    (the buffer only ever reads ``.time``)."""

    time: float
    record: bytes


class _RecordSplitter:
    """Newline framing across reads.

    Each read is split once.  The fragments of a record still waiting
    for its newline are kept apart and joined once, when it arrives, so
    a long record costs time linear in its length; re-splitting an
    accumulated buffer on every read made it quadratic."""

    __slots__ = ("_tail",)

    def __init__(self) -> None:
        self._tail: List[bytes] = []

    def feed(self, data: bytes) -> List[bytes]:
        """The records ``data`` completes, in order."""
        records = data.split(b"\n")
        if len(records) == 1:
            self._tail.append(data)
            return []
        if self._tail:
            self._tail.append(records[0])
            records[0] = b"".join(self._tail)
        self._tail = [records.pop()]
        return records

    def rest(self) -> bytes:
        """Take the unterminated last record (possibly empty)."""
        rest = b"".join(self._tail)
        self._tail = []
        return rest


def _daemon_worker_main(
    shard: int,
    work_q,
    result_q,
    bundle_dict: dict,
    scanner_tables: Optional[dict],
    timeout: Optional[float],
    on_error: str,
    scan_backend: str,
    spans_sample: float,
    init_state: Optional[dict],
    throttle_s: float,
) -> None:
    """One shard process: the ParallelFleet chunk machinery in a loop.

    Reuses :func:`repro.core.parallel._init_worker` and
    :func:`repro.core.parallel._run_chunk` verbatim — the daemon's
    workers and the batch workers are the same code, which is what
    makes stream-vs-batch prediction equivalence provable rather than
    aspirational.  On top of that, every ack ships the fleet's current
    state snapshot so the parent always holds a restore point no older
    than the last acked chunk.

    ``throttle_s`` is a drill knob (sleep per chunk) used by the
    backpressure tests to make a worker predictably slow; production
    paths leave it 0.
    """
    _par._init_worker(
        bundle_dict, scanner_tables, timeout, "off", shard, on_error,
        scan_backend, spans_sample)
    restored = 0
    if init_state is not None:
        restored = _par._WORKER_FLEET.restore_state(init_state)
    result_q.put(("up", shard, restored))
    while True:
        item = work_q.get()
        if item is None:
            result_q.put(("bye", shard))
            return
        seq, payload = item
        if throttle_s > 0.0:
            _time.sleep(throttle_s)
        predictions, stats, obs_delta, ingest, _ = _par._run_chunk(payload)
        state = _par._WORKER_FLEET.state_snapshot()
        result_q.put(
            ("ack", shard, seq, predictions, stats, obs_delta, ingest,
             state))


class _Shard:
    """Parent-side bookkeeping for one worker shard."""

    __slots__ = (
        "index", "proc", "work_q", "result_q", "generation", "pending",
        "queued", "next_seq", "up", "was_up", "last_state", "acked",
        "collector",
    )

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.work_q = None
        self.result_q = None
        self.generation = 0
        # seq → payload, insertion (== sequence) ordered; chunks leave
        # only on ack, so this is the at-least-once replay buffer.
        self.pending: Dict[int, bytes] = {}
        self.queued: set = set()  # seqs currently in the work queue
        self.next_seq = 0
        self.up = False
        # "down" means *lost* — a shard that has reported up and whose
        # worker then died.  A still-booting shard is neither up nor
        # down, so the shard-down page never fires on a clean start.
        self.was_up = False
        self.last_state: Optional[dict] = None
        self.acked = 0
        self.collector: Optional[threading.Thread] = None


class DaemonReport(NamedTuple):
    """Final accounting returned by :meth:`FleetDaemon.stop`."""

    predictions: List[Prediction]
    stats: PredictorStats
    ingest: IngestStats
    drained: bool


class FleetDaemon:
    """Long-running sharded ingest service over a predictor bundle.

    Lifecycle: construct → :meth:`start` → attach sources
    (:meth:`listen_tcp` / :meth:`listen_unix` / :meth:`tail_file`, or
    programmatic :meth:`submit`) → :meth:`stop`.  Mount the HTTP plane
    by handing :attr:`obs` to :class:`~repro.obs.ObsServer` — the
    daemon's health block and expvars are already registered on it.
    """

    def __init__(
        self,
        bundle,
        *,
        n_shards: int = 2,
        on_error: str = "quarantine",
        scan_backend: str = "str",
        timeout: Optional[float] = None,
        chunk_lines: int = 256,
        window: int = 4,
        high_water_chunks: int = 32,
        reorder_horizon: float = 0.0,
        obs: Optional[Observability] = None,
        poll_interval: float = 0.1,
        spans_sample: float = 0.0,
        throttle_s: float = 0.0,
    ):
        from ..codegen import resolve_backend
        from ..persistence import compile_scanner_cached, scanner_artifact

        if n_shards < 1:
            raise ValueError("need at least one shard")
        if chunk_lines < 1:
            raise ValueError("need at least one line per chunk")
        if window < 1:
            raise ValueError("window must be >= 1 chunk")
        if high_water_chunks < window:
            raise ValueError("high_water_chunks must be >= window")
        if on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}")
        if on_error == "strict":
            # A strict worker dies on the first bad record; its
            # replacement replays the same chunk and dies again, so the
            # chunk never drains and the valid lines beside it are lost.
            raise ValueError(
                "on_error='strict' cannot serve a live stream: one "
                "malformed record would kill its shard worker on every "
                "replay; use 'quarantine' or 'warn'")
        if reorder_horizon < 0:
            raise ValueError("reorder horizon must be non-negative")
        self.n_shards = n_shards
        self.on_error = on_error
        self.chunk_lines = chunk_lines
        self.window = window
        self.high_water = high_water_chunks
        self.reorder_horizon = reorder_horizon
        self.poll_interval = poll_interval
        self.spans_sample = spans_sample
        self.throttle_s = throttle_s
        self.timeout = timeout if timeout is not None else bundle.timeout
        self.obs = obs if obs is not None else Observability()
        # Parent-resolved backend (native degrades here, once) so
        # every worker generation compiles the same kernel family.
        self.scan_backend = resolve_backend(scan_backend)
        self._bundle_dict = bundle.to_dict()
        # One scanner compile (or cache hit) in the parent; workers —
        # including every post-takeover replacement — reconstruct from
        # the finished tables.
        spec = bundle.store.lex_spec(keep=bundle.chains.token_set)
        compiled = compile_scanner_cached(spec, backend=self.scan_backend)
        self._tables = scanner_artifact(compiled, backend=self.scan_backend)
        self._ctx = mp.get_context("spawn")

        self._lock = threading.RLock()
        self._shards = [_Shard(i) for i in range(n_shards)]
        self._buffers: List[List[bytes]] = [[] for _ in range(n_shards)]
        self.predictions: List[Prediction] = []
        self.stats = PredictorStats()
        self.ingest = IngestStats()
        # Service-plane counters (published as aarohi_daemon_* series).
        self._lines_received = 0
        self._stalls = 0
        self._deaths = 0
        self._handoffs = 0
        self._chains_restored = 0
        self._rotations = 0
        self._connections_active = 0
        self._connections_total = 0
        self._started_at: Optional[float] = None
        self._accepting = False
        self._stopping = False
        self._stopped = False
        self._supervisor: Optional[threading.Thread] = None
        self._tcp_servers: List[socket.socket] = []
        self._unix_paths: List[str] = []
        self._source_threads: List[threading.Thread] = []
        self._conn_threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        # Reference-swapped status snapshot: the health hook and debug
        # provider read it without taking the daemon lock (they run
        # under the obs facade lock; taking ours there would invert
        # lock order against every obs call site below).
        self._status: dict = {"ok": False, "shards": n_shards, "up": 0}

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "FleetDaemon":
        with self._lock:
            if self._started_at is not None:
                raise RuntimeError("daemon already started")
            self._started_at = _time.monotonic()
            self._accepting = True
            for shard in self._shards:
                self._spawn_worker(shard, init_state=None)
        self.obs.add_health_hook("daemon", lambda: self._status)
        self.obs.add_debug_provider("daemon", self.status)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="aarohi-daemon-supervisor",
            daemon=True)
        self._supervisor.start()
        self._publish_metrics()
        return self

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every shard's worker has reported up."""
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            with self._lock:
                if all(s.up for s in self._shards):
                    return True
            _time.sleep(0.01)
        return False

    def _spawn_worker(self, shard: _Shard, init_state: Optional[dict]) -> None:
        """(Re)spawn one shard worker; caller holds the lock."""
        shard.generation += 1
        shard.up = False
        shard.work_q = self._ctx.Queue()
        shard.result_q = self._ctx.Queue()
        shard.proc = self._ctx.Process(
            target=_daemon_worker_main,
            args=(shard.index, shard.work_q, shard.result_q,
                  self._bundle_dict, self._tables, self.timeout,
                  self.on_error, self.scan_backend, self.spans_sample,
                  init_state, self.throttle_s),
            daemon=True,
            name=f"aarohi-shard-{shard.index}",
        )
        shard.proc.start()
        # Replay the unacked suffix in order; results for chunks the
        # dead worker also processed are deduplicated by generation.
        shard.queued = set()
        for seq in sorted(shard.pending):
            if len(shard.queued) >= self.window:
                break
            shard.work_q.put((seq, shard.pending[seq]))
            shard.queued.add(seq)
        shard.collector = threading.Thread(
            target=self._collect_loop,
            args=(shard.index, shard.generation, shard.result_q),
            name=f"aarohi-collect-{shard.index}-g{shard.generation}",
            daemon=True)
        shard.collector.start()

    # -- ingest ---------------------------------------------------------
    def submit(self, line: str) -> None:
        """Route one serialized line to its shard (the programmatic
        ingest path): the line is encoded and split at newlines like a
        socket read, then takes the same byte path.  Blocks while the
        target shard is over its backpressure high-water mark."""
        self._ingest(line.encode("utf-8", "replace").split(b"\n"), None)

    def _ingest(self, records: List[bytes], sort: Optional[SortBuffer]) -> None:
        """Route one read's newline-split records into their shard
        buffers under one lock acquisition, dispatching each chunk as
        it fills.

        Each record loses one trailing ``\\r``; empty records are
        dropped.  A record bound for a shard at its high-water mark
        stalls the ingest thread (counted once per call) until that
        worker acks, then the read resumes from that record.  With a
        reorder buffer each record passes through it first; a record
        whose timestamp does not parse bypasses it (it can only be
        quarantined, so its relative order is immaterial)."""
        if sort is not None:
            ordered: List[bytes] = []
            for raw in records:
                t = parse_time_prefix(raw)
                if t is None:
                    ordered.append(raw)
                else:
                    ordered.extend(
                        timed.record
                        for timed in sort.push(_TimedRecord(t, raw)))
            records = ordered
        record_shard = _par.record_shard
        n_shards = self.n_shards
        chunk_lines = self.chunk_lines
        shards, buffers = self._shards, self._buffers
        i, end = 0, len(records)
        stalled = False
        while True:
            with self._lock:
                if self._stopping:
                    return
                received = 0
                while i < end:
                    raw = records[i]
                    if raw[-1:] == b"\r":
                        raw = raw[:-1]
                    if raw:
                        shard_idx = record_shard(raw, n_shards)
                        if len(shards[shard_idx].pending) >= self.high_water:
                            break
                        buf = buffers[shard_idx]
                        buf.append(raw)
                        received += 1
                        if len(buf) >= chunk_lines:
                            self._dispatch(shard_idx)
                    i += 1
                self._lines_received += received
                if i == end:
                    break
                if not stalled:
                    stalled = True
                    self._stalls += 1
            _time.sleep(0.002)
        if stalled:
            self._publish_metrics()

    def flush(self) -> None:
        """Dispatch every partially-filled shard buffer."""
        with self._lock:
            for shard_idx in range(self.n_shards):
                if self._buffers[shard_idx]:
                    self._dispatch(shard_idx)

    def _dispatch(self, shard_idx: int) -> None:
        """Turn the shard's record buffer into a pending chunk (one
        newline-joined blob, exactly as ParallelFleet ships them);
        caller holds the lock."""
        shard = self._shards[shard_idx]
        payload = b"\n".join(self._buffers[shard_idx])
        self._buffers[shard_idx] = []
        seq = shard.next_seq
        shard.next_seq += 1
        shard.pending[seq] = payload
        if shard.up and len(shard.queued) < self.window:
            shard.work_q.put((seq, payload))
            shard.queued.add(seq)

    # -- result collection ---------------------------------------------
    def _collect_loop(self, shard_idx: int, generation: int, result_q) -> None:
        import queue as _queue

        while True:
            with self._lock:
                shard = self._shards[shard_idx]
                if shard.generation != generation or self._stopped:
                    return
            try:
                msg = result_q.get(timeout=0.2)
            except _queue.Empty:
                continue
            except Exception:
                # A kill -9 mid-put can leave a torn pickle in the
                # pipe; the supervisor replaces the whole queue, this
                # thread just retires with its generation.
                continue
            self._handle_msg(shard_idx, generation, msg)

    def _handle_msg(self, shard_idx: int, generation: int, msg: tuple) -> None:
        kind = msg[0]
        obs = self.obs
        flight_note: Optional[tuple] = None
        chunk_ingest: Optional[IngestStats] = None
        obs_delta: Optional[dict] = None
        with self._lock:
            shard = self._shards[shard_idx]
            if shard.generation != generation:
                # Stale ack: the replacement replays this chunk, so
                # applying the old result too would double-count.
                return
            if kind == "up":
                _, _, restored = msg
                shard.up = True
                shard.was_up = True
                self._chains_restored += restored
                self._refresh_status()
            elif kind == "ack":
                (_, _, seq, predictions, stats, obs_delta, chunk_ingest,
                 state) = msg
                shard.pending.pop(seq, None)
                shard.queued.discard(seq)
                shard.last_state = state
                shard.acked += 1
                self.predictions.extend(
                    Prediction(node=n, chain_id=c, flagged_at=f,
                               prediction_time=p, matched_tokens=tuple(m))
                    for (n, c, f, p, m) in predictions
                )
                self.stats.add(stats)
                self.ingest.add(chunk_ingest)
                # Refill the worker's window with the next unqueued
                # pending chunks, in sequence order.
                for nxt in sorted(shard.pending):
                    if len(shard.queued) >= self.window:
                        break
                    if nxt not in shard.queued:
                        shard.work_q.put((nxt, shard.pending[nxt]))
                        shard.queued.add(nxt)
                flight_note = (
                    "chunk_done", shard_idx, seq, len(predictions),
                    chunk_ingest.quarantined or None)
            else:  # "bye" — clean worker exit during stop
                return
        # Obs fold-in strictly after the daemon lock is released (the
        # facade lock nests obs→status-read, never obs→daemon-lock).
        if kind == "up":
            self._publish_metrics()
            return
        with obs.lock:
            if obs_delta:
                obs.registry.merge(obs_delta)
        if chunk_ingest is not None and chunk_ingest.lines_read:
            obs.record_ingest(chunk_ingest)
        if flight_note is not None and obs.flight is not None:
            kind_, shard_id, seq, n_pred, quarantined = flight_note
            with obs.lock:
                obs.flight.note(
                    kind_, shard=shard_id, chunk=seq, predictions=n_pred,
                    quarantined=quarantined)

    # -- supervision ----------------------------------------------------
    def _supervise_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopped:
                    return
                stopping = self._stopping
                dead = [
                    s for s in self._shards
                    if s.proc is not None and not s.proc.is_alive()
                ]
                if not stopping:
                    for shard in dead:
                        self._takeover(shard)
                # Time-based flush so a trickle of lines (below
                # chunk_lines) still reaches the workers promptly.
                for shard_idx in range(self.n_shards):
                    if self._buffers[shard_idx]:
                        self._dispatch(shard_idx)
            self._publish_metrics()
            obs = self.obs
            obs.record_history()
            obs.check_flight()
            _time.sleep(self.poll_interval)

    def _takeover(self, shard: _Shard) -> None:
        """Replace a dead worker; caller holds the lock.

        The replacement inherits the last **acked** state snapshot and
        replays the pending (unacked) chunks — the exactly-once story
        documented in the module docstring."""
        self._deaths += 1
        self._handoffs += 1
        shard.up = False
        self._refresh_status()
        old_work = shard.work_q
        try:
            # The dead worker may have left the queue mid-write; never
            # wait on its feeder thread.
            old_work.close()
            old_work.cancel_join_thread()
        except (OSError, ValueError):
            pass
        self._spawn_worker(shard, init_state=shard.last_state)

    # -- status / metrics ----------------------------------------------
    def status(self) -> dict:
        """Point-in-time service state (the ``/debug/vars`` block)."""
        return dict(self._status)

    def _refresh_status(self) -> None:
        """Rebuild the lock-free status snapshot; caller holds the
        lock."""
        up = sum(1 for s in self._shards if s.up)
        down = sum(1 for s in self._shards if s.was_up and not s.up)
        pending = sum(len(s.pending) for s in self._shards)
        self._status = {
            "ok": up == self.n_shards,
            "shards": self.n_shards,
            "up": up,
            "down": down,
            "pending_chunks": pending,
            "connections": self._connections_active,
            "lines_received": self._lines_received,
            "worker_deaths": self._deaths,
            "handoffs": self._handoffs,
            "chains_restored": self._chains_restored,
            "backpressure_stalls": self._stalls,
            "tail_rotations": self._rotations,
            "uptime_s": (
                round(_time.monotonic() - self._started_at, 3)
                if self._started_at is not None else 0.0),
        }

    def _publish_metrics(self) -> None:
        with self._lock:
            self._refresh_status()
            snap = self._status
        obs = self.obs
        with obs.lock:
            registry = obs.registry
            registry.gauge(
                DAEMON_UPTIME_SECONDS, "seconds since daemon start",
            ).set(snap["uptime_s"])
            registry.gauge(
                DAEMON_SHARDS, "configured worker shards",
            ).set(snap["shards"])
            registry.gauge(
                DAEMON_SHARDS_UP, "worker shards currently serving",
            ).set(snap["up"])
            registry.gauge(
                DAEMON_SHARDS_DOWN, "worker shards lost, takeover pending",
            ).set(snap["down"])
            registry.gauge(
                DAEMON_QUEUE_CHUNKS, "chunks pending across shards",
            ).set(snap["pending_chunks"])
            registry.gauge(
                DAEMON_CONNECTIONS_ACTIVE, "open ingest connections",
            ).set(snap["connections"])
            registry.counter(
                DAEMON_CONNECTIONS_TOTAL, "ingest connections accepted",
            ).set_total(self._connections_total)
            registry.counter(
                DAEMON_LINES_RECEIVED, "lines accepted by the daemon",
            ).set_total(snap["lines_received"])
            registry.counter(
                DAEMON_BACKPRESSURE_STALLS,
                "ingest stalls at the backpressure high-water mark",
            ).set_total(snap["backpressure_stalls"])
            registry.counter(
                DAEMON_WORKER_DEATHS, "worker processes lost",
            ).set_total(snap["worker_deaths"])
            registry.counter(
                DAEMON_HANDOFFS, "shard takeovers (state handoffs)",
            ).set_total(snap["handoffs"])
            registry.counter(
                DAEMON_CHAINS_RESTORED,
                "per-node chain states restored on takeover",
            ).set_total(snap["chains_restored"])
            registry.counter(
                DAEMON_TAIL_ROTATIONS, "tailed-file rotations detected",
            ).set_total(snap["tail_rotations"])

    # -- sources --------------------------------------------------------
    def listen_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Accept line-protocol connections; returns the bound
        ``(host, port)`` (``port=0`` binds ephemerally)."""
        server = socket.create_server((host, port))
        server.settimeout(0.5)
        self._tcp_servers.append(server)
        bound = server.getsockname()[:2]
        thread = threading.Thread(
            target=self._accept_loop, args=(server,),
            name=f"aarohi-accept-{bound[1]}", daemon=True)
        thread.start()
        self._source_threads.append(thread)
        return bound

    def listen_unix(self, path) -> str:
        """Accept line-protocol connections on a unix socket."""
        path = str(path)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen()
        server.settimeout(0.5)
        self._tcp_servers.append(server)
        self._unix_paths.append(path)
        thread = threading.Thread(
            target=self._accept_loop, args=(server,),
            name="aarohi-accept-unix", daemon=True)
        thread.start()
        self._source_threads.append(thread)
        return path

    def _accept_loop(self, server: socket.socket) -> None:
        while True:
            with self._lock:
                if not self._accepting:
                    break
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                if not self._accepting:
                    conn.close()
                    break
                self._connections_active += 1
                self._connections_total += 1
                self._conns.append(conn)
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name="aarohi-conn", daemon=True)
                self._conn_threads.append(thread)
            self._publish_metrics()
            thread.start()
        try:
            server.close()
        except OSError:
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        """Read newline-delimited records until EOF.

        Each ``recv`` is split once at newline boundaries and its
        complete records are routed as raw bytes (:meth:`_ingest`);
        invalid UTF-8 reaches the workers untouched, where tolerant
        ingest quarantines it instead of killing the connection.  With a
        positive ``reorder_horizon`` each connection owns a
        :class:`SortBuffer`: one forwarder's stream is near-sorted on
        its own clock, which is exactly the bounded displacement the
        buffer repairs."""
        conn.settimeout(0.5)
        stats = IngestStats()
        sort = (SortBuffer(self.reorder_horizon, stats)
                if self.reorder_horizon > 0 else None)
        splitter = _RecordSplitter()
        try:
            while True:
                with self._lock:
                    if self._stopping:
                        break
                try:
                    data = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                self._ingest(splitter.feed(data), sort)
        finally:
            # Trailing unterminated record: ship it (matching the file
            # reader, whose final line needs no newline).
            self._ingest([splitter.rest()], sort)
            if sort is not None:
                self._ingest([timed.record for timed in sort.flush()], None)
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._connections_active -= 1
                # Fold the connection's reorder accounting into the
                # daemon funnel (reordered/late only; the decode
                # counters come from the workers).
                self.ingest.reordered += stats.reordered
                self.ingest.late += stats.late
            self._publish_metrics()

    def tail_file(self, path, poll: float = 0.1) -> None:
        """Follow ``path`` like ``tail -F``: read appended lines, and
        when the inode under the name changes (logrotate's
        rename-and-recreate) or the file shrinks (copytruncate),
        finish the old stream and reopen — counted in
        ``aarohi_daemon_tail_rotations_total``."""
        path = str(Path(path))
        thread = threading.Thread(
            target=self._tail_loop, args=(path, poll),
            name=f"aarohi-tail-{os.path.basename(path)}", daemon=True)
        thread.start()
        self._source_threads.append(thread)

    def _tail_loop(self, path: str, poll: float) -> None:
        fh = None
        inode = None
        splitter = _RecordSplitter()
        try:
            while True:
                with self._lock:
                    # ``stop()`` clears the accepting flag before it
                    # joins source threads; the finally block below
                    # catches anything appended since the last poll.
                    if not self._accepting:
                        break
                if fh is None:
                    try:
                        fh = open(path, "rb")
                        inode = os.fstat(fh.fileno()).st_ino
                    except FileNotFoundError:
                        _time.sleep(poll)
                        continue
                data = fh.read()
                if data:
                    self._ingest(splitter.feed(data), None)
                    continue
                rotated = False
                try:
                    st = os.stat(path)
                    if st.st_ino != inode:
                        rotated = True  # rename-and-recreate
                    elif st.st_size < fh.tell():
                        rotated = True  # copytruncate
                except FileNotFoundError:
                    rotated = True
                if rotated:
                    self._ingest([splitter.rest()], None)
                    fh.close()
                    fh = None
                    with self._lock:
                        self._rotations += 1
                    self._publish_metrics()
                    continue
                _time.sleep(poll)
        finally:
            if fh is not None:
                self._ingest(splitter.feed(fh.read()), None)
                fh.close()
            self._ingest([splitter.rest()], None)

    # -- drain / stop ---------------------------------------------------
    def pending_chunks(self) -> int:
        with self._lock:
            return (sum(len(s.pending) for s in self._shards)
                    + sum(1 for b in self._buffers if b))

    def drain(self, timeout: float = 60.0) -> bool:
        """Flush buffers and block until every dispatched chunk has
        been acked (surviving worker takeovers along the way)."""
        self.flush()
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            if self.pending_chunks() == 0:
                return True
            _time.sleep(0.01)
        return False

    def stop(self, drain: bool = True, timeout: float = 60.0) -> DaemonReport:
        """Graceful shutdown: close sources, optionally drain, retire
        workers, and return the final accounting (predictions sorted by
        flag time, exactly as :meth:`ParallelFleet.run` reports them).
        """
        deadline = _time.monotonic() + timeout
        with self._lock:
            self._accepting = False
        for server in self._tcp_servers:
            try:
                server.close()
            except OSError:
                pass
        for thread in self._source_threads:
            thread.join(timeout=5.0)
        if drain:
            # Graceful half: let open connections finish at their own
            # EOF, so bytes already on the wire are still predicted on.
            with self._lock:
                conn_threads = list(self._conn_threads)
            for thread in conn_threads:
                thread.join(timeout=max(0.0, deadline - _time.monotonic()))
        drained = self.drain(timeout) if drain else True
        with self._lock:
            self._stopping = True
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._conn_threads:
            thread.join(timeout=5.0)
        if drain and drained:
            # Connection teardown may have flushed reorder buffers.
            drained = self.drain(timeout)
        with self._lock:
            for shard in self._shards:
                if shard.proc is not None and shard.proc.is_alive():
                    try:
                        shard.work_q.put(None)
                    except (OSError, ValueError):
                        pass
        for shard in self._shards:
            if shard.proc is not None:
                shard.proc.join(timeout=5.0)
                if shard.proc.is_alive():
                    shard.proc.terminate()
                    shard.proc.join(timeout=5.0)
        with self._lock:
            self._stopped = True
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        for shard in self._shards:
            if shard.collector is not None:
                shard.collector.join(timeout=5.0)
        for path in self._unix_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._publish_metrics()
        with self._lock:
            self.predictions.sort(key=lambda p: p.flagged_at)
            return DaemonReport(
                predictions=list(self.predictions),
                stats=self.stats,
                ingest=self.ingest,
                drained=drained,
            )

    def __enter__(self) -> "FleetDaemon":
        return self

    def __exit__(self, *exc) -> None:
        if not self._stopped:
            self.stop()

    # -- introspection for drills ---------------------------------------
    def worker_pid(self, shard: int) -> Optional[int]:
        """The shard's current worker pid (the drill's kill target)."""
        with self._lock:
            proc = self._shards[shard].proc
            return proc.pid if proc is not None else None

    def shard_for(self, node: str) -> int:
        """Which shard serves ``node`` — drills use this to aim a
        partial chain at the worker they are about to kill."""
        return _par.shard_of(node, self.n_shards)
