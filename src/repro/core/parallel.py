"""Cluster-scale prediction: shard nodes across worker processes.

Per-node predictor state is independent (§III: one instance per node),
so the fleet parallelizes trivially: hash nodes into shards, give each
worker process its own fleet over its shard, merge predictions.  At
10⁵-node scale — the exascale framing of the introduction — the Python
GIL would otherwise cap the aggregation point at one core; sharding
turns the placement-model CPU budget (see
:mod:`repro.logsim.placement`) into real parallel speedup.

Deployment shape: one single-process pool per shard, so shard *i* is
always served by worker *i*.  That pinning buys two things over a
shared pool fed one giant ``map`` payload per shard:

* **chunked submission** — each shard's lines are submitted in bounded
  chunks, so serialization of later chunks overlaps with worker
  computation on earlier ones instead of pickling the whole window up
  front;
* **cross-window state** — a shard's per-node predictor state lives in
  exactly one worker, so mid-chain configurations survive both chunk
  boundaries and repeated :meth:`ParallelFleet.run` calls.

Routing hashes the node field once per node, not once per line
(:func:`shard_of` is memoized), and :func:`record_shard` routes a raw
byte record on that field without decoding it.

The worker initializer rebuilds chain tables once per process from a
:class:`~repro.persistence.PredictorBundle` dict, and receives the
parent's **prebuilt scanner tables** (the compiled-artifact wire format
of :func:`~repro.persistence.scanner_artifact`) alongside it — workers
never rerun the NFA→DFA→Hopcroft pipeline, they reconstruct the DFA
from its serialized arrays.  Every chunk is one newline-joined byte
blob, whatever the backend, and :func:`_run_chunk` (shared with
:mod:`repro.core.daemon`) hands it to the worker fleet's
:meth:`~repro.core.fleet.PredictorFleet.run_lines`, whose own dispatch
picks the hit source: the fused native kernel for a native scanner,
``run_buffer`` for the other byte backends, decoded events for ``str``
and for ``timing="full"``.  With the default ``"off"`` no clock is
read at all.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import time as _time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..core.events import LogEvent, Prediction
from ..obs import (
    Observability,
    PARALLEL_CHUNK_EVENTS,
    PARALLEL_QUEUE_DEPTH,
    SpanClock,
    diff_snapshots,
)
from .predictor import PredictorStats

if TYPE_CHECKING:  # import cycle: persistence → templates.store → core
    from ..logsim.stream import IngestStats
    from ..persistence import PredictorBundle

# Per-process globals, populated by the initializer.
_WORKER_FLEET = None
_WORKER_TIMING = "off"
_WORKER_OBS: Optional[Observability] = None
_WORKER_LAST_SNAP: Optional[dict] = None
_WORKER_ON_ERROR = "quarantine"


# Routing memo: the FNV hash runs once per node, not once per line.
# Bounded twice over, so hostile input cannot grow it: at most
# _ROUTE_MEMO_SIZE entries (least recently used evicted first), and only
# keys no longer than a DNS name.  A longer field, or the whole-line key
# of a malformed record, is hashed every time instead, over at most its
# first _ROUTE_HASH_MAX bytes: hashing a whole 32 MB garbage record in
# Python held the daemon's ingest lock for 4 s on a 2-vCPU host.
_ROUTE_MEMO_SIZE = 1 << 16
_ROUTE_KEY_MAX = 253
_ROUTE_HASH_MAX = 4096


def _hash_shard(key: Union[str, bytes], n_shards: int) -> int:
    """FNV-1a of the key's UTF-8 text (its first ``_ROUTE_HASH_MAX``
    bytes), modulo the shard count.  Raw bytes hash as their
    replace-decoded text, so a record routes the same whether it
    arrives as bytes or was decoded first."""
    if isinstance(key, bytes):
        key = key.decode("utf-8", "replace")
    h = 2166136261
    for ch in key.encode()[:_ROUTE_HASH_MAX]:
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h % n_shards


_memo_shard = functools.lru_cache(maxsize=_ROUTE_MEMO_SIZE)(_hash_shard)


def shard_of(node: str, n_shards: int) -> int:
    """Stable node→shard assignment (cross-platform deterministic)."""
    if len(node) > _ROUTE_KEY_MAX:
        return _hash_shard(node, n_shards)
    return _memo_shard(node, n_shards)


def route_key(line: str) -> str:
    """The shard-routing key of one serialized line: the header's node
    field when the line splits, else the whole line (so a malformed
    line always lands on — and is quarantined by — the same worker).
    Shared by :meth:`ParallelFleet.run_lines` and, in its byte form
    (:func:`record_shard`), the live daemon (:mod:`repro.core.daemon`):
    both must route identically for stream-vs-batch prediction
    equivalence to hold."""
    parts = line.split(" ", 2)
    return parts[1] if len(parts) == 3 else line


def record_shard(raw: bytes, n_shards: int) -> int:
    """The shard of one raw record (newline and ``\\r`` already
    stripped), routed on its node field without decoding it.  Equals
    ``shard_of(route_key(raw.decode("utf-8", "replace")), n_shards)``
    for any bytes, invalid UTF-8 included: ``0x20`` never occurs inside
    a multi-byte sequence, so both split at the same spaces."""
    parts = raw.split(b" ", 2)
    if len(parts) == 3 and len(parts[1]) <= _ROUTE_KEY_MAX:
        return _memo_shard(parts[1], n_shards)
    return _hash_shard(parts[1] if len(parts) == 3 else raw, n_shards)


def partition_events(
    events: Sequence[LogEvent], n_shards: int
) -> List[List[LogEvent]]:
    """Split a time-ordered stream into per-shard streams (order kept)."""
    shards: List[List[LogEvent]] = [[] for _ in range(n_shards)]
    for event in events:
        shards[shard_of(event.node, n_shards)].append(event)
    return shards


class _ShardObservability(Observability):
    """A worker's process-local obs facade, minus the ingest funnel.

    Every chunk's :class:`~repro.logsim.stream.IngestStats` ships back
    with its result, and the parent folds it into its own registry and
    ``obs.ingest`` (the ``/healthz`` source) exactly once.  Counting it
    here as well would put every line in ``aarohi_ingest_*`` twice."""

    def record_ingest(self, delta) -> None:
        pass


def _init_worker(
    bundle_dict: dict,
    scanner_tables: Optional[dict],
    timeout: Optional[float],
    timing: str,
    shard: Optional[int] = None,
    on_error: str = "quarantine",
    scan_backend: str = "str",
    spans_sample: float = 0.0,
) -> None:
    global _WORKER_FLEET, _WORKER_TIMING, _WORKER_OBS, _WORKER_LAST_SNAP
    global _WORKER_ON_ERROR
    from ..persistence import PredictorBundle, scanner_from_artifact
    from ..templates.store import CountingTemplateScanner, TemplateScanner

    bundle = PredictorBundle.from_dict(bundle_dict)
    kwargs = {} if timeout is None else {"timeout": timeout}
    if shard is not None:
        # Each worker owns a process-local registry; deltas ship back
        # with every chunk result and merge into the parent's registry,
        # where the shard label keeps per-shard series (throughput,
        # funnel, latency) distinct.  (Tracers are not forwarded across
        # processes.)  A positive spans_sample arms a worker-side span
        # clock: its cumulative stage counters ride the same delta path,
        # so the parent reassembles per-shard stage breakdowns from its
        # merged registry.
        _WORKER_OBS = _ShardObservability(
            labels={"shard": str(shard)},
            spans=SpanClock(spans_sample) if spans_sample > 0.0 else None,
        )
        kwargs["obs"] = _WORKER_OBS
    if scanner_tables is not None:
        # Rebuild the scanner from the parent's compiled tables — no
        # regex compilation in workers, just kernel specialization.
        compiled = scanner_from_artifact(scanner_tables)
        cls = CountingTemplateScanner if shard is not None else TemplateScanner
        kwargs["scanner"] = cls(compiled, backend=scan_backend)
    _WORKER_FLEET = bundle.make_fleet(**kwargs)
    _WORKER_TIMING = timing
    _WORKER_LAST_SNAP = None
    _WORKER_ON_ERROR = on_error


def _run_chunk(
    payload: bytes, trace: Optional[tuple] = None
) -> Tuple[List[tuple], PredictorStats, Optional[dict], "IngestStats",
           Optional[tuple]]:
    """Process one chunk (a newline-joined byte blob); ``trace`` is the
    parent's trace context ``(run, shard, chunk)``, echoed back verbatim
    so the parent can correlate results with submissions (the flight
    recorder's ``chunk_done`` notes)."""
    global _WORKER_LAST_SNAP
    assert _WORKER_FLEET is not None, "worker not initialized"
    # Tolerant decode: a single malformed line in a chunk must not take
    # the whole worker (and with it the shard's predictor state) down.
    # The per-chunk funnel ships back with the result and merges into
    # the parent's cumulative ingest counters.
    report = _WORKER_FLEET.run_lines(
        payload, on_error=_WORKER_ON_ERROR, timing=_WORKER_TIMING)
    predictions = [
        (p.node, p.chain_id, p.flagged_at, p.prediction_time,
         p.matched_tokens)
        for p in report.predictions
    ]
    obs_delta: Optional[dict] = None
    if _WORKER_OBS is not None:
        snap = _WORKER_OBS.registry.snapshot()
        # Registries are cumulative; ship only this chunk's delta so the
        # parent-side merge never double-counts earlier chunks.
        obs_delta = diff_snapshots(snap, _WORKER_LAST_SNAP)
        _WORKER_LAST_SNAP = snap
    return predictions, report.stats, obs_delta, report.ingest, trace


class ParallelFleet:
    """Multiprocess fleet over a sharded cluster stream.

    Use as a context manager or call :meth:`close` — the worker pools
    are long-lived so repeated windows amortize process startup.
    """

    def __init__(
        self,
        bundle: PredictorBundle,
        *,
        n_workers: int = 4,
        timeout: Optional[float] = None,
        chunk_lines: int = 4096,
        timing: str = "off",
        obs: Optional[Observability] = None,
        on_error: str = "quarantine",
        scan_backend: str = "str",
        spans_sample: Optional[float] = None,
    ):
        from ..codegen import resolve_backend
        from ..logsim.stream import ERROR_POLICIES, IngestStats

        if n_workers < 1:
            raise ValueError("need at least one worker")
        if chunk_lines < 1:
            raise ValueError("need at least one line per chunk")
        if on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}")
        self.n_workers = n_workers
        self.chunk_lines = chunk_lines
        self.obs = obs
        self.timing = timing
        self.on_error = on_error
        # Resolved in the parent (compiler-absent → "bytes") so the cache
        # digest, the shipped artifact, and every worker kernel agree.
        self.scan_backend = resolve_backend(scan_backend)
        # Fleet-wide cumulative stats, merged back from worker diffs via
        # the PredictorStats.snapshot()/diff()/add() API.
        self.stats = PredictorStats()
        # Fleet-wide decode funnel, merged back from per-chunk deltas.
        self.ingest = IngestStats()
        # Worker span sampling: explicit knob, else inherit the parent
        # facade's span-clock rate (workers own their clocks — P²/timer
        # state never crosses processes, only cumulative counters do).
        if spans_sample is None:
            spans_sample = (
                obs.spans.sample
                if obs is not None and obs.spans is not None else 0.0)
        self.spans_sample = spans_sample
        # Monotone run counter: the trace-context run id stamped on
        # every submitted chunk.
        self._run_seq = 0
        ctx = mp.get_context("spawn")
        bundle_dict = bundle.to_dict()
        # Compile (or cache-load) the merged scanner once in the parent
        # and ship the finished tables to every worker; n_workers
        # processes then pay JSON-decode + kernel specialization instead
        # of n_workers regex compilations.
        from ..persistence import compile_scanner_cached, scanner_artifact

        spec = bundle.store.lex_spec(keep=bundle.chains.token_set)
        # Single-flight through the artifact cache: several fleets (or
        # CLI invocations) cold-starting concurrently elect exactly one
        # compiler; the native backend's shared-object build goes
        # through the same lock when workers specialize their kernels.
        compiled = compile_scanner_cached(spec, backend=self.scan_backend)
        tables = scanner_artifact(compiled, backend=self.scan_backend)
        # One single-process pool per shard: shard i → worker i, always.
        self._pools = [
            ctx.Pool(
                processes=1,
                initializer=_init_worker,
                initargs=(bundle_dict, tables, timeout, timing,
                          shard if obs is not None else None, on_error,
                          self.scan_backend,
                          spans_sample if obs is not None else 0.0),
            )
            for shard in range(n_workers)
        ]

    def run(self, events: Sequence[LogEvent]) -> List[Prediction]:
        """Process a window; returns predictions sorted by flag time.

        Worker-side per-chunk stats deltas accumulate into
        :attr:`stats`; with ``obs`` set, worker registry deltas merge
        into the parent registry and the parent records queue depth and
        chunk sizes.
        """
        shards = partition_events(events, self.n_workers)
        return self._run_shards(
            [[e.to_line() for e in shard] for shard in shards],
            n_events=len(events),
            last_event_time=events[-1].time if len(events) else None,
        )

    def run_lines(self, lines) -> List[Prediction]:
        """Shard serialized log lines across workers without decoding
        them in the parent.

        Routing reads only the header's node field (:func:`route_key`,
        hashed once per node by :func:`shard_of`), so the parent stays
        out of the decode business entirely — workers decode tolerantly
        under the fleet's ``on_error`` policy, exactly as :meth:`run`
        chunks do.  Lines whose header doesn't split (truncated,
        garbled) are routed by a hash of the whole line, so a malformed
        line always lands on the same worker and is quarantined there
        with its shard label.  The live daemon routes its raw byte
        records the same way (:func:`record_shard`).
        """
        shards: List[List[str]] = [[] for _ in range(self.n_workers)]
        n_shards = self.n_workers
        for line in lines:
            shards[shard_of(route_key(line), n_shards)].append(line)
        return self._run_shards(
            shards,
            n_events=sum(len(s) for s in shards),
            last_event_time=None,
        )

    def _run_shards(
        self,
        line_shards: List[List[str]],
        *,
        n_events: int,
        last_event_time: Optional[float],
    ) -> List[Prediction]:
        obs = self.obs
        t_run = _time.perf_counter() if obs is not None else 0.0
        stats_before = self.stats.snapshot() if obs is not None else None
        self._run_seq += 1
        run_seq = self._run_seq
        chunk_lines = self.chunk_lines
        pending = []
        chunk_sizes: List[int] = []
        for shard_idx, shard in enumerate(line_shards):
            pool = self._pools[shard_idx]
            # FIFO within a single-process pool keeps chunk order; the
            # serialization of chunk k+1 overlaps the compute of chunk k.
            for chunk_idx, start in enumerate(
                    range(0, len(shard), chunk_lines)):
                chunk = shard[start : start + chunk_lines]
                # One newline-joined blob per chunk: a single bytes
                # pickle, split worker-side by the fleet's ingest.
                payload = "\n".join(chunk).encode("utf-8", "replace")
                chunk_sizes.append(len(chunk))
                # Trace context rides the payload and is echoed back in
                # the result, tying each completion to its submission.
                trace = (run_seq, shard_idx, chunk_idx)
                pending.append(
                    (pool.apply_async(_run_chunk, (payload, trace)),
                     len(chunk)))
        if obs is not None:
            with obs.lock:
                obs.registry.gauge(
                    PARALLEL_QUEUE_DEPTH,
                    "chunks in flight across worker pools",
                ).set(len(pending))
                obs.registry.histogram(
                    PARALLEL_CHUNK_EVENTS, "events per submitted chunk",
                    lo_exp=0, hi_exp=24,
                ).observe_many(chunk_sizes)
        predictions: List[Prediction] = []
        for result, submitted in pending:
            # Never hold the facade lock across .get(): collection
            # blocks on worker compute and a scrape must not.
            (chunk_predictions, chunk_stats, obs_delta, chunk_ingest,
             trace) = result.get()
            predictions.extend(
                Prediction(node=n, chain_id=c, flagged_at=f,
                           prediction_time=p, matched_tokens=tuple(m))
                for (n, c, f, p, m) in chunk_predictions
            )
            self.stats.add(chunk_stats)
            self.ingest.add(chunk_ingest)
            if obs is not None:
                with obs.lock:
                    if obs_delta:
                        obs.registry.merge(obs_delta)
                    if chunk_ingest.lines_read:
                        obs.record_ingest(chunk_ingest)
                    if obs.flight is not None and trace is not None:
                        run_id, shard_id, chunk_id = trace
                        obs.flight.note(
                            "chunk_done", run=run_id, shard=shard_id,
                            chunk=chunk_id, lines=submitted,
                            predictions=len(chunk_predictions),
                            quarantined=chunk_ingest.quarantined or None,
                        )
        if obs is not None:
            with obs.lock:
                obs.registry.gauge(PARALLEL_QUEUE_DEPTH).set(0)
        predictions.sort(key=lambda p: p.flagged_at)
        if obs is not None:
            with obs.lock:
                # Workers never run a live monitor (P² state can't
                # merge); the parent feeds its own from the returned
                # predictions so the fleet-wide sketch covers every
                # shard.  With timing="off" predictions carry
                # prediction_time == 0.0, which would poison the sketch
                # — skip them.
                if obs.live is not None and self.timing != "off":
                    obs.live.observe_predictions(
                        p.prediction_time for p in predictions)
                obs.record_live_run(
                    n_events=n_events,
                    seconds=_time.perf_counter() - t_run,
                    last_event_time=last_event_time,
                )
                obs.record_quality_run(
                    predictions=predictions,
                    stats_delta=self.stats.diff(stats_before),
                    now=last_event_time,
                )
                # Anomalies caused by this window (quarantine burn,
                # drift from merged worker numbers) capsule immediately.
                obs.check_flight()
                # History capture rides the same cadence: the merged
                # registry holds every shard's labeled series, so the
                # ring records per-shard deltas in one sample.
                obs.record_history()
        return predictions

    def close(self) -> None:
        for pool in self._pools:
            pool.close()
        for pool in self._pools:
            pool.join()

    def __enter__(self) -> "ParallelFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
