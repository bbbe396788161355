"""Per-node predictor fleet.

"For each node in the cluster, we dedicate a predictor instance that
processes messages of that node only" (§III, Fig. 2).  The fleet routes
a merged cluster log stream to per-node predictor instances — the
deployment shape of the HSS-side aggregation point (Fig. 16) — and
collects predictions.
"""

from __future__ import annotations

import time as _time
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional

from ..obs import Observability
from ..obs.spans import (
    STAGE_DECODE,
    STAGE_EMIT,
    STAGE_INGEST,
    STAGE_MATCH,
    STAGE_SCAN,
    SpanTimer,
)
from .chains import ChainSet
from .events import LogEvent, Prediction
from .predictor import (
    _TIMING_MODES,
    AarohiPredictor,
    Backend,
    PredictorStats,
    Timing,
    Tokenizer,
)

_node_of = attrgetter("node")
_message_of = attrgetter("message")

# Sentinel for the internal ``_span`` plumbing: "no caller-provided
# timer — consult the span clock yourself".  Distinct from ``None``,
# which means "the outer entry point already consulted the clock and
# this run is unsampled".
_SPAN_AUTO = object()


def _tokenize_hits(tokenize: Tokenizer) -> Callable:
    """A ``scan_hits`` adapter for scanners that only tokenize one line
    at a time (``NaiveTemplateScanner``, or a bare tokenizer)."""
    def scan_hits(messages):
        return [(i, token) for i, token in enumerate(map(tokenize, messages))
                if token is not None]
    return scan_hits


def _event_hits(events, hits):
    """The decoded-event hit source: ``(node, token, time)`` per hit."""
    for i, token in hits:
        event = events[i]
        yield event.node, token, event.time


@dataclass
class FleetReport:
    """Aggregate outcome of a fleet run.

    ``stats`` is the summed :meth:`PredictorStats.diff` of every
    predictor that participated — **this run only**, so repeated
    ``run()`` calls on a long-lived fleet never double-count earlier
    windows.
    """

    predictions: List[Prediction] = field(default_factory=list)
    stats: PredictorStats = field(default_factory=PredictorStats)
    nodes: int = 0
    # Decode-funnel counters when the run came through :meth:`run_lines`
    # (None for pre-decoded event streams).
    ingest: Optional[object] = None

    @property
    def lines_seen(self) -> int:
        return self.stats.lines_seen

    @property
    def lines_tokenized(self) -> int:
        return self.stats.lines_tokenized

    @property
    def fc_related_fraction(self) -> float:
        return self.stats.fc_related_fraction


class PredictorFleet:
    """Lazy map of node id → :class:`AarohiPredictor`.

    Predictor instances share the chain set and the compiled scanner
    (the generated DFA is immutable), so a 10⁵-node fleet costs one
    table build plus O(1) state per node.
    """

    def __init__(
        self,
        chains: ChainSet,
        tokenizer: Tokenizer,
        *,
        timeout: Optional[float] = None,
        backend: Backend = "matcher",
        clock: Optional[Callable[[], float]] = None,
        obs: Optional[Observability] = None,
        scanner=None,
    ):
        self.chains = chains
        self.tokenizer = tokenizer
        self.timeout = timeout
        self.backend: Backend = backend
        self.obs = obs
        self.scanner = scanner  # the shared scanner object, if known
        self._clock = clock
        self._predictors: Dict[str, AarohiPredictor] = {}
        # Hit-loop routing: raw node id (str, or bytes from byte
        # sources) -> predictor, and lines scanned without per-predictor
        # attribution (see :meth:`run_buffer`) so the funnel resolution
        # stays exact.
        self._routes: Dict[object, AarohiPredictor] = {}
        self._scanned_unattributed = 0

    @classmethod
    def from_store(
        cls,
        chains: ChainSet,
        store,
        *,
        optimized: bool = True,
        obs: Optional[Observability] = None,
        scanner=None,
        scan_backend: str = "str",
        **kwargs,
    ) -> "PredictorFleet":
        if scanner is None:
            if optimized:
                scanner = store.compile_scanner(
                    keep=chains.token_set, counting=obs is not None,
                    backend=scan_backend)
            else:
                from ..templates.store import NaiveTemplateScanner

                scanner = NaiveTemplateScanner(store, keep=chains.token_set)
        # Per-event paths hand the tokenizer decoded text, so on byte
        # backends the fleet holds the encoding adapter, not the raw
        # byte kernel (which only the batched hit sources call).
        tokenizer = getattr(scanner, "tokenize_text", None) or scanner.tokenize
        return cls(chains, tokenizer, obs=obs, scanner=scanner, **kwargs)

    def predictor_for(self, node: str) -> AarohiPredictor:
        predictor = self._predictors.get(node)
        if predictor is None:
            kwargs = {}
            if self._clock is not None:
                kwargs["clock"] = self._clock
            predictor = AarohiPredictor(
                self.chains,
                self.tokenizer,
                timeout=self.timeout,
                backend=self.backend,
                node=node,
                obs=self.obs,
                **kwargs,
            )
            self._predictors[node] = predictor
        return predictor

    def process(self, event: LogEvent) -> Optional[Prediction]:
        return self.predictor_for(event.node).process(event)

    def _span_start(self) -> Optional[SpanTimer]:
        """Consult the span clock (if any) for this run — once per
        outermost entry point (run / run_lines / run_buffer)."""
        obs = self.obs
        if obs is not None and obs.spans is not None:
            return obs.spans.start_run()
        return None

    def run(
        self,
        events: Iterable[LogEvent],
        *,
        timing: Timing = "full",
        _span=_SPAN_AUTO,
    ) -> FleetReport:
        """Drive a whole (time-ordered) stream through the fleet.

        The fleet has two drivers.  ``timing="full"`` is the per-event
        reference: :meth:`process` per event, timing every tokenize and
        every feed.  ``"sampled"`` and ``"off"`` take the hit loop
        (:meth:`_drive_hits`): the accept-or-discard decision is
        node-independent (every node shares the merged scanner), so one
        batched ``scan_hits`` call scans every message and only the rare
        surviving hits are routed to their per-node engines.  Discarded
        lines never surface as per-event Python work — no tuple, no dict
        probe, no function call.  ``"sampled"``
        reads the clock twice per FC-related hit; ``"off"`` never does.
        A scanner without ``scan_hits`` gets a per-line adapter over the
        tokenizer, so it takes the same loop.

        Either way predictions come back in stream order, exactly as the
        per-event loop would produce them, and per-node predictor stats
        stay byte-identical to per-event processing (the differential
        suite asserts both).

        The report counts **this run only**.  When the fleet carries an
        :class:`~repro.obs.Observability`, the run is folded into its
        registry here — per run, never per event.
        """
        if timing not in _TIMING_MODES:
            raise ValueError(f"unknown timing mode {timing!r}")
        span = self._span_start() if _span is _SPAN_AUTO else _span
        obs = self.obs
        t_run = _time.perf_counter() if obs is not None else 0.0
        if not isinstance(events, (list, tuple)):
            events = list(events)
        report = FleetReport()
        # Per-node line counts in one C-speed pass (map/attrgetter/
        # Counter all run without per-event bytecode).
        node_counts = Counter(map(_node_of, events))
        predictors = [self.predictor_for(node) for node in node_counts]
        if timing == "full":
            if span is not None:
                span.lap(STAGE_DECODE, len(events))
            before = [p.stats.snapshot() for p in predictors]
            process = self.process
            predictions = report.predictions
            for event in events:
                prediction = process(event)
                if prediction is not None:
                    predictions.append(prediction)
            for predictor, since in zip(predictors, before):
                report.stats.add(predictor.stats.diff(since))
            if span is not None:
                # process() tokenizes and matches in one call, so the
                # whole loop lands on the match stage.
                span.lap(STAGE_MATCH, report.stats.lines_tokenized)
        else:
            for predictor, n in zip(predictors, node_counts.values()):
                predictor.stats.lines_seen += n
            messages = list(map(_message_of, events))
            if getattr(self.scanner, "backend", "str") != "str":
                # Byte-backend kernels scan raw bytes; pre-decoded events
                # re-encode here (the zero-decode win belongs to run_buffer).
                messages = [m.encode("utf-8", "replace") for m in messages]
            if span is not None:
                # Node accounting + message extraction (+ re-encode) is the
                # in-memory analog of the decode stage.
                span.lap(STAGE_DECODE, len(events))
            scan_hits = (getattr(self.scanner, "scan_hits", None)
                         or _tokenize_hits(self.tokenizer))
            hits = scan_hits(messages)
            if span is not None:
                span.lap(STAGE_SCAN, len(events))
            report.stats.lines_seen = len(events)
            self._drive_hits(_event_hits(events, hits), timing, report, span)
        report.nodes = len(self._predictors)
        if obs is not None:
            self._record_run(obs, report, _time.perf_counter() - t_run,
                             list(node_counts.values()),
                             events[-1].time if events else None, span)
        return report

    def run_lines(
        self,
        source,
        *,
        on_error: str = "warn",
        reorder_horizon: float = 0.0,
        timing: Timing = "full",
    ) -> FleetReport:
        """Replay serialized log lines through the fleet, tolerantly.

        ``source`` is a path / text handle (routed through
        :func:`~repro.logsim.stream.read_log`) or an iterable of lines
        (:func:`~repro.logsim.stream.decode_lines`).  ``on_error``
        selects the decode policy — the default keeps the replay alive
        across malformed lines, quarantining them into the report's
        :attr:`~FleetReport.ingest` counters.  A positive
        ``reorder_horizon`` routes the decoded events through a
        :class:`~repro.logsim.stream.SortBuffer` so near-sorted input
        (clock skew, interleaved controllers) reaches the engines in
        time order.  When the fleet carries an Observability, the
        ingest funnel is folded in alongside the run's other series.

        ``timing`` picks the driver as in :meth:`run`.  ``"off"`` and
        ``"sampled"`` feed the one hit loop from whichever hit source
        fits: the fused native kernel for a native scanner reading a
        path or buffer, :meth:`run_buffer` for other byte backends, and
        decoded events otherwise.  ``"full"`` always decodes and takes
        the per-event reference.
        """
        from pathlib import Path

        from ..logsim.stream import (
            IngestStats,
            decode_lines,
            read_byte_batch,
            read_log,
            sorted_stream,
        )

        stats = IngestStats()
        span = self._span_start()
        is_buffer = isinstance(source, (str, Path, bytes, bytearray, memoryview))
        # Fused native path: the compiled kernel splits, header-checks
        # and scans the raw blob in a single C pass — Python sees only
        # the hits and the rare suspect records.  Restricted to the
        # plain replay shape: no reorder buffer, and a tolerant policy
        # (strict must attribute the *first* bad record, which means
        # classifying every record in order).
        if (
            timing != "full"
            and reorder_horizon == 0
            and on_error != "strict"
            and getattr(self.scanner, "scan_records", None) is not None
            and is_buffer
        ):
            report = self._run_fused(
                source, on_error=on_error, timing=timing, stats=stats,
                span=span)
            report.ingest = stats
            return report
        # Byte fast path: a byte-backend scanner reading from a file or
        # a raw byte buffer never decodes the ~99% of lines the funnel
        # rejects — records go straight from mmap to the byte kernel.
        if (
            timing != "full"
            and getattr(self.scanner, "backend", "str") != "str"
            and is_buffer
        ):
            batch = read_byte_batch(
                source, on_error=on_error,
                reorder_horizon=reorder_horizon, stats=stats,
            )
            if span is not None:
                # Zero-decode path: mmap/buffer read + byte header
                # parse is the whole ingest stage; decode never runs.
                span.lap(STAGE_INGEST, len(batch))
            if self.obs is not None:
                self.obs.record_ingest(stats)
            report = self.run_buffer(batch, timing=timing, _span=span)
            report.ingest = stats
            return report
        if isinstance(source, (bytes, bytearray, memoryview)):
            # Raw buffers can still reach the decoded path (timing=
            # "full", or a str-kernel fleet fed a byte blob): ingest at
            # the byte layer, then decode for the event driver.
            events = iter(read_byte_batch(
                source, on_error=on_error,
                reorder_horizon=reorder_horizon, stats=stats,
            ).decode_events())
        else:
            if isinstance(source, (str, Path)) or hasattr(source, "read"):
                events = read_log(source, on_error=on_error, stats=stats)
            else:
                events = decode_lines(source, on_error=on_error, stats=stats)
            if reorder_horizon > 0:
                events = sorted_stream(events, reorder_horizon, stats)
        if span is not None:
            span.lap(STAGE_INGEST)  # iterator setup; the read is lazy
        events = list(events)
        if span is not None:
            # Materializing the stream drives read + tolerant decode
            # (+ reorder repair) in one pass; it all lands on decode.
            span.lap(STAGE_DECODE, len(events))
        if self.obs is not None:
            self.obs.record_ingest(stats)
        report = self.run(events, timing=timing, _span=span)
        report.ingest = stats
        return report

    def run_buffer(
        self, batch, *, timing: Timing = "off", _span=_SPAN_AUTO
    ) -> FleetReport:
        """Drive a :class:`~repro.logsim.stream.ByteRecordBatch` through
        the fleet without decoding rejected lines.

        This is the byte-pipeline hit source: one batched byte-kernel
        ``scan_hits`` call over the raw records, whose hits feed the
        same hit loop as :meth:`run`.  Node ids stay raw bytes until a
        node's first hit, so a discarded record costs zero Python
        objects beyond its slice.

        One deliberate difference from the event paths: per-predictor
        ``lines_seen`` is **not** attributed (that would re-introduce a
        per-line hash+probe on every record).  The fleet-level report
        and the scanner-funnel identity stay exact via
        ``_scanned_unattributed``, which :meth:`_record_run` folds into
        the funnel resolution.  ``timing="full"`` is rejected — per-line
        tokenize timing requires the per-event path.
        """
        if timing not in _TIMING_MODES:
            raise ValueError(f"unknown timing mode {timing!r}")
        if timing == "full":
            raise ValueError(
                "run_buffer cannot time per-line tokenization; decode the "
                "batch and use run(events, timing='full') instead")
        span = self._span_start() if _span is _SPAN_AUTO else _span
        scan_hits = getattr(self.scanner, "scan_hits", None)
        if scan_hits is None or getattr(self.scanner, "backend", "str") == "str":
            return self.run(batch.decode_events(), timing=timing, _span=span)
        obs = self.obs
        t_run = _time.perf_counter() if obs is not None else 0.0
        report = FleetReport()
        times = batch.times
        nodes = batch.nodes
        hits = None
        scan_view = getattr(self.scanner, "scan_hits_view", None)
        if scan_view is not None and hasattr(batch, "message_blob"):
            # Native backend: sweep the batch's cached contiguous view
            # in one C call, skipping the per-run newline join.  A
            # message embedding a raw newline returns None (desync);
            # scan_hits resolves that per message, count-exactly.
            hits = scan_view(batch.message_blob(), len(batch.messages))
        if hits is None:
            hits = scan_hits(batch.messages)
        if span is not None:
            span.lap(STAGE_SCAN, len(batch))
        self._drive_hits(
            ((nodes[i], token, times[i]) for i, token in hits),
            timing, report, span)
        n_records = len(batch)
        self._scanned_unattributed += n_records
        report.stats.lines_seen = n_records
        report.nodes = len(self._predictors)
        if obs is not None:
            self._record_run(obs, report, _time.perf_counter() - t_run,
                             [n_records] if n_records else [],
                             times[-1] if n_records else None, span)
        return report

    def _run_fused(
        self,
        source,
        *,
        on_error: str,
        timing: Timing,
        stats,
        span: Optional[SpanTimer] = None,
    ) -> FleetReport:
        """Native fused ingest+scan: one C pass over the raw blob.

        The kernel's ``scan_records`` returns, in record order, only
        the records Python must look at: template *hits* (header
        already validated in C) and *suspects* (records that failed the
        strict C header check — malformed, odd timestamp shape, or an
        escaped message).  Suspects re-run the tolerant Python parser,
        so quarantine decisions, counts, and warn-policy logging are
        identical to :func:`~repro.logsim.stream.read_record_batch`;
        decoded suspects are tokenized through the scanner like any
        other line.  Hits stream in record order into the same hit loop
        as :meth:`run`, so the per-node chain engines see the exact feed
        sequence of the unfused pipeline — predictions are
        byte-identical (asserted by the fused-equivalence tests).  ``stats`` is this
        run's fresh ingest funnel.
        """
        from ..logsim.stream import WARN_LINE_CAP, _log, open_byte_buffer
        from .events import LogDecodeError, parse_record_bytes

        obs = self.obs
        t_run = _time.perf_counter() if obs is not None else 0.0
        warn = on_error == "warn"
        report = FleetReport()
        tokenize = self.scanner.tokenize
        by_reason = stats.quarantined_by_reason
        tail_t: Optional[float] = None  # last decoded suspect (stream order)
        tail_off = -1
        last_time: Optional[float] = None
        with open_byte_buffer(source) as blob:
            if span is not None:
                span.lap(STAGE_INGEST)  # open/mmap; the read is the scan
            n_records, n_ok, items, last_ok = self.scanner.scan_records(blob)
            if span is not None:
                span.lap(STAGE_SCAN, n_records)

            def hits():
                nonlocal tail_t, tail_off
                for off, length, token in items:
                    record = blob[off:off + length]
                    if type(record) is not bytes:  # bytearray source
                        record = bytes(record)
                    if token < 0:  # suspect: the tolerant Python parse path
                        try:
                            t, raw, message = parse_record_bytes(record)
                        except LogDecodeError as exc:
                            stats.quarantined += 1
                            reason = exc.reason
                            by_reason[reason] = by_reason.get(reason, 0) + 1
                            if warn and stats.quarantined <= WARN_LINE_CAP:
                                _log.warning("quarantined record (%s)", exc)
                            continue
                        stats.decoded += 1
                        tail_t, tail_off = t, off
                        token = tokenize(message)
                        if token is None:
                            continue
                    else:  # hit: C validated the header, the parse cannot fail
                        t, raw, _ = parse_record_bytes(record)
                    yield raw, token, t

            self._drive_hits(hits(), timing, report, span)
            # Stream-order last event time: the later of the last
            # C-accepted record and the last decoded suspect.
            if last_ok is not None and last_ok[0] > tail_off:
                lo, ll = last_ok
                rec = blob[lo:lo + ll]
                if type(rec) is not bytes:
                    rec = bytes(rec)
                last_time = parse_record_bytes(rec)[0]
            elif tail_off >= 0:
                last_time = tail_t
        if warn and stats.quarantined > WARN_LINE_CAP:
            _log.warning(
                "quarantined %d further records (suppressed per-record "
                "warnings after the first %d)",
                stats.quarantined - WARN_LINE_CAP, WARN_LINE_CAP)
        stats.lines_read += n_records
        stats.decoded += n_ok
        decoded = stats.decoded
        self._scanned_unattributed += decoded
        report.stats.lines_seen = decoded
        report.nodes = len(self._predictors)
        if obs is not None:
            obs.record_ingest(stats)
            self._record_run(obs, report, _time.perf_counter() - t_run,
                             [decoded] if decoded else [], last_time, span)
        return report

    def _drive_hits(
        self,
        hits: Iterable[tuple],
        timing: Timing,
        report: FleetReport,
        span: Optional[SpanTimer],
    ) -> None:
        """The one hit loop behind every batched path.

        ``hits`` yields ``(node, token, event_time)`` in stream order;
        ``node`` is the raw node id of the hit source (``str`` from
        decoded events, ``bytes`` from byte records), decoded and routed
        to its predictor once per node through ``_routes``.  Each
        FC-related hit is fed to its node's engine — timed when
        ``timing="sampled"`` — and a completed match is emitted as a
        :class:`Prediction` with its accumulated chain-check time.  The
        loop fills the report's ``lines_tokenized``, ``predictions`` and
        ``feed_seconds``; the caller owns ``lines_seen``.
        """
        is_relevant = self.chains.is_relevant
        routes = self._routes
        predictions = report.predictions
        sampled = timing == "sampled"
        tokenized = 0
        n_predictions = 0
        feed_seconds = 0.0
        t0 = 0.0
        for node, token, event_time in hits:
            if not is_relevant(token):
                continue
            predictor = routes.get(node)
            if predictor is None:
                predictor = routes[node] = self.predictor_for(
                    node if isinstance(node, str)
                    else str(node, "utf-8", "replace"))
            predictor.stats.lines_tokenized += 1
            tokenized += 1
            if sampled:
                t0 = predictor._clock()
            match = predictor._engine.feed(token, event_time)
            if sampled:
                cost = predictor._clock() - t0
                predictor.stats.feed_seconds += cost
                feed_seconds += cost
                predictor._chain_cost += cost
            if match is None:
                continue
            prediction_time = 0.0
            if sampled:
                prediction_time = predictor._chain_cost
                predictor._chain_cost = 0.0
            predictor.stats.predictions += 1
            n_predictions += 1
            # Predictions are rare, so per-hit clock reads for the emit
            # stage only run on sampled runs and cost nothing upstream.
            t_emit = _time.perf_counter() if span is not None else 0.0
            prediction = Prediction(
                node=predictor.node,
                chain_id=match.chain_id,
                flagged_at=match.end_time,
                prediction_time=prediction_time,
                matched_tokens=match.tokens,
            )
            if predictor._obs_emit is not None:
                predictor._obs_emit(prediction)
            predictions.append(prediction)
            if span is not None:
                span.carve(STAGE_MATCH, STAGE_EMIT,
                           _time.perf_counter() - t_emit, 1)
        if span is not None:
            span.lap(STAGE_MATCH, tokenized)
        report.stats.lines_tokenized = tokenized
        report.stats.predictions = n_predictions
        report.stats.feed_seconds = feed_seconds

    def _record_run(
        self,
        obs: Observability,
        report: FleetReport,
        seconds: float,
        batch_sizes: List[int],
        last_event_time: Optional[float] = None,
        span: Optional[SpanTimer] = None,
    ) -> None:
        # The whole fold-in sequence runs under the facade lock so a
        # concurrent scrape (server thread) never sees a half-recorded
        # run — e.g. lines_seen bumped but the funnel counters not yet
        # mirrored, which would break the funnel identity mid-scrape.
        with obs.lock:
            obs.record_run_stats(report.stats)
            obs.record_fleet_run(
                n_events=report.lines_seen,
                n_nodes=report.nodes,
                seconds=seconds,
                batch_sizes=batch_sizes,
            )
            predictors = self._predictors.values()
            obs.record_engine_stats(p._engine.stats for p in predictors)
            if self.scanner is not None:
                # The scanner is shared by every predictor, so its funnel
                # is resolved against the fleet-wide cumulative line
                # count — including byte-batch lines scanned without
                # per-predictor attribution (see :meth:`run_buffer`).
                obs.record_scanner(
                    self.scanner,
                    sum(p.stats.lines_seen for p in predictors)
                    + self._scanned_unattributed,
                )
            # Live/quality planes (no-ops unless configured on the
            # facade).  Latencies already reached the live sketch through
            # the predictors' emit hooks; this folds in rate, lag,
            # predictions, and the batch's discard fraction.
            obs.record_live_run(
                n_events=report.lines_seen,
                seconds=seconds,
                last_event_time=last_event_time,
            )
            obs.record_quality_run(
                predictions=report.predictions,
                stats_delta=report.stats,
                now=last_event_time,
            )
            obs.record_spans(span)
            # With everything folded in, evaluate the anomaly trigger
            # matrix — a burn/breach/trip caused by this run dumps its
            # flight capsule before the next run muddies the ring.
            obs.check_flight()
            # Then offer the settled snapshot to the history ring (the
            # cadence throttle makes this nearly free when not due);
            # an accepted capture also runs one alert-rules pass.  The
            # ring keeps its own (injectable) clock — wall time, not
            # event time, so paced replays and live streams look alike.
            obs.record_history()

    # -- state handoff ---------------------------------------------------
    def state_snapshot(self) -> dict:
        """Serializable fleet state for worker handoff: per-node
        predictor snapshots, **mid-chain nodes only** (idle nodes carry
        no state worth shipping and are rebuilt lazily on their next
        line).  Per-node state is a few scalars, so even a fleet with
        thousands of instantiated predictors snapshots in microseconds.
        """
        nodes: Dict[str, dict] = {}
        for node, predictor in self._predictors.items():
            state = predictor.state_snapshot()
            if state is not None:
                nodes[node] = state
        return {"backend": self.backend, "nodes": nodes}

    def restore_state(self, state: dict) -> int:
        """Adopt a :meth:`state_snapshot` from an equivalent fleet (same
        chain set and backend) — how a replacement worker inherits the
        dead shard's in-flight chains.  Returns the number of node
        states restored."""
        backend = state.get("backend", self.backend)
        if backend != self.backend:
            raise ValueError(
                f"fleet snapshot from backend {backend!r} cannot restore "
                f"into a {self.backend!r} fleet")
        nodes = state.get("nodes", {})
        for node, node_state in nodes.items():
            self.predictor_for(node).restore_state(node_state)
        return len(nodes)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._predictors)
