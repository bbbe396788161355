"""The traced run: per-layer metrics from spans around public calls.

Every call into a layer is made from here inside a span named after the
layer and the call (``logsim.stream.read_byte_batch``,
``core.fleet.run_buffer``, ...); the per-layer metrics are computed from
those span durations and from counters the layers expose.  Spans are
written to ``.perfbench-cache/traces/`` when the run ends.

The run also checks that the spans account for the untraced wall time:
for the native (fused), bytes and str batch paths it times
``run_lines`` untraced, then the same layer calls one span at a time,
and prints whether the layer spans' summed self times come within the
tracing overhead (the measured cost of the spans) plus
``COVERAGE_SLACK`` of the untraced wall.
"""

from __future__ import annotations

import math
import shutil
from collections import Counter
import time
from statistics import median

import e2e
import harness
from spans import Tracer

REPS = 3
PACED_LOW_S, PACED_HIGH_S = 3.0, 1.0
SPAN_COST_BATCH = 2000
CHECK_PASSES = 12  # untraced and traced passes per path in the trace check
# Share of the untraced wall the layer spans may miss or add beyond the
# tracing overhead: the glue run_lines runs between layer calls (message
# and hit lists, report building), the two clock reads per hit that
# ``feed_token`` makes and the inline loop does not, and the noise
# between separately timed passes on a shared host.
COVERAGE_SLACK = 0.15

# (name, unit) of every per-layer metric, in print order.
METRICS = (
    ("cli.import_s", "s"),
    ("persistence.scanner_warm_s", "s"),
    ("native.dlopen_warm_s", "s"),
    ("persistence.scanner_cold_s", "s"),
    ("native.compile_cold_s", "s"),
    ("parallel.spawn_s", "s"),
    ("daemon.ready_s", "s"),
    ("stream.read_byte_batch_lines_per_s", "lines/s"),
    ("stream.read_log_lines_per_s", "lines/s"),
    ("stream.quarantined", "count"),
    ("native.scan_records_lines_per_s", "lines/s"),
    ("scan.bytes_hits_lines_per_s", "lines/s"),
    ("scan.str_hits_lines_per_s", "lines/s"),
    ("scan.first_char_reject_ratio", "ratio"),
    ("scan.memo_hit_ratio", "ratio"),
    ("scan.dfa_match_ratio", "ratio"),
    ("scan.translate_evictions", "count"),
    ("fleet.match_self_s", "s"),
    ("predictor.feed_token_us", "us"),
    ("fleet.hits", "count"),
    ("fleet.nodes_with_hits", "count"),
    ("fleet.predictions", "count"),
    ("matcher.predictions_per_hit", "ratio"),
    ("parallel.route_lines_per_s", "lines/s"),
    ("parallel.chunks", "count"),
    ("daemon.submit_lines_per_s", "lines/s"),
    ("daemon.drain_s", "s"),
    ("daemon.stop_s", "s"),
    ("daemon.backpressure_stalls", "count"),
    ("daemon.pending_chunks_max", "count"),
    ("emitter.sender_late_ms", "ms"),
    ("obs.metrics_cost_ratio", "ratio"),
    ("fleet.run_lines_bytes_lines_per_s", "lines/s"),
    ("fleet.run_lines_str_lines_per_s", "lines/s"),
    ("parallel.run_lines_lines_per_s", "lines/s"),
    ("trace.overhead_ratio.native", "ratio"),
    ("trace.overhead_ratio.bytes", "ratio"),
    ("trace.overhead_ratio.str", "ratio"),
    ("trace.coverage_ratio.native", "ratio"),
    ("trace.coverage_ratio.bytes", "ratio"),
    ("trace.coverage_ratio.str", "ratio"),
)


class _Run:
    def __init__(self, ctx):
        self.ctx = ctx
        self.tr = Tracer(run=f"{ctx.workload}-{ctx.seed}")
        self.samples = {name: [] for name, _ in METRICS}

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; returns (result,
        seconds)."""
        with self.tr.span(name) as span:
            out = fn(*args, **kwargs)
        return out, span.end - span.start

    def put(self, name, value):
        self.samples[name].append(value)


def _startup(run: _Run) -> None:
    ctx = run.ctx
    bundle = str(ctx.bundle_path)
    for _ in range(REPS):
        out, _ = run.call("cli.startup[warm]", ctx.child, "startup.py",
                          "--bundle", bundle, "--split")
        run.put("cli.import_s", out["cli.import_s"])
        run.put("persistence.scanner_warm_s", out["persistence.scanner_s"])
        run.put("native.dlopen_warm_s", out["native.kernel_s"])
    cold = ctx.cache / f"cold-scanner-{ctx.workload}-{ctx.seed}"
    shutil.rmtree(cold, ignore_errors=True)
    try:
        env = dict(ctx.env, AAROHI_SCANNER_CACHE=str(cold))
        out, _ = run.call("cli.startup[cold]", ctx.child, "startup.py",
                          "--bundle", bundle, "--split", env=env)
    finally:
        shutil.rmtree(cold, ignore_errors=True)
    run.put("persistence.scanner_cold_s", out["persistence.scanner_s"])
    run.put("native.compile_cold_s", out["native.kernel_s"])
    ctx.gate.check("cold start resolves native", 1,
                   int(out["backend"] != "native"))


def _stream_and_scan(run: _Run):
    from repro.logsim.stream import (
        IngestStats, open_byte_buffer, read_byte_batch, read_log)
    from repro.persistence import compile_scanner_cached
    from repro.templates.store import CountingTemplateScanner, TemplateScanner

    ctx = run.ctx
    n = ctx.n_lines
    path = str(ctx.log)
    for _ in range(REPS):
        byte_stats = IngestStats()
        batch, s = run.call("logsim.stream.read_byte_batch", read_byte_batch,
                            path, on_error="warn", stats=byte_stats)
        run.put("stream.read_byte_batch_lines_per_s", n / s)
        text_stats = IngestStats()
        events, s = run.call(
            "logsim.stream.read_log",
            lambda: list(read_log(path, on_error="warn", stats=text_stats)))
        run.put("stream.read_log_lines_per_s", n / s)
    ctx.gate.funnel("read_byte_batch", byte_stats, n)
    ctx.gate.funnel("read_log", text_stats, n)
    run.put("stream.quarantined", byte_stats.quarantined)

    spec = ctx.bundle.store.lex_spec(keep=ctx.bundle.chains.token_set)
    compiled = {b: compile_scanner_cached(spec, backend=b)
                for b in ("native", "bytes", "str")}
    messages = [e.message for e in events]
    for _ in range(REPS):
        scanner = TemplateScanner(compiled["native"], backend="native")
        with open_byte_buffer(path) as blob:
            (n_rec, _, _, _), s = run.call(
                "native.scan_records", scanner.scan_records, blob)
        run.put("native.scan_records_lines_per_s", n_rec / s)
        scanner = TemplateScanner(compiled["bytes"], backend="bytes")
        bytes_hits, s = run.call("templates.scan_hits[bytes]",
                                 scanner.scan_hits, batch.messages)
        run.put("scan.bytes_hits_lines_per_s", n / s)
        scanner = TemplateScanner(compiled["str"], backend="str")
        str_hits, s = run.call("templates.scan_hits[str]",
                               scanner.scan_hits, messages)
        run.put("scan.str_hits_lines_per_s", n / s)
    ctx.gate.check("bytes and str scan hits agree", max(len(str_hits), 1),
                   int(bytes_hits != str_hits))

    counting = CountingTemplateScanner(compiled["native"], backend="native")
    counting.scan_hits(batch.messages)
    funnel = counting.funnel(n)
    survivors = n - funnel["first_char_rejected"]
    run.put("scan.first_char_reject_ratio", funnel["first_char_rejected"] / n)
    run.put("scan.memo_hit_ratio",
            funnel["memo_hits"] / survivors if survivors else 0.0)
    run.put("scan.dfa_match_ratio",
            funnel["dfa_matches"] / funnel["dfa_runs"]
            if funnel["dfa_runs"] else 0.0)
    run.put("scan.translate_evictions", funnel["translate_evictions"])
    return batch, compiled


def _route_and_match(run: _Run, batch, compiled) -> None:
    from repro.templates.store import TemplateScanner

    ctx = run.ctx
    blob = batch.message_blob()  # joined once, as a long-lived batch is
    for _ in range(REPS):
        fleet = ctx.bundle.make_fleet(scan_backend="native")
        report, s_run = run.call("core.fleet.run_buffer", fleet.run_buffer,
                                 batch, timing="off")
        scanner = TemplateScanner(compiled["native"], backend="native")
        hits, s_scan = run.call("native.scan_hits_view",
                                scanner.scan_hits_view, blob,
                                len(batch.messages))
        run.put("fleet.match_self_s", s_run - s_scan)
    ctx.gate.predictions("run_buffer[native]", ctx.reference,
                         report.predictions)
    n_hits = report.lines_tokenized
    run.put("fleet.hits", n_hits)
    run.put("fleet.nodes_with_hits", report.nodes)
    run.put("fleet.predictions", len(report.predictions))
    run.put("matcher.predictions_per_hit",
            len(report.predictions) / n_hits if n_hits else 0.0)

    is_relevant = ctx.bundle.chains.is_relevant
    replay = [(str(batch.nodes[i], "utf-8", "replace"), token, batch.times[i])
              for i, token in hits if is_relevant(token)]
    for _ in range(REPS):
        fleet = ctx.bundle.make_fleet(scan_backend="native")
        predictor_for = fleet.predictor_for

        def feed():
            out = []
            for node, token, t in replay:
                p = predictor_for(node).feed_token(token, t)
                if p is not None:
                    out.append(p)
            return out

        fed, s = run.call("core.predictor.feed_token", feed)
        run.put("predictor.feed_token_us", s / max(len(replay), 1) * 1e6)
    ctx.gate.predictions("feed_token replay", ctx.reference, fed)


def _parallel(run: _Run) -> None:
    from repro.core.parallel import route_key, shard_of

    ctx = run.ctx
    n_shards = harness.N_WORKERS

    def route():
        shards = [[] for _ in range(n_shards)]
        for line in ctx.lines:
            shards[shard_of(route_key(line), n_shards)].append(line)
        return shards

    for _ in range(REPS):
        shards, s = run.call("core.parallel.route", route)
        run.put("parallel.route_lines_per_s", ctx.n_lines / s)
    (fleet, spawn_s, _), _ = run.call("core.parallel.spawn",
                                      harness.start_parallel, ctx)
    run.put("parallel.spawn_s", spawn_s)
    run.put("parallel.chunks",
            sum(math.ceil(len(s) / fleet.chunk_lines) for s in shards))
    try:
        predictions, s = run.call("core.parallel.run_lines",
                                  fleet.run_lines, ctx.lines)
        run.put("parallel.run_lines_lines_per_s", ctx.n_lines / s)
    finally:
        run.call("core.parallel.close", fleet.close)
    ctx.gate.predictions("ParallelFleet", ctx.reference, predictions)
    ctx.gate.funnel("ParallelFleet", fleet.ingest, ctx.n_lines)


def _daemon(run: _Run) -> None:
    ctx = run.ctx
    (daemon, _, ready_s), _ = run.call("core.daemon.ready",
                                       harness.start_daemon, ctx)
    run.put("daemon.ready_s", ready_s)
    try:
        submit = daemon.submit

        def submit_all():
            for line in ctx.lines:
                submit(line)

        _, s = run.call("core.daemon.submit", submit_all)
        run.put("daemon.submit_lines_per_s", ctx.n_lines / s)
        drained, s = run.call("core.daemon.drain", daemon.drain,
                              harness.DRAIN_TIMEOUT_S)
        run.put("daemon.drain_s", s)
        ctx.gate.check("daemon drained", 1, int(not drained))
        run.put("daemon.backpressure_stalls",
                daemon.status()["backpressure_stalls"])
    finally:
        report, s = run.call("core.daemon.stop", daemon.stop, drain=True)
    run.put("daemon.stop_s", s)
    ctx.gate.predictions("FleetDaemon submit", ctx.reference,
                         report.predictions)
    ctx.gate.funnel("FleetDaemon submit", report.ingest, ctx.n_lines)

    plan = harness.paced_plan(ctx, PACED_LOW_S, PACED_HIGH_S)
    paced, _ = run.call("core.daemon.paced", harness.paced_until_valid,
                        ctx, plan, sample_backlog=True)
    run.put("daemon.pending_chunks_max", paced["backlog_max"])
    run.put("emitter.sender_late_ms", paced["sent"]["late_p99_ms"])


def _obs_cost(run: _Run) -> None:
    from repro.obs import Observability

    off, on = [], []
    for k in range(2 * REPS):
        with_obs = k % 4 in (1, 2)  # each side runs first equally often
        name = ("core.fleet.run_lines[native+obs]" if with_obs
                else "core.fleet.run_lines[native]")
        (s, _), _ = run.call(name, harness.batch_pass, run.ctx, "native",
                             obs=Observability() if with_obs else None)
        (on if with_obs else off).append(s)
    run.put("obs.metrics_cost_ratio", median(on) / median(off))


def _span_cost() -> float:
    """Seconds one span costs the code it wraps: the median over
    batches of empty spans on a scratch tracer."""
    tr = Tracer(run="span-cost")
    per_span = []
    for _ in range(5):
        tr.spans.clear()
        t = time.perf_counter()
        for _ in range(SPAN_COST_BATCH):
            with tr.span("empty"):
                pass
        per_span.append((time.perf_counter() - t) / SPAN_COST_BATCH)
    return median(per_span)


def _layer_passes(run: _Run):
    """For each batch path, a function that makes ``run_lines``' layer
    calls one by one, each in its own span, on a fresh fleet.  The hit
    routing and matching that ``run_lines`` does inline is replayed
    through ``AarohiPredictor.feed_token``."""
    from repro.core.events import parse_record_bytes
    from repro.logsim.stream import (
        IngestStats, open_byte_buffer, read_byte_batch, read_log)

    ctx = run.ctx
    path = str(ctx.log)
    is_relevant = ctx.bundle.chains.is_relevant
    call = run.call

    def route_and_match(fleet, hits):
        """``hits`` are (node, token, time) of every scanned hit."""
        predictor_for = fleet.predictor_for

        def feed():
            for node, token, t in hits:
                if is_relevant(token):
                    predictor_for(node).feed_token(token, t)

        call("core.predictor.feed_token", feed)

    def native(fleet):
        with open_byte_buffer(path) as blob:
            (_, _, items, _), _ = call("native.scan_records",
                                       fleet.scanner.scan_records, blob)

            def parse():
                out = []
                for off, length, token in items:
                    record = bytes(blob[off:off + length])
                    t, raw, _ = parse_record_bytes(record)
                    out.append((str(raw, "utf-8", "replace"), token, t))
                return out

            hits, _ = call("core.events.parse_record_bytes", parse)
        route_and_match(fleet, hits)

    def bytes_(fleet):
        batch, _ = call("logsim.stream.read_byte_batch", read_byte_batch,
                        path, on_error="warn", stats=IngestStats())
        found, _ = call("templates.scan_hits[bytes]", fleet.scanner.scan_hits,
                        batch.messages)
        nodes, times = batch.nodes, batch.times
        route_and_match(fleet, [(str(nodes[i], "utf-8", "replace"), token,
                                 times[i]) for i, token in found])

    def str_(fleet):
        events, _ = call(
            "logsim.stream.read_log",
            lambda: list(read_log(path, on_error="warn", stats=IngestStats())))

        def predictor_per_node():
            # The event path sets every node's line count up front.
            predictor_for = fleet.predictor_for
            for node, n in Counter(e.node for e in events).items():
                predictor_for(node).stats.lines_seen += n

        call("core.fleet.predictor_for", predictor_per_node)
        found, _ = call("templates.scan_hits[str]",
                        lambda: fleet.scanner.scan_hits(
                            [e.message for e in events]))
        route_and_match(fleet, [(events[i].node, token, events[i].time)
                                for i, token in found])

    return (("native", native), ("bytes", bytes_), ("str", str_))


def _trace_check(run: _Run) -> None:
    """Untraced ``run_lines(path)`` passes alternate with passes that
    make the same layer calls one span at a time.  The layer spans' self
    times are timed apart from the untraced wall, so their sum matching
    the untraced wall (``trace.coverage_ratio`` near 1) checks that the
    spans cover every layer ``run_lines`` spends time in.  The tracing
    overhead is what the spans themselves cost: the cost of one span
    times the spans a traced pass opens, over the untraced wall."""
    import gc

    ctx = run.ctx
    path = str(ctx.log)
    span_cost = _span_cost()
    for backend, layers in _layer_passes(run):
        untraced, covered, n_spans = [], [], 0
        for k in range(CHECK_PASSES):
            gc.collect()
            fleet = ctx.bundle.make_fleet(scan_backend=backend)
            # Order U T T U U T ...: each side runs first equally often.
            if k % 4 in (0, 3):
                t = time.perf_counter()
                fleet.run_lines(path, timing="off")
                untraced.append(time.perf_counter() - t)
                continue
            first = len(run.tr.spans)
            with run.tr.span(f"layers[{backend}]") as root:
                layers(fleet)
            selfs = run.tr.self_times()
            covered.append(sum(selfs[sp.id] for sp in run.tr.spans[first:]
                               if sp.parent == root.id))
            n_spans = len(run.tr.spans) - first - 1
        base = median(untraced)
        if backend != "native":
            run.put(f"fleet.run_lines_{backend}_lines_per_s",
                    ctx.n_lines / base)
        run.put(f"trace.overhead_ratio.{backend}", span_cost * n_spans / base)
        run.put(f"trace.coverage_ratio.{backend}", median(covered) / base)


def run(ctx):
    """Returns ({metric: (value, unit)}, printable rows)."""
    from stats import summarize

    e2e.warm_up(ctx)
    r = _Run(ctx)
    _startup(r)
    batch, compiled = _stream_and_scan(r)
    _route_and_match(r, batch, compiled)
    del batch
    _parallel(r)
    _daemon(r)
    _obs_cost(r)
    _trace_check(r)

    traces = ctx.cache / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    r.tr.write(traces / f"{ctx.workload}-{ctx.seed}.jsonl")
    print("span self time by name (s):")
    for name, s in sorted(r.tr.self_by_name().items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {s:10.4f}")

    for backend in ("native", "bytes", "str"):
        cover = r.samples[f"trace.coverage_ratio.{backend}"][0]
        over = r.samples[f"trace.overhead_ratio.{backend}"][0]
        ok = abs(cover - 1) <= over + COVERAGE_SLACK
        print(f"trace check [{backend}]: layer self times = {cover:.3f} x "
              f"untraced run_lines wall; allowed |1 - x| <= tracing "
              f"overhead {over:.2g} + slack {COVERAGE_SLACK:g}: "
              + ("PASS" if ok else "FAIL"))

    metrics, rows = {}, []
    for name, unit in METRICS:
        xs = r.samples[name]
        if not xs:
            continue
        value = median(xs)
        metrics[name] = (value, unit)
        rows.append((name, unit, value, summarize(xs, unit == "lines/s")))
    return metrics, rows
