"""Entry-point runners shared by the end-to-end and the traced runs.

Every runner starts from the generated files, runs one public entry
point of the program on a fresh fleet, daemon or pool, and checks what
came out against the in-process ``str`` reference through the
:class:`Gate`.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from stats import (
    alert_latencies,
    compare_predictions,
    detectable,
    funnel_failures,
    predictions_digest,
    unflagged_failures,
)

HERE = Path(__file__).resolve().parent
N_WORKERS = 2
# Open-loop rates (lines/s).  HPC1's whole 5,576-node cluster emits
# about 170 lines/s; ``low`` sits above that, where a shard's 256-line
# chunk would take 0.26 s to fill, so the daemon's 0.1 s time-based
# flush sets latency, and ``high`` at ~15% of the daemon's
# flood capacity on chain-dense, where 256-line chunks fill in ~50 ms
# and chunk fill, IPC and matching set it.  At 20,000 lines/s (~30% of
# capacity) a host ~25% slower for minutes raised these latencies by
# ~40%, more than any bound allows.
RATE_LOW, RATE_HIGH = 2_000.0, 10_000.0
ALERT_LIMIT_S = 1.0          # an alert later than this is a failed operation
SENDER_LATE_LIMIT_MS = 20.0  # a paced run whose sender p99 lateness exceeds
                             # this is invalid and is repeated
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Gate:
    """Per-run correctness accounting: every check adds attempted
    operations and the failures among them; notes say what failed."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, what: str, attempted: int, failed: int,
              detail: str = "") -> bool:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed"
                              + (f" ({detail})" if detail else ""))
        return not failed

    def predictions(self, what: str, reference, got) -> bool:
        missing, extra = compare_predictions(reference, got)
        return self.check(
            f"{what} predictions", max(len(reference), 1) + len(extra),
            len(missing) + len(extra),
            f"{len(missing)} missing, {len(extra)} extra")

    def funnel(self, what: str, ingest, offered: int) -> bool:
        return self.check(
            f"{what} ingest funnel", offered, funnel_failures(ingest, offered),
            f"lines_read={ingest.lines_read} decoded={ingest.decoded} "
            f"quarantined={ingest.quarantined} offered={offered}")


class Context:
    """One run's inputs: the workload's files, the paced stream's files
    and the environment every child process inherits."""

    def __init__(self, root: Path, cache: Path, workload: str, seed: int,
                 seconds: float, work: Path, paced_work: Path):
        from repro.persistence import PredictorBundle

        self.cache = cache
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.log = work / "log.log"
        self.bundle_path = work / "bundle.json"
        self.truth = json.loads((work / "truth.json").read_text())
        self.bundle = PredictorBundle.load(self.bundle_path)
        self.lines = self.log.read_text(encoding="utf-8").splitlines()
        self.n_lines = len(self.lines)
        self.paced_log = paced_work / "log.log"
        self.paced_sha256 = json.loads(
            (paced_work / "truth.json").read_text())["sha256"]["log.log"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.gate = Gate()
        self.worker_hwm_kb = 0
        self.reference = None
        self.records: dict = {}  # per-path report fields, not gated
        self.resolved: dict = {}  # requested scan backend -> resolved

    def child(self, script: str, *args: str, env=None,
              timeout: float = 120.0) -> dict:
        """Run a benchmark script in a fresh interpreter; its last
        stdout line is a JSON object."""
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            env=env or self.env, capture_output=True, text=True,
            timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{script} failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def note_worker(self, pid: Optional[int]) -> None:
        if pid is not None:
            self.worker_hwm_kb = max(self.worker_hwm_kb, hwm_kb(pid))

    def record(self, path: str, report_nodes, predictions) -> None:
        """Keep ``nodes`` and the summed ``prediction_time`` per path:
        printed, never gated (the paths disagree on both today)."""
        self.records[path] = {
            "nodes": report_nodes,
            "prediction_time_sum_s": sum(p.prediction_time
                                         for p in predictions),
        }


def hwm_kb(pid) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- start-up ------------------------------------------------------------

def setup_once(ctx: Context, run: bool = True):
    """One fresh interpreter: start to ready-for-the-first-line with a
    warm artifact cache (``setup_s``), then, with ``run``, a native
    ``run_lines`` of the workload, whose predictions are gated.  Returns
    (seconds to ready, the child's peak resident set in KiB or None)."""
    t0 = time.monotonic()
    args = ("--run", str(ctx.log)) if run else ()
    out = ctx.child("startup.py", "--bundle", str(ctx.bundle_path), *args)
    ctx.resolved["native (fresh interpreter)"] = out["backend"]
    ctx.gate.check("setup resolves native", 1,
                   int(out["backend"] != "native"),
                   f"requested native, resolved {out['backend']}")
    if run:
        ctx.gate.check("fresh-interpreter run_lines[native] predictions",
                       max(len(ctx.reference), 1),
                       int(out["predictions_digest"]
                           != predictions_digest(ctx.reference)),
                       "prediction digest differs from the str reference")
    return out["ready"] - t0, out.get("peak_rss_kb")


# -- in-process batch ------------------------------------------------------

def batch_pass(ctx: Context, backend: str, *, obs=None):
    """``PredictorFleet.run_lines(path, timing="off")`` on a fresh fleet;
    returns (seconds, report)."""
    gc.collect()
    fleet = ctx.bundle.make_fleet(scan_backend=backend, obs=obs)
    resolved = ctx.resolved[backend] = fleet.scanner.backend
    if not ctx.gate.check(f"{backend} backend resolves", 1,
                          int(resolved != backend),
                          f"requested {backend}, resolved {resolved}"):
        return None, None
    t = time.perf_counter()
    report = fleet.run_lines(str(ctx.log), timing="off")
    seconds = time.perf_counter() - t
    check_batch(ctx, backend, report)
    return seconds, report


def check_batch(ctx: Context, backend: str, report) -> None:
    if ctx.reference is None:
        ctx.reference = report.predictions
        timeout = ctx.bundle.timeout
        missed = unflagged_failures(report.predictions,
                                    ctx.truth["injections"], timeout)
        ctx.gate.check(
            "detectable failures flagged",
            len(detectable(ctx.truth["injections"], timeout)), len(missed))
    ctx.gate.predictions(f"run_lines[{backend}]", ctx.reference,
                         report.predictions)
    ctx.gate.funnel(f"run_lines[{backend}]", report.ingest, ctx.n_lines)
    ctx.record(f"run_lines[{backend}]", report.nodes, report.predictions)


# -- ParallelFleet -------------------------------------------------------

def start_parallel(ctx: Context):
    """A fresh 2-worker native ``ParallelFleet`` whose workers have
    finished initializing; returns (fleet, spawn seconds, worker pids)."""
    from repro.core.parallel import ParallelFleet

    t = time.perf_counter()
    fleet = ParallelFleet(ctx.bundle, n_workers=N_WORKERS,
                          scan_backend="native", timeout=ctx.bundle.timeout)
    # A task runs only after its worker's initializer returned, so one
    # getpid round trip per single-process pool waits out the spawn.
    pids = [pool.apply(os.getpid) for pool in fleet._pools]
    return fleet, time.perf_counter() - t, pids


def parallel_pass(ctx: Context) -> float:
    gc.collect()
    fleet, _, pids = start_parallel(ctx)
    try:
        t = time.perf_counter()
        predictions = fleet.run_lines(ctx.lines)
        seconds = time.perf_counter() - t
        for pid in pids:
            ctx.note_worker(pid)
    finally:
        fleet.close()
    ctx.gate.predictions("ParallelFleet", ctx.reference, predictions)
    ctx.gate.funnel("ParallelFleet", fleet.ingest, ctx.n_lines)
    ctx.record("ParallelFleet", None, predictions)
    return seconds


# -- FleetDaemon -----------------------------------------------------------

def start_daemon(ctx: Context):
    """A started 2-shard native daemon listening on an ephemeral TCP
    port; returns (daemon, port, seconds to ready)."""
    from repro.core.daemon import FleetDaemon

    t = time.perf_counter()
    daemon = FleetDaemon(ctx.bundle, n_shards=N_WORKERS,
                         scan_backend="native")
    daemon.start()
    if not daemon.wait_ready(60.0):
        daemon.stop(drain=False)
        raise RuntimeError("daemon workers did not come up")
    _, port = daemon.listen_tcp()
    return daemon, port, time.perf_counter() - t


def sender(port: int, log: Path, *args: str):
    return subprocess.Popen(
        [sys.executable, str(HERE / "sender.py"), "--port", str(port),
         "--file", str(log), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_sender(proc) -> dict:
    out, err = proc.communicate(timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"sender failed: {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


def daemon_flood(ctx: Context) -> float:
    """Flood the workload over one TCP connection into a fresh daemon;
    returns the seconds from the sender's first byte until every offered
    line has been acked by a worker (``ingest.lines_read``), so the
    shutdown that follows stays out of the rate."""
    gc.collect()
    daemon, port, _ = start_daemon(ctx)
    try:
        proc = sender(port, ctx.log, "--mode", "flood")
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while (daemon.ingest.lines_read < ctx.n_lines
               and time.monotonic() < deadline):
            time.sleep(0.001)
        t_end = time.monotonic()
        seconds = t_end - finish_sender(proc)["t_first"]
        for shard in range(N_WORKERS):
            ctx.note_worker(daemon.worker_pid(shard))
    finally:
        report = daemon.stop(drain=True)
    ctx.gate.predictions("FleetDaemon flood", ctx.reference,
                         report.predictions)
    ctx.gate.funnel("FleetDaemon flood", report.ingest, ctx.n_lines)
    ctx.record("FleetDaemon", None, report.predictions)
    return seconds


# -- open-loop paced daemon ----------------------------------------------

def paced_plan(ctx: Context, low_s: float, high_s: float):
    """The schedule, its reference predictions and, for each expected
    alert, the index of the line that completes its chain."""
    from repro.logsim.stream import decode_lines

    with open(ctx.paced_log, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n_low = min(int(RATE_LOW * low_s), len(lines) // 2)
    n_high = min(int(RATE_HIGH * high_s), len(lines) - n_low)
    segments = [(n_low, RATE_LOW), (n_high, RATE_HIGH)]
    prefix = lines[:n_low + n_high]
    fleet = ctx.bundle.make_fleet(scan_backend="str")
    reference = fleet.run_lines(prefix, timing="off").predictions
    wanted = {(p.node, p.flagged_at) for p in reference}
    completing = {}
    for i, event in enumerate(decode_lines(prefix, on_error="strict")):
        key = (event.node, event.time)
        if key in wanted:
            completing.setdefault(key, i)
    return segments, reference, completing


def daemon_paced(ctx: Context, plan, *, sample_backlog: bool = False) -> dict:
    """One open-loop paced run; the benchmark polls ``predictions``
    every millisecond and stamps each alert when it first appears."""
    segments, reference, completing = plan
    gc.collect()
    daemon, port, _ = start_daemon(ctx)
    seen = {}
    backlog_max = 0
    try:
        spec = ",".join(f"{c}:{r:g}" for c, r in segments)
        proc = sender(port, ctx.paced_log, "--mode", "paced",
                      "--segments", spec)
        predictions = daemon.predictions
        last = 0
        grace_end = None
        while True:
            n = len(predictions)
            if n > last:
                now = time.monotonic()
                for p in predictions[last:n]:
                    seen.setdefault((p.node, p.flagged_at), now)
                last = n
            if sample_backlog:
                backlog_max = max(backlog_max, daemon.pending_chunks())
            if grace_end is None and proc.poll() is not None:
                grace_end = time.monotonic() + 2 * ALERT_LIMIT_S
            if grace_end is not None and (
                    len(seen) >= len(completing)
                    or time.monotonic() > grace_end):
                break
            time.sleep(0.001)
        sent = finish_sender(proc)
    finally:
        report = daemon.stop(drain=True)
    per_segment, missing = alert_latencies(
        sent["t0"], segments, completing, seen)
    return {
        "sent": sent,
        "latencies": per_segment,
        "missing": missing,
        "report": report,
        "reference": reference,
        "backlog_max": backlog_max,
        "offered": sum(c for c, _ in segments),
        "valid": sent["late_p99_ms"] <= SENDER_LATE_LIMIT_MS,
    }


def gate_paced(ctx: Context, run: dict) -> None:
    ctx.gate.predictions("FleetDaemon paced", run["reference"],
                         run["report"].predictions)
    ctx.gate.funnel("FleetDaemon paced", run["report"].ingest, run["offered"])
    latencies = [x for seg in run["latencies"] for x in seg]
    n_alerts = len(latencies) + len(run["missing"])
    ctx.gate.check(
        "alerts within limit", n_alerts,
        len(run["missing"]) + sum(x > ALERT_LIMIT_S for x in latencies),
        f"{len(run['missing'])} never seen, limit {ALERT_LIMIT_S:g} s")


def paced_until_valid(ctx: Context, plan, attempts: int = 3, **kw) -> dict:
    """Repeat a paced run whose sender fell behind; an invalid run is
    not a result."""
    for _ in range(attempts):
        run = daemon_paced(ctx, plan, **kw)
        if run["valid"]:
            gate_paced(ctx, run)
            return run
    ctx.gate.check("paced sender on schedule", 1, 1,
                   f"sender p99 late {run['sent']['late_p99_ms']:.1f} ms "
                   f"> {SENDER_LATE_LIMIT_MS:g} ms in {attempts} attempts")
    return run
