"""CLI-level serving tests: ``aarohi serve``, ``aarohi stream``, and
the SIGTERM graceful-drain contract of the long-running commands.

The serve/stream tests run real subprocesses (signals and sockets
included) against the numpy-free handmade bundle, so they also cover
the no-numpy CI leg.  The predict/obs-serve drain tests need the log
simulator and skip without numpy.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core import ChainSet, FailureChain, LogEvent
from repro.core.events import Severity
from repro.persistence import PredictorBundle
from repro.templates import TemplateStore

pytestmark = pytest.mark.daemon

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

WORDS = {
    176: "alpha x", 177: "bravo x", 178: "charlie x", 179: "delta x",
    180: "echo x", 137: "foxtrot x", 172: "golf x", 193: "hotel x",
}


def write_bundle(path) -> PredictorBundle:
    chains = ChainSet([
        FailureChain("FC1", (176, 177, 178, 179, 180, 137)),
        FailureChain("FC5", (172, 177, 178, 193, 137)),
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
    bundle = PredictorBundle(store=store, chains=chains, timeout=120.0)
    bundle.save(path)
    return bundle


def write_drill_log(path, n_nodes=6):
    lines = []
    t = 1000.0
    for node in [f"node{i:02d}" for i in range(n_nodes)]:
        for token in (172, 177, 178, 193, 137):
            lines.append(
                LogEvent(time=t, node=node, message=WORDS[token]).to_line())
            t += 0.5
    lines.insert(5, "broken line here")
    path.write_text("\n".join(lines) + "\n")
    return lines


def cli_env():
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=cli_env(), timeout=120, **kwargs)


def read_until(stream, pattern, timeout=60.0):
    """Read lines until one matches ``pattern``; returns (match, all)."""
    deadline = time.monotonic() + timeout
    seen = []
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            break
        seen.append(line)
        match = re.search(pattern, line)
        if match:
            return match, seen
    raise AssertionError(
        f"never saw {pattern!r} in output:\n{''.join(seen)}")


class TestStreamCommand:
    def test_stdout_replay_is_byte_exact(self, tmp_path):
        log = tmp_path / "drill.log"
        write_drill_log(log)
        result = run_cli(
            ["stream", "--log", str(log)], capture_output=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == log.read_bytes()
        assert b"streamed 31 lines" in result.stderr

    def test_rejects_negative_pace(self, tmp_path):
        log = tmp_path / "drill.log"
        log.write_text("x\n")
        result = run_cli(
            ["stream", "--log", str(log), "--pace", "-1"],
            capture_output=True)
        assert result.returncode != 0
        assert b"--pace" in result.stderr

    def test_unreachable_endpoint_fails_cleanly(self, tmp_path):
        log = tmp_path / "drill.log"
        log.write_text("x\n")
        # An unroutable connect must exit 1 with a message, not crash.
        result = run_cli(
            ["stream", "--log", str(log), "--tcp", "127.0.0.1:1"],
            capture_output=True)
        assert result.returncode == 1
        assert b"stream:" in result.stderr


class TestServeRoundTrip:
    def test_serve_stream_sigterm_drains(self, tmp_path):
        """The CLI face of the daemon drill: a served bundle, a
        streamed corrupted log, and a SIGTERM that must lose nothing —
        predictions, metrics, and a shutdown capsule all land."""
        bundle_path = tmp_path / "bundle.json"
        write_bundle(bundle_path)
        log = tmp_path / "drill.log"
        write_drill_log(log)
        preds_path = tmp_path / "preds.jsonl"
        metrics_path = tmp_path / "serve.prom"
        capsules = tmp_path / "capsules"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bundle", str(bundle_path), "--shards", "2",
             "--chunk-lines", "4", "--http-port", "0",
             "--out", str(preds_path), "--metrics", str(metrics_path),
             "--flight-dir", str(capsules)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=cli_env(), text=True)
        try:
            match, _ = read_until(proc.stdout, r"tcp 127\.0\.0\.1:(\d+)")
            port = int(match.group(1))
            read_until(proc.stdout, r"daemon ready")
            result = run_cli(
                ["stream", "--log", str(log),
                 "--tcp", f"127.0.0.1:{port}"],
                capture_output=True)
            assert result.returncode == 0, result.stderr
            # SIGTERM while the daemon is live: graceful drain.
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 143, out
        assert "draining" in out
        assert "drained" in out

        predictions = [
            json.loads(line)
            for line in preds_path.read_text().splitlines()
        ]
        assert len(predictions) == 6  # one FC5 completion per node
        assert {p["chain"] for p in predictions} == {"FC5"}

        metrics = metrics_path.read_text()
        assert "aarohi_daemon_shards_up 2" in metrics
        assert "aarohi_daemon_lines_received_total 31" in metrics
        assert "aarohi_ingest_quarantined_total 1" in metrics

        capsule_names = os.listdir(capsules)
        assert any("shutdown" in name for name in capsule_names)

    def test_serve_rejects_bad_bundle(self, tmp_path):
        bad = tmp_path / "bundle.json"
        bad.write_text("not json")
        result = run_cli(
            ["serve", "--bundle", str(bad)], capture_output=True)
        assert result.returncode != 0
        assert b"cannot load bundle" in result.stderr

    def test_serve_rejects_strict_policy(self, tmp_path):
        """A live daemon cannot halt at the first bad record: strict is
        refused up front with a message, not a worker crash loop."""
        bundle_path = tmp_path / "bundle.json"
        write_bundle(bundle_path)
        result = run_cli(
            ["serve", "--bundle", str(bundle_path), "--on-error", "strict"],
            capture_output=True)
        assert result.returncode != 0
        assert b"serve: on_error='strict'" in result.stderr


def _skip_without_numpy():
    pytest.importorskip("numpy")


class TestPredictSigterm:
    def test_drain_writes_metrics_and_capsule(self, tmp_path, monkeypatch):
        """SIGTERM mid-run: predict exits 143 with the shutdown capsule
        and metrics snapshot written (in-process, so the handler and
        the drain path are exercised directly)."""
        _skip_without_numpy()
        from repro.cli import main
        from repro.core import PredictorFleet

        log = tmp_path / "w.log"
        assert main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "900", "--nodes", "8", "--failures", "2",
            "--out", str(log),
        ]) == 0
        metrics = tmp_path / "out.prom"
        capsules = tmp_path / "capsules"

        def terminated_mid_run(self, events, timing="off"):
            signal.raise_signal(signal.SIGTERM)
            raise AssertionError("SIGTERM handler did not fire")

        monkeypatch.setattr(PredictorFleet, "run", terminated_mid_run)
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--metrics", str(metrics),
            "--flight-dir", str(capsules),
        ])
        assert rc == 143
        # run() was patched out before any ingest, so the snapshot
        # carries the flight series — capsule count proves the drain
        # both dumped and then wrote metrics.
        assert "aarohi_flight_capsules_total 1" in metrics.read_text()
        assert any("shutdown" in name for name in os.listdir(capsules))

    def test_normal_run_still_exits_zero(self, tmp_path):
        _skip_without_numpy()
        from repro.cli import main

        log = tmp_path / "w.log"
        assert main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "900", "--nodes", "8", "--failures", "2",
            "--out", str(log),
        ]) == 0
        assert main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--json",
        ]) == 0


class TestObsServeSigterm:
    def test_hold_loop_drains_on_sigterm(self, tmp_path):
        _skip_without_numpy()
        from repro.cli import main

        log = tmp_path / "w.log"
        assert main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "900", "--nodes", "8", "--failures", "2",
            "--out", str(log),
        ]) == 0
        metrics = tmp_path / "out.prom"
        capsules = tmp_path / "capsules"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "obs-serve",
             "--system", "HPC3", "--seed", "5", "--log", str(log),
             "--port", "0", "--hold", "--metrics", str(metrics),
             "--flight-dir", str(capsules)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=cli_env(), text=True)
        try:
            read_until(proc.stdout, r"serving until interrupted")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 143, out
        assert metrics.exists()
        assert "aarohi_" in metrics.read_text()
        assert any("shutdown" in name for name in os.listdir(capsules))
