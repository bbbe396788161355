"""Seeded workload generator: log, bundle and truth files per (workload, seed).

Run as a script, it generates one workload into ``--out``::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/workloads.py \
        --workload chain-dense --seed 3 --out /tmp/cd3

The benchmark calls :func:`ensure`, which runs this script in a child
process (so the generator's numpy arrays and event lists never inflate
the measured process's peak RSS) and caches the files under
``.perfbench-cache/work/<workload>-<seed>-<source digest>`` in the
checkout, so the generation (several seconds) stays outside every timed
region and is paid once per seed.  The source digest covers the
program's sources and this file, so a change to the generator or the
bundle format builds fresh inputs instead of reusing stale ones;
``truth.json`` records the sha256 of the log and the bundle, which the
benchmark prints, so every run states which inputs it used.  ``PYTHONHASHSEED`` is pinned because the generator derives
each chain's trained ΔT stats from ``hash(chain_id)``: with it pinned the
same seed gives byte-identical files.

Both workloads come from :class:`repro.logsim.ClusterLogGenerator` on the
HPC1 catalog, freshly generated (no window repetition, so the scan memo
sees realistic reuse):

* ``discard-heavy`` — one window, 2,000 nodes, 1 h of simulated time,
  6 failures: ~216k lines with an FC-related fraction near 1e-4, the
  simulator's realistic regime where ingest and scan are the whole cost;
* ``chain-dense`` — 20 concatenated 1 h windows of 400 nodes with
  failures on 3/4 of them and ``benign_rate_hz`` cut to 0.002: ~92k lines,
  ~31% FC-related (the paper's Fig. 12 regime), so per-hit routing and
  matching dominate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("discard-heavy", "chain-dense")
SYSTEM = "HPC1"
LOG, BUNDLE, TRUTH = "log.log", "bundle.json", "truth.json"

# Window shapes; ``scale`` shrinks them for the self-tests.
DISCARD_HEAVY = dict(duration=3600.0, n_nodes=2000, n_failures=6)
CHAIN_DENSE = dict(windows=20, duration=3600.0, n_nodes=400, n_failures=300,
                   benign_rate_hz=0.002)


def _windows(gen, workload: str, scale: float):
    if workload == "discard-heavy":
        yield gen.generate_window(
            duration=DISCARD_HEAVY["duration"] * scale,
            n_nodes=DISCARD_HEAVY["n_nodes"],
            n_failures=DISCARD_HEAVY["n_failures"])
        return
    spec = CHAIN_DENSE
    n_windows = max(1, round(spec["windows"] * scale))
    for k in range(n_windows):
        yield gen.generate_window(
            duration=spec["duration"], n_nodes=spec["n_nodes"],
            n_failures=spec["n_failures"],
            benign_rate_hz=spec["benign_rate_hz"],
            start_time=k * spec["duration"])


def build(workload: str, seed: int, out: Path, scale: float = 1.0) -> None:
    """Generate one workload's files into ``out`` (an existing dir)."""
    from repro.logsim import ClusterLogGenerator
    from repro.logsim.stream import write_log
    from repro.logsim.systems import system_by_name
    from repro.persistence import PredictorBundle

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    gen = ClusterLogGenerator(system_by_name(SYSTEM), seed=seed)
    events, injections = [], []
    for window in _windows(gen, workload, scale):
        events.extend(window.events)
        injections.extend(window.injections)
    n_lines = write_log(events, out / LOG)
    PredictorBundle(store=gen.store, chains=gen.chains,
                    timeout=gen.recommended_timeout,
                    system=SYSTEM).save(out / BUNDLE)
    truth = {
        "sha256": {name: file_digest(out / name) for name in (LOG, BUNDLE)},
        "workload": workload,
        "seed": seed,
        "lines": n_lines,
        "nodes": len({e.node for e in events}),
        "injections": [
            {"kind": inj.kind, "node": inj.node, "chain": inj.chain_id,
             "phrase_times": list(inj.phrase_times),
             "failure_time": inj.failure_time}
            for inj in injections
        ],
    }
    with open(out / TRUTH, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
        fh.write("\n")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest(root: Path) -> str:
    """Short digest of every file the generated inputs can depend on:
    the program's Python sources and this generator script."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "repro").rglob("*.py"))
    for path in files + [Path(__file__).resolve()]:
        rel = path.relative_to(root).as_posix().encode()
        h.update(rel + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:12]


def ensure(root: Path, cache: Path, workload: str, seed: int,
           scale: float = 1.0) -> Path:
    """The cached directory holding ``workload``'s files for ``seed``,
    building it in a child process on first use.  The build lands in a
    temporary directory that is renamed into place, so an interrupted
    build never leaves a half-written workload behind."""
    tag = (f"{workload}-{seed}" + ("" if scale == 1.0 else f"-x{scale:g}")
           + f"-{source_digest(root)}")
    final = cache / "work" / tag
    if (final / TRUTH).exists():
        return final
    tmp = cache / "work" / f".{tag}.{os.getpid()}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(root / "src"))
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--scale", repr(scale), "--out", str(tmp)],
            env=env, check=True, timeout=300)
        try:
            tmp.rename(final)
        except OSError:
            if not (final / TRUTH).exists():  # not a concurrent winner
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def ensure_all(root: Path, cache: Path, wanted) -> list:
    """:func:`ensure` for several ``(workload, seed)`` pairs, building
    the missing ones concurrently; returns their directories in order."""
    from concurrent.futures import ThreadPoolExecutor

    unique = list(dict.fromkeys(wanted))  # one build per distinct pair
    with ThreadPoolExecutor(max_workers=len(unique)) as pool:
        futures = {key: pool.submit(ensure, root, cache, *key)
                   for key in unique}
        return [futures[key].result() for key in wanted]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    build(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
