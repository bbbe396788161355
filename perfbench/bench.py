"""End-to-end, layer-by-layer benchmark: log bytes in → predictions out.

The benchmark body.  Start it through ``run.py``, which runs this
script in a child process and then stops and waits for every process
the run left behind; from the repository root::

    python3 perfbench/run.py --workload chain-dense --seed 1 --seconds 45 --trace 0

``--trace 0`` drives every public entry point (in-process ``run_lines``
on the native and bytes scan backends, with str once as the reference,
``ParallelFleet``, and ``FleetDaemon`` over TCP, flooded and open-loop
paced) and prints the
end-to-end metrics; ``--trace 1`` is the separate traced run that times
calls into each layer and prints the per-layer metrics.  Either way the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and every run checks each entry point's
predictions against the in-process ``str`` reference.  The exit code is
non-zero when a check fails.

Generated inputs and the scanner artifact cache live under
``.perfbench-cache/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("discard-heavy", "chain-dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<36} {'unit':<8} {'value':>14} {'median':>12} "
          f"{'tail':>16} {'n':>6}")
    for name, unit, value, summary in rows:
        tail = "-"
        if summary and summary["tail"] is not None:
            tail = f"{summary['tail']:.6g} (p{summary['tail_p']:g})"
        med = (f"{summary['median']:.6g}"
               if summary and summary["median"] is not None else "-")
        n = summary["n"] if summary else 1
        print(f"  {name:<36} {unit:<8} {value:>14.6g} {med:>12} "
              f"{tail:>16} {n:>6}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # Everything the program caches (scanner JSON, native .so) stays in
    # the checkout, for this process and every child it starts.
    os.environ["AAROHI_SCANNER_CACHE"] = str(CACHE / "scanner")
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import workloads
    from stats import summarize

    # The paced phase always streams chain-dense: only a chain-dense
    # stream completes enough chains per second for alert percentiles.
    work, paced = workloads.ensure_all(
        ROOT, CACHE, [(args.workload, args.seed), ("chain-dense", args.seed)])
    ctx = harness.Context(ROOT, CACHE, args.workload, args.seed,
                          args.seconds, work, paced)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"lines={ctx.n_lines} nodes={ctx.truth['nodes']} "
          f"log_sha256={ctx.truth['sha256']['log.log']} "
          f"bundle_sha256={ctx.truth['sha256']['bundle.json']} "
          f"paced_log_sha256={ctx.paced_sha256}")
    if args.trace:
        import layers

        metrics, rows = layers.run(ctx)
    else:
        import e2e

        result = e2e.run(ctx)
        values = e2e.values(result)
        metrics = {name: (values[name], unit)
                   for name, unit in e2e.METRICS if name in values}
        rows = [(name, unit, value,
                 summarize(result["samples"][name], unit == "lines/s"))
                for name, (value, unit) in metrics.items()]
        for name, unit in e2e.METRICS:
            xs = result["samples"][name]
            if 1 < len(xs) <= 256:
                print(f"  samples {name}: "
                      + " ".join(f"{x:.4g}" for x in xs))
        late = [run["sent"]["late_p99_ms"] for run in result["paced"]]
        print(f"rounds={result['rounds']}; paced sender p99 lateness per "
              f"round (ms): " + " ".join(f"{x:.3f}" for x in late))
    print_table("metrics", rows)
    gate = ctx.gate
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"gate: attempted={gate.attempted} failed={gate.failed} "
          f"error_rate={error_rate:.3g}")
    for note in gate.notes:
        print(f"  FAIL {note}")
    for requested, resolved in sorted(ctx.resolved.items()):
        print(f"  scan backend requested {requested} -> resolved {resolved}")
    for path, fields in sorted(ctx.records.items()):
        print(f"  {path:<24} nodes={fields['nodes']} "
              f"prediction_time_sum_s={fields['prediction_time_sum_s']:.6g}")
    correct = gate.failed == 0 and gate.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
