"""Fresh-interpreter probe, run as a child of the benchmark.

Default mode does what ``aarohi predict --scan-backend native`` does
before its first line: ``import repro.cli``, load the bundle, build a
native fleet (scanner artifact load plus ``dlopen``).  It then prints
one JSON object whose ``ready`` is the monotonic time it became ready;
the parent, which noted the time before it spawned this process, turns
that into ``setup_s``.  With ``--run LOG`` it then replays ``LOG``
through ``run_lines(LOG, timing="off")``, the native fused path, and
also reports its own peak resident set (``peak_rss_kb``) and a digest of
the predictions, so the parent can gate them.  ``--split`` times each
start-up step through its public call instead.  The artifact cache is
whatever ``AAROHI_SCANNER_CACHE`` names, so the parent chooses warm or
cold.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--split", action="store_true")
    parser.add_argument("--run", metavar="LOG")
    args = parser.parse_args(argv)
    if args.split and args.run:
        parser.error("--run replays through the fleet --split does not build")
    out = {}
    clock = time.perf_counter
    t = clock()
    import repro.cli  # noqa: F401  (what the CLI pays before parsing args)
    from repro.persistence import PredictorBundle
    out["cli.import_s"] = clock() - t

    bundle = PredictorBundle.load(args.bundle)
    if args.split:
        from repro.codegen import resolve_backend
        from repro.persistence import compile_scanner_cached
        from repro.templates.store import TemplateScanner

        t = clock()
        backend = resolve_backend("native")
        spec = bundle.store.lex_spec(keep=bundle.chains.token_set)
        compiled = compile_scanner_cached(spec, backend=backend)
        out["persistence.scanner_s"] = clock() - t
        t = clock()
        scanner = TemplateScanner(compiled, backend=backend,
                                  requested_backend="native")
        out["native.kernel_s"] = clock() - t
    else:
        fleet = bundle.make_fleet(scan_backend="native")
        scanner = fleet.scanner
    out["backend"] = scanner.backend
    out["ready"] = time.monotonic()
    if args.run:
        from harness import hwm_kb
        from stats import predictions_digest

        report = fleet.run_lines(args.run, timing="off")
        out["peak_rss_kb"] = hwm_kb("self")
        out["predictions_digest"] = predictions_digest(report.predictions)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
