#!/usr/bin/env python3
"""Record reference.json: the outputs the benchmark's correctness gate compares against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/record_reference.py

For each ``simulate`` workload this runs the reference invocation of
``run.py`` (seed REFERENCE_SEED, REFERENCE_REPLICAS replicas) and stores
every replica's raw trace and the exact center per (function, N).  For
the ``expansion`` workload it stores the report's ``reconstructed_mean``
and ``exact_mean_trace_f`` for the same input, and refuses to write them
unless they agree to 1e-9 relative (the mean identity).
"""

from __future__ import annotations

import json
import shutil
import sys

from run import (REFERENCE_PATH, REFERENCE_REPLICAS, REFERENCE_SEED, REL_TOL, ROOT, RUNS_DIR,
                 WORKLOADS, read_samples)

sys.path.insert(0, str(ROOT / "src"))

from tracefluct.cli import build_parser, main as cli_main, parse_dist, parse_function  # noqa: E402
from tracefluct.expansion import exact_mean_trace_f  # noqa: E402


def main() -> int:
    out_dir = RUNS_DIR / "record-reference"
    reference: dict = {"seed": REFERENCE_SEED, "replicas": REFERENCE_REPLICAS}
    for name, w in WORKLOADS.items():
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = w.argv(REFERENCE_SEED, REFERENCE_REPLICAS)
        if cli_main([*argv, "--out", str(out_dir)]) != 0:
            raise SystemExit(f"{name}: the CLI failed")
        entry: dict = {"argv": argv}
        if w.replicas:
            entry.update(raw={}, centers={})
            for (f, n), rows in read_samples(out_dir / "samples.csv").items():
                entry["raw"].setdefault(f, {})[str(n)] = [raw for raw, _ in rows]
                entry["centers"].setdefault(f, {})[str(n)] = rows[0][0] - rows[0][1]
        else:
            report = json.loads((out_dir / "expansion_report.json").read_text())["report"]
            args = build_parser().parse_args(argv)
            exact = exact_mean_trace_f(parse_function(args.f[0]), args.n, args.alpha,
                                       parse_dist(args.dist))
            mean = report["reconstructed_mean"]
            if abs(mean - exact) > REL_TOL * max(1.0, abs(exact)):
                raise SystemExit(f"{name}: reconstructed_mean {mean!r} != {exact!r}")
            entry.update(reconstructed_mean=mean, exact_mean_trace_f=exact)
        reference[name] = entry
    shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
