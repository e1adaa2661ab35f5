"""Batch command line: enumeration dumps, oracle checks, reports, ensembles.

Subcommands: paths, trace-poly, verify, expansion, simulate, accept.
Exit codes: 0 success, 1 check failure, 2 validation error.  Parameters
come from flags or a plain key=value config file (flags win); every
output artifact embeds the resolved configuration and a format version,
and is byte-reproducible (timestamps live only in the run_info sidecar).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from .acceptance import run_criteria, verify_checks
from .combinatorics import MultiIndex, profile_count, profile_counts
from .distributions import DistributionSpec, rademacher, uniform_sqrt3, uniform_symmetric
from .expansion import power_expansion, series_expansion
from .montecarlo import EnsembleConfig, clt_check, joint_correlation, run_ensemble
from .series import AnalyticSeries
from .symbolic import trace_power_polynomial

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_beta(text: str) -> MultiIndex:
    t = text.strip().lower()
    if t in ("0", "zero"):
        return MultiIndex.zero()
    if t == "delta":
        return MultiIndex.delta()
    if t == "2delta":
        return MultiIndex.two_delta()
    m = re.fullmatch(r"delta\+delta\^(\d+)", t)
    if m:
        return MultiIndex.delta_pair(int(m.group(1)))
    counts = {}
    for part in t.split(","):
        h, _, c = part.partition(":")
        if not c:
            raise ValueError(f"cannot parse profile component {part!r}")
        h, c = int(h), int(c)
        if h in counts or c < 1:
            raise ValueError(f"profile component {part!r}: "
                             + ("level repeated" if h in counts else "count below 1"))
        counts[h] = c
    return MultiIndex.from_counts(counts)


def parse_dist(text: str) -> DistributionSpec:
    t = text.strip().lower()
    if t == "rademacher":
        return rademacher()
    if t.startswith("uniform:"):
        arg = t.split(":", 1)[1]
        if arg == "sqrt3":
            return uniform_sqrt3()
        return uniform_symmetric(float(arg))
    raise ValueError(f"unknown distribution {text!r}; use rademacher or uniform:<halfwidth>")


def parse_function(text: str) -> AnalyticSeries:
    t = text.strip()
    if t.startswith("poly:"):
        coeffs = [float(c) for c in t.split(":", 1)[1].split(",")]
        return AnalyticSeries.polynomial(coeffs, label=t)
    if t.startswith("exp:"):
        return AnalyticSeries.exponential(float(t.split(":", 1)[1]), label=t)
    raise ValueError(f"unknown test function {text!r}; use poly:<c0,c1,...> or exp:<rate>")


def _load_config_file(path: str) -> dict[str, str]:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not value:
            raise ValueError(f"config line not of the form key=value: {raw!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge_config(args: argparse.Namespace) -> None:
    """Fill argparse values that were left at None from the config file."""
    if not getattr(args, "config", None):
        return
    file_values = _load_config_file(args.config)
    for key, value in file_values.items():
        if not hasattr(args, key):
            raise ValueError(f"config key {key!r} is not a parameter of this command")
        if getattr(args, key) is None:
            if key == "f":
                setattr(args, key, value.split(";"))
            else:
                setattr(args, key, value)


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError("missing required parameter(s): " + ", ".join(missing))


def _write_sidecar(out_dir: Path, timings: dict[str, float] | None = None,
                   facts: dict[str, object] | None = None) -> None:
    """run_info.txt: the non-reproducible facts of a run (clock time, phase times), then
    ``facts`` such as truncation degrees, each written as ``str`` gives it."""
    lines = [f"written_at={datetime.now(timezone.utc).isoformat()}"]
    lines += [f"{key}={value:.6g}" for key, value in (timings or {}).items()]
    lines += [f"{key}={value}" for key, value in (facts or {}).items()]
    (out_dir / "run_info.txt").write_text("\n".join(lines) + "\n")


def _config_header(config: dict) -> list[str]:
    lines = [f"# format_version={FORMAT_VERSION}"]
    for key in sorted(config):
        lines.append(f"# {key}={config[key]}")
    return lines


# ------------------------------------------------------------- subcommands


def cmd_paths(args) -> int:
    k = int(args.k)
    if args.beta is not None:
        print(profile_count(k, parse_beta(args.beta)))
        return EXIT_OK
    table = profile_counts(k)  # validates k before the header is printed
    print(f"# format_version={FORMAT_VERSION}")
    print(f"# k={k}")
    print("beta,count")
    for beta in sorted(table, key=lambda b: (b.weight, b.pairs)):
        print(f"{beta},{table[beta]}")
    return EXIT_OK


def cmd_trace_poly(args) -> int:
    _require(args, "n", "k")
    n, k = int(args.n), int(args.k)
    poly = trace_power_polynomial(n, k)
    lines = _config_header({"N": n, "k": k})
    lines.append("sites,exponents,coefficient")
    lines.append(f",,{poly.constant}")
    for mono in sorted(poly.terms, key=lambda m: m.sites):
        sites = ";".join(str(s) for s, _ in mono.sites)
        exps = ";".join(str(e) for _, e in mono.sites)
        lines.append(f"{sites},{exps},{poly.terms[mono]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    level = args.level or "fast"
    checks = verify_checks(level)
    failed = [c for c in checks if not c["passed"]]
    report = {
        "format_version": FORMAT_VERSION,
        "config": {"level": level},
        "checks_run": len(checks),
        "checks_failed": len(failed),
        "failures": failed,
    }
    text = json.dumps(report, indent=2)
    if args.json:
        Path(args.json).write_text(text + "\n")
    else:
        print(text)
    for c in failed:
        print(f"FAILED: {c['detail']}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_expansion(args) -> int:
    _require(args, "alpha", "n")
    alpha, n = float(args.alpha), int(args.n)
    dist = parse_dist(args.dist or "rademacher")
    tail_tol = float(args.tail_tol) if args.tail_tol is not None else 1e-9
    if (args.k is None) == (args.f is None):
        raise ValueError("pass exactly one of --k or --f")
    if args.f is not None and len(args.f) != 1:
        raise ValueError("expansion takes exactly one --f")
    t0 = time.perf_counter()
    if args.k is not None:
        report = power_expansion(int(args.k), n, alpha, dist)
    else:
        report = series_expansion(parse_function(args.f[0]), n, alpha, dist, tail_tol=tail_tol)
    expansion_s = time.perf_counter() - t0
    payload = {"format_version": FORMAT_VERSION, "report": report.to_dict()}
    csv_lines = _config_header({"label": report.label, "N": n, "alpha": alpha,
                                "dist": dist.name})
    csv_lines.append("j,coefficient,powersum,contribution")
    for j in sorted(report.powersum_coeffs):
        c = report.powersum_coeffs[j]
        s = report.powersums[j]
        csv_lines.append(f"{j},{_fmt(c)},{_fmt(s)},{_fmt(c * s)}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "expansion_report.json").write_text(json.dumps(payload, indent=2) + "\n")
        (out_dir / "expansion_terms.csv").write_text("\n".join(csv_lines) + "\n")
        _write_sidecar(out_dir, {"expansion_s": expansion_s})
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _require(args, "f", "alpha", "n_grid", "replicas", "seed")
    functions = tuple(parse_function(spec) for spec in args.f)
    dist = parse_dist(args.dist or "rademacher")
    n_grid = tuple(int(x) for x in str(args.n_grid).split(","))
    config = EnsembleConfig(
        alpha=float(args.alpha),
        dist=dist,
        functions=functions,
        n_grid=n_grid,
        replicas=int(args.replicas),
        base_seed=int(args.seed),
        tail_tol=float(args.tail_tol) if args.tail_tol is not None else 1e-9,
        workers=int(args.workers) if args.workers is not None else 1,
    )
    out_dir = Path(args.out or "tracefluct-run")
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the ensemble runs
    t0 = time.perf_counter()
    result = run_ensemble(config)
    t_ensemble = time.perf_counter()
    reports_s = 0.0  # clt_check, joint_correlation; the rest after t_ensemble is writing
    config_echo = config.to_dict()

    lines = _config_header(config_echo)
    lines.append("replica,f_id,N,raw_trace,centered,scaled")
    for fi, f in enumerate(result.f_labels):
        for n in result.n_grid:
            raw = result.raw_traces(f, n)
            centered = result.centered(f, n)
            scaled = result.scaled(f, n) if result.scaled_defined else None
            for r in range(config.replicas):
                s = _fmt(scaled[r]) if scaled is not None else ""
                lines.append(f"{r},{f},{n},{_fmt(raw[r])},{_fmt(centered[r])},{s}")
    (out_dir / "samples.csv").write_text("\n".join(lines) + "\n")

    if config.replicas < 100:
        print(f"warning: {config.replicas} replicas < 100, skipping the variance report",
              file=sys.stderr)
    elif not result.scaled_defined:
        print(f"warning: alpha={config.alpha!r} is above the critical exponent "
              f"{result.alpha_c:g}; no normal-limit report", file=sys.stderr)
    else:
        t = time.perf_counter()
        report = clt_check(result)
        reports_s += time.perf_counter() - t
        payload = {"format_version": FORMAT_VERSION, "config": config_echo,
                   **report.to_dict()}
        (out_dir / "clt_report.json").write_text(json.dumps(payload, indent=2) + "\n")

    if len(functions) >= 2 and config.replicas >= 2:
        t = time.perf_counter()
        corr = joint_correlation(result)
        reports_s += time.perf_counter() - t
        clines = _config_header(config_echo)
        clines.append("N,f_i,f_j,correlation")
        for n in result.n_grid:
            mat = corr.matrix(n)
            for i in range(len(result.f_labels)):
                for j in range(i + 1, len(result.f_labels)):
                    val = mat[i, j]
                    sval = _fmt(val) if not math.isnan(val) else "undefined"
                    clines.append(f"{n},{result.f_labels[i]},{result.f_labels[j]},{sval}")
        (out_dir / "correlation.csv").write_text("\n".join(clines) + "\n")
    ensemble_s = t_ensemble - t0
    _write_sidecar(out_dir, {
        "ensemble_s": ensemble_s,
        "sample_s": result.sample_s,
        "sample_ns_per_site": 1e9 * result.sample_s / (config.replicas * n_grid[-1]),
        "trace_s": result.trace_s,
        "center_s": result.center_s,
        "reports_s": reports_s,
        "write_s": time.perf_counter() - t_ensemble - reports_s,
        "replicas_per_s": config.replicas / ensemble_s,
    }, {
        **{f"degree:{f}": len(row) - 1 for f, row in zip(result.f_labels, config.rows)},
        **{f"tail:{f}": tail for f, tail in zip(result.f_labels, config.tails)},
        **{f"site_sum_error:{f}": err for f, err in zip(result.f_labels, result.site_sum_errors)},
    })
    print(f"wrote {out_dir}/samples.csv and reports")
    return EXIT_OK


def cmd_accept(args) -> int:
    only = None
    if args.only:
        only = [int(x) for x in str(args.only).split(",")]
    results = run_criteria(only=only)
    for res in results:
        print(res.format_line())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": FORMAT_VERSION,
            "config": {"only": only},
            "results": [
                {"cid": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        (out_dir / "acceptance.json").write_text(json.dumps(payload, indent=2) + "\n")
        _write_sidecar(out_dir)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracefluct",
        description="Trace statistics of the random decaying-potential operator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file; explicit flags win")
        p.add_argument("--out", help="output directory or file")

    p = sub.add_parser("paths", help="closed-path profile counts")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--beta", help="delta | 2delta | delta+delta^S | h:c[,h:c...]")

    p = sub.add_parser("trace-poly", help="dump the exact trace polynomial as CSV")
    p.add_argument("--N", dest="n", type=int)
    p.add_argument("--k", type=int)
    add_common(p)

    p = sub.add_parser("verify", help="run the oracle identity suites")
    p.add_argument("--level", choices=("fast", "full"))
    p.add_argument("--json", help="write the JSON report here")
    p.add_argument("--config", help="key=value file; explicit flags win")

    p = sub.add_parser("expansion", help="exact mean decomposition report")
    p.add_argument("--k", type=int)
    p.add_argument("--f", action="append", help="poly:<c0,c1,...> or exp:<rate>")
    p.add_argument("--alpha", type=float)
    p.add_argument("--N", dest="n", type=int)
    p.add_argument("--dist")
    p.add_argument("--tail-tol", dest="tail_tol", type=float)
    add_common(p)

    p = sub.add_parser("simulate", help="run an ensemble and emit artifacts")
    p.add_argument("--f", action="append", help="repeatable: poly:<c0,c1,...> or exp:<rate>")
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-grid", dest="n_grid", help="comma separated sizes")
    p.add_argument("--replicas", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--dist")
    p.add_argument("--workers", type=int, help="0 = all usable cores")
    p.add_argument("--tail-tol", dest="tail_tol", type=float)
    add_common(p)

    p = sub.add_parser("accept", help="run the acceptance criteria")
    p.add_argument("--only", help="comma separated criterion ids")
    add_common(p)
    return parser


_HANDLERS = {
    "paths": cmd_paths,
    "trace-poly": cmd_trace_poly,
    "verify": cmd_verify,
    "expansion": cmd_expansion,
    "simulate": cmd_simulate,
    "accept": cmd_accept,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return _HANDLERS[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
