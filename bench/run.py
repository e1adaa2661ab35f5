#!/usr/bin/env python3
"""Benchmark of the tracefluct CLI on three closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload simulate-lowdeg --seed 1 --seconds 30 --trace 0

One operation is one ``tracefluct`` CLI invocation, with the argv a user
would type, in a fresh interpreter (``child.py``), with ``--workers 1``
and BLAS/OpenMP threads pinned to 1.  One client issues invocations back
to back (a closed loop) until ``--seconds`` have passed.  Each run of a
seeded (``simulate``) workload first makes one untimed invocation at the
reference seed, checked against ``reference.json``.  Every invocation's
outputs are checked after it returns, outside its timed region, and a
failed check counts the invocation as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and prints the per-layer metrics of the
traced ones.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
REFERENCE_PATH = BENCH_DIR / "reference.json"

REFERENCE_SEED = 0
#: Replicas of the untimed reference invocation, and of every invocation under --smoke.
REFERENCE_REPLICAS = 20
REL_TOL = 1e-9
#: A centered mean further than this many standard errors from zero fails the check.
ZERO_MEAN_Z = 5.0
#: About seven times the slowest invocation; keeps a hung run well inside three minutes.
INVOCATION_TIMEOUT_S = 60
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

DEG12 = "poly:0,0,1,0,1,0,1,0,1,0,1,0,1"


@dataclass(frozen=True)
class Workload:
    flags: tuple[str, ...]  # the argv a user types, up to the seeded flags
    replicas: int = 0       # 0 for ``expansion``, whose input does not depend on the seed

    def argv(self, seed: int, replicas: int) -> list[str]:
        if not self.replicas:
            return list(self.flags)
        return [*self.flags, "--replicas", str(replicas), "--seed", str(seed), "--workers", "1"]


WORKLOADS = {
    "simulate-lowdeg": Workload(("simulate", "--f", "poly:0,1", "--f", "poly:0,0,0,1",
                                 "--alpha", "0.3", "--dist", "rademacher",
                                 "--n-grid", "10000,30000,100000"), 400),
    "expansion-deg12": Workload(("expansion", "--f", DEG12, "--alpha", "0.2", "--N", "100000",
                                 "--dist", "uniform:sqrt3")),
    "simulate-deg12": Workload(("simulate", "--f", DEG12, "--alpha", "0.2",
                                "--dist", "uniform:sqrt3", "--n-grid", "30000"), 150),
}


@dataclass
class Invocation:
    seed: int
    traced: bool
    wall_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    artifact_bytes: int = 0
    layers: dict | None = None
    versions: dict | None = None
    problems: list[str] = field(default_factory=list)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _digest(out_dir: Path) -> str:
    """Hash of the byte-reproducible artifacts (run_info.txt holds a timestamp)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "run_info.txt":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_samples(path: Path) -> dict[tuple[str, int], list[tuple[float, float]]]:
    """samples.csv rows as {(f_id, N): [(raw_trace, centered), ...]} in replica order."""
    out: dict[tuple[str, int], list[tuple[float, float]]] = {}
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != "replica,f_id,N,raw_trace,centered,scaled":
        raise ValueError(f"unexpected samples.csv header {lines[:1]}")
    for line in lines[1:]:
        # f_id holds commas (poly:0,1): split the fixed fields off both ends
        replica, rest = line.split(",", 1)
        f_id, n, raw, centered, _scaled = rest.rsplit(",", 4)
        out.setdefault((f_id, int(n)), []).append((float(raw), float(centered)))
    return out


def zero_mean_problem(label: str, centered: list[float]) -> str | None:
    mean = math.fsum(centered) / len(centered)
    sd = statistics.stdev(centered)
    limit = ZERO_MEAN_Z * sd / math.sqrt(len(centered)) if sd > 0 else REL_TOL
    if abs(mean) > limit:
        return f"centered mean of {label} is {mean:.6g}, beyond {ZERO_MEAN_Z} standard errors"
    return None


def environment() -> dict:
    """CPU model, usable cores and cache sizes of this machine, read from /proc and /sys."""
    env = {"platform": platform.platform(), "nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


class Runner:
    """One benchmark run: invokes the CLI, checks every output, keeps the records."""

    def __init__(self, name: str, reference: dict, run_dir: Path) -> None:
        self.workload = WORKLOADS[name]
        self.reference = reference[name]
        self.run_dir = run_dir
        self.invocations: list[Invocation] = []
        self.digests: dict[tuple[int, int], str] = {}
        self.env = {**os.environ, **PINNED_THREADS}

    def invoke(self, seed: int, replicas: int, traced: bool) -> Invocation:
        inv = Invocation(seed=seed, traced=traced)
        self.invocations.append(inv)
        idx = len(self.invocations) - 1
        out_dir = self.run_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = self.run_dir / f"inv{idx}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
               "1" if traced else "0", "--",
               *self.workload.argv(seed, replicas), "--out", str(out_dir)]
        t_spawn = time.monotonic()
        try:
            with open(self.run_dir / f"inv{idx}.log", "wb") as log:
                subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                               stderr=subprocess.STDOUT, timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            inv.problems.append(f"invocation {idx} timed out after {INVOCATION_TIMEOUT_S} s")
            return inv
        if not result_path.is_file():
            inv.problems.append(f"invocation {idx} wrote no result; see inv{idx}.log")
            return inv
        result = json.loads(result_path.read_text())
        inv.setup_s = result["t_imported"] - t_spawn
        inv.wall_s = result["wall_s"]
        inv.peak_rss_mb = result["peak_rss_mb"]
        inv.layers = result.get("layers")
        inv.versions = result["versions"]
        if result["error"] is not None:
            last = result["error"].strip().splitlines()[-1]
            inv.problems.append(f"invocation {idx} raised: {last}")
        elif result["rc"] != 0:
            inv.problems.append(f"invocation {idx} exited with {result['rc']}")
        else:
            inv.artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
            try:
                self.check(inv, out_dir, replicas)
            except (OSError, ValueError, KeyError) as exc:
                inv.problems.append(f"invocation {idx} outputs unreadable: {exc!r}")
        return inv

    def check(self, inv: Invocation, out_dir: Path, replicas: int) -> None:
        if self.workload.replicas:
            self.check_simulate(inv, out_dir, replicas)
        else:
            self.check_expansion(inv, out_dir)
        digest = _digest(out_dir)
        first = self.digests.setdefault((inv.seed, replicas), digest)
        if digest != first:
            inv.problems.append("artifacts differ from an earlier invocation with the same argv")

    def check_simulate(self, inv: Invocation, out_dir: Path, replicas: int) -> None:
        samples = read_samples(out_dir / "samples.csv")
        for f, by_n in self.reference["centers"].items():
            for n_text, center in by_n.items():
                rows = samples.get((f, int(n_text)), [])
                label = f"{f} at N={n_text}"
                if len(rows) != replicas:
                    inv.problems.append(f"{label}: {len(rows)} rows, expected {replicas}")
                    continue
                # the center is seed-independent, so it is checked at every seed
                off = [raw - c for raw, c in rows if not _close(raw - c, center)]
                if off:
                    inv.problems.append(f"{label}: center {off[0]!r}, reference {center!r}")
                if inv.seed == REFERENCE_SEED:
                    want = self.reference["raw"][f][n_text]
                    bad = [i for i, ((raw, _), w) in enumerate(zip(rows, want))
                           if not _close(raw, w)]
                    if bad:
                        inv.problems.append(f"{label}: raw trace of replica {bad[0]} is "
                                            f"{rows[bad[0]][0]!r}, reference {want[bad[0]]!r}")
                problem = zero_mean_problem(label, [c for _, c in rows])
                if problem:
                    inv.problems.append(problem)
        expected = ["samples.csv"]
        if replicas >= 100:
            expected.append("clt_report.json")
        if len(self.reference["centers"]) >= 2:
            expected.append("correlation.csv")
        for name in expected:
            if not (out_dir / name).is_file():
                inv.problems.append(f"missing artifact {name}")

    def check_expansion(self, inv: Invocation, out_dir: Path) -> None:
        report = json.loads((out_dir / "expansion_report.json").read_text())["report"]
        mean = report["reconstructed_mean"]
        if not (out_dir / "expansion_terms.csv").is_file():
            inv.problems.append("missing artifact expansion_terms.csv")
        # the input is the reference input at every seed; exact_mean_trace_f is the mean identity
        for key in ("reconstructed_mean", "exact_mean_trace_f"):
            if not _close(mean, self.reference[key]):
                inv.problems.append(f"reconstructed_mean {mean!r}, reference {key} "
                                    f"{self.reference[key]!r}")


def end_to_end(timed: list[Invocation]) -> dict[str, tuple[float, str]]:
    done = [inv for inv in timed if inv.wall_s is not None]
    return {
        "wall_s": (statistics.median([i.wall_s for i in done]), "s"),
        "setup_s": (statistics.median([i.setup_s for i in done]), "s"),
        "peak_rss_mb": (statistics.median([i.peak_rss_mb for i in done]), "MB"),
    }


def layer_values(inv: Invocation) -> dict[str, tuple[float, str]]:
    layers = inv.layers
    out: dict[str, tuple[float, str]] = {}
    for span in layers:
        out[f"{span}.calls"] = (layers[span]["calls"], "count")
        out[f"{span}.self_s"] = (layers[span]["self_s"], "s")
    kernel = layers["hamiltonian.trace_moments"]
    site_powers = kernel.get("site_powers", 0)
    out["hamiltonian.trace_moments.site_powers"] = (site_powers, "count")
    out["hamiltonian.trace_moments.site_powers_per_s"] = (
        site_powers / kernel["self_s"] if kernel["self_s"] > 0 else 0.0, "1/s")
    out["hamiltonian.sample_potential.sites"] = (
        layers["hamiltonian.sample_potential"].get("sites", 0), "count")
    out["cli.artifact_bytes"] = (inv.artifact_bytes, "bytes")
    out["trace.errors"] = (sum(entry["errors"] for entry in layers.values()), "count")
    return out


def per_layer(timed: list[Invocation]) -> dict[str, tuple[float, str]]:
    traced = [inv for inv in timed if inv.traced and inv.layers is not None]
    untraced = [inv for inv in timed if not inv.traced and inv.wall_s is not None]
    per_inv = [layer_values(inv) for inv in traced]
    if not per_inv:
        raise statistics.StatisticsError("no traced invocation returned spans")
    out = {name: (statistics.median([v[name][0] for v in per_inv]), unit)
           for name, (_, unit) in per_inv[0].items()}
    traced_wall = statistics.median([inv.wall_s for inv in traced])
    untraced_wall = statistics.median([inv.wall_s for inv in untraced])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help=f"use {REFERENCE_REPLICAS} replicas everywhere (self-test only)")
    p.add_argument("--reference", type=Path, default=REFERENCE_PATH,
                   help="reference values file (default: reference.json beside this script)")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # exit through SystemExit, so subprocess.run kills and reaps a running invocation
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tracefluct" / "cli.py").is_file():
        print(f"error: no tracefluct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(args.reference.read_text())
    workload = WORKLOADS[args.workload]
    replicas = REFERENCE_REPLICAS if args.smoke else workload.replicas
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, reference, run_dir)

    if workload.replicas:
        runner.invoke(REFERENCE_SEED, REFERENCE_REPLICAS, traced=False)
    timed: list[Invocation] = []
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(timed) % 2 == 1
        timed.append(runner.invoke(args.seed, replicas, traced))
        if time.monotonic() - start >= args.seconds and (args.trace == 0 or len(timed) >= 2):
            break

    try:
        metrics = per_layer(timed) if args.trace else end_to_end(timed)
    except statistics.StatisticsError:
        for inv in runner.invocations:
            for problem in inv.problems:
                print(f"FAILED: {problem}", file=sys.stderr)
        print("error: no invocation produced a measurement", file=sys.stderr)
        return 1
    attempted = len(runner.invocations)
    failed = sum(1 for inv in runner.invocations if inv.problems)
    env = environment()
    env.update(next(inv.versions for inv in runner.invocations if inv.versions))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} invocations={len(timed)} timed, "
          f"{len(runner.invocations) - len(timed)} reference")
    print("# env " + json.dumps(env, sort_keys=True))
    for inv in runner.invocations:
        for problem in inv.problems:
            print(f"# FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if args.trace == 0 and workload.replicas:
        print(f"replicas_per_s {replicas / metrics['wall_s'][0]!r} 1/s")
    print(f"error_rate {failed / attempted!r} 1")
    (run_dir / "summary.json").write_text(json.dumps({
        "args": {k: str(v) for k, v in vars(args).items()},
        "env": env,
        "invocations": [vars(inv) for inv in runner.invocations],
    }, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
