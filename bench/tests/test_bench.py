"""Self-test of the benchmark: reduced-size smoke runs of every workload.

Run from the repository root (about a minute on two cores):

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, *extra: str) -> tuple[dict, list[str]]:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def printed(lines: list[str], name: str) -> float:
    """Value of a ``name value unit`` summary line."""
    (value,) = [ln.split()[1] for ln in lines if ln.split()[0] == name]
    return float(value)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_declared_metric(workload, trace):
    result, lines = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert printed(lines, "error_rate") == 0.0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in metrics.values())
        if workload.startswith("simulate"):
            assert printed(lines, "replicas_per_s") > 0
        return
    # the spans partition the traced call of main, so their self times add up to it
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(self_sum - metrics["trace.wall_s"]) <= 0.01 + 0.01 * metrics["trace.wall_s"]
    assert metrics["trace.errors"] == 0
    kernel_calls = metrics["hamiltonian.trace_moments.calls"]
    if workload == "simulate-lowdeg":
        assert kernel_calls == 3 * 20  # one per replica and grid size
        assert metrics["hamiltonian.trace_moments.site_powers"] == 20 * 3 * 140_000
    elif workload == "expansion-deg12":
        assert kernel_calls == 0
        assert metrics["expansion.series_expansion.calls"] == 1
        assert metrics["symbolic.trace_power_polynomial.calls"] == 6
    else:
        assert kernel_calls == 20
        assert metrics["expansion.exact_mean_trace_power.calls"] == 6


@pytest.mark.parametrize("workload, keys, message", [
    ("simulate-lowdeg", ("raw", "poly:0,0,0,1", "100000", 3), "raw trace of replica 3"),
    ("expansion-deg12", ("reconstructed_mean",), "reference reconstructed_mean"),
])
def test_corrupted_reference_counts_as_failure(tmp_path, workload, keys, message):
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    entry = reference[workload]
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] *= 1 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result, lines = smoke(workload, 0, "--reference", str(path))
    assert not result["correct"] and result["failed"] >= 1
    assert printed(lines, "error_rate") > 0
    assert any(message in ln for ln in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
