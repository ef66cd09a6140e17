"""Quick self-check of the benchmark: every workload in both modes, a few ops.

    python3 -m pytest bench/test_bench.py

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, that every check ran and passed, that counts repeat for a
seed, and that the benchmark refuses to run without the package source.
"""

import importlib.util
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (
    "ok_frac",
    "exp_hit_frac",
    "postcorr_win_frac",
    "fitting.contours_kept_frac",
    "fitting.postcorr_pairs_kept_frac",
    "fitting.warnings_per_op",
    "io.bytes_read",
)


def bench(workload, trace, seed=0, cwd=ROOT):
    """Run one quick benchmark; return the process, its result and report."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    report_path = cwd / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(report_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric_and_check(workload, trace):
    result, report = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    expected = {"op"}
    if workload == "log_campaign":
        expected.add("cli_fit_identical")
    if trace and workload != "plan_queries":  # plan_queries has no fit to replay
        expected.add("replay")
    assert expected <= set(report["checks"])
    for name, (passed, ran) in report["checks"].items():
        assert ran >= 1 and passed == ran, name


def test_tail_never_reads_below_the_median(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for n in (1, 5, 20, 21, 22, 100, 16000):
        samples = [float((7919 * i) % n) for i in range(n)]
        value, percentile, count = run.tail(samples)
        assert value >= statistics.median(samples) and count == n
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fit_campaigns", "log_campaign"])
def test_counts_repeat_for_a_seed(workload, trace):
    first, _ = bench(workload, trace, seed=3)
    again, _ = bench(workload, trace, seed=3)
    for name in COUNTS:
        if name in first["metrics"]:
            assert first["metrics"][name] == again["metrics"][name], name


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
