"""Benchmark of the scalinglaws package: three closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload fit_campaigns --seed 1 --seconds 30 --trace 0

``--seconds`` sets a fixed op count (``seconds * ops_per_second`` of the
workload, sized so a run measures about that long on a 2-core host), not
a time box, so every count in the output repeats for a given seed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
other pair of ops and prints the per-layer metrics. The last line of
stdout is one JSON object; the lines above it are a readable summary.
A full report goes to ``.bench_out/`` and, when traced, the spans too.
See bench/README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads. With the default of one per
# core, an OpenBLAS worker spins after each call and the op needs both
# cores of a 2-core host: one busy neighbour then makes op times bimodal.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracing as T
from tracing import NULL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
    "exp_hit_frac": "frac",
    "postcorr_win_frac": "frac",
}

MODULES = ("synthetic", "records", "io", "fitting", "laws", "planning", "bench")
FITTING_CALLS = (
    "fitting.extract_converged_run",
    "fitting.fit_full_pipeline",
    "fitting.fit_converged_law",
    "fitting.fit_step_law",
    "fitting.default_contour_targets",
    "fitting.extract_contours",
    "fitting.fit_contour",
    "fitting.fit_critical_batch_law",
    "fitting.post_correct_batch_law",
)
MS_CALLS = (
    "synthetic.gen_trajectory",
    "synthetic.gen_batch_scan",
    "synthetic.gen_converged_log",
    "records.trim_warmup",
    "io.read_constants",
    "io.write_constants",
    "planning.verify_allocation",
    "planning.predict_trajectory",
    "cli.fit",
)
US_CALLS = (
    "planning.optimal_allocation",
    "planning.min_budget_for_loss",
    "planning.min_steps_for_loss",
    "planning.recommend_batch",
)
SYNTHETIC = ("synthetic.gen_trajectory", "synthetic.gen_batch_scan", "synthetic.gen_converged_log")
READS = ("io.read_run_log.jsonl", "io.read_run_log.csv")

PER_LAYER = {
    **{f"{name}.ms": "ms" for name in MS_CALLS},
    **{f"{name}.{q}": "ms" for name in FITTING_CALLS for q in ("ms", "cpu_ms")},
    **{f"{name}.us": "us" for name in US_CALLS},
    "synthetic.rows_per_s": "1/s",
    "io.read_run_log.jsonl.rows_per_s": "1/s",
    "io.read_run_log.csv.rows_per_s": "1/s",
    "io.read_run_log.ms": "ms",
    "io.bytes_read": "bytes",
    "io.write_run_log.jsonl.rows_per_s": "1/s",
    "io.write_run_log.csv.rows_per_s": "1/s",
    "fitting.contours_kept_frac": "frac",
    "fitting.postcorr_pairs_kept_frac": "frac",
    "fitting.warnings_per_op": "1/op",
    "laws.solve_loss.scalar_us": "us",
    "laws.solve_loss.vector_points_per_s": "1/s",
    "laws.solve_loss.gen_ms": "ms",
    **{f"{module}.share": "frac" for module in MODULES},
    "trace.op_p50_ms": "ms",
    "trace.untraced_op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}


def import_package():
    """Import scalinglaws from this checkout's ``src``, and nowhere else."""
    init = SRC / "scalinglaws" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no package source at {init}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import scalinglaws

    if Path(scalinglaws.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported scalinglaws from {scalinglaws.__file__}, not {init}")


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it: its value,
    the percentile and the sample count. Below 21 samples that percentile
    would fall under the median, so the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11 if n >= 21 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(args, wl_cls, tracer) -> dict:
    """Set up, warm up, run the fixed op list and the run-level checks."""
    from workloads import OpResult

    ops = max(1, round(args.seconds * wl_cls.ops_per_second))
    wl = wl_cls(args.seed, ops, OUT)
    results, plain_times, traced_times = [], [], []
    replays = [0, 0]  # passed, run
    try:
        tracer.op = "setup"
        setup_times = wl.setup(tracer)
        for i in range(-wl.warmup, 0):
            wl.op(NULL, i)
        start = time.perf_counter()
        for i in range(ops):
            # pairs of ops alternate, so inputs that alternate op by op
            # land in both the traced and the untraced half
            traced = args.trace and (i // 2) % 2 == 0
            tr = tracer if traced else NULL
            tracer.op = i
            if wl.collect_between_ops:
                # the previous op's garbage is not this op's cost
                gc.collect()
            t0 = time.perf_counter()
            try:
                with tr.span("op"):
                    result = wl.op(tr, i)
            except Exception:
                traceback.print_exc()
                result = OpResult(ok=False)
            (traced_times if traced else plain_times).append(time.perf_counter() - t0)
            if traced and result.ok and wl.has_replay:
                with tr.span("replay"):
                    result.ok = wl.replay(tr, result)
                replays[0] += result.ok
                replays[1] += 1
            result.replay = None
            results.append(result)
        wall = time.perf_counter() - start
        tracer.op = "finish"
        run_checks = wl.finish(tracer)
    finally:
        wl.close()
    return {
        "wl": wl,
        "ops": ops,
        "setup_times": setup_times,
        "results": results,
        "plain_times": plain_times,
        "traced_times": traced_times,
        "wall": wall,
        "run_checks": run_checks,
        "replays": replays,
    }


def end_to_end_metrics(r) -> dict:
    times = r["plain_times"]
    hit, win = r["wl"].quality(r["results"])
    return {
        "setup_s": median(r["setup_times"]),
        "ops_per_s": len(times) / r["wall"],
        "op_p50_ms": median(times) * 1e3,
        "op_tail_ms": tail(times)[0] * 1e3,
        "ok_frac": sum(x.ok for x in r["results"]) / len(r["results"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exp_hit_frac": hit,
        "postcorr_win_frac": win,
    }


def per_layer_metrics(r, spans) -> dict:
    m = {}
    for name in MS_CALLS:
        m[f"{name}.ms"] = T.median_wall(spans, name, 1e3)
    for name in FITTING_CALLS:
        m[f"{name}.ms"] = T.median_wall(spans, name, 1e3)
        m[f"{name}.cpu_ms"] = T.median_cpu(spans, name, 1e3)
    for name in US_CALLS:
        m[f"{name}.us"] = T.median_wall(spans, name, 1e6)
    m["synthetic.rows_per_s"] = T.work_rate(spans, SYNTHETIC)
    for fmt in ("jsonl", "csv"):
        m[f"io.read_run_log.{fmt}.rows_per_s"] = T.work_rate(spans, (f"io.read_run_log.{fmt}",))
        m[f"io.write_run_log.{fmt}.rows_per_s"] = T.work_rate(spans, (f"io.write_run_log.{fmt}",))
    m["io.read_run_log.ms"] = T.median_per_op(spans, READS, 1e3)
    m["io.bytes_read"] = 0.0
    m["fitting.contours_kept_frac"] = 0.0
    m["fitting.postcorr_pairs_kept_frac"] = 0.0
    m.update(r["wl"].layer_counts())
    m["fitting.warnings_per_op"] = sum(x.warnings for x in r["results"]) / len(r["results"])
    m["laws.solve_loss.scalar_us"] = T.median_wall(spans, "laws.solve_loss", 1e6)
    m["laws.solve_loss.vector_points_per_s"] = T.work_rate(spans, ("laws.solve_loss.vector",))
    m["laws.solve_loss.gen_ms"] = T.median_per_op(spans, ("laws.solve_loss.vector",), 1e3)
    shares = T.op_shares(spans)
    for module in MODULES:
        m[f"{module}.share"] = shares.get(module, 0.0)
    traced = median(r["traced_times"]) * 1e3
    untraced = median(r["plain_times"]) * 1e3
    m["trace.op_p50_ms"] = traced
    m["trace.untraced_op_p50_ms"] = untraced
    m["trace.overhead_ms"] = traced - untraced
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit_campaigns", "log_campaign", "plan_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the op count; 1 gives a quick self-check run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_package()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl_cls = WORKLOADS[args.workload]
    tracer = T.Tracer() if args.trace else NULL
    r = run(args, wl_cls, tracer)

    ops = r["ops"]
    failed = sum(not x.ok for x in r["results"])
    correct = failed == 0 and all(r["run_checks"].values())
    if args.trace:
        metrics = per_layer_metrics(r, tracer.spans)
        units = PER_LAYER
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
    else:
        metrics = end_to_end_metrics(r)
        units = END_TO_END
    _, pct, count = tail(r["plain_times"])
    checks = {"op": [ops - failed, ops], **{k: [int(v), 1] for k, v in r["run_checks"].items()}}
    if r["replays"][1]:
        checks["replay"] = r["replays"]
    env = environment()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "warmup_ops": wl_cls.warmup,
        "setup_scope": wl_cls.setup_scope,
        "setup_times_s": r["setup_times"],
        "op_times_ms": [t * 1e3 for t in r["plain_times"]],
        "environment": env,
        "tail": {"percentile": pct, "samples": count},
        "checks": checks,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  ops {ops} (+{wl_cls.warmup} warm-up)  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"setup: median of {len(r['setup_times'])} repetitions of {wl_cls.setup_scope}")
    for k in units:
        note = f"   (p{pct:g} of {count} ops)" if k == "op_tail_ms" else ""
        print(f"  {k:<40} {metrics[k]:>14.6g} {units[k]}{note}")
    print("checks " + "  ".join(f"{k} {p}/{n}" for k, (p, n) in checks.items()))
    print(f"report {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
