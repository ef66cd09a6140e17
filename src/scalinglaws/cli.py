"""Command-line interface.

Subcommands mirror the library: fit estimates constants from logs,
predict and plan apply a constants document, scan fits just the batch
law, simulate writes synthetic logs, diagnose checks data and batch
regimes. Exit status is 0 on success, 1 on an operation error (bad
data, unreachable target, unreadable file), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ScalingLawError, ValidationError
from .fitting import (
    FitOptions,
    _one_setup,
    diagnose_infinite_batch,
    diagnose_infinite_data,
    extract_converged_run,
    fit_batch_stage,
    fit_full_pipeline,
)
from .io import (
    _open_out,
    document_from_report,
    read_constants,
    read_run_log,
    write_constants,
    write_run_log,
)
from .planning import (
    MAX_GRID_POINTS,
    min_budget_for_loss,
    min_steps_for_loss,
    min_tokens_for_loss,
    optimal_allocation,
    predict_trajectory,
    recommend_batch,
)
from .records import SPLITS, WarmupTrim
from .synthetic import NoiseSpec, WarmupSpec, gen_batch_scan, gen_converged_log, gen_trajectory

FORMATS = ("table", "csv", "jsonl")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _emit_rows(headers, rows, fmt, target):
    """Write tabular output as an aligned table, csv, or jsonl."""
    with _open_out(target) as out:
        if fmt == "table":
            text = [[_cell(v) for v in row] for row in rows]
            widths = [
                max(len(h), *(len(r[i]) for r in text)) if text else len(h)
                for i, h in enumerate(headers)
            ]
            out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
            for row in text:
                out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")
        elif fmt == "csv":
            out.write(",".join(headers) + "\n")
            for row in rows:
                out.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        else:
            for row in rows:
                out.write(json.dumps(dict(zip(headers, row))) + "\n")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValidationError(f"{flag} is empty")
    return values


def _parse_steps(text: str) -> list[float] | np.ndarray:
    """Either an explicit comma list or start:stop:count, log-spaced (an array)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"--steps ranges look like start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"bad --steps range {text!r}") from None
        if not (0 < start < stop < math.inf and 2 <= count <= MAX_GRID_POINTS):
            raise ValidationError(f"--steps range needs 0 < start < stop < inf, 2 <= count <= {MAX_GRID_POINTS}")
        return np.geomspace(start, stop, count)
    return _parse_float_list(text, "--steps")


def _trim_from(args) -> WarmupTrim:
    return WarmupTrim(min_step=args.trim_min_step, final_fraction=args.trim_fraction)


def _fit_options(args, **extra) -> FitOptions:
    """FitOptions from the flags _add_scan_flags declares."""
    return FitOptions(
        trim=_trim_from(args),
        split=args.split,
        smooth_half_life=args.smooth_half_life,
        contour_targets=_parse_float_list(args.targets, "--targets") if args.targets else None,
        num_targets=args.num_targets,
        refine_batch_law=args.refine,
        **extra,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    options = _fit_options(args, post_correct=not args.no_post_correct)
    converged_logs = [read_run_log(path) for path in args.converged_log]
    big_batch = read_run_log(args.big_batch_log)
    # a converged run keeps no header, so the setup is checked before they go
    _one_setup([big_batch, *converged_logs])
    converged = [
        extract_converged_run(run, trim=options.trim, split=args.split) for run in converged_logs
    ]
    scans = [read_run_log(path) for path in args.scan_log or []]
    report = fit_full_pipeline(converged, big_batch, scans, options)

    rows = [
        ("alpha_n", report.alpha_n),
        ("alpha_s", report.alpha_s),
        ("alpha_b", report.alpha_b if report.alpha_b is not None else "-"),
        ("n_c", report.n_c),
        ("s_c", report.s_c),
        ("b_star", report.b_star if report.b_star is not None else "-"),
    ]
    # with the document on stdout, stdout must parse, so the table goes to stderr
    prose = sys.stderr if args.out == "-" else sys.stdout
    _emit_rows(("constant", "value"), rows, "table", prose)
    print(f"converged-stage r_squared: {report.converged_stage.r_squared:.8f}", file=prose)
    print(f"step-stage r_squared: {report.step_stage.r_squared:.8f}", file=prose)
    if report.batch_stage is not None:
        print(f"batch-stage r_squared: {report.batch_stage.r_squared:.8f}", file=prose)
        print(f"contours fitted: {len(report.contours)}", file=prose)
    print(f"complete: {'yes' if report.complete else 'no'}", file=prose)
    if args.out:
        write_constants(document_from_report(report), args.out)
    return 0


def cmd_predict(args) -> int:
    constants = read_constants(args.constants).constants()
    steps = _parse_steps(args.steps)
    prediction = predict_trajectory(constants, args.n_params, args.batch_tokens, steps)
    rows = [
        (float(s), float(s) * args.batch_tokens, float(l))
        for s, l in zip(prediction.steps, prediction.losses)
    ]
    _emit_rows(("step", "tokens", "loss"), rows, args.format, args.out)
    return 0


def cmd_plan(args) -> int:
    if args.budget_flops is not None and args.n_params is not None:
        print("error: --n-params goes with --target-loss, not --budget-flops", file=sys.stderr)
        return 2
    constants = read_constants(args.constants).constants()
    rows = []
    if args.budget_flops is not None:
        plan = optimal_allocation(constants, args.budget_flops)
    else:
        if args.n_params is not None:
            rows.append(("steps_at_unbounded_batch", min_steps_for_loss(constants, args.n_params, args.target_loss)))
            rows.append(("min_tokens", min_tokens_for_loss(constants, args.n_params, args.target_loss)))
        _, plan = min_budget_for_loss(constants, args.target_loss)
    rows += [
        ("budget_flops", plan.budget),
        ("n_opt", plan.n_opt),
        ("s_opt", plan.s_opt),
        ("b_opt", plan.b_opt),
        ("tokens", plan.s_opt * plan.b_opt),
        ("loss_final", plan.loss_final),
        ("loss_converged", plan.loss_converged),
        ("stop_ratio", plan.loss_final / plan.loss_converged),
        ("alpha_c", plan.alpha_c),
        ("c_c", plan.c_c),
        ("recommended_batch", recommend_batch(constants, plan.loss_final, args.time_weight)),
    ]
    _emit_rows(("quantity", "value"), rows, args.format, args.out)
    return 0


def cmd_scan(args) -> int:
    runs = [read_run_log(path) for path in args.scan_log]
    _, contours, law = fit_batch_stage(runs, _fit_options(args))
    rows = [
        (f.loss_target, f.s_min_hat, f.e_min_hat, f.b_crit_hat, f.point_count, f.residual_rms)
        for f in contours
    ]
    _emit_rows(
        ("loss_target", "s_min", "e_min", "b_crit", "points", "residual_rms"),
        rows, args.format, args.out,
    )
    # csv or jsonl rows on stdout must parse, so the law goes to stderr
    prose = sys.stderr if args.format != "table" and args.out == "-" else sys.stdout
    print(f"b_star: {law.scale:.10g}", file=prose)
    print(f"alpha_b: {law.exponent:.10g}", file=prose)
    return 0


# the flags each --kind needs
_SIMULATE_NEEDS = {
    "trajectory": ("n_params", "batch_tokens", "out"),
    "scan": ("n_params", "batch_tokens", "out_dir"),
    "converged": ("sizes", "out_dir"),
}


def cmd_simulate(args) -> int:
    missing = [name for name in _SIMULATE_NEEDS[args.kind] if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        print(f"error: --kind {args.kind} needs {flags}", file=sys.stderr)
        return 2
    batches = [1e12]  # the converged tails' batch when --batch-tokens is unset
    if args.batch_tokens is not None:
        batches = _parse_float_list(args.batch_tokens, "--batch-tokens")
    if len(batches) > 1 and args.kind != "scan":
        print("error: only --kind scan takes several --batch-tokens values", file=sys.stderr)
        return 2
    constants = read_constants(args.constants).constants()
    noise = NoiseSpec(sigma=args.sigma, seed=args.seed)
    curve = dict(noise=noise, log_every=args.log_every,
                 warmup=WarmupSpec(length=args.warmup_steps, inflation=args.warmup_inflation))
    if args.kind == "trajectory":
        run = gen_trajectory(constants, args.n_params, batches[0], args.num_steps, **curve)
        written = [(args.out, run)]
    else:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.kind == "scan":
            runs = gen_batch_scan(constants, args.n_params, batches, args.num_steps, **curve)
            written = [(out_dir / f"scan-b{run.batch_tokens:g}.jsonl", run) for run in runs]
        else:  # plateau tails of runs already trained out
            sizes = _parse_float_list(args.sizes, "--sizes")
            written = [
                (out_dir / f"converged-n{n:g}.jsonl",
                 gen_converged_log(constants, n, batch_tokens=batches[0], noise=noise, stream=i))
                for i, n in enumerate(sizes)
            ]
    for path, run in written:
        write_run_log(run, path)
        print(path)
    return 0


def cmd_diagnose(args) -> int:
    trim = _trim_from(args)
    runs = [read_run_log(path) for path in args.log]
    if len(runs) == 1:
        result = diagnose_infinite_data(runs[0], threshold=args.gap_threshold, trim=trim)
        print(f"max train/test gap: {result.max_gap:.6g} nats (threshold {result.threshold:g})")
        print(f"data effectively unbounded: {'yes' if result.data_unbounded else 'no'}")
        return 0
    runs.sort(key=lambda r: r.batch_tokens)
    result = diagnose_infinite_batch(
        runs, threshold=args.stationary_threshold, trim=trim, split=args.split
    )
    for b_small, b_large, dev in result.deviations:
        print(f"batch {b_small:g} vs {b_large:g}: max deviation {dev:.6g} nats")
    if result.stationary_batch is None:
        print("batch effectively unbounded: none found")
    else:
        print(f"batch effectively unbounded from: {result.stationary_batch:g}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(sub, default_out="-"):
    sub.add_argument("--out", default=default_out, help="output path, - for stdout")
    sub.add_argument("--format", choices=FORMATS, default="table", help="output format")


def _add_scan_flags(sub, required):
    sub.add_argument("--scan-log", action="append", required=required,
                     help="log of one batch-scan run; repeat per batch size")
    sub.add_argument("--targets", help="comma-separated contour losses")
    sub.add_argument("--num-targets", type=int, default=5, help="automatic contour count")
    sub.add_argument("--smooth-half-life", type=float, default=None,
                     help="EMA half-life in steps for scan runs")
    sub.add_argument("--refine", action="store_true", help="refine the batch law fit")
    _add_trim_flags(sub)


def _add_trim_flags(sub):
    sub.add_argument("--trim-min-step", type=float, default=100.0,
                     help="drop samples below this step")
    sub.add_argument("--trim-fraction", type=float, default=0.02,
                     help="drop samples below this fraction of the final step")
    sub.add_argument("--split", choices=SPLITS, default="test",
                     help="loss split every stage reads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalinglaws",
        description="Fit scaling laws from training logs and plan large runs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="estimate all six constants from run logs")
    fit.add_argument("--converged-log", action="append", required=True,
                     help="log of a run trained to convergence; repeat per model size")
    fit.add_argument("--big-batch-log", required=True,
                     help="log of one run at effectively unbounded batch")
    fit.add_argument("--no-post-correct", action="store_true",
                     help="skip the analytic batch-law post-correction")
    fit.add_argument("--out", default=None, help="write the constants document here, - for stdout")
    _add_scan_flags(fit, required=False)
    fit.set_defaults(func=cmd_fit)

    predict = commands.add_parser("predict", help="predict a loss curve from constants")
    predict.add_argument("--constants", required=True, help="constants document path")
    predict.add_argument("--n-params", type=float, required=True, help="model size")
    predict.add_argument("--batch-tokens", type=float, required=True, help="batch size in tokens")
    predict.add_argument("--steps", required=True,
                         help="comma list or start:stop:count (log-spaced)")
    _add_output_flags(predict)
    predict.set_defaults(func=cmd_predict)

    plan = commands.add_parser("plan", help="allocate a budget or cost out a target loss")
    plan.add_argument("--constants", required=True, help="constants document path")
    goal = plan.add_mutually_exclusive_group(required=True)
    goal.add_argument("--budget-flops", type=float, help="training compute budget")
    goal.add_argument("--target-loss", type=float, help="loss to reach optimally")
    plan.add_argument("--n-params", type=float, default=None,
                      help="with --target-loss, also cost out this fixed model size")
    plan.add_argument("--time-weight", type=float, default=1.0,
                      help="relative value of finishing in fewer steps")
    _add_output_flags(plan)
    plan.set_defaults(func=cmd_plan)

    scan = commands.add_parser("scan", help="fit the batch law from a batch scan")
    _add_scan_flags(scan, required=True)
    _add_output_flags(scan)
    scan.set_defaults(func=cmd_scan)

    simulate = commands.add_parser("simulate", help="write synthetic run logs")
    simulate.add_argument("--constants", required=True, help="constants document path")
    simulate.add_argument("--kind", choices=("trajectory", "scan", "converged"),
                          default="trajectory")
    simulate.add_argument("--n-params", type=float, default=None, help="model size")
    simulate.add_argument("--batch-tokens", default=None,
                          help="batch size in tokens; comma list for --kind scan; "
                               "1e12 if unset for --kind converged")
    simulate.add_argument("--sizes", default=None,
                          help="comma-separated model sizes for --kind converged")
    simulate.add_argument("--num-steps", type=int, default=5000, help="final step")
    simulate.add_argument("--log-every", type=int, default=1, help="logging stride")
    simulate.add_argument("--sigma", type=float, default=0.0,
                          help="multiplicative log-normal noise level")
    simulate.add_argument("--seed", type=int, default=0, help="noise seed")
    simulate.add_argument("--warmup-steps", type=float, default=0.0,
                          help="warm-up window length in steps")
    simulate.add_argument("--warmup-inflation", type=float, default=0.0,
                          help="added nats at step zero")
    simulate.add_argument("--out", default=None, help="output path for --kind trajectory")
    simulate.add_argument("--out-dir", default=None, help="output directory for multi-run kinds")
    simulate.set_defaults(func=cmd_simulate)

    diagnose = commands.add_parser("diagnose", help="check data/batch regimes of logs")
    diagnose.add_argument("--log", action="append", required=True,
                          help="one log checks the train/test gap; several check batch stationarity")
    diagnose.add_argument("--gap-threshold", type=float, default=0.01,
                          help="largest ignorable train/test gap in nats")
    diagnose.add_argument("--stationary-threshold", type=float, default=0.005,
                          help="largest curve deviation counted as stationary")
    _add_trim_flags(diagnose)
    diagnose.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ScalingLawError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
