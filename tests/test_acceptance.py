"""Release acceptance checks.

Each test is one gate: an end-to-end property with its tolerance and, where
it matters, a runtime budget. Every gate prints a PASS/FAIL line past
pytest's capture so a full run doubles as the release checklist. The
runtime bounds are part of the contract; a slow pass is a fail.
"""

import math
import time

import numpy as np

from scalinglaws import (
    C4_CONSTANTS,
    MIXED_CONSTANTS,
    ConstantsDocument,
    FitOptions,
    NoiseSpec,
    RunRecord,
    ScalingConstants,
    ScalingLawError,
    budget_exponent,
    critical_batch,
    extract_contours,
    extract_converged_run,
    fit_full_pipeline,
    gen_batch_scan,
    gen_converged_log,
    gen_trajectory,
    implicit_residual,
    implicit_residual_derivative,
    loss_at_min_steps,
    min_steps_for_loss,
    min_tokens_for_loss,
    read_constants,
    read_run_log,
    solve_loss,
    verify_allocation,
    write_constants,
    write_run_log,
)
from scalinglaws.cli import main


def _gate(capfd, name: str, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_constants(rng) -> ScalingConstants:
    """Constants spanning the range of plausible fits."""
    return ScalingConstants(
        n_c=10 ** rng.uniform(13.0, 18.0),
        alpha_n=rng.uniform(0.05, 0.1),
        s_c=10 ** rng.uniform(2.7, 3.7),
        alpha_s=rng.uniform(0.5, 0.8),
        b_star=10 ** rng.uniform(8.0, 12.0),
        alpha_b=rng.uniform(0.1, 0.3),
    )


def _noiseless_lab(c, big_batch, scan_batches, scan_floor):
    """One synthetic fitting campaign: a converged suite over 1e6 to 6e7
    params, a large-batch trajectory, and a batch scan at 1e7 params.

    Scan lengths are sized so every run crosses losses down to
    ``scan_floor``, which keeps the deepest default contour target in
    range at every batch.
    """
    sizes = np.geomspace(1e6, 6e7, 7)
    converged = [
        extract_converged_run(gen_converged_log(c, n, samples=16))
        for n in sizes
    ]
    big = gen_trajectory(c, 1e7, big_batch, 3000, log_every=1, run_id="big")
    steps = [
        int(1.25 * min_steps_for_loss(c, 1e7, scan_floor)
            * (1.0 + critical_batch(c, scan_floor) / b))
        for b in scan_batches
    ]
    scans = gen_batch_scan(c, 1e7, list(scan_batches), steps, log_every=1)
    return converged, big, scans


def _six_errors(report, truth):
    got = report.constants
    return {
        "n_c": abs(got.n_c / truth.n_c - 1.0),
        "alpha_n": abs(got.alpha_n / truth.alpha_n - 1.0),
        "s_c": abs(got.s_c / truth.s_c - 1.0),
        "alpha_s": abs(got.alpha_s / truth.alpha_s - 1.0),
        "b_star": abs(got.b_star / truth.b_star - 1.0),
        "alpha_b": abs(got.alpha_b / truth.alpha_b - 1.0),
    }


def test_recovers_c4_constants_noiselessly(capfd):
    """A noiseless campaign identifies all six c4 constants to 1e-4."""
    c = C4_CONSTANTS
    t0 = time.perf_counter()
    converged, big, scans = _noiseless_lab(c, 1e12, np.geomspace(1e4, 2.15e7, 6), 4.2)
    report = fit_full_pipeline(converged, big, scans)
    dt = time.perf_counter() - t0
    worst = max(_six_errors(report, c).values()) if report.complete else math.inf
    ok = report.complete and worst <= 1e-4 and dt < 10.0
    _gate(capfd, "noiseless recovery, c4", ok, f"worst rel err {worst:.2e}, {dt:.2f}s")


def test_recovers_mixed_constants_noiselessly(capfd):
    """Same campaign shape on the mixed-corpus constants."""
    c = MIXED_CONSTANTS
    t0 = time.perf_counter()
    converged, big, scans = _noiseless_lab(c, 1e13, np.geomspace(1e5, 1e8, 6), 5.0)
    report = fit_full_pipeline(converged, big, scans)
    dt = time.perf_counter() - t0
    worst = max(_six_errors(report, c).values()) if report.complete else math.inf
    ok = report.complete and worst <= 1e-4 and dt < 10.0
    _gate(capfd, "noiseless recovery, mixed", ok, f"worst rel err {worst:.2e}, {dt:.2f}s")


def _try_fit(converged, big, scans, post_correct):
    try:
        report = fit_full_pipeline(
            converged, big, scans, FitOptions(post_correct=post_correct)
        )
    except ScalingLawError:
        return None
    return report if report.complete else None


def test_recovers_exponents_under_noise(capfd):
    """With 1% multiplicative noise, 100 seeds: the three exponents land
    within 5% in at least 90 seeds, and the batch-law post-correction
    beats the uncorrected fit in at least 80."""
    c = C4_CONSTANTS
    sizes = np.geomspace(1e6, 6e7, 7)
    batches = list(np.geomspace(1e4, 2.15e7, 6))
    steps = [
        int(1.25 * min_steps_for_loss(c, 1e7, 4.2)
            * (1.0 + critical_batch(c, 4.2) / b))
        for b in batches
    ]
    t0 = time.perf_counter()
    within = 0
    improves = 0
    for seed in range(100):
        noise = NoiseSpec(sigma=0.01, seed=seed)
        converged = [
            extract_converged_run(
                gen_converged_log(c, n, samples=240, noise=noise, stream=100 + i),
                tail_fraction=0.25,
            )
            for i, n in enumerate(sizes)
        ]
        big = gen_trajectory(c, 1e7, 1e12, 3000, noise=noise, log_every=1,
                             run_id="big", stream=200)
        scans = gen_batch_scan(c, 1e7, batches, steps, noise=noise, log_every=5)
        corrected = _try_fit(converged, big, scans, post_correct=True)
        plain = _try_fit(converged, big, scans, post_correct=False)
        if corrected is None:
            continue
        errs = (abs(corrected.alpha_n / c.alpha_n - 1.0),
                abs(corrected.alpha_s / c.alpha_s - 1.0),
                abs(corrected.alpha_b / c.alpha_b - 1.0))
        if max(errs) <= 0.05:
            within += 1
        if plain is not None and errs[2] < abs(plain.alpha_b / c.alpha_b - 1.0):
            improves += 1
    dt = time.perf_counter() - t0
    ok = within >= 90 and improves >= 80
    _gate(capfd, "noisy exponent recovery", ok,
          f"within 5%: {within}/100, post-correction helps: {improves}/100, {dt:.0f}s")


def _oracle_residual(c, loss, n, s, b):
    """The loss equation in plain powers; shares no code with the solver."""
    size_term = (c.n_c / n) ** c.alpha_n
    s_min = s / (1.0 + c.b_star / loss ** (1.0 / c.alpha_b) / b)
    return size_term + (c.s_c / s_min) ** c.alpha_s - loss


def _fixed_point_loss(c, n, s, b, start, damping=0.1, cap=0.5):
    """Damped fixed-point iteration on the raw residual.

    The residual slope sits in [-9, -1] over these draws, so a damping of
    0.1 contracts; the cap keeps the early steps from overshooting.
    """
    loss = start
    for _ in range(20000):
        step = damping * _oracle_residual(c, loss, n, s, b)
        step = min(cap, max(-cap, step))
        nxt = loss + step
        if nxt <= 0.0:
            nxt = 0.5 * loss
        if abs(nxt - loss) <= 1e-13 * loss:
            return nxt
        loss = nxt
    return None


def test_loss_solver_contract(capfd):
    """Bisection hits its residual tolerance, preserves monotonicity,
    matches the unbounded-batch law far above the critical batch, and
    agrees with an independent fixed-point solver."""
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()

    # residual magnitude on 100 x 100 randomized valid inputs
    worst_resid = 0.0
    for _ in range(100):
        c = _random_constants(rng)
        n = 10 ** rng.uniform(5.0, 12.0, size=100)
        s = c.s_c * 10 ** rng.uniform(0.0, 4.0, size=100)
        b = 10 ** rng.uniform(3.0, 10.0, size=100)
        loss = solve_loss(c, n, s, b)
        resid = np.abs(implicit_residual(c, loss, n, s, b))
        worst_resid = max(worst_resid, float(resid.max()))

    # doubling any one input must strictly lower the loss; batches stay
    # within a decade and a half of critical so the batch effect is
    # resolvable at the solver tolerance
    mono_ok = True
    for _ in range(10):
        c = _random_constants(rng)
        n = 10 ** rng.uniform(6.0, 11.0, size=100)
        s = c.s_c * 10 ** rng.uniform(0.0, 2.0, size=100)
        b = critical_batch(c, loss_at_min_steps(c, n, s)) * 10 ** rng.uniform(-1.5, 1.5, size=100)
        base = solve_loss(c, n, s, b)
        mono_ok &= bool(np.all(solve_loss(c, 2.0 * n, s, b) < base))
        mono_ok &= bool(np.all(solve_loss(c, n, 2.0 * s, b) < base))
        mono_ok &= bool(np.all(solve_loss(c, n, s, 2.0 * b) < base))

    # a million times the critical batch is indistinguishable from the
    # unbounded-batch step law
    far_gap = 0.0
    for _ in range(10):
        c = _random_constants(rng)
        n = 10 ** rng.uniform(6.0, 11.0, size=100)
        s = c.s_c * 10 ** rng.uniform(0.0, 4.0, size=100)
        ceiling = loss_at_min_steps(c, n, s)
        got = solve_loss(c, n, s, 1e6 * critical_batch(c, ceiling))
        far_gap = max(far_gap, float(np.max(np.abs(got - ceiling))))

    # independent solver, run from both sides of the root
    fp_ok = True
    fp_gap = 0.0
    for _ in range(100):
        c = _random_constants(rng)
        n = 10 ** rng.uniform(6.0, 11.0)
        s = c.s_c * 10 ** rng.uniform(0.0, 3.0)
        b = critical_batch(c, loss_at_min_steps(c, n, s)) * 10 ** rng.uniform(-1.0, 1.0)
        direct = solve_loss(c, n, s, b)
        for start in (0.05, 50.0):
            fixed = _fixed_point_loss(c, n, s, b, start)
            if fixed is None:
                fp_ok = False
            else:
                fp_gap = max(fp_gap, abs(fixed - direct))

    dt = time.perf_counter() - t0
    ok = (worst_resid <= 1e-10 and mono_ok and far_gap <= 1e-6
          and fp_ok and fp_gap <= 1e-8 and dt < 5.0)
    _gate(capfd, "loss solver contract", ok,
          f"max residual {worst_resid:.1e}, monotone {mono_ok}, "
          f"far-batch gap {far_gap:.1e}, fixed-point gap {fp_gap:.1e}, {dt:.2f}s")


def test_step_token_tradeoff_on_scans(capfd):
    """Equal-loss points read off a noiseless scan obey the excess
    product rule, and the run at the critical batch pays exactly twice
    the minimum steps and twice the minimum tokens."""
    c = C4_CONSTANTS
    n = 1e7
    target = 4.0
    b_crit = critical_batch(c, target)
    s_min = min_steps_for_loss(c, n, target)
    e_min = min_tokens_for_loss(c, n, target)
    batches = [b_crit * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
    steps = [int(1.3 * s_min * (1.0 + b_crit / b)) + 2 for b in batches]
    runs = gen_batch_scan(c, n, batches, steps, log_every=1)
    # raw interpolated crossings; the local line refit is for noisy data
    (points,) = extract_contours(runs, [target], refine_window=0)

    prod_err = 0.0
    for s_cross, tokens in zip(points.steps, points.tokens):
        prod = (s_cross / s_min - 1.0) * (tokens / e_min - 1.0)
        prod_err = max(prod_err, abs(prod - 1.0))
    at_crit = int(np.argmin(np.abs(points.batch_tokens / b_crit - 1.0)))
    s_err = abs(points.steps[at_crit] / (2.0 * s_min) - 1.0)
    e_err = abs(points.tokens[at_crit] / (2.0 * e_min) - 1.0)
    ok = (len(points.steps) == 5 and prod_err <= 1e-6
          and s_err <= 1e-6 and e_err <= 1e-6)
    _gate(capfd, "step/token trade-off", ok,
          f"excess product off by {prod_err:.1e}, critical-batch run at "
          f"2x minimum within {max(s_err, e_err):.1e}")


def test_allocation_matches_grid_search(capfd):
    """The closed-form budget split agrees with brute-force grid
    minimization across six decades of compute."""
    c = C4_CONSTANTS
    t0 = time.perf_counter()
    within = True
    loss_gap = 0.0
    ratio_err = 0.0
    budget_err = 0.0
    for budget in np.geomspace(1e17, 1e23, 13):
        check = verify_allocation(c, budget)
        plan = check.plan
        within &= check.within_one_cell
        loss_gap = max(loss_gap, check.loss_rel_gap)
        ratio = plan.loss_final / plan.loss_converged
        ratio_err = max(ratio_err, abs(ratio / (1.0 + c.alpha_n / c.alpha_s) - 1.0))
        spend = 6.0 * plan.n_opt * plan.b_opt * plan.s_opt
        budget_err = max(budget_err, abs(spend / budget - 1.0))
    alpha_gap = abs(budget_exponent(c) - 0.0512)
    dt = time.perf_counter() - t0
    ok = (within and loss_gap <= 0.01 and ratio_err <= 1e-12
          and budget_err <= 0.01 and alpha_gap <= 5e-5 and dt < 30.0)
    _gate(capfd, "budget allocation vs grid", ok,
          f"within one cell: {within}, loss gap {loss_gap:.1e}, "
          f"stop ratio err {ratio_err:.1e}, spend err {budget_err:.1e}, "
          f"exponent gap {alpha_gap:.1e}, {dt:.2f}s")


def test_residual_derivative_matches_finite_differences(capfd):
    """Analytic residual slope agrees with central differences to 1e-4
    on a thousand random points."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        c = _random_constants(rng)
        loss = 10 ** rng.uniform(-0.3, 1.3, size=100)
        n = 10 ** rng.uniform(5.0, 12.0, size=100)
        s = c.s_c * 10 ** rng.uniform(0.0, 4.0, size=100)
        b = 10 ** rng.uniform(3.0, 10.0, size=100)
        h = 1e-6 * loss
        numeric = (implicit_residual(c, loss + h, n, s, b)
                   - implicit_residual(c, loss - h, n, s, b)) / (2.0 * h)
        analytic = implicit_residual_derivative(c, loss, n, s, b)
        worst = max(worst, float(np.max(np.abs(numeric / analytic - 1.0))))
    ok = worst <= 1e-4
    _gate(capfd, "residual derivative", ok, f"worst rel err {worst:.1e}")


def test_simulate_fit_format_closure(capfd, tmp_path):
    """Writers and readers are exact inverses, and simulated logs feed
    the fitting commands with no transformation in between."""
    # a deliberately awkward run: fractional steps, odd batch, both splits
    batch = 123456.789

    def sample(step, loss, split):
        return (step, step * batch, loss, split)

    run = RunRecord(
        run_id="awkward/run:1",
        n_params=1.23e7,
        batch_tokens=batch,
        context_length=2048,
        dataset_tag="c4-variant",
        samples=[
            sample(100.5, 2.9184, "train"),
            sample(100.5, 2.93, "test"),
            sample(200.25, 2.684193150679535, "train"),
            sample(333.0, 2.47390452915212, "test"),
        ],
    )
    exact = True
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"round.{fmt}"
        write_run_log(run, path, fmt=fmt)
        exact &= read_run_log(path) == run

    doc = ConstantsDocument.from_constants(C4_CONSTANTS, diagnostics={"note": "gate"})
    doc_path = tmp_path / "consts.json"
    write_constants(doc, doc_path)
    exact &= read_constants(doc_path) == doc

    # simulate -> fit and simulate -> scan, paths handed over untouched
    consts = tmp_path / "c4.json"
    write_constants(ConstantsDocument.from_constants(C4_CONSTANTS), consts)
    conv_dir = tmp_path / "conv"
    rc_conv = main([
        "simulate", "--constants", str(consts), "--kind", "converged",
        "--sizes", "1e6,3e6,1e7,3e7,6e7", "--out-dir", str(conv_dir),
    ])
    big = tmp_path / "big.jsonl"
    rc_big = main([
        "simulate", "--constants", str(consts),
        "--n-params", "1e7", "--batch-tokens", "1e12",
        "--num-steps", "3000", "--out", str(big),
    ])
    scan_dir = tmp_path / "scans"
    scan_steps = int(1.25 * min_steps_for_loss(C4_CONSTANTS, 1e7, 4.6)
                     * (1.0 + critical_batch(C4_CONSTANTS, 4.6) / 3e4))
    rc_scan = main([
        "simulate", "--constants", str(consts), "--kind", "scan",
        "--n-params", "1e7", "--batch-tokens", "3e4,3e5,3e6",
        "--num-steps", str(scan_steps), "--out-dir", str(scan_dir),
    ])
    capfd.readouterr()

    fitted = tmp_path / "fitted.json"
    argv = ["fit", "--big-batch-log", str(big), "--out", str(fitted)]
    for p in sorted(conv_dir.glob("*.jsonl")):
        argv += ["--converged-log", str(p)]
    scan_logs = sorted(scan_dir.glob("*.jsonl"))
    for p in scan_logs:
        argv += ["--scan-log", str(p)]
    rc_fit = main(argv)
    fit_out = capfd.readouterr().out

    scan_argv = ["scan"]
    for p in scan_logs:
        scan_argv += ["--scan-log", str(p)]
    rc_scan_cmd = main(scan_argv)
    scan_out = capfd.readouterr().out

    closed = (rc_conv == 0 and rc_big == 0 and rc_scan == 0
              and rc_fit == 0 and rc_scan_cmd == 0
              and "complete: yes" in fit_out and "b_star" in scan_out)
    if closed:
        closed = read_constants(fitted).complete()
    ok = exact and closed
    _gate(capfd, "format closure", ok,
          f"round trips exact: {exact}, simulate feeds fit/scan: {closed}")
