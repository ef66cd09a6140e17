"""Staged fitting: each stage in isolation, then the assembled pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    ContourPoints,
    ConvergedRun,
    DiagnosticError,
    FitFailureError,
    FitOptions,
    InconsistentConstantsError,
    InsufficientDataError,
    NoiseSpec,
    RunRecord,
    ScalingConstants,
    ScalingLawWarning,
    ValidationError,
    WarmupTrim,
    critical_batch,
    default_contour_targets,
    document_from_report,
    diagnose_infinite_batch,
    diagnose_infinite_data,
    extract_contours,
    extract_converged_run,
    fit_batch_stage,
    fit_contour,
    fit_converged_law,
    fit_critical_batch_law,
    fit_full_pipeline,
    fit_step_law,
    gen_batch_scan,
    gen_converged_log,
    gen_converged_suite,
    gen_trajectory,
    loss_at_convergence,
    min_steps_for_loss,
    post_correct_batch_law,
    solve_loss,
    trim_warmup,
)
from scalinglaws.fitting import BIG_BATCH_RATIO_LIMIT, ContourFit
from scalinglaws.laws import CONSTANT_NAMES
from scalinglaws.records import SPLIT_CODES

C4 = C4_CONSTANTS


def simple_run(steps, losses, batch=1e6, run_id="r0", n_params=1e7):
    samples = []
    for s, l in zip(steps, losses):
        for split in ("train", "test"):
            samples.append((float(s), float(s) * batch, float(l), split))
    return RunRecord(
        run_id=run_id, n_params=n_params, batch_tokens=batch,
        context_length=1024, dataset_tag="c4", samples=samples,
    )


def scan_steps(batch, lo_loss=4.2, margin=1.25):
    """Steps needed for a scan run at one batch to cross lo_loss."""
    s_min = min_steps_for_loss(C4, 1e7, lo_loss)
    return int(margin * s_min * (1.0 + critical_batch(C4, lo_loss) / batch))


class TestConvergedLaw:
    def test_exact_recovery(self):
        runs = gen_converged_suite(C4, np.geomspace(1e6, 6e7, 7))
        fit = fit_converged_law(runs)
        assert fit.exponent == pytest.approx(C4.alpha_n, rel=1e-12)
        assert fit.scale == pytest.approx(C4.n_c, rel=1e-9)
        assert fit.stage.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stage.count == 7

    def test_needs_two_distinct_sizes(self):
        one = [ConvergedRun(1e7, 3.5)]
        with pytest.raises(InsufficientDataError):
            fit_converged_law(one)
        with pytest.raises(InsufficientDataError):
            fit_converged_law([ConvergedRun(1e7, 3.5), ConvergedRun(1e7, 3.4)])

    def test_warns_on_non_monotone_losses(self):
        runs = [ConvergedRun(1e6, 5.0), ConvergedRun(1e7, 5.5), ConvergedRun(1e8, 3.0)]
        with pytest.warns(ScalingLawWarning, match="not monotone"):
            fit_converged_law(runs)


class TestExtractConvergedRun:
    def test_tail_mean_of_plateau(self):
        run = gen_converged_log(C4, n=1e7, samples=100)
        out = extract_converged_run(run, tail_fraction=0.25)
        assert out.n_params == 1e7
        assert out.final_loss == pytest.approx(loss_at_convergence(C4, 1e7), rel=1e-12)

    def test_tail_fraction_bounds(self):
        run = gen_converged_log(C4, n=1e7, samples=10)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                extract_converged_run(run, tail_fraction=bad)

    def test_averages_noise_down(self):
        from scalinglaws import NoiseSpec
        noise = NoiseSpec(sigma=0.01, seed=7)
        run = gen_converged_log(C4, n=1e7, samples=240, noise=noise)
        out = extract_converged_run(run, tail_fraction=0.25)
        true = loss_at_convergence(C4, 1e7)
        # 60-sample mean: se about 0.0013 in log space, allow 4 se
        assert abs(np.log(out.final_loss / true)) < 0.006


class TestStepLaw:
    def test_exact_recovery_at_unbounded_batch(self):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=3000, log_every=25)
        fit = fit_step_law(C4.n_c, C4.alpha_n, run)
        assert fit.exponent == pytest.approx(C4.alpha_s, rel=1e-5)
        assert fit.scale == pytest.approx(C4.s_c, rel=1e-4)

    def test_floor_violation_is_inconsistency(self):
        run = simple_run([1000, 2000], [3.0, 2.9], batch=1e12)
        with pytest.raises(InconsistentConstantsError, match="converged floor"):
            fit_step_law(C4.n_c, C4.alpha_n, run)

    def test_needs_two_samples_after_trim(self):
        run = simple_run([150], [4.5], batch=1e12)
        with pytest.raises(InsufficientDataError):
            fit_step_law(C4.n_c, C4.alpha_n, run)

    def test_reads_only_the_named_split(self):
        full = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=3000, log_every=25)
        train_only = RunRecord(
            run_id="train-only", n_params=1e7, batch_tokens=1e12, context_length=1024,
            dataset_tag="c4", samples=full.samples[full.samples["split"] == SPLIT_CODES["train"]],
        )
        with pytest.raises(ValidationError, match="'train-only' has no 'test' samples"):
            fit_step_law(C4.n_c, C4.alpha_n, train_only, split="test")
        fit = fit_step_law(C4.n_c, C4.alpha_n, train_only, split="train")
        assert fit.exponent == pytest.approx(C4.alpha_s, rel=1e-5)


class TestContourTargets:
    def test_shared_range_with_inset(self):
        a = simple_run([100, 200], [3.0, 1.0], batch=1e5, run_id="a")
        b = simple_run([100, 200], [4.0, 2.0], batch=1e6, run_id="b")
        targets = default_contour_targets([a, b], num_targets=3)
        np.testing.assert_allclose(targets, [2.05, 2.5, 2.95], rtol=1e-12)

    def test_disjoint_ranges_rejected(self):
        a = simple_run([100, 200], [3.0, 1.0], batch=1e5, run_id="a")
        b = simple_run([100, 200], [0.5, 0.4], batch=1e6, run_id="b")
        with pytest.raises(InsufficientDataError, match="no loss range"):
            default_contour_targets([a, b])

    def test_target_count_validated(self):
        a = simple_run([100, 200], [3.0, 1.0])
        with pytest.raises(ValidationError):
            default_contour_targets([a], num_targets=0)
        with pytest.raises(InsufficientDataError):
            default_contour_targets([])


class TestExtractContours:
    def test_log_interpolated_crossing(self):
        # two samples cannot support refinement, so the crossing is the
        # log-space interpolation: exp(mean(ln 100, ln 200)) = 100*sqrt(2)
        a = simple_run([100, 200], [3.0, 1.0], batch=1e5, run_id="a")
        b = simple_run([100, 200], [3.0, 1.0], batch=1e6, run_id="b")
        contours = extract_contours([a, b], [2.0])
        assert len(contours) == 1
        np.testing.assert_allclose(contours[0].steps, 141.4213562373095, rtol=1e-12)
        np.testing.assert_allclose(
            contours[0].tokens, contours[0].steps * contours[0].batch_tokens, rtol=1e-12
        )

    def test_exact_hit_wins(self):
        a = simple_run([100, 200, 400], [3.0, 2.0, 1.0], batch=1e5, run_id="a")
        b = simple_run([100, 200, 400], [3.0, 2.0, 1.0], batch=1e6, run_id="b")
        contours = extract_contours([a, b], [2.0])
        np.testing.assert_allclose(contours[0].steps, 200.0, rtol=1e-12)

    def test_refined_crossing_on_dense_run(self):
        runs = [
            gen_trajectory(C4, n=1e7, batch_tokens=b, num_steps=2000, run_id=f"b{b:g}")
            for b in (1e5, 1e6)
        ]
        target = float(solve_loss(C4, 1e7, 777.0, 1e5))
        contours = extract_contours(runs, [target])
        assert contours[0].steps[0] == pytest.approx(777.0, rel=1e-3)

    def test_uncrossed_target_dropped_with_warning(self):
        a = simple_run([100, 200], [3.0, 1.0], batch=1e5, run_id="a")
        b = simple_run([100, 200], [3.0, 2.5], batch=1e6, run_id="b")
        with pytest.warns(ScalingLawWarning):
            contours = extract_contours([a, b], [2.0])
        assert contours == []

    def test_mixed_sizes_rejected(self):
        a = simple_run([100, 200], [3.0, 1.0], batch=1e5, run_id="a", n_params=1e7)
        b = simple_run([100, 200], [3.0, 1.0], batch=1e6, run_id="b", n_params=2e7)
        with pytest.raises(ValidationError, match="mix model sizes"):
            extract_contours([a, b], [2.0])

    def test_no_runs_rejected(self):
        with pytest.raises(InsufficientDataError):
            extract_contours([], [2.0])


class TestFitContour:
    def test_exact_line_recovery(self):
        batches = np.array([1e4, 1e5, 1e6, 1e7])
        steps = 1000.0 + 2e8 / batches
        points = ContourPoints(2.5, batches, steps, batches * steps)
        fit = fit_contour(points)
        assert fit.s_min_hat == pytest.approx(1000.0, rel=1e-9)
        assert fit.e_min_hat == pytest.approx(2e8, rel=1e-9)
        assert fit.b_crit_hat == pytest.approx(2e5, rel=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-6)
        assert fit.point_count == 4

    def test_negative_tradeoff_rejected(self):
        batches = np.array([1e4, 1e5, 1e6])
        steps = 1000.0 - 9e6 / batches
        points = ContourPoints(2.5, batches, steps, batches * steps)
        with pytest.raises(FitFailureError, match="must be positive"):
            fit_contour(points)

    def test_single_point_rejected(self):
        points = ContourPoints(2.5, np.array([1e5]), np.array([3000.0]), np.array([3e8]))
        with pytest.raises(InsufficientDataError):
            fit_contour(points)


def exact_contour(loss, b_star=C4.b_star, alpha_b=C4.alpha_b):
    b_crit = b_star * loss ** (-1.0 / alpha_b)
    return ContourFit(loss, 1000.0, 1000.0 * b_crit, b_crit, 6, 0.0)


class TestCriticalBatchLaw:
    def test_exact_recovery(self):
        contours = [exact_contour(l) for l in (2.0, 2.5, 3.0, 3.5, 4.0)]
        fit = fit_critical_batch_law(contours)
        assert fit.exponent == pytest.approx(C4.alpha_b, rel=1e-12)
        assert fit.scale == pytest.approx(C4.b_star, rel=1e-9)

    def test_refined_fit_matches_on_exact_data(self):
        contours = [exact_contour(l) for l in (2.0, 2.5, 3.0, 3.5, 4.0)]
        fit = fit_critical_batch_law(contours, refine=True)
        assert fit.exponent == pytest.approx(C4.alpha_b, rel=1e-9)
        assert fit.scale == pytest.approx(C4.b_star, rel=1e-6)

    def test_needs_two_contours(self):
        with pytest.raises(InsufficientDataError):
            fit_critical_batch_law([exact_contour(2.0)])

    def test_growing_batch_not_identifiable(self):
        rising = [
            ContourFit(2.0, 1000.0, 1e8, 1e5, 6, 0.0),
            ContourFit(4.0, 1000.0, 4e8, 4e5, 6, 0.0),
        ]
        with pytest.raises(FitFailureError, match="grows with loss"):
            fit_critical_batch_law(rising)


class TestPostCorrection:
    def test_tightens_noiseless_fit(self):
        batches = np.geomspace(1e4, 2.15e7, 4)
        runs = gen_batch_scan(
            C4, n=1e7, batches=list(batches),
            num_steps=[scan_steps(b) for b in batches],
        )
        # trim first, as the pipeline does: targets set from untrimmed
        # runs land in the warm-up region where batch has no effect
        runs = [trim_warmup(r) for r in runs]
        targets = default_contour_targets(runs, 5)
        contour_fits = [fit_contour(p) for p in extract_contours(runs, targets)]
        post = post_correct_batch_law(C4, runs, contour_fits)
        assert post.alpha_b == pytest.approx(C4.alpha_b, rel=1e-4)
        assert post.b_star == pytest.approx(C4.b_star, rel=1e-3)
        assert post.residual_rms_after <= post.residual_rms_before + 1e-12
        assert post.pair_count > len(contour_fits)

    def test_unusable_samples_leave_candidate_unchanged(self):
        # a plateau log has zero excess everywhere, so no analytic pairs
        run = gen_converged_log(C4, n=1e7, samples=60)
        with pytest.warns(ScalingLawWarning, match="left unchanged"):
            post = post_correct_batch_law(C4, [run])
        assert post.b_star == C4.b_star
        assert post.alpha_b == C4.alpha_b
        assert post.pair_count == 0


class TestDiagnostics:
    def test_identical_splits_mean_unbounded_data(self):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e6, num_steps=500, log_every=50)
        verdict = diagnose_infinite_data(run)
        assert verdict.data_unbounded
        assert verdict.max_gap == 0.0

    def test_gap_above_threshold_flags_bounded_data(self):
        samples = []
        for step in (200.0, 400.0, 800.0):
            samples.append((step, step * 1e6, 3.0, "train"))
            samples.append((step, step * 1e6, 3.05, "test"))
        run = RunRecord(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4", samples=samples,
        )
        verdict = diagnose_infinite_data(run)
        assert not verdict.data_unbounded
        assert verdict.max_gap == pytest.approx(0.05, rel=1e-9)

    def test_interpolates_offset_grids(self):
        samples = []
        for step in (200.0, 400.0, 800.0):
            samples.append((step, step * 1e6, 3.0, "train"))
        for step in (150.0, 300.0, 900.0):
            samples.append((step, step * 1e6, 3.0, "test"))
        run = RunRecord(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4", samples=samples,
        )
        verdict = diagnose_infinite_data(run)
        assert verdict.data_unbounded

    def test_missing_split_is_diagnostic_error(self):
        samples = [(200.0, 2e8, 3.0, "train")]
        run = RunRecord(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4", samples=samples,
        )
        with pytest.raises(DiagnosticError, match="both splits"):
            diagnose_infinite_data(run)

    def test_stationary_batch_found(self):
        runs = gen_batch_scan(
            C4, n=1e7, batches=[1e4, 1e5, 1e11, 1e12], num_steps=500, log_every=50
        )
        verdict = diagnose_infinite_batch(runs)
        assert verdict.stationary_batch == 1e11
        # the small-batch pair still moves
        assert verdict.deviations[0][2] > verdict.threshold

    def test_all_moving_batches_give_none(self):
        runs = gen_batch_scan(C4, n=1e7, batches=[1e4, 1e5, 1e6], num_steps=500, log_every=50)
        verdict = diagnose_infinite_batch(runs)
        assert verdict.stationary_batch is None

    def test_batch_order_enforced(self):
        runs = gen_batch_scan(C4, n=1e7, batches=[1e4, 1e5], num_steps=200, log_every=20)
        with pytest.raises(ValidationError, match="strictly increasing"):
            diagnose_infinite_batch(list(reversed(runs)))

    def test_needs_two_runs(self):
        runs = gen_batch_scan(C4, n=1e7, batches=[1e4, 1e5], num_steps=200, log_every=20)
        with pytest.raises(InsufficientDataError):
            diagnose_infinite_batch(runs[:1])

    def test_runs_sharing_no_steps_warn_and_record_inf(self):
        early = simple_run([100, 200], [4.0, 3.9], batch=1e5, run_id="early")
        late = simple_run([1000, 2000], [3.5, 3.4], batch=1e6, run_id="late")
        with pytest.warns(ScalingLawWarning, match="share no steps"):
            verdict = diagnose_infinite_batch([early, late], trim=WarmupTrim(0, 0))
        assert verdict.deviations == [(1e5, 1e6, np.inf)]
        assert verdict.stationary_batch is None


class TestFullPipeline:
    def test_noiseless_recovery(self):
        converged = gen_converged_suite(C4, np.geomspace(1e6, 6e7, 5))
        big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=3000)
        batches = np.geomspace(1e4, 2.15e7, 4)
        scans = gen_batch_scan(
            C4, n=1e7, batches=list(batches),
            num_steps=[scan_steps(b) for b in batches],
        )
        report = fit_full_pipeline(converged, big, scans)
        assert report.complete
        c = report.constants
        assert c.alpha_n == pytest.approx(C4.alpha_n, rel=1e-4)
        assert c.alpha_s == pytest.approx(C4.alpha_s, rel=1e-4)
        assert c.alpha_b == pytest.approx(C4.alpha_b, rel=1e-3)
        assert c.n_c == pytest.approx(C4.n_c, rel=1e-3)
        assert c.s_c == pytest.approx(C4.s_c, rel=1e-3)
        assert c.b_star == pytest.approx(C4.b_star, rel=1e-2)
        assert c.meta["dataset_tag"] == "c4"
        assert c.meta["scan_runs"] == 4
        assert report.post_correction is not None
        assert report.batch_stage is not None
        assert len(report.contours) == 5

    def test_no_scans_is_incomplete(self):
        converged = gen_converged_suite(C4, [1e6, 1e7, 1e8])
        big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=2000, log_every=10)
        with pytest.warns(ScalingLawWarning, match="no scan runs"):
            report = fit_full_pipeline(converged, big)
        assert not report.complete
        assert report.constants is None
        assert report.b_star is None and report.alpha_b is None
        assert report.n_c == pytest.approx(C4.n_c, rel=1e-3)
        assert report.warnings and "batch law not fitted" in report.warnings[0]

    def test_explicit_targets_respected(self):
        converged = gen_converged_suite(C4, [1e6, 1e7, 1e8])
        big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=2000, log_every=10)
        batches = np.geomspace(1e5, 1e7, 3)
        scans = gen_batch_scan(
            C4, n=1e7, batches=list(batches),
            num_steps=[scan_steps(b) for b in batches],
        )
        opts = FitOptions(contour_targets=(4.4, 4.6), post_correct=False)
        report = fit_full_pipeline(converged, big, scans, opts)
        assert [f.loss_target for f in report.contours] == [4.4, 4.6]
        assert report.post_correction is None


@pytest.fixture(scope="module")
def noiseless_suite_and_scan():
    """A noiseless C4 converged suite and six-run scan, logged every 5 steps."""
    converged = gen_converged_suite(C4, np.geomspace(1e6, 6e7, 7))
    batches = np.geomspace(1e4, 2.15e7, 6)
    scans = gen_batch_scan(
        C4, n=1e7, batches=list(batches), num_steps=[scan_steps(b) for b in batches], log_every=5,
    )
    return converged, scans


class TestBigBatchRatio:
    """Stage 2 takes the big-batch run's batch as unbounded; the fit says how far it is."""

    def test_unbounded_enough_batch_is_quiet(self, noiseless_suite_and_scan):
        converged, scans = noiseless_suite_and_scan
        big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=3000, run_id="big")
        report = fit_full_pipeline(converged, big, scans)
        assert report.warnings == []
        assert 0 < report.big_batch_ratio < 1e-6
        doc = document_from_report(report)
        assert doc.diagnostics["big_batch_ratio"] == report.big_batch_ratio

    def test_small_big_batch_warns(self, noiseless_suite_and_scan):
        converged, scans = noiseless_suite_and_scan
        big = gen_trajectory(C4, n=1e7, batch_tokens=5e6, num_steps=3000, run_id="big")
        with pytest.warns(ScalingLawWarning, match="big-batch run 'big'") as caught:
            report = fit_full_pipeline(converged, big, scans)
        assert report.big_batch_ratio > BIG_BATCH_RATIO_LIMIT
        # the final constants set the ratio: the largest critical batch over the trimmed run
        losses = trim_warmup(big, WarmupTrim()).split_arrays("test")[2]
        assert report.big_batch_ratio == np.max(critical_batch(report.constants, losses)) / 5e6
        assert report.warnings == [str(w.message) for w in caught]

    def test_partial_fit_has_no_ratio(self):
        converged = gen_converged_suite(C4, [1e6, 1e7, 1e8])
        big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=2000, log_every=10)
        with pytest.warns(ScalingLawWarning, match="no scan runs"):
            report = fit_full_pipeline(converged, big)
        assert report.big_batch_ratio is None
        assert "big_batch_ratio" not in document_from_report(report).diagnostics


@pytest.fixture(scope="module")
def noisy_campaign():
    """A small noisy C4 campaign whose five scan runs are in batch order."""
    converged = gen_converged_suite(C4, np.geomspace(1e6, 6e7, 5))
    big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=3000, log_every=10)
    batches = np.geomspace(1e4, 2.15e7, 5)
    scans = gen_batch_scan(
        C4, n=1e7, batches=list(batches), num_steps=[scan_steps(b) for b in batches],
        noise=NoiseSpec(sigma=0.01, seed=0), log_every=10,
    )
    return converged, big, scans


def constants_hex(report):
    return [getattr(report, k).hex() for k in CONSTANT_NAMES]


class TestBatchStage:
    @settings(deadline=None, max_examples=20)
    @given(order=st.permutations(range(5)))
    def test_scan_order_does_not_change_the_fit(self, noisy_campaign, order):
        converged, big, scans = noisy_campaign
        in_order = fit_full_pipeline(converged, big, scans)
        permuted = fit_full_pipeline(converged, big, [scans[i] for i in order])
        assert constants_hex(permuted) == constants_hex(in_order)

    def test_returns_prepared_runs_in_batch_order(self, noisy_campaign):
        converged, big, scans = noisy_campaign
        opts = FitOptions(smooth_half_life=50.0, post_correct=False)
        runs, contours, law = fit_batch_stage(scans[::-1], opts)
        assert [r.batch_tokens for r in runs] == [r.batch_tokens for r in scans]
        for run, raw in zip(runs, scans):
            assert run.final_step() == raw.final_step()
            assert run.samples["step"][0] >= opts.trim.threshold(raw.final_step())
        # smoothing feeds the contours only, so the losses are the trimmed raw ones
        raw_losses = trim_warmup(scans[0], opts.trim).split_arrays("test")[2]
        assert np.array_equal(runs[0].split_arrays("test")[2], raw_losses)
        report = fit_full_pipeline(converged, big, scans, opts)
        assert report.contours == contours
        assert (report.b_star, report.alpha_b) == (law.scale, law.exponent)

    def test_smoothing_does_not_reach_post_correction(self, noisy_campaign):
        converged, big, scans = noisy_campaign
        report = fit_full_pipeline(converged, big, scans, FitOptions(smooth_half_life=50.0))
        assert report.post_correction is not None
        assert report.alpha_b == pytest.approx(C4.alpha_b, rel=0.05)

    def test_no_contour_is_insufficient_data(self, noisy_campaign):
        _, _, scans = noisy_campaign
        with pytest.warns(ScalingLawWarning), pytest.raises(InsufficientDataError, match="no contour"):
            fit_batch_stage(scans, FitOptions(contour_targets=(1.0,)))


def with_meta(**meta):
    """The C4 constants under another experiment setup."""
    return ScalingConstants(**{k: getattr(C4, k) for k in CONSTANT_NAMES},
                            meta={"dataset_tag": "c4", "context_length": 1024, **meta})


@pytest.mark.parametrize("meta, shown", [
    pytest.param(dict(dataset_tag="mixed"),
                 ("has dataset_tag 'c4'", "run 'sim-n1e+07-b3e+06-r1' has 'mixed'"),
                 id="dataset-tag"),
    pytest.param(dict(context_length=4096),
                 ("has context_length 1024", "run 'sim-n1e+07-b3e+06-r1' has 4096"),
                 id="context-length"),
])
class TestOneSetup:
    """Every stage that pools runs refuses runs of two experiment setups."""

    @pytest.fixture()
    def runs(self, meta):
        big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=2000, log_every=10)
        scans = [
            *gen_batch_scan(C4, n=1e7, batches=[1e5, 1e6], num_steps=[scan_steps(1e5)] * 2),
            *gen_batch_scan(with_meta(**meta), n=1e7, batches=[3e6, 1e7],
                            num_steps=[scan_steps(1e5)] * 2),
        ]
        return big, scans

    def test_full_pipeline(self, runs, shown):
        big, scans = runs
        converged = gen_converged_suite(C4, [1e6, 1e7, 1e8])
        with pytest.raises(ValidationError, match="runs mix setups") as raised:
            fit_full_pipeline(converged, big, scans)
        assert all(part in str(raised.value) for part in shown)

    def test_big_batch_run_against_scans(self, runs, shown):
        big, scans = runs
        converged = gen_converged_suite(C4, [1e6, 1e7, 1e8])
        with pytest.raises(ValidationError, match="runs mix setups"):
            fit_full_pipeline(converged, big, scans[2:])

    def test_batch_stage(self, runs, shown):
        _, scans = runs
        with pytest.raises(ValidationError, match="runs mix setups") as raised:
            fit_batch_stage(scans)
        assert all(part in str(raised.value) for part in shown)

    def test_batch_diagnostic(self, runs, shown):
        _, scans = runs
        with pytest.raises(ValidationError, match="runs mix setups") as raised:
            diagnose_infinite_batch(scans)
        assert all(part in str(raised.value) for part in shown)
