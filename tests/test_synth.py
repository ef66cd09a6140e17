"""Synthetic run generation against the closed-form laws."""

import dataclasses

import numpy as np
import pytest

from scalinglaws import (
    C4_CONSTANTS,
    DomainError,
    NoiseSpec,
    RunRecord,
    ValidationError,
    WarmupSpec,
    gen_batch_scan,
    gen_converged_log,
    gen_converged_suite,
    gen_trajectory,
    loss_at_convergence,
    solve_loss,
)
from scalinglaws.records import SPLITS
from scalinglaws.synthetic import _to_record

C4 = C4_CONSTANTS


class TestNoiseSpec:
    def test_noiseless_factors_are_ones(self):
        spec = NoiseSpec()
        np.testing.assert_array_equal(spec.factors(5), np.ones(5))

    def test_deterministic_per_seed_and_stream(self):
        spec = NoiseSpec(sigma=0.05, seed=42)
        np.testing.assert_array_equal(spec.factors(10, stream=3), spec.factors(10, stream=3))
        assert not np.array_equal(spec.factors(10, stream=3), spec.factors(10, stream=4))
        other = NoiseSpec(sigma=0.05, seed=43)
        assert not np.array_equal(spec.factors(10, stream=3), other.factors(10, stream=3))

    def test_lognormal_scale(self):
        spec = NoiseSpec(sigma=0.01, seed=0)
        f = spec.factors(200_000)
        assert np.std(np.log(f)) == pytest.approx(0.01, rel=0.02)
        assert np.mean(np.log(f)) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("kwargs", [
        dict(sigma=-0.1), dict(sigma=float("inf")), dict(sigma=float("nan")),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            NoiseSpec(**kwargs)


class TestWarmupSpec:
    def test_ramp_shape(self):
        w = WarmupSpec(length=100.0, inflation=0.5)
        steps = np.array([1.0, 50.0, 100.0, 200.0])
        np.testing.assert_allclose(w.added(steps), [0.495, 0.25, 0.0, 0.0], rtol=1e-12)

    def test_zero_length_adds_nothing(self):
        w = WarmupSpec()
        np.testing.assert_array_equal(w.added(np.array([1.0, 10.0])), [0.0, 0.0])


class TestTrajectory:
    def test_matches_solver_exactly_when_noiseless(self):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=500, log_every=50)
        steps, tokens, losses = run.split_arrays("test")
        np.testing.assert_allclose(
            losses, solve_loss(C4, 1e7, steps, 1e5), rtol=1e-12
        )
        np.testing.assert_allclose(tokens, steps * 1e5, rtol=1e-12)

    def test_grid_includes_final_step(self):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=520, log_every=50)
        steps, _, _ = run.split_arrays("test")
        assert steps[-1] == 520.0
        assert steps[0] == 50.0

    def test_train_and_test_splits_identical_rows(self):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=200, log_every=20)
        s_tr, _, l_tr = run.split_arrays("train")
        s_te, _, l_te = run.split_arrays("test")
        np.testing.assert_array_equal(s_tr, s_te)
        np.testing.assert_array_equal(l_tr, l_te)

    def test_header_fields(self):
        run = gen_trajectory(C4, n=2e7, batch_tokens=1e5, num_steps=100, log_every=10)
        assert run.n_params == 2e7
        assert run.batch_tokens == 1e5
        assert run.dataset_tag == C4.meta["dataset_tag"]
        assert run.context_length == C4.meta["context_length"]
        assert run.run_id == "sim-n2e+07-b100000-r0"

    @pytest.mark.parametrize("context", [1024.7, 2048.0, True, "2048", 0])
    def test_context_length_meta_never_coerced(self, context):
        c = dataclasses.replace(C4, meta={**C4.meta, "context_length": context})
        with pytest.raises(ValidationError, match=r'meta\["context_length"\]'):
            gen_trajectory(c, n=1e7, batch_tokens=1e5, num_steps=100, log_every=10)

    def test_warmup_inflates_head_only(self):
        clean = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=1000, log_every=100)
        warm = gen_trajectory(
            C4, n=1e7, batch_tokens=1e5, num_steps=1000, log_every=100,
            warmup=WarmupSpec(length=300.0, inflation=1.0),
        )
        _, _, clean_losses = clean.split_arrays("test")
        _, _, warm_losses = warm.split_arrays("test")
        assert warm_losses[0] > clean_losses[0]
        np.testing.assert_allclose(warm_losses[3:], clean_losses[3:], rtol=1e-12)

    def test_noise_is_multiplicative(self):
        noise = NoiseSpec(sigma=0.02, seed=9)
        noisy = gen_trajectory(
            C4, n=1e7, batch_tokens=1e5, num_steps=200, log_every=20, noise=noise, stream=5
        )
        clean = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=200, log_every=20)
        _, _, noisy_losses = noisy.split_arrays("test")
        _, _, clean_losses = clean.split_arrays("test")
        ratio = noisy_losses / clean_losses
        assert not np.allclose(ratio, 1.0)
        assert np.all(np.abs(np.log(ratio)) < 0.02 * 6)


class TestBatchScan:
    def test_batches_and_streams(self):
        runs = gen_batch_scan(C4, n=1e7, batches=[1e6, 1e4, 1e5], num_steps=100, log_every=10)
        assert [r.batch_tokens for r in runs] == [1e4, 1e5, 1e6]
        assert len({r.run_id for r in runs}) == 3

    def test_per_batch_step_counts(self):
        runs = gen_batch_scan(
            C4, n=1e7, batches=[1e4, 1e5], num_steps=[300, 120], log_every=30
        )
        assert runs[0].final_step() == 300.0
        assert runs[1].final_step() == 120.0

    def test_rows_match_solver(self):
        runs = gen_batch_scan(C4, n=1e7, batches=[1e4, 1e6], num_steps=200, log_every=20)
        for run in runs:
            steps, _, losses = run.split_arrays("test")
            np.testing.assert_allclose(
                losses, solve_loss(C4, 1e7, steps, run.batch_tokens), rtol=1e-12
            )

    def test_noise_streams_differ_across_batches(self):
        noise = NoiseSpec(sigma=0.05, seed=1)
        runs = gen_batch_scan(
            C4, n=1e7, batches=[1e5, 1e5 * (1 + 1e-9)], num_steps=100, log_every=10,
            noise=noise,
        )
        _, _, a = runs[0].split_arrays("test")
        _, _, b = runs[1].split_arrays("test")
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("batches", [[1e5], [1e5, 1e5], []])
    def test_needs_two_distinct_batches(self, batches):
        with pytest.raises(ValidationError):
            gen_batch_scan(C4, n=1e7, batches=batches, num_steps=100, log_every=10)

    def test_step_count_list_must_match(self):
        with pytest.raises(ValidationError):
            gen_batch_scan(C4, n=1e7, batches=[1e4, 1e5], num_steps=[100], log_every=10)


class TestConverged:
    def test_suite_hits_size_law(self):
        sizes = [1e6, 1e7, 1e8]
        runs = gen_converged_suite(C4, sizes)
        assert [r.n_params for r in runs] == sizes
        for r in runs:
            assert r.final_loss == pytest.approx(loss_at_convergence(C4, r.n_params), rel=1e-12)

    def test_suite_noise_perturbs(self):
        noise = NoiseSpec(sigma=0.01, seed=2)
        runs = gen_converged_suite(C4, [1e6, 1e7], noise=noise)
        for r in runs:
            clean = loss_at_convergence(C4, r.n_params)
            assert r.final_loss != clean
            assert abs(np.log(r.final_loss / clean)) < 0.01 * 6

    @pytest.mark.parametrize("sizes", [[True, 2e6], ["1e6", "2e6"], [1e6 + 0j], [1e6, None]])
    def test_suite_rejects_non_real_sizes(self, sizes):
        with pytest.raises(DomainError, match="sizes must hold floats"):
            gen_converged_suite(C4, sizes)

    def test_plateau_log_sits_at_converged_loss(self):
        run = gen_converged_log(C4, n=1e7, samples=50)
        steps, _, losses = run.split_arrays("test")
        assert steps.size == 50
        target = loss_at_convergence(C4, 1e7)
        np.testing.assert_allclose(losses, target, rtol=1e-12)
        assert run.run_id == "sim-converged-n1e+07-r0"

    def test_plateau_log_noise_averages_out(self):
        noise = NoiseSpec(sigma=0.01, seed=3)
        run = gen_converged_log(C4, n=1e7, samples=400, noise=noise)
        _, _, losses = run.split_arrays("test")
        target = loss_at_convergence(C4, 1e7)
        assert np.mean(np.log(losses / target)) == pytest.approx(0.0, abs=3 * 0.01 / 20)


class TestGeneratedColumnsChecked:
    """The one column set a generator hands over is checked like given rows."""

    @pytest.mark.parametrize("steps,losses,match", [
        ([100.0, 200.0, 300.0], [3.0, np.nan, 2.0], "loss must be positive"),
        ([0.0, 200.0, 300.0], [3.0, 2.5, 2.0], "step must be positive"),
        ([100.0, -200.0, 300.0], [3.0, 2.5, 2.0], "step must be positive"),
        ([100.0, 300.0, 200.0], [3.0, 2.5, 2.0], "decreasing step"),
        ([100.0, 200.0, 200.0], [3.0, 2.5, 2.0], "duplicate step"),
    ])
    def test_bad_columns_raise_as_rows_do(self, steps, losses, match):
        steps, losses = np.array(steps), np.array(losses)
        with pytest.raises(ValidationError, match=match) as err:
            _to_record("r0", C4, 1e7, 1e6, steps, losses)
        rows = [(s, s * 1e6, loss, split) for s, loss in zip(steps, losses) for split in SPLITS]
        with pytest.raises(ValidationError) as row_err:
            RunRecord("r0", 1e7, 1e6, 1024, "c4", rows)
        assert str(err.value) == str(row_err.value)
