"""Metamorphic properties of the whole fit: rescale the data along one of
the laws' symmetries and the fitted constants must move by exactly the
matching factor, with no oracle for the constants themselves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    MIXED_CONSTANTS,
    ConvergedRun,
    FitOptions,
    NoiseSpec,
    RunRecord,
    WarmupTrim,
    critical_batch,
    fit_full_pipeline,
    gen_batch_scan,
    gen_converged_suite,
    gen_trajectory,
    min_steps_for_loss,
)
from scalinglaws.laws import CONSTANT_NAMES

RTOL = 1e-12

# truth, big-run batch, scan batches and the loss every scan run crosses,
# as in the noiseless acceptance campaigns
SHAPES = {
    "c4": (C4_CONSTANTS, 1e12, np.geomspace(1e4, 2.15e7, 4), 4.2),
    "mixed": (MIXED_CONSTANTS, 1e13, np.geomspace(1e5, 1e8, 4), 5.0),
}

campaigns = st.builds(
    lambda shape, seed, sigma: _campaign(shape, NoiseSpec(sigma=sigma, seed=seed)),
    st.sampled_from(sorted(SHAPES)),
    st.integers(0, 2**32 - 1),
    st.floats(0.001, 0.01),
)


def _campaign(shape, noise):
    """A small noisy campaign: 5 converged sizes, a big-batch run and a 4-run scan."""
    c, big_batch, batches, floor = SHAPES[shape]
    converged = gen_converged_suite(c, np.geomspace(1e6, 6e7, 5), noise=noise)
    big = gen_trajectory(c, 1e7, big_batch, 3000, noise=noise, log_every=10, run_id="big", stream=200)
    steps = [int(1.25 * min_steps_for_loss(c, 1e7, floor) * (1.0 + critical_batch(c, floor) / b))
             for b in batches]
    scans = gen_batch_scan(c, 1e7, list(batches), steps, noise=noise, log_every=10)
    return converged, big, scans


def _scaled(campaign, n=1.0, batch=1.0, step=1.0, loss=1.0):
    """The campaign with model sizes, batches, steps and losses multiplied;
    tokens follow steps and batches."""

    def run(r):
        rows = r.samples.copy()
        rows["step"] *= step
        rows["tokens"] *= step * batch
        rows["loss"] *= loss
        return RunRecord(r.run_id, r.n_params * n, r.batch_tokens * batch,
                         r.context_length, r.dataset_tag, rows)

    converged, big, scans = campaign
    return ([ConvergedRun(c.n_params * n, c.final_loss * loss) for c in converged],
            run(big), [run(s) for s in scans])


def _check(base, moved, **factors):
    """Each constant of ``moved`` is its ``base`` value times its factor (1 if not named)."""
    assert base.complete and moved.complete
    for name in CONSTANT_NAMES:
        expected = getattr(base, name) * factors.get(name, 1.0)
        assert getattr(moved, name) == pytest.approx(expected, rel=RTOL), name


@settings(max_examples=20, deadline=None)
@given(campaigns)
def test_batch_and_tokens_scale_b_star(campaign):
    base = fit_full_pipeline(*campaign)
    _check(base, fit_full_pipeline(*_scaled(campaign, batch=3.0)), b_star=3.0)


@settings(max_examples=20, deadline=None)
@given(campaigns)
def test_model_size_scales_n_c(campaign):
    base = fit_full_pipeline(*campaign)
    _check(base, fit_full_pipeline(*_scaled(campaign, n=3.0)), n_c=3.0)


@settings(max_examples=20, deadline=None)
@given(campaigns)
def test_loss_scales_the_three_scales(campaign):
    base = fit_full_pipeline(*campaign)
    moved = fit_full_pipeline(*_scaled(campaign, loss=1.5))
    _check(base, moved, **{scale: 1.5 ** (1.0 / getattr(base, alpha)) for scale, alpha in
                           (("n_c", "alpha_n"), ("s_c", "alpha_s"), ("b_star", "alpha_b"))})


# powers of two: the trim's threshold, final_fraction times the final step,
# then scales exactly, so no sample crosses it by a rounding
@settings(max_examples=20, deadline=None)
@given(campaigns, st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
def test_steps_scale_s_c(campaign, k):
    trim = WarmupTrim()
    base = fit_full_pipeline(*campaign, options=FitOptions(trim=trim))
    scaled_trim = WarmupTrim(min_step=trim.min_step * k, final_fraction=trim.final_fraction)
    moved = fit_full_pipeline(*_scaled(campaign, step=k), options=FitOptions(trim=scaled_trim))
    _check(base, moved, s_c=k)
