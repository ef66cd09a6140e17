"""Contour extraction: the batched pass against a per-target reference loop."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalinglaws import (
    FitOptions,
    RunRecord,
    ScalingLawWarning,
    ValidationError,
    extract_contours,
)
from scalinglaws.fitting import _ols


# ---------------------------------------------------------------------------
# the reference: one target and one run at a time, a scalar window fit each
# ---------------------------------------------------------------------------


def _first_crossing(steps, losses, target):
    diff = losses - target
    hits = np.nonzero(diff == 0.0)[0]
    flips = np.nonzero(diff[:-1] * diff[1:] < 0.0)[0]
    hit = hits[0] if hits.size else None
    flip = flips[0] if flips.size else None
    if hit is not None and (flip is None or hit <= flip):
        return int(hit), float(steps[hit])
    if flip is None:
        return None
    i = int(flip)
    ln_lo, ln_hi = math.log(steps[i]), math.log(steps[i + 1])
    frac = (target - losses[i]) / (losses[i + 1] - losses[i])
    return i, math.exp(ln_lo + frac * (ln_hi - ln_lo))


def _refine_crossing(steps, losses, target, seed, window):
    lo = max(0, seed - window)
    hi = min(len(steps), seed + window + 2)
    if hi - lo < 4:
        return None
    ln_s = np.log(steps[lo:hi])
    line = _ols(ln_s, losses[lo:hi])
    if line.slope >= 0:
        return None
    ln_star = (target - line.intercept) / line.slope
    if ln_star < ln_s[0] or ln_star > ln_s[-1]:
        return None
    return math.exp(ln_star)


def reference_contours(runs, targets, split="test", refine_window=25):
    """Crossings as (loss, batches, steps) triples, and the warning texts."""
    contours, messages = [], []
    curves = [run.split_arrays(split) for run in runs]
    for target in np.asarray(targets, dtype=float):
        batches, steps_at = [], []
        for run, (steps, _, losses) in zip(runs, curves):
            found = _first_crossing(steps, losses, float(target))
            if found is None:
                messages.append(f"run {run.run_id!r} never crosses loss {target:.6g}")
                continue
            seed, crossing = found
            if refine_window > 0:
                refined = _refine_crossing(steps, losses, float(target), seed, refine_window)
                if refined is not None:
                    crossing = refined
            batches.append(run.batch_tokens)
            steps_at.append(crossing)
        if len(batches) < 2:
            messages.append(f"contour at loss {target:.6g} has {len(batches)} points and was dropped")
            continue
        contours.append((float(target), np.array(batches), np.array(steps_at)))
    return contours, messages


def batched_contours(runs, targets, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ScalingLawWarning)
        contours = extract_contours(runs, targets, **kwargs)
    return contours, [str(w.message) for w in caught if w.category is ScalingLawWarning]


def assert_same(runs, targets, **kwargs):
    got, got_messages = batched_contours(runs, targets, **kwargs)
    want, want_messages = reference_contours(runs, targets, **kwargs)
    assert got_messages == want_messages
    assert [c.loss_target for c in got] == [w[0] for w in want]
    for c, (_, batches, steps) in zip(got, want):
        np.testing.assert_array_equal(c.batch_tokens, batches)
        np.testing.assert_allclose(c.steps, steps, rtol=1e-12)
        np.testing.assert_allclose(c.tokens, batches * steps, rtol=1e-12)


def make_run(steps, losses, batch, run_id):
    steps = np.asarray(steps, dtype=float)
    return RunRecord(
        run_id=run_id, n_params=1e7, batch_tokens=batch, context_length=1024,
        dataset_tag="c4",
        samples=[(s, s * batch, float(l), "test") for s, l in zip(steps, losses)],
    )


def noisy_run(rng, length, sigma, batch, run_id):
    """A falling curve with noise large enough to turn it back up in places."""
    steps = np.cumsum(rng.integers(1, 20, size=length)) + rng.integers(1, 100)
    losses = 3.0 + 2.0 * np.exp(-steps / (5.0 * length)) + sigma * rng.standard_normal(length)
    return make_run(steps, np.maximum(losses, 0.1), batch, run_id)


# ---------------------------------------------------------------------------
# differential property
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 90), min_size=1, max_size=4),
    sigma=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
    window=st.sampled_from([0, 1, 2, 25, 10**9]),
    interior=st.integers(0, 6),
)
def test_batched_contours_match_reference(seed, lengths, sigma, window, interior):
    rng = np.random.default_rng(seed)
    runs = [noisy_run(rng, n, sigma, 10.0 ** (4 + i), f"r{i}") for i, n in enumerate(lengths)]
    losses = [run.split_arrays("test")[2] for run in runs]
    pooled = np.concatenate(losses)
    targets = [
        float(rng.choice(pooled)),            # equal to a sample
        float(losses[0][0]),                  # equal to a run's first loss
        float(losses[-1][0]) + 0.5 * sigma,   # above the start: an upward crossing
        float(pooled.max()) + 1.0,            # outside every run
        float(pooled.min()) / 2.0,
    ]
    targets += list(rng.uniform(pooled.min(), pooled.max(), size=interior))
    assert_same(runs, targets, refine_window=window)


def test_exact_hits_and_equal_neighbours():
    # repeated losses: hits, ties with the target and flat stretches
    a = make_run([10, 20, 30, 40, 50, 60], [5.0, 4.0, 4.0, 3.0, 3.0, 2.0], 1e5, "a")
    b = make_run([10, 20, 30, 40, 50, 60], [5.0, 4.5, 4.0, 3.5, 4.0, 2.0], 1e6, "b")
    for window in (0, 1, 2, 25):
        assert_same([a, b], [5.0, 4.0, 3.5, 3.0, 2.0, 1.0, 6.0], refine_window=window)


def test_windows_stay_inside_their_run():
    # the first run crosses near its end and the second near its start, so
    # unclipped windows would reach across the seam of the pooled columns:
    # no crossing may depend on its neighbour
    steps = np.arange(1, 31) * 10.0
    late = make_run(steps, np.linspace(3.0, 1.0, 30), 1e5, "late")
    for first_loss in (1.15, 9.0):
        early = make_run(steps, np.r_[first_loss, np.linspace(1.05, 0.5, 29)], 1e6, "early")
        assert_same([late, early], [1.1], refine_window=25)
        assert_same([early, late], [1.1], refine_window=25)


# ---------------------------------------------------------------------------
# one target contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("targets", [
    pytest.param(2.0, id="scalar"),
    pytest.param(np.array([[2.0, 3.0]]), id="two-dimensional"),
    pytest.param([math.nan], id="nan"),
    pytest.param([-1.0], id="negative"),
    pytest.param([True], id="bool"),
])
def test_bad_targets_rejected_alike(targets):
    a = make_run([10, 20], [3.0, 1.0], 1e5, "a")
    b = make_run([10, 20], [3.0, 1.0], 1e6, "b")
    with pytest.raises(ValidationError, match="contour target") as from_extract:
        extract_contours([a, b], targets)
    with pytest.raises(ValidationError, match="contour target") as from_options:
        FitOptions(contour_targets=targets)
    assert str(from_extract.value) == str(from_options.value)
    shown = repr(targets if np.ndim(targets) == 0 else targets[0])
    assert shown in str(from_extract.value)


# ---------------------------------------------------------------------------
# memory: blocks, not (targets x samples) arrays
# ---------------------------------------------------------------------------


def peak_mib(call):
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalingLawWarning)
            result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_many_targets_stay_in_blocks():
    # one run crosses every target, so every crossing is fitted and every
    # contour dropped: the result stays empty and the peak is the pass
    # itself (one boolean targets x samples block would be 95 MiB)
    run = make_run(np.arange(1, 1001) * 5.0, np.linspace(5.0, 2.0, 1000), 1e5, "a")
    targets = np.linspace(2.5, 4.5, 100_000)
    contours, peak = peak_mib(lambda: extract_contours([run], targets))
    assert contours == []
    assert peak < 16


def test_run_wide_window_stays_in_blocks():
    rng = np.random.default_rng(3)
    runs = [noisy_run(rng, 20_000, 0.01, 10.0 ** (4 + i), f"r{i}") for i in range(2)]
    targets = np.linspace(3.3, 4.2, 20)
    contours, peak = peak_mib(lambda: extract_contours(runs, targets, refine_window=10**9))
    assert len(contours) == 20
    assert peak < 16
