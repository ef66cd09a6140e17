"""One input rule for every scalar knob: numpy reals and integers pass,
bools, NaN and silent float->int truncation do not."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    FitOptions,
    NoiseSpec,
    RunRecord,
    ValidationError,
    WarmupSpec,
    WarmupTrim,
    default_contour_targets,
    diagnose_infinite_batch,
    diagnose_infinite_data,
    extract_contours,
    extract_converged_run,
    gen_batch_scan,
    gen_converged_log,
    gen_trajectory,
)
from scalinglaws.fitting import MAX_CONTOUR_TARGETS

C4 = C4_CONSTANTS


class TestFitOptions:
    @pytest.mark.parametrize("knobs", [
        pytest.param(dict(num_targets=2.5), id="fractional-num-targets"),
        pytest.param(dict(num_targets=True), id="bool-num-targets"),
        pytest.param(dict(num_targets=0), id="zero-num-targets"),
        pytest.param(dict(num_targets=MAX_CONTOUR_TARGETS + 1), id="num-targets-above-cap"),
        pytest.param(dict(trim=None), id="no-trim"),
        pytest.param(dict(split="bogus"), id="unknown-split"),
        pytest.param(dict(target_inset=0.6), id="inset-above-half"),
        pytest.param(dict(target_inset=-1.0), id="negative-inset"),
        pytest.param(dict(target_inset=math.nan), id="nan-inset"),
        pytest.param(dict(post_correct="no"), id="string-post-correct"),
        pytest.param(dict(refine_batch_law=1), id="int-refine"),
        pytest.param(dict(smooth_half_life=0.0), id="zero-half-life"),
        pytest.param(dict(smooth_half_life=True), id="bool-half-life"),
        pytest.param(dict(contour_targets=(4.4, -1.0)), id="negative-target"),
        pytest.param(dict(contour_targets=4.4), id="scalar-targets"),
        pytest.param(dict(contour_targets="4.4"), id="string-targets"),
    ])
    def test_rejects_bad_knob(self, knobs):
        name = next(iter(knobs))
        with pytest.raises(ValidationError, match=name.replace("contour_targets", "target")):
            FitOptions(**knobs)

    @pytest.mark.parametrize("targets", [(4.4, 4.6), [4.4, 4.6], np.array([4.4, 4.6])])
    def test_targets_in_any_sequence_kept_as_tuple(self, targets):
        opts = FitOptions(contour_targets=targets)
        assert opts.contour_targets == (4.4, 4.6)
        assert isinstance(opts.contour_targets, tuple)

    def test_numpy_knobs_accepted(self):
        opts = FitOptions(num_targets=np.int64(3), target_inset=np.float32(0.0),
                          smooth_half_life=np.float64(50.0))
        assert opts.num_targets == 3

    def test_frozen(self):
        opts = FitOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.num_targets = 7

    @settings(max_examples=50, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        name: st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
            st.lists(st.floats() | st.integers() | st.text(max_size=2), max_size=3),
            st.lists(st.floats(), max_size=3).map(np.array),
            st.builds(WarmupTrim), st.sampled_from(["train", "test"]),
        )
        for name in (f.name for f in dataclasses.fields(FitOptions))
    }))
    def test_any_values_build_or_raise_validation_error(self, knobs):
        try:
            FitOptions(**knobs)
        except ValidationError:
            pass


class TestGeneratorKnobs:
    @pytest.mark.parametrize("kwargs", [
        dict(sigma=True), dict(seed=-1), dict(seed=1.5), dict(seed=True),
    ])
    def test_noise_spec_rejects(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            NoiseSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(length=True), dict(inflation=True)])
    def test_warmup_spec_rejects_bools(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            WarmupSpec(**kwargs)

    def test_warmup_trim_rejects_integer_beyond_float(self):
        with pytest.raises(ValidationError, match="min_step"):
            WarmupTrim(10**400, 0)

    def test_batch_scan_refuses_fractional_steps(self):
        with pytest.raises(ValidationError, match="num_steps"):
            gen_batch_scan(C4, n=1e7, batches=[1e4, 1e5], num_steps=[500.9, 700.7], log_every=50)

    def test_batch_scan_takes_numpy_step_count_as_one_value(self):
        runs = gen_batch_scan(C4, n=1e7, batches=[1e4, 1e5], num_steps=np.int64(200), log_every=50)
        assert [r.final_step() for r in runs] == [200.0, 200.0]

    def test_trajectory_takes_numpy_integers(self):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=np.int64(500),
                             log_every=np.int32(50))
        assert run.final_step() == 500.0

    def test_converged_log_takes_numpy_sample_count(self):
        run = gen_converged_log(C4, n=1e7, samples=np.int64(50))
        assert run.split_arrays("test")[0].size == 50


def test_contour_target_count_must_be_integral():
    run = RunRecord("a", 1e7, 1e5, 1024, "c4", [(100.0, 1e7, 3.0, "test"), (200.0, 2e7, 1.0, "test")])
    with pytest.raises(ValidationError, match="num_targets"):
        default_contour_targets([run], 2.5)


class TestFittingKnobs:
    @pytest.fixture(scope="class")
    def scan(self):
        return gen_batch_scan(C4, 1e7, [1e5, 1e6], 400, log_every=10)

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(inset=0.7), id="inset-above-half"),
        pytest.param(dict(inset=-2.0), id="negative-inset"),
        pytest.param(dict(inset=True), id="bool-inset"),
        pytest.param(dict(num_targets=MAX_CONTOUR_TARGETS + 1), id="num-targets-above-cap"),
    ])
    def test_contour_targets_reject(self, scan, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            default_contour_targets(scan, **kwargs)

    def test_contour_target_cap(self, scan):
        # the cap bounds what one fit holds; extract_contours itself takes any count
        assert FitOptions(num_targets=MAX_CONTOUR_TARGETS).num_targets == MAX_CONTOUR_TARGETS
        assert default_contour_targets(scan, MAX_CONTOUR_TARGETS).size == MAX_CONTOUR_TARGETS
        targets = np.linspace(20.0, 30.0, MAX_CONTOUR_TARGETS + 1)
        assert len(FitOptions(contour_targets=targets[1:]).contour_targets) == MAX_CONTOUR_TARGETS
        with pytest.raises(ValidationError, match="MAX_CONTOUR_TARGETS"):
            FitOptions(contour_targets=targets)
        assert len(extract_contours(scan, targets)) == MAX_CONTOUR_TARGETS + 1

    @pytest.mark.parametrize("window", [2.5, True, -1])
    def test_refine_window_rejected(self, scan, window):
        with pytest.raises(ValidationError, match="refine_window"):
            extract_contours(scan, [25.0], refine_window=window)

    def test_refine_window_zero_accepted(self, scan):
        (points,) = extract_contours(scan, [25.0], refine_window=np.int64(0))
        assert points.steps.size == 2

    @pytest.mark.parametrize("fraction", [True, math.inf])
    def test_tail_fraction_rejected(self, scan, fraction):
        with pytest.raises(ValidationError, match="tail_fraction"):
            extract_converged_run(scan[0], tail_fraction=fraction)

    def test_whole_tail_allowed(self, scan):
        assert extract_converged_run(scan[0], tail_fraction=1).n_params == 1e7

    @pytest.mark.parametrize("threshold", [True, 0.0, -0.01, math.inf])
    def test_diagnostic_thresholds_rejected(self, scan, threshold):
        with pytest.raises(ValidationError, match="threshold"):
            diagnose_infinite_data(scan[0], threshold=threshold)
        with pytest.raises(ValidationError, match="threshold"):
            diagnose_infinite_batch(scan, threshold=threshold)
