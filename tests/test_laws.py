"""Closed-form laws and the implicit-loss solver.

Numeric reference values were computed independently with plain
float arithmetic (direct power evaluation, damped fixed-point solves)
and are asserted here as frozen constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    MIXED_CONSTANTS,
    DomainError,
    ScalingConstants,
    SolverError,
    critical_batch,
    implicit_residual,
    implicit_residual_derivative,
    loss_at_convergence,
    loss_at_min_steps,
    min_steps_from_steps,
    solve_loss,
    steps_from_min_steps,
    tradeoff_token_ratio,
)

C4 = C4_CONSTANTS
MIXED = MIXED_CONSTANTS


# random constants over the acceptance gates' ranges; scales are drawn as
# decimal exponents
constants_strategy = st.builds(
    lambda n_c, alpha_n, s_c, alpha_s, b_star, alpha_b: ScalingConstants(
        n_c=10**n_c, alpha_n=alpha_n, s_c=10**s_c, alpha_s=alpha_s,
        b_star=10**b_star, alpha_b=alpha_b,
    ),
    st.floats(13.0, 18.0), st.floats(0.05, 0.1), st.floats(2.7, 3.7),
    st.floats(0.5, 0.8), st.floats(8.0, 12.0), st.floats(0.1, 0.3),
)


def random_constants(rng) -> ScalingConstants:
    """A valid constants set drawn log-uniformly over the fitted ranges."""
    return ScalingConstants(
        n_c=10 ** rng.uniform(13, 18),
        alpha_n=rng.uniform(0.05, 0.1),
        s_c=10 ** rng.uniform(2.7, 3.7),
        alpha_s=rng.uniform(0.5, 0.8),
        b_star=10 ** rng.uniform(8, 12),
        alpha_b=rng.uniform(0.1, 0.3),
    )


class TestConstants:
    def test_reference_values(self):
        assert C4.alpha_n == 0.076 and C4.n_c == 1.5e14
        assert C4.alpha_s == 0.67 and C4.s_c == 2.6e3
        assert C4.alpha_b == 0.205 and C4.b_star == 1.7e8
        assert MIXED.alpha_n == 0.0615 and MIXED.n_c == 4.85e17
        assert MIXED.alpha_s == 0.672 and MIXED.s_c == 1.54e3
        assert MIXED.alpha_b == 0.139 and MIXED.b_star == 2.15e11
        assert C4.meta["context_length"] == 1024
        assert MIXED.meta["context_length"] == 4096

    @pytest.mark.parametrize("field,value", [
        ("n_c", -1.0), ("n_c", 0.0), ("s_c", math.nan), ("b_star", math.inf),
        ("alpha_n", 2.0), ("alpha_s", -0.1), ("alpha_b", 2.5),
        ("alpha_n", True), ("n_c", "1.5e14"),
        pytest.param("s_c", 10**400, id="s_c-int-beyond-float"),
    ])
    def test_rejects_bad_fields(self, field, value):
        kwargs = dict(n_c=1e14, alpha_n=0.08, s_c=2e3, alpha_s=0.7, b_star=1e8, alpha_b=0.2)
        kwargs[field] = value
        with pytest.raises(DomainError):
            ScalingConstants(**kwargs)

    def test_accepts_numpy_reals(self):
        c = ScalingConstants(
            n_c=np.int64(150_000_000_000_000), alpha_n=np.float32(0.076),
            s_c=np.int64(2600), alpha_s=np.float32(0.67),
            b_star=np.float64(1.7e8), alpha_b=np.float32(0.205),
        )
        assert loss_at_convergence(c, 1e9) == pytest.approx(
            loss_at_convergence(C4, 1e9), rel=1e-6
        )

    def test_frozen(self):
        with pytest.raises(AttributeError):
            C4.n_c = 1.0


class TestConvergedLoss:
    def test_frozen_value(self):
        assert loss_at_convergence(C4, 1e9) == pytest.approx(2.47390452915212, rel=1e-13)

    def test_decreasing_in_size(self):
        sizes = np.geomspace(1e5, 1e12, 30)
        losses = loss_at_convergence(C4, sizes)
        assert np.all(np.diff(losses) < 0)

    def test_broadcasts(self):
        out = loss_at_convergence(C4, [1e6, 1e9])
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert isinstance(loss_at_convergence(C4, 1e6), float)

    @pytest.mark.parametrize("bad", [
        0.0, -1.0, math.nan, math.inf, [1e6, -1.0], True, np.bool_(True), [True, True],
        [True, 1e6], (np.True_, 1e6), "1e6", b"1e6", 1e6 + 0j, [1e6, None], [[1e6], [1e7, 1e8]],
        10**400,
    ])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            loss_at_convergence(C4, bad)


class TestMinStepsLoss:
    def test_frozen_values(self):
        # at s_min = s_c the step term is exactly 1 nat
        assert loss_at_min_steps(C4, 1e9, 2.6e3) == pytest.approx(3.47390452915212, rel=1e-13)
        assert loss_at_min_steps(C4, 1e9, 1e5) == pytest.approx(2.5606071335510348, rel=1e-13)

    def test_approaches_converged_loss(self):
        assert loss_at_min_steps(C4, 1e9, 1e18) == pytest.approx(
            loss_at_convergence(C4, 1e9), rel=1e-9
        )


class TestCriticalBatch:
    def test_frozen_values(self):
        assert critical_batch(C4, 2.0) == pytest.approx(5781092.497439029, rel=1e-12)
        assert critical_batch(C4, 2.6) == pytest.approx(1607639.570434273, rel=1e-12)

    def test_decreasing_in_loss(self):
        losses = np.linspace(1.5, 6.0, 40)
        assert np.all(np.diff(critical_batch(C4, losses)) < 0)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            critical_batch(C4, 1e-300)


class TestStepConversions:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = random_constants(rng)
            loss = rng.uniform(1.5, 8.0)
            steps = 10 ** rng.uniform(2, 6)
            batch = 10 ** rng.uniform(4, 9)
            s_min = min_steps_from_steps(c, steps, batch, loss)
            assert s_min < steps
            back = steps_from_min_steps(c, s_min, batch, loss)
            assert back == pytest.approx(steps, rel=1e-12)

    def test_discount_at_critical_batch_is_half(self):
        loss = 3.0
        b = critical_batch(C4, loss)
        assert min_steps_from_steps(C4, 1000.0, b, loss) == pytest.approx(500.0, rel=1e-12)


class TestTradeoff:
    def test_excesses_multiply_to_one(self):
        ratios = np.linspace(1.01, 50.0, 200)
        token_ratios = tradeoff_token_ratio(ratios)
        assert np.allclose((ratios - 1.0) * (token_ratios - 1.0), 1.0, rtol=1e-12)

    def test_twice_the_steps_costs_twice_the_tokens(self):
        assert tradeoff_token_ratio(2.0) == 2.0

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0])
    def test_rejects_ratio_at_or_below_one(self, bad):
        with pytest.raises(DomainError):
            tradeoff_token_ratio(bad)


class TestImplicitResidual:
    def test_strictly_decreasing_in_loss(self):
        losses = np.linspace(0.5, 9.0, 300)
        r = implicit_residual(C4, losses, 1e9, 1e5, 5e5)
        assert np.all(np.diff(r) < 0)

    def test_derivative_below_minus_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = random_constants(rng)
            d = implicit_residual_derivative(
                c, rng.uniform(0.5, 9.0), 10 ** rng.uniform(6, 12),
                10 ** rng.uniform(2, 7), 10 ** rng.uniform(4, 10),
            )
            assert d < -1.0

    def test_derivative_matches_finite_difference(self):
        loss, n, s, b = 2.7, 1e9, 1e5, 5e5
        h = 1e-6
        numeric = (implicit_residual(C4, loss + h, n, s, b)
                   - implicit_residual(C4, loss - h, n, s, b)) / (2 * h)
        analytic = implicit_residual_derivative(C4, loss, n, s, b)
        assert analytic == pytest.approx(numeric, rel=1e-7)


class TestSolveLoss:
    def test_frozen_fixed_point_value(self):
        # independently solved by damped fixed-point iteration from two starts
        assert solve_loss(C4, 1e9, 1e5, 5e5) == pytest.approx(2.684193150679535, abs=1e-9)

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = random_constants(rng)
            n = 10 ** rng.uniform(6, 12, size=25)
            s = 10 ** rng.uniform(2, 7, size=25)
            b = 10 ** rng.uniform(4, 10, size=25)
            loss = solve_loss(c, n, s, b)
            assert np.all(np.abs(implicit_residual(c, loss, n, s, b)) <= 1e-10)

    def test_monotone_in_each_input(self):
        # batch stays within a decade and a half of critical: far above
        # it, doubling the batch moves the loss by less than the solver
        # tolerance and the comparison would tie
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = random_constants(rng)
            n = 10 ** rng.uniform(6, 11)
            s = c.s_c * 10 ** rng.uniform(0, 2)
            b = critical_batch(c, loss_at_min_steps(c, n, s)) * 10 ** rng.uniform(-1.5, 1.5)
            base = solve_loss(c, n, s, b)
            assert solve_loss(c, 2 * n, s, b) < base
            assert solve_loss(c, n, 2 * s, b) < base
            assert solve_loss(c, n, s, 2 * b) < base

    def test_infinite_batch_limit(self):
        ceiling = loss_at_min_steps(C4, 1e9, 1e4)
        b = 1e6 * critical_batch(C4, ceiling)
        assert solve_loss(C4, 1e9, 1e4, b) == pytest.approx(ceiling, abs=1e-6)

    def test_batch_extremes_stay_finite(self):
        # far above and far below the critical batch both solve cleanly
        assert math.isfinite(solve_loss(C4, 1e8, 1e4, 1e30))
        assert math.isfinite(solve_loss(C4, 1e8, 1e4, 1e-3))

    def test_broadcasts(self):
        out = solve_loss(C4, [1e8, 1e9], 1e5, 5e5)
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert isinstance(solve_loss(C4, 1e8, 1e5, 5e5), float)

    def test_small_batch_costs_loss(self):
        wide = solve_loss(C4, 1e9, 1e4, 1e12)
        narrow = solve_loss(C4, 1e9, 1e4, 1e4)
        assert narrow > wide

    def test_numpy_tolerance_accepted(self):
        loose = solve_loss(C4, 1e9, 1e5, 5e5, tol=np.float32(1e-6))
        assert abs(implicit_residual(C4, loose, 1e9, 1e5, 5e5)) <= 1e-6
        assert math.isfinite(solve_loss(C4, 1e9, 1e5, 5e5, tol=1e-3))
        for bad in (True, np.float64(math.nan)):
            with pytest.raises(DomainError):
                solve_loss(C4, 1e9, 1e5, 5e5, tol=bad)

    def test_unmeetable_tolerance_names_cap(self):
        # a residual that does not round to exactly zero can never meet
        # tol=1e-300, so the solver runs into its step cap
        with pytest.raises(SolverError, match="100 Newton steps"):
            solve_loss(C4, np.geomspace(1e6, 1e10, 50), 1e5, 5e5, tol=1e-300)

    @settings(deadline=None, max_examples=50)
    @given(
        c=constants_strategy, log_n=st.floats(6.0, 11.0), log_s=st.floats(0.0, 2.0),
        log_b=st.floats(-1.5, 1.5),
    )
    def test_monotone_property(self, c, log_n, log_s, log_b):
        # batches within a decade and a half of critical, as in
        # test_monotone_in_each_input, so the batch effect is resolvable
        n, s = 10**log_n, c.s_c * 10**log_s
        b = critical_batch(c, loss_at_min_steps(c, n, s)) * 10**log_b
        base = solve_loss(c, n, s, b)
        assert solve_loss(c, 2 * n, s, b) < base
        assert solve_loss(c, n, 2 * s, b) < base
        assert solve_loss(c, n, s, 2 * b) < base

    @settings(deadline=None, max_examples=50)
    @given(
        c=constants_strategy, log_n=st.floats(5.0, 12.0), log_s=st.floats(0.0, 4.0),
        log_b=st.floats(-3.0, 30.0), log_tol=st.floats(-10.0, -3.0),
    )
    def test_residual_within_tolerance_property(self, c, log_n, log_s, log_b, log_tol):
        n, s, b, tol = 10**log_n, c.s_c * 10**log_s, 10**log_b, 10**log_tol
        loss = solve_loss(c, n, s, b, tol=tol)
        assert abs(implicit_residual(c, loss, n, s, b)) <= tol

    @pytest.mark.parametrize("bad_tol", [0.0, -1e-6, 1e-2, math.nan])
    def test_rejects_bad_tolerance(self, bad_tol):
        with pytest.raises(DomainError):
            solve_loss(C4, 1e9, 1e5, 5e5, tol=bad_tol)

    @pytest.mark.parametrize("kwargs", [
        dict(n=-1e9, steps=1e5, batch_tokens=5e5),
        dict(n=1e9, steps=0.0, batch_tokens=5e5),
        dict(n=1e9, steps=1e5, batch_tokens=math.nan),
        dict(n=True, steps=1e5, batch_tokens=5e5),
        dict(n=1e9, steps=np.array([True, True]), batch_tokens=5e5),
        dict(n="1e7", steps=100, batch_tokens=1e6),
        dict(n=b"1e7", steps=100, batch_tokens=1e6),
        dict(n="abc", steps=100, batch_tokens=1e6),
        dict(n=1e7 + 1j, steps=100, batch_tokens=1e6),
        dict(n=1e7, steps=np.array([100, 200], dtype=complex), batch_tokens=1e6),
        dict(n=1e7, steps=[True, 200.0], batch_tokens=1e6),
    ])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(DomainError, match=r"^(n|steps|batch_tokens) must"):
            solve_loss(C4, **kwargs)

    @pytest.mark.parametrize("n", ["1e7", 1e7 + 1j, [True, 1e7]])
    def test_rejection_names_the_value(self, n):
        with pytest.raises(DomainError, match=r"^n must hold floats or float-range integers"):
            solve_loss(C4, n, 100, 1e6)

    def test_numpy_reals_accepted(self):
        ref = solve_loss(C4, 1e7, 100.0, 1e6)
        assert solve_loss(C4, np.float32(1e7), np.int64(100), np.uint32(1_000_000)) == pytest.approx(ref)
