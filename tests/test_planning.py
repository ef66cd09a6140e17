"""Compute allocation: closed forms, brute-force checks, planning helpers."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    DomainError,
    InsufficientDataError,
    MIXED_CONSTANTS,
    ScalingConstants,
    ScalingLawWarning,
    SolverError,
    UnreachableLossError,
    budget_exponent,
    budget_scale,
    compare_datasets,
    critical_batch,
    loss_at_convergence,
    min_budget_for_loss,
    min_steps_for_loss,
    min_tokens_for_loss,
    optimal_allocation,
    predict_trajectory,
    recommend_batch,
    solve_loss,
    verify_allocation,
)

C4 = C4_CONSTANTS
MIXED = MIXED_CONSTANTS


class TestFrontierConstants:
    def test_frozen_exponents(self):
        assert budget_exponent(C4) == pytest.approx(0.05120726024037282, rel=1e-14)
        assert budget_exponent(MIXED) == pytest.approx(0.04009220815929148, rel=1e-14)

    def test_frozen_scales(self):
        # validated against the brute-force grid scan below
        assert budget_scale(C4) == pytest.approx(9.8896409847080339e28, rel=1e-12)
        assert budget_scale(MIXED) == pytest.approx(3.2006753179010912e35, rel=1e-12)

    def test_exponent_composition(self):
        expected = 1.0 / (1.0 / C4.alpha_s + 1.0 / C4.alpha_b + 1.0 / C4.alpha_n)
        assert budget_exponent(C4) == pytest.approx(expected, rel=1e-15)


class TestOptimalAllocation:
    def test_budget_identity_exact(self):
        for budget in np.geomspace(1e16, 1e24, 9):
            plan = optimal_allocation(C4, float(budget))
            assert 6.0 * plan.n_opt * plan.b_opt * plan.s_opt == pytest.approx(
                budget, rel=1e-12
            )

    def test_plan_satisfies_the_loss_surface(self):
        # the claimed frontier loss must solve the implicit equation at
        # the plan's own size, steps, and batch
        for c in (C4, MIXED):
            plan = optimal_allocation(c, 1e21)
            solved = solve_loss(c, plan.n_opt, plan.s_opt, plan.b_opt)
            assert solved == pytest.approx(plan.loss_final, rel=1e-8)

    def test_stops_short_of_convergence_by_fixed_ratio(self):
        r = C4.alpha_n / C4.alpha_s
        for budget in (1e18, 1e21):
            plan = optimal_allocation(C4, budget)
            assert plan.loss_final / plan.loss_converged == pytest.approx(1.0 + r, rel=1e-12)
            assert loss_at_convergence(C4, plan.n_opt) == pytest.approx(
                plan.loss_converged, rel=1e-12
            )

    def test_ratio_frozen_value(self):
        plan = optimal_allocation(C4, 1e21)
        assert plan.loss_final / plan.loss_converged == pytest.approx(
            1.1134328358208956, rel=1e-13
        )

    def test_batch_is_critical_at_final_loss(self):
        plan = optimal_allocation(C4, 1e20)
        assert plan.b_opt == pytest.approx(critical_batch(C4, plan.loss_final), rel=1e-12)

    def test_frontier_power_law(self):
        a = optimal_allocation(C4, 1e20)
        b = optimal_allocation(C4, 2e20)
        assert b.loss_final / a.loss_final == pytest.approx(
            2.0 ** -a.alpha_c, rel=1e-12
        )
        assert a.loss_final == pytest.approx(
            (1e20 / a.c_c) ** -a.alpha_c, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1e20, math.nan, math.inf])
    def test_rejects_bad_budget(self, bad):
        with pytest.raises(DomainError):
            optimal_allocation(C4, bad)

    # an exp overflows; a log meets a loss that underflowed to zero; n_opt
    # underflows to zero with no math error on the way
    @pytest.mark.parametrize("constants, budget", [
        ((1.5e48, 0.6, 1.6e103, 0.4, 1.9e265, 0.73), 2e-237),
        ((5e137, 1.08, 1.1e261, 1.62, 4.4e-299, 1.71), 1.4e-280),
        ((6e-277, 0.07, 3.5e289, 0.63, 8.8e57, 0.93), 9.3e-113),
    ])
    def test_allocation_overflow_is_domain_error(self, constants, budget):
        with pytest.raises(DomainError, match="allocation overflows"):
            optimal_allocation(ScalingConstants(*constants), budget)


class TestVerifyAllocation:
    def test_grid_confirms_plan(self):
        check = verify_allocation(C4, 1e21)
        assert check.within_one_cell
        assert check.loss_rel_gap < 1e-6
        assert check.n_grid.size == 129
        assert check.losses.size == 129

    def test_grid_minimum_is_interior(self):
        check = verify_allocation(C4, 1e19)
        best = int(np.argmin(check.losses))
        assert 0 < best < check.losses.size - 1


class TestMinCostHelpers:
    def test_frozen_min_steps(self):
        assert min_steps_for_loss(C4, 1e9, 2.6) == pytest.approx(
            57175.88803123188, rel=1e-12
        )

    def test_frozen_min_tokens(self):
        assert min_tokens_for_loss(C4, 1e9, 2.6) == pytest.approx(
            91918220073.7277, rel=1e-12
        )
        assert min_tokens_for_loss(C4, 1e9, 2.6) == pytest.approx(
            min_steps_for_loss(C4, 1e9, 2.6) * critical_batch(C4, 2.6), rel=1e-14
        )

    def test_unreachable_target_names_floor(self):
        floor = loss_at_convergence(C4, 1e9)
        with pytest.raises(UnreachableLossError, match="converged floor"):
            min_steps_for_loss(C4, 1e9, floor)
        with pytest.raises(UnreachableLossError):
            min_steps_for_loss(C4, 1e9, 2.0)

    def test_numpy_target_accepted(self):
        assert min_steps_for_loss(C4, 1e9, np.float32(2.6)) == pytest.approx(
            min_steps_for_loss(C4, 1e9, float(np.float32(2.6))), rel=1e-15
        )
        assert min_steps_for_loss(C4, np.float64(1e9), np.float64(2.6)) == pytest.approx(
            57175.88803123188, rel=1e-12
        )

    @pytest.mark.parametrize("target", [math.nan, math.inf, True, "2.6", np.array([2.6])])
    def test_min_steps_rejects_bad_target(self, target):
        with pytest.raises(UnreachableLossError, match="target loss"):
            min_steps_for_loss(C4, 1e9, target)

    @pytest.mark.parametrize("n", [np.array([1e9, 1e8]), True, 0.0])
    def test_min_steps_rejects_bad_size(self, n):
        with pytest.raises(DomainError, match="n must be"):
            min_steps_for_loss(C4, n, 2.6)

    def test_min_budget_round_trip(self):
        budget, plan = min_budget_for_loss(C4, 2.6)
        assert budget == pytest.approx(7.787202259845172e20, rel=1e-9)
        assert plan.loss_final == pytest.approx(2.6, rel=1e-12)
        assert optimal_allocation(C4, budget).loss_final == pytest.approx(2.6, rel=1e-12)

    def test_min_budget_rejects_bad_target(self):
        with pytest.raises(UnreachableLossError):
            min_budget_for_loss(C4, 0.0)
        with pytest.raises(UnreachableLossError):
            min_budget_for_loss(C4, -2.0)

    @pytest.mark.parametrize("target", [1e-30, 1e30])
    def test_min_budget_outside_double_range_names_target(self, target):
        with pytest.raises(DomainError, match=re.escape(f"target loss {target!r}")):
            min_budget_for_loss(C4, target)

    @settings(deadline=None, max_examples=50)
    @given(
        n_c=st.floats(13.0, 18.0), alpha_n=st.floats(0.05, 0.1),
        s_c=st.floats(2.7, 3.7), alpha_s=st.floats(0.5, 0.8),
        b_star=st.floats(8.0, 12.0), alpha_b=st.floats(0.1, 0.3),
        log_budget=st.floats(15.0, 30.0),
    )
    def test_min_budget_inverts_allocation(self, n_c, alpha_n, s_c, alpha_s, b_star, alpha_b,
                                           log_budget):
        # scales and the budget are drawn as decimal exponents, as in the gates
        c = ScalingConstants(
            n_c=10**n_c, alpha_n=alpha_n, s_c=10**s_c, alpha_s=alpha_s,
            b_star=10**b_star, alpha_b=alpha_b,
        )
        budget = 10**log_budget
        back, _ = min_budget_for_loss(c, optimal_allocation(c, budget).loss_final)
        assert back == pytest.approx(budget, rel=1e-12)


class TestPredictTrajectory:
    def test_matches_solver(self):
        steps = np.geomspace(100, 1e5, 30)
        pred = predict_trajectory(C4, 1e8, 1e6, steps)
        np.testing.assert_allclose(pred.losses, solve_loss(C4, 1e8, steps, 1e6), rtol=1e-12)
        assert np.all(np.diff(pred.losses) < 0)
        assert pred.n_params == 1e8
        assert pred.batch_tokens == 1e6
        assert pred.constants is C4

    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            predict_trajectory(C4, 1e8, 1e6, [])
        with pytest.raises(DomainError):
            predict_trajectory(C4, 1e8, 1e6, [100.0, 100.0])
        with pytest.raises(DomainError):
            predict_trajectory(C4, 1e8, 1e6, [200.0, 100.0])
        with pytest.raises(DomainError):
            predict_trajectory(C4, True, 1e6, [10.0, 100.0])

    @pytest.mark.parametrize("steps", [[True, 2.0], ["10", "20"], [b"10", b"20"], [10.0 + 0j, 20.0]])
    def test_rejects_non_real_grids(self, steps):
        with pytest.raises(DomainError, match="steps must hold floats"):
            predict_trajectory(C4, 1e8, 1e6, steps)

    def test_overly_fine_grid_is_solver_error(self):
        # neighboring losses differ by less than one rounding step
        steps = 1e4 * (1.0 + 1e-15 * np.arange(3))
        with pytest.raises(SolverError, match="strictly decreasing"):
            predict_trajectory(C4, 1e8, 1e6, steps)

    def test_fine_grid_now_resolved(self):
        # losses fall by about 3e-14 per point, far below the residual
        # tolerance, and Newton still orders them
        steps = 1e4 * (1.0 + 1e-13 * np.arange(3))
        losses = predict_trajectory(C4, 1e8, 1e6, steps).losses
        assert np.all(np.diff(losses) < 0)


class TestRecommendBatch:
    def test_unit_weight_is_critical_batch(self):
        assert recommend_batch(C4, 2.6) == pytest.approx(1607639.570434273, rel=1e-12)

    def test_weight_scales_as_square_root(self):
        assert recommend_batch(C4, 2.6, time_weight=4.0) == pytest.approx(
            2.0 * critical_batch(C4, 2.6), rel=1e-12
        )

    def test_zero_weight_warns_and_returns_zero(self):
        with pytest.warns(ScalingLawWarning, match="no finite optimum"):
            assert recommend_batch(C4, 2.6, time_weight=0.0) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            recommend_batch(C4, 2.6, time_weight=-1.0)

    def test_numpy_weight_accepted(self):
        assert recommend_batch(C4, 2.6, np.float32(4.0)) == pytest.approx(
            2.0 * critical_batch(C4, 2.6), rel=1e-12
        )

    @pytest.mark.parametrize("weight", [math.nan, True, False])
    def test_non_real_weight_rejected(self, weight):
        with pytest.raises(DomainError):
            recommend_batch(C4, 2.6, time_weight=weight)


class TestCompareDatasets:
    def test_rankings_and_rows(self):
        comp = compare_datasets([("c4", C4), ("mixed", MIXED)], n=1e9, budget=1e21)
        assert [r.name for r in comp.rows] == ["c4", "mixed"]
        assert comp.by_converged_loss == ["c4", "mixed"]
        assert comp.by_budget_loss == ["c4", "mixed"]
        assert comp.n_params == 1e9
        assert comp.budget == 1e21
        row = comp.rows[0]
        assert row.loss_converged == pytest.approx(loss_at_convergence(C4, 1e9), rel=1e-12)
        assert row.loss_at_budget == pytest.approx(
            optimal_allocation(C4, 1e21).loss_final, rel=1e-12
        )

    def test_needs_two_fits(self):
        with pytest.raises(InsufficientDataError):
            compare_datasets([("c4", C4)], n=1e9, budget=1e21)
