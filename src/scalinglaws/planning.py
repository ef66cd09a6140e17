"""Turn fitted constants into training decisions.

The central result: training compute C ~ 6 * N * B * S, and at the
compute-optimal frontier the budget splits between model size and steps
with fixed exponents. Writing r = alpha_n / alpha_s and
alpha_c = 1 / (1/alpha_s + 1/alpha_b + 1/alpha_n):

    N(C)      = n_c * (C / C_c) ** (alpha_c / alpha_n) * (1 + r) ** (1 / alpha_n)
    S(C)      = C_c / (6 n_c b_star) * (1 + r) ** (-1 / alpha_n)
                    * (C / C_c) ** (alpha_c / alpha_s)
    L(C)      = (C / C_c) ** (-alpha_c)
    C_c       = 12 n_c b_star s_c * (1 + r) ** (1/alpha_s + 1/alpha_n)
                    * (alpha_s / alpha_n) ** (1/alpha_s)

with the batch schedule pinned to the critical batch at the final loss.
Running at the critical batch costs twice the minimum steps, which is
where the 12 = 2 * 6 in C_c comes from; S(C) above is actual steps, so
it already contains that factor of two. The final loss always exceeds
the converged loss for N(C) by exactly the factor (1 + r): a
compute-optimal run stops far short of convergence. L(C) inverts in
closed form too, so the cheapest budget reaching a target loss L is
ln C = ln C_c - ln(L) / alpha_c.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    ScalingLawWarning,
    SolverError,
    UnreachableLossError,
)
from .laws import (
    ScalingConstants,
    critical_batch,
    loss_at_convergence,
    positive_real,
    solve_loss,
)

# tokens-per-parameter cost of one training step: forward plus backward
_FLOPS_FACTOR = 6.0

# log budgets whose exponential is a normal double
_LN_BUDGET_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))

# most points a user-sized grid may hold (predict --steps): each point
# costs a loss solve and several float arrays
MAX_GRID_POINTS = 10**6

# verify_allocation's grid: 64 cells a decade over the two decades of
# model size centred on the plan, ln 10 to each side
_GRID_POINTS = 129
_GRID_HALF_SPAN = math.log(10.0)


@dataclass(frozen=True)
class AllocationPlan:
    """Compute-optimal split of one training budget."""

    budget: float
    n_opt: float
    s_opt: float
    b_opt: float
    loss_final: float
    loss_converged: float
    c_c: float
    alpha_c: float


@dataclass(frozen=True)
class AllocationCheck:
    """Closed-form plan against a brute-force grid minimum."""

    plan: AllocationPlan
    n_grid: np.ndarray
    losses: np.ndarray
    n_best: float
    loss_best: float
    within_one_cell: bool
    loss_rel_gap: float


@dataclass(frozen=True)
class TrajectoryPrediction:
    """Predicted loss curve of a fixed-size, fixed-batch run."""

    n_params: float
    batch_tokens: float
    steps: np.ndarray
    losses: np.ndarray
    constants: ScalingConstants


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    loss_converged: float
    loss_at_budget: float
    n_opt: float


@dataclass(frozen=True)
class DatasetComparison:
    """Advisory ranking of fitted corpora at one size and budget."""

    n_params: float
    budget: float
    rows: list[ComparisonRow]
    by_converged_loss: list[str]
    by_budget_loss: list[str]


def budget_exponent(c: ScalingConstants) -> float:
    """Exponent of loss against compute on the optimal frontier."""
    return 1.0 / (1.0 / c.alpha_s + 1.0 / c.alpha_b + 1.0 / c.alpha_n)


def _ln_budget_scale(c: ScalingConstants) -> float:
    # the 2.0 is the step overhead of running at the critical batch
    r = c.alpha_n / c.alpha_s
    return (
        math.log(2.0 * _FLOPS_FACTOR)
        + math.log(c.n_c)
        + math.log(c.b_star)
        + math.log(c.s_c)
        + (1.0 / c.alpha_s + 1.0 / c.alpha_n) * math.log1p(r)
        + (math.log(c.alpha_s) - math.log(c.alpha_n)) / c.alpha_s
    )


def budget_scale(c: ScalingConstants) -> float:
    """Compute scale C_c, in FLOPs, of the optimal-frontier power law."""
    return math.exp(_ln_budget_scale(c))


def optimal_allocation(c: ScalingConstants, budget) -> AllocationPlan:
    """Split a compute budget optimally between size, steps, and batch.

    Args:
        c: fitted constants.
        budget: training compute in FLOPs.

    Returns:
        AllocationPlan. Token count is s_opt * b_opt; the plan satisfies
        budget = 6 * n_opt * b_opt * s_opt exactly.

    Raises:
        DomainError: non-positive budget, or a budget so extreme the
            allocation overflows double precision.
    """
    positive_real("budget", budget)
    r = c.alpha_n / c.alpha_s
    alpha_c = budget_exponent(c)
    ln_cc = _ln_budget_scale(c)
    t = math.log(budget) - ln_cc
    ln_n = math.log(c.n_c) + (alpha_c / c.alpha_n) * t + math.log1p(r) / c.alpha_n
    loss_final = math.exp(-alpha_c * t)
    loss_converged = loss_final / (1.0 + r)
    b_opt = c.b_star * math.exp(-math.log(loss_final) / c.alpha_b)
    ln_s = math.log(budget) - math.log(_FLOPS_FACTOR) - ln_n - math.log(b_opt)
    values = (math.exp(ln_n), math.exp(ln_s), b_opt, loss_final, loss_converged)
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise DomainError(f"allocation overflows at budget {budget!r}")
    return AllocationPlan(
        budget=float(budget),
        n_opt=values[0],
        s_opt=values[1],
        b_opt=b_opt,
        loss_final=loss_final,
        loss_converged=loss_converged,
        c_c=math.exp(ln_cc),
        alpha_c=alpha_c,
    )


def verify_allocation(c: ScalingConstants, budget) -> AllocationCheck:
    """Check the closed-form allocation against a brute-force scan.

    Evaluates the finite-batch loss over a log-spaced grid of 129 model
    sizes, 64 cells a decade over the two decades centred on the plan,
    holding the budget and the plan's batch fixed and giving each size
    the steps the budget still buys. The closed form should land within
    one grid cell of the scanned minimum.
    """
    plan = optimal_allocation(c, budget)
    ln_n = math.log(plan.n_opt) + np.linspace(-_GRID_HALF_SPAN, _GRID_HALF_SPAN, _GRID_POINTS)
    n_grid = np.exp(ln_n)
    s_grid = budget / (_FLOPS_FACTOR * n_grid * plan.b_opt)
    losses = solve_loss(c, n_grid, s_grid, plan.b_opt)
    best = int(np.argmin(losses))
    cell = ln_n[1] - ln_n[0]
    within = abs(math.log(n_grid[best]) - math.log(plan.n_opt)) <= cell * (1 + 1e-9)
    return AllocationCheck(
        plan=plan,
        n_grid=n_grid,
        losses=losses,
        n_best=float(n_grid[best]),
        loss_best=float(losses[best]),
        within_one_cell=bool(within),
        loss_rel_gap=float(abs(losses[best] - plan.loss_final) / plan.loss_final),
    )


def min_steps_for_loss(c: ScalingConstants, n, target) -> float:
    """Fewest optimization steps to a target loss, at unbounded batch.

    Like every planning inverse it takes scalars, numpy reals included.

    Raises:
        DomainError: n is not a positive finite real scalar.
        UnreachableLossError: target is not one either, or lies at or
            below the converged floor for this model size.
    """
    positive_real("n", n)
    positive_real("target loss", target, error=UnreachableLossError)
    floor = loss_at_convergence(c, n)
    if target <= floor:
        raise UnreachableLossError(
            f"loss {target!r} is unreachable for n={n:g}; the converged floor is {floor:.6g}"
        )
    return c.s_c * math.exp(-math.log(float(target) - floor) / c.alpha_s)


def min_tokens_for_loss(c: ScalingConstants, n, target) -> float:
    """Fewest training tokens to a target loss, in the small-batch limit."""
    return min_steps_for_loss(c, n, target) * critical_batch(c, target)


def min_budget_for_loss(c: ScalingConstants, target) -> tuple[float, AllocationPlan]:
    """Smallest compute budget whose optimal allocation reaches a loss.

    Inverts the frontier L(C) = (C / C_c) ** -alpha_c in closed form:
    ln C = ln C_c - ln(target) / alpha_c.

    Returns:
        (budget, plan) with plan.loss_final equal to the target to
        within rounding.

    Raises:
        UnreachableLossError: non-positive target.
        DomainError: a target so far from the fitted regime that the
            budget leaves the range of a double, or the allocation
            overflows.
    """
    positive_real("target loss", target, error=UnreachableLossError)
    ln_budget = _ln_budget_scale(c) - math.log(target) / budget_exponent(c)
    if not _LN_BUDGET_RANGE[0] <= ln_budget <= _LN_BUDGET_RANGE[1]:
        raise DomainError(
            f"the budget for target loss {target!r} is e**{ln_budget:.6g} FLOPs, "
            "outside the range of a double"
        )
    budget = math.exp(ln_budget)
    return budget, optimal_allocation(c, budget)


def predict_trajectory(c: ScalingConstants, n, batch_tokens, steps) -> TrajectoryPrediction:
    """Predict the loss curve of a run before launching it.

    Args:
        steps: strictly increasing evaluation grid.

    Returns:
        TrajectoryPrediction with strictly decreasing losses.
    """
    steps = np.atleast_1d(np.asarray(steps, dtype=float))
    if steps.size == 0:
        raise DomainError("steps grid is empty")
    if np.any(np.diff(steps) <= 0):
        raise DomainError("steps grid must be strictly increasing")
    losses = np.atleast_1d(solve_loss(c, n, steps, batch_tokens))
    if np.any(np.diff(losses) >= 0):
        raise SolverError(
            "predicted losses are not strictly decreasing; the grid is finer "
            "than the solver tolerance resolves"
        )
    return TrajectoryPrediction(float(n), float(batch_tokens), steps, losses, c)


def recommend_batch(c: ScalingConstants, loss, time_weight: float = 1.0) -> float:
    """Batch size trading training time against compute.

    Minimizes time_weight * (steps excess) + (tokens excess) over the
    batch, which lands at sqrt(time_weight) times the critical batch.
    Weight 1 values both equally and returns the critical batch itself;
    larger weights favor finishing in fewer steps.

    A zero weight means compute is all that matters; the optimum is the
    vanishing-batch limit, returned as 0.0 with a warning.
    """
    positive_real("time_weight", time_weight, zero=True)
    if time_weight == 0:
        warnings.warn(
            "time_weight 0 has no finite optimum; batch should be as small "
            "as the hardware tolerates",
            ScalingLawWarning,
            stacklevel=2,
        )
        return 0.0
    return math.sqrt(time_weight) * critical_batch(c, loss)


def compare_datasets(fits, n, budget) -> DatasetComparison:
    """Rank fitted corpora by what they promise at one size and budget.

    Purely advisory: constants fitted on different corpora are only
    comparable if their tokenizations are, which the caller must judge.

    Args:
        fits: (name, ScalingConstants) pairs, at least two.
        n: model size for the converged-floor column.
        budget: compute budget for the frontier-loss column.

    Returns:
        DatasetComparison; rows keep input order, rankings are stable
        under ties.
    """
    fits = list(fits)
    if len(fits) < 2:
        raise InsufficientDataError("dataset comparison needs at least two fits")
    rows = []
    for name, constants in fits:
        plan = optimal_allocation(constants, budget)
        rows.append(
            ComparisonRow(
                name=str(name),
                loss_converged=float(loss_at_convergence(constants, n)),
                loss_at_budget=plan.loss_final,
                n_opt=plan.n_opt,
            )
        )
    by_floor = [r.name for r in sorted(rows, key=lambda r: r.loss_converged)]
    by_budget = [r.name for r in sorted(rows, key=lambda r: r.loss_at_budget)]
    return DatasetComparison(float(n), float(budget), rows, by_floor, by_budget)
