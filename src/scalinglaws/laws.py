"""Closed-form scaling laws and the finite-batch loss solver.

The loss surface of a language model is described by six fitted
constants. With N the non-embedding parameter count, S the number of
optimization steps, S_min the equivalent step count at unbounded batch
size, and B the batch size in tokens:

    L(N)          = (n_c / N) ** alpha_n                  converged loss
    L(N, S_min)   = L(N) + (s_c / S_min) ** alpha_s       unbounded batch
    B_crit(L)     = b_star / L ** (1 / alpha_b)           critical batch
    S_min         = S / (1 + B_crit(L) / B)               step discount

Substituting the last relation into the second gives an implicit
equation for the loss reached by a run at finite batch size, solved
here by Newton's method. Scale constants are huge (n_c ~ 1e14 parameters,
b_star ~ 1e8 tokens), so every power is evaluated in log space.

All functions broadcast over numpy arrays and return scalars for
scalar input.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError

# Newton steps allowed to the loss root; extreme inputs (batches 1e-3 to
# 1e30 tokens) need well under 40
_MAX_NEWTON_STEPS = 100

CONSTANT_NAMES = ("n_c", "alpha_n", "s_c", "alpha_s", "b_star", "alpha_b")
# every exponent (alpha_*) lies in (0, EXPONENT_LIMIT)
EXPONENT_LIMIT = 2.0


def positive_real(name: str, value, below: float = math.inf, error=DomainError, zero=False):
    """Require a finite real scalar in (0, below), or in [0, below) if ``zero``.

    numpy reals pass; bools, strings, arrays, NaN and numbers beyond the
    float range do not. Raises ``error`` naming the value.
    """
    try:
        # the float comparisons also reject NaN and infinities
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and (0 <= float(value) if zero else 0 < float(value)) and float(value) < below)
    except OverflowError:  # an integer beyond any float
        ok = False
    if not ok:
        what = (f"a real number in {'[' if zero else '('}0, {below:g})" if below < math.inf
                else f"a {'non-negative' if zero else 'positive'} finite real number")
        raise error(f"{name} must be {what}, got {value!r}")


def integer_at_least(name: str, value, least: int, error=DomainError):
    """Require an integer >= ``least``; numpy integers pass, bools and floats do not."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def check_constants(holder, names=CONSTANT_NAMES) -> None:
    """Check the named constants of ``holder``; scales need only be positive."""
    for name in names:
        below = EXPONENT_LIMIT if name.startswith("alpha_") else math.inf
        positive_real(name, getattr(holder, name), below)


@dataclass(frozen=True)
class ScalingConstants:
    """Fitted constants of one loss surface.

    Attributes:
        n_c: model-size scale, in parameters.
        alpha_n: model-size exponent.
        s_c: step scale, in optimization steps.
        alpha_s: step exponent.
        b_star: batch scale, in tokens.
        alpha_b: batch exponent.
        meta: free-form provenance, e.g. dataset tag, context length,
            tokenizer tag, fit date. Not interpreted by the math.
    """

    n_c: float
    alpha_n: float
    s_c: float
    alpha_s: float
    b_star: float
    alpha_b: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_constants(self)


# Reference fits. The c4 set comes from decoder-only models up to 60M
# parameters trained on C4 at context 1024; the mixed set from a
# bilingual web/code corpus at context 4096.
C4_CONSTANTS = ScalingConstants(
    n_c=1.5e14, alpha_n=0.076,
    s_c=2.6e3, alpha_s=0.67,
    b_star=1.7e8, alpha_b=0.205,
    meta={"dataset_tag": "c4", "context_length": 1024},
)
MIXED_CONSTANTS = ScalingConstants(
    n_c=4.85e17, alpha_n=0.0615,
    s_c=1.54e3, alpha_s=0.672,
    b_star=2.15e11, alpha_b=0.139,
    meta={"dataset_tag": "mixed", "context_length": 4096},
)


def _validated(name, value):
    """Coerce to a float array and require positive finite real entries."""
    raw = np.asarray(value)
    arr = raw.astype(float, copy=False)
    if raw.dtype == bool or arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0)):
        raise DomainError(f"{name} must be positive and finite, never a bool, got {value!r}")
    return arr


def _scalarize(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


def _log1p_exp(w):
    """log(1 + exp(w)) without overflow for large w."""
    return np.maximum(w, 0.0) + np.log1p(np.exp(-np.abs(w)))


def _sigmoid(w):
    return 1.0 / (1.0 + np.exp(-np.clip(w, -700.0, 700.0)))


def loss_at_convergence(c: ScalingConstants, n) -> float | np.ndarray:
    """Loss of an n-parameter model trained to convergence.

    Args:
        c: fitted constants.
        n: non-embedding parameter count, scalar or array.

    Returns:
        Converged loss in nats, matching the shape of ``n``.
    """
    n = _validated("n", n)
    return _scalarize(np.exp(c.alpha_n * (math.log(c.n_c) - np.log(n))))


def loss_at_min_steps(c: ScalingConstants, n, s_min) -> float | np.ndarray:
    """Loss after s_min steps at unbounded batch size."""
    n = _validated("n", n)
    s_min = _validated("s_min", s_min)
    step_term = np.exp(c.alpha_s * (math.log(c.s_c) - np.log(s_min)))
    return _scalarize(np.exp(c.alpha_n * (math.log(c.n_c) - np.log(n))) + step_term)


def critical_batch(c: ScalingConstants, loss) -> float | np.ndarray:
    """Batch size, in tokens, at which training is compute/time balanced.

    Below it, halving the batch roughly halves compute at little cost in
    steps; above it, steps stop shrinking while compute keeps growing.
    Diverges as the loss approaches zero.
    """
    loss = _validated("loss", loss)
    with np.errstate(over="raise"):
        try:
            out = np.exp(math.log(c.b_star) - np.log(loss) / c.alpha_b)
        except FloatingPointError:
            raise DomainError(f"critical batch overflows at loss {loss!r}") from None
    return _scalarize(out)


def min_steps_from_steps(c: ScalingConstants, steps, batch_tokens, loss) -> float | np.ndarray:
    """Convert actual steps at batch ``batch_tokens`` to unbounded-batch steps.

    The discount depends on the loss the run has reached, through the
    critical batch size.
    """
    steps = _validated("steps", steps)
    batch_tokens = _validated("batch_tokens", batch_tokens)
    b_crit = critical_batch(c, loss)
    return _scalarize(steps / (1.0 + b_crit / batch_tokens))


def steps_from_min_steps(c: ScalingConstants, min_steps, batch_tokens, loss) -> float | np.ndarray:
    """Inverse of min_steps_from_steps: actual steps a finite batch needs."""
    min_steps = _validated("min_steps", min_steps)
    batch_tokens = _validated("batch_tokens", batch_tokens)
    b_crit = critical_batch(c, loss)
    return _scalarize(min_steps * (1.0 + b_crit / batch_tokens))


def tradeoff_token_ratio(step_ratio) -> float | np.ndarray:
    """Token cost of training faster.

    Training to a fixed loss in ``step_ratio`` times the minimum number
    of steps costs this many times the minimum number of tokens. The two
    excesses multiply to one: (S/S_min - 1)(E/E_min - 1) = 1.

    Args:
        step_ratio: S / S_min, must be > 1 (the limit at 1 is infinite
            token cost).

    Returns:
        E / E_min.
    """
    step_ratio = _validated("step_ratio", step_ratio)
    if np.any(step_ratio <= 1.0):
        raise DomainError(f"step_ratio must exceed 1, got {step_ratio!r}")
    return _scalarize(1.0 + 1.0 / (step_ratio - 1.0))


def _equation_terms(c: ScalingConstants, n, steps, batch_tokens):
    """Validated, broadcast loss-independent parts of the loss equation."""
    n, steps, batch_tokens = np.broadcast_arrays(
        _validated("n", n), _validated("steps", steps), _validated("batch_tokens", batch_tokens)
    )
    size_term = np.exp(c.alpha_n * (math.log(c.n_c) - np.log(n)))
    step_base = c.alpha_s * (math.log(c.s_c) - np.log(steps))
    w_base = math.log(c.b_star) - np.log(batch_tokens)
    return size_term, step_base, w_base


def _loss_equation(c: ScalingConstants, loss, size_term, step_base, w_base):
    """Residual of the finite-batch loss equation at ``loss``, and its slope.

    The one place the equation is written. With w = ln(B_crit(loss) / B),
    the step term (s_c / S_min) ** alpha_s is exp(step_base + alpha_s *
    ln(1 + e**w)), and the slope is
    -1 - step_term * (alpha_s / alpha_b) * sigmoid(w) / loss.
    """
    w = w_base - np.log(loss) / c.alpha_b
    step_term = np.exp(step_base + c.alpha_s * _log1p_exp(w))
    residual = size_term + step_term - loss
    slope = -step_term * (c.alpha_s / c.alpha_b) * _sigmoid(w) / loss - 1.0
    return residual, slope


def implicit_residual(c: ScalingConstants, loss, n, steps, batch_tokens) -> float | np.ndarray:
    """Residual of the finite-batch loss equation at a candidate loss.

    Zero exactly at the loss the law predicts for a run of ``n``
    parameters after ``steps`` steps at batch ``batch_tokens``. Strictly
    decreasing and convex in the candidate loss, which is what makes
    Newton's method from below the root safe.
    """
    loss = _validated("loss", loss)
    residual, _ = _loss_equation(c, loss, *_equation_terms(c, n, steps, batch_tokens))
    return _scalarize(residual)


def implicit_residual_derivative(c: ScalingConstants, loss, n, steps, batch_tokens) -> float | np.ndarray:
    """Derivative of implicit_residual with respect to the candidate loss.

    Always below -1: raising the candidate loss both overshoots the
    target directly and shrinks the batch penalty.
    """
    loss = _validated("loss", loss)
    _, slope = _loss_equation(c, loss, *_equation_terms(c, n, steps, batch_tokens))
    return _scalarize(slope)


def solve_loss(c: ScalingConstants, n, steps, batch_tokens, tol: float = 1e-10) -> float | np.ndarray:
    """Loss reached by a run at finite batch size, by Newton's method.

    Solves the implicit equation linking loss, model size, steps, and
    batch size. The residual is strictly decreasing in the loss, so the
    root is unique. Newton starts at the unbounded-batch loss
    L(N) + (s_c / S) ** alpha_s, where the residual is positive. The
    residual is also convex in the loss, so every Newton step lands at
    or below the root and the iterates climb to it without overshooting:
    no bracket is needed. Each point stops at its first iterate whose
    residual is within ``tol``; the others keep stepping, up to a cap of
    100 steps.

    The law behind this equation was fitted where the step-law term is
    still meaningful; predictions at batch sizes far above the critical
    batch combined with near-converged losses extrapolate it.

    Args:
        c: fitted constants.
        n: parameter count, scalar or array.
        steps: optimization steps taken.
        batch_tokens: batch size in tokens.
        tol: absolute residual tolerance, a real number in (0, 1e-3].

    Returns:
        Loss in nats for which the implicit residual is within ``tol``
        of zero, matching the broadcast shape of the inputs.

    Raises:
        SolverError: if some residual is still above ``tol`` after the
            step cap, e.g. for a tolerance rounding cannot meet.
        DomainError: on non-positive inputs or a tolerance outside
            (0, 1e-3].
    """
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < tol <= 1e-3):
        raise DomainError(f"tol must be a real number in (0, 1e-3], got {tol!r}")
    size_term, step_base, w_base = _equation_terms(c, n, steps, batch_tokens)

    # the residual is convex: each factor of the slope's step part (the step
    # term, sigmoid(w), 1 / loss) is positive and decreasing in the loss, so
    # a tangent lies below the curve and no step from left of the root passes it
    loss = size_term + np.exp(step_base)
    for _ in range(_MAX_NEWTON_STEPS):
        residual, slope = _loss_equation(c, loss, size_term, step_base, w_base)
        open_ = ~(np.abs(residual) <= tol)  # a NaN residual stays open
        if not open_.any():
            return _scalarize(loss)
        loss = np.where(open_, loss - residual / slope, loss)
    raise SolverError(f"residual stayed above {tol!r} after {_MAX_NEWTON_STEPS} Newton steps")
