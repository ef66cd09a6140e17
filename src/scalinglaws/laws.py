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

The Newton pass. The loss-free parts of the equation (the size term, and
the step and batch parts of the exponents) are computed once, each at its
own input's shape. Each pass then evaluates the residual into four work
arrays that are allocated once per call at the broadcast shape, and writes
the next iterate over the loss array where a point is still open. The
slope is computed only while some point is still open, so the last pass
computes the residual alone. A 0-d problem runs the same steps on numpy
scalars, which are cheaper there than 0-d arrays. Each step rounds as the
formula written with fresh arrays does (a sign moved onto a divisor or a
factor is exact), so the results are the same bits.

All functions broadcast over numpy arrays and return scalars for
scalar input.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "C4_CONSTANTS",
    "MIXED_CONSTANTS",
    "ScalingConstants",
    "critical_batch",
    "implicit_residual",
    "implicit_residual_derivative",
    "loss_at_convergence",
    "loss_at_min_steps",
    "min_steps_from_steps",
    "solve_loss",
    "steps_from_min_steps",
    "tradeoff_token_ratio",
]

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


def real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, if every entry is an integer or a float.

    Bools, strings, bytes, complex numbers and other objects raise
    DomainError naming the value; none is converted. That includes a bool
    inside a list, which numpy would promote to a number.
    """
    try:
        raw = np.asarray(value)
    except ValueError:  # a ragged nesting
        raw = np.asarray(None)
    if raw.dtype.kind not in "iuf" or (
        isinstance(value, (list, tuple))
        and not {bool, np.bool_}.isdisjoint(map(type, np.asarray(value, dtype=object).flat))
    ):
        raise DomainError(
            f"{name} must hold floats or float-range integers, never bools, strings "
            f"or complex numbers, got {value!r}"
        )
    return raw.astype(float, copy=False)


def _validated(name, value):
    """real_array, with every entry positive and finite."""
    arr = real_array(name, value)
    # min and max propagate NaN, so the comparisons refuse it too
    if arr.size == 0 or not (arr.min() > 0 and arr.max() < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return arr


def _scalarize(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


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
    """Validated loss-independent parts of the loss equation, each at its input's shape."""
    size_term = np.exp(c.alpha_n * (math.log(c.n_c) - np.log(_validated("n", n))))
    step_base = c.alpha_s * (math.log(c.s_c) - np.log(_validated("steps", steps)))
    w_base = math.log(c.b_star) - np.log(_validated("batch_tokens", batch_tokens))
    return size_term, step_base, w_base


def _work_buffers(*operands):
    """Work buffers for Newton passes at the broadcast shape of ``operands``.

    Four float arrays and a bool mask, written over by every pass. A 0-d
    problem gets None for each: its passes run on numpy scalars, whose
    arithmetic costs a fraction of a 0-d array's. The in-place operators
    of _residual and _slope then make new scalars instead.
    """
    shape = np.broadcast(*operands).shape
    if not shape:
        return [None] * 5
    return [np.empty(shape) for _ in range(4)] + [np.empty(shape, dtype=bool)]


def _residual(c: ScalingConstants, loss, terms, work):
    """Residual of the finite-batch loss equation at ``loss``, with w and the step term.

    The one place the equation is written, with _slope. With
    w = ln(B_crit(loss) / B), the step term (s_c / S_min) ** alpha_s is
    exp(step_base + alpha_s * ln(1 + e**w)). Each step writes over the
    arrays of ``work`` (see _work_buffers); returns (w, step_term, residual).
    """
    size_term, step_base, w_base = terms
    w_out, t_out, step_out, res_out, _ = work
    # w_base - ln(loss) / alpha_b, the sign moved onto the divisor
    w = np.log(loss, out=w_out)
    w /= -c.alpha_b
    w += w_base
    # ln(1 + e**w) without overflow: max(w, 0) + log1p(e**-|w|)
    t = np.abs(w, out=t_out)
    t *= -1.0
    t = np.exp(t, out=t_out)
    t = np.log1p(t, out=t_out)
    step_term = np.maximum(w, 0.0, out=step_out)
    step_term += t
    step_term *= c.alpha_s
    step_term += step_base
    step_term = np.exp(step_term, out=step_out)
    residual = np.add(size_term, step_term, out=res_out)
    residual -= loss
    return w, step_term, residual


def _slope(c: ScalingConstants, loss, w, step_term, work):
    """Turn _residual's w and step term into the slope at ``loss``, over the step term.

    The slope is -1 - step_term * (alpha_s / alpha_b) * sigmoid(w) / loss.
    """
    w_out = work[0]
    # sigmoid(w) = 1 / (1 + e**-w), w clipped to +-700 so e**-w stays finite
    w = np.maximum(w, -700.0, out=w_out)
    w = np.minimum(w, 700.0, out=w_out)
    w *= -1.0
    w = np.exp(w, out=w_out)
    w += 1.0
    w = np.reciprocal(w, out=w_out)
    step_term *= -(c.alpha_s / c.alpha_b)
    step_term *= w
    step_term /= loss
    step_term -= 1.0
    return step_term


def implicit_residual(c: ScalingConstants, loss, n, steps, batch_tokens) -> float | np.ndarray:
    """Residual of the finite-batch loss equation at a candidate loss.

    Zero exactly at the loss the law predicts for a run of ``n``
    parameters after ``steps`` steps at batch ``batch_tokens``. Strictly
    decreasing and convex in the candidate loss, which is what makes
    Newton's method from below the root safe.
    """
    loss = _validated("loss", loss)
    terms = _equation_terms(c, n, steps, batch_tokens)
    _, _, residual = _residual(c, loss, terms, _work_buffers(loss, *terms))
    return _scalarize(residual)


def implicit_residual_derivative(c: ScalingConstants, loss, n, steps, batch_tokens) -> float | np.ndarray:
    """Derivative of implicit_residual with respect to the candidate loss.

    Always below -1: raising the candidate loss both overshoots the
    target directly and shrinks the batch penalty.
    """
    loss = _validated("loss", loss)
    terms = _equation_terms(c, n, steps, batch_tokens)
    work = _work_buffers(loss, *terms)
    w, step_term, _ = _residual(c, loss, terms, work)
    return _scalarize(_slope(c, loss, w, step_term, work))


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
    terms = _equation_terms(c, n, steps, batch_tokens)
    size_term, step_base, _ = terms
    work = _work_buffers(*terms)
    _, t_out, _, _, mask = work
    loss_out = None if mask is None else np.empty(mask.shape)

    # the residual is convex: each factor of the slope's step part (the step
    # term, sigmoid(w), 1 / loss) is positive and decreasing in the loss, so
    # a tangent lies below the curve and no step from left of the root passes it
    loss = np.exp(step_base, out=loss_out)
    loss += size_term
    for _ in range(_MAX_NEWTON_STEPS):
        w, step_term, residual = _residual(c, loss, terms, work)
        open_ = np.less_equal(np.abs(residual, out=t_out), tol, out=mask)
        open_ = np.logical_not(open_, out=mask)  # a NaN residual stays open
        if not open_.any():
            return _scalarize(loss)
        # the slope only while some point is open
        residual /= _slope(c, loss, w, step_term, work)
        loss = np.subtract(loss, residual, out=loss_out, where=open_)
    raise SolverError(f"residual stayed above {tol!r} after {_MAX_NEWTON_STEPS} Newton steps")
