"""The Newton solve in work buffers against the pass that made fresh arrays.

The reference below is the solver as it was before each pass wrote into a
fixed set of work arrays: the three inputs broadcast against each other
first, the residual and its slope returned as new arrays on every pass,
and the update taken with ``np.where``. The buffered solver must return the
same bits for every shape it accepts.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    MIXED_CONSTANTS,
    SolverError,
    implicit_residual,
    implicit_residual_derivative,
    solve_loss,
)

# ---------------------------------------------------------------------------
# the reference: broadcast terms and a fresh residual and slope every pass
# ---------------------------------------------------------------------------


def _reference_terms(c, n, steps, batch_tokens):
    n, steps, batch_tokens = np.broadcast_arrays(
        np.asarray(n, dtype=float), np.asarray(steps, dtype=float), np.asarray(batch_tokens, dtype=float)
    )
    size_term = np.exp(c.alpha_n * (math.log(c.n_c) - np.log(n)))
    step_base = c.alpha_s * (math.log(c.s_c) - np.log(steps))
    w_base = math.log(c.b_star) - np.log(batch_tokens)
    return size_term, step_base, w_base


def _reference_equation(c, loss, size_term, step_base, w_base):
    w = w_base - np.log(loss) / c.alpha_b
    log1p_exp = np.maximum(w, 0.0) + np.log1p(np.exp(-np.abs(w)))
    step_term = np.exp(step_base + c.alpha_s * log1p_exp)
    residual = size_term + step_term - loss
    sigmoid = 1.0 / (1.0 + np.exp(-np.clip(w, -700.0, 700.0)))
    slope = -step_term * (c.alpha_s / c.alpha_b) * sigmoid / loss - 1.0
    return residual, slope


def _scalarize(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


def reference_solve(c, n, steps, batch_tokens, tol=1e-10):
    size_term, step_base, w_base = _reference_terms(c, n, steps, batch_tokens)
    loss = size_term + np.exp(step_base)
    for _ in range(100):
        residual, slope = _reference_equation(c, loss, size_term, step_base, w_base)
        open_ = ~(np.abs(residual) <= tol)
        if not open_.any():
            return _scalarize(loss)
        loss = np.where(open_, loss - residual / slope, loss)
    raise SolverError("reference did not converge")


# ---------------------------------------------------------------------------
# inputs of every accepted shape
# ---------------------------------------------------------------------------

# decimal exponents: sizes 1e5..1e11, steps 1..1e7, batches 1e2..1e13 tokens
_N, _S, _B = (5.0, 6.0), (0.0, 7.0), (2.0, 11.0)


def _powers(u, span):
    return 10.0 ** (span[0] + span[1] * np.asarray(u, dtype=float))


def _layout(kind, u):
    """(n, steps, batch_tokens) of one shape kind from uniform draws ``u``."""
    n, s, b = _powers(u[0], _N), _powers(u[1], _S), _powers(u[2], _B)
    if kind == "python":
        return float(n[0]), float(s[0]), float(b[0])
    if kind == "numpy":
        return np.float64(n[0]), np.float32(s[0]), np.int64(round(b[0]))
    if kind == "0-d":
        return np.array(n[0]), np.array(s[0]), np.array(b[0])
    if kind == "grid":
        return float(n[0]), np.sort(s), float(b[0])
    if kind == "pair":
        return n[:, None], s, float(b[0])
    # a 2-D step grid against one batch per column
    return float(n[0]), s.reshape(3, 4), b[:4]


@settings(max_examples=120, deadline=None)
@given(
    c=st.sampled_from([C4_CONSTANTS, MIXED_CONSTANTS]),
    kind=st.sampled_from(["python", "numpy", "0-d", "grid", "pair", "2-d"]),
    u=st.lists(st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12), min_size=3, max_size=3),
    tol=st.sampled_from([1e-3, 1e-6, 1e-10, 1e-12]),
)
def test_solve_loss_matches_reference_bit_for_bit(c, kind, u, tol):
    n, steps, batch_tokens = _layout(kind, u)
    try:
        expected = reference_solve(c, n, steps, batch_tokens, tol=tol)
    except SolverError:
        with pytest.raises(SolverError):
            solve_loss(c, n, steps, batch_tokens, tol=tol)
        return
    got = solve_loss(c, n, steps, batch_tokens, tol=tol)
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("loss,n,steps,batch_tokens,shape", [
    (3.0, 1e8, 1e4, 1e6, ()),
    (3.0, [1e7, 1e8], 1e4, 1e6, (2,)),
    (3.0, 1e8, 1e4, [1e5, 1e6, 1e7], (3,)),
    ([3.0, 4.0], 1e8, 1e4, 1e6, (2,)),
    ([[3.0], [4.0]], [1e7, 1e8, 1e9], 1e4, 1e6, (2, 3)),
    (3.0, [[1e7], [1e8]], [1e3, 1e4, 1e5], 1e6, (2, 3)),
])
def test_implicit_terms_keep_the_broadcast_shape(loss, n, steps, batch_tokens, shape):
    c = C4_CONSTANTS
    ref_residual, ref_slope = _reference_equation(
        c, np.asarray(loss, dtype=float), *_reference_terms(c, n, steps, batch_tokens)
    )
    residual = implicit_residual(c, loss, n, steps, batch_tokens)
    slope = implicit_residual_derivative(c, loss, n, steps, batch_tokens)
    for got, ref in ((residual, ref_residual), (slope, ref_slope)):
        assert np.shape(got) == shape
        assert isinstance(got, float) if shape == () else isinstance(got, np.ndarray)
        assert np.asarray(got).tobytes() == np.broadcast_to(ref, shape).tobytes()


def test_solve_loss_peak_memory_is_a_few_arrays():
    steps = np.arange(1.0, 100_001.0)
    solve_loss(C4_CONSTANTS, 1e7, steps[:10], 1e4)
    tracemalloc.start()
    try:
        solve_loss(C4_CONSTANTS, 1e7, steps, 1e4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the loss, four float work arrays, a mask and the step term: about 6.1
    # step arrays; each pass making fresh arrays took 12.1
    assert peak <= 8 * steps.nbytes
