"""Staged estimation of scaling constants from training-run data.

The six constants are identified in the order the data exposes them:

1. converged losses across model sizes give (n_c, alpha_n);
2. one run at effectively unbounded batch gives (s_c, alpha_s) after
   the converged term is subtracted;
3. a batch-size scan at one model size gives equal-loss contours, each
   contour a straight line of steps against 1/batch whose intercept and
   slope are the minimum steps and minimum tokens for that loss;
4. the per-contour critical batches give (b_star, alpha_b), optionally
   post-corrected with analytic pairs derived from stages 1 and 2.

Every regression is ordinary least squares in log space; the optional
refinement of stage 4 is a damped Gauss-Newton on relative residuals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DiagnosticError,
    FitFailureError,
    InconsistentConstantsError,
    InsufficientDataError,
    ScalingLawWarning,
    ValidationError,
)
from .laws import (
    CONSTANT_NAMES,
    EXPONENT_LIMIT,
    ScalingConstants,
    critical_batch,
    integer_at_least,
    loss_at_convergence,
    positive_real,
)
from .records import SPLITS, ConvergedRun, RunRecord, WarmupTrim, ema_smooth, trim_warmup

# Post-correction pairs need an excess steps/s_min - 1 above this: near
# convergence, loss noise enters the excess multiplied by steps/s_min/excess,
# and a cut at zero would keep only upward fluctuations, biasing the pool.
_MIN_EXCESS = 0.25
# Scan runs are averaged over a centered window of this many samples before
# pairing: one measured loss sets both coordinates of a pair, so raw noise
# biases the refit slope as any error in a regressor does. A centered window
# adds no lag, and stays narrow: over a convex curve it overstates the loss
# by the width squared.
_DENOISE_WINDOW = 11
# Contour extraction compares targets with samples, and fits refinement
# windows, in blocks of at most this many cells, so neither the target
# count nor the window width bounds its memory.
_BLOCK_CELLS = 1 << 17
# Most contour targets one fit may hold (num_targets, contour_targets). Each
# kept contour costs one fit_contour call and about 0.5 KB of ContourPoints:
# on a benchmark campaign (six noisy scan runs, measured on a 2-vCPU host) a
# fit with 10**4 targets took 0.25 s and peaked at 8.7 MiB under tracemalloc,
# against 1.8 ms and 1.6 MiB with the default 5; 10**5 took 2.3 s and 87 MiB.
MAX_CONTOUR_TARGETS = 10**4
# Stage 2 reads the big-batch run as if its batch B were unbounded. The fit
# records max B_crit(L) / B over that run's losses and warns above this. On
# a noiseless C4 campaign (3000-step big run at 1e7 parameters) the ratio
# against the b_star error it causes was 1.2e-7 at B = 1e12 (-0.1 %), 1.2e-3
# at 1e8 (-0.6 %), 6.0e-3 at 2e7 (-2.5 %) and 2.3e-2 at 5e6 (-9.5 %), with
# stage-2 r^2 at 0.99999 or more in every case, so nothing else shows it.
BIG_BATCH_RATIO_LIMIT = 5e-3


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageFit:
    """Least-squares diagnostics of one regression stage."""

    slope: float
    intercept: float
    r_squared: float
    residual_std: float
    count: int


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted scale/exponent pair plus the regression behind it."""

    scale: float
    exponent: float
    stage: StageFit


@dataclass(frozen=True)
class ContourPoints:
    """Where each run of a batch scan crosses one loss value."""

    loss_target: float
    batch_tokens: np.ndarray
    steps: np.ndarray
    tokens: np.ndarray


@dataclass(frozen=True)
class ContourFit:
    """Straight-line fit of one equal-loss contour.

    steps = s_min_hat + e_min_hat / batch, so b_crit_hat is the batch
    at which the run takes twice the minimum steps and twice the
    minimum tokens.
    """

    loss_target: float
    s_min_hat: float
    e_min_hat: float
    b_crit_hat: float
    point_count: int
    residual_rms: float


@dataclass(frozen=True)
class PostCorrection:
    """Batch-law refit on pooled measured plus analytic pairs."""

    b_star: float
    alpha_b: float
    pair_count: int
    residual_rms_before: float
    residual_rms_after: float


@dataclass(frozen=True)
class DataDiagnostic:
    """Verdict on whether training data was effectively unlimited."""

    max_gap: float
    threshold: float
    data_unbounded: bool


@dataclass(frozen=True)
class BatchDiagnostic:
    """Verdict on which batch size made loss curves stationary."""

    stationary_batch: float | None
    deviations: list[tuple[float, float, float]]
    threshold: float


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the full fitting pipeline, frozen; ValidationError names a bad one.

    Attributes:
        trim: warm-up trimming applied to every trajectory, a WarmupTrim.
        split: the split every stage reads, one of SPLITS.
        smooth_half_life: EMA half-life in steps of the scan curves read for
            contours, None to disable; post-correction reads the raw runs.
        contour_targets: explicit contour losses, kept as a tuple; None
            selects num_targets values spanning the scan's common loss range.
        num_targets: automatic contour count, in [1, MAX_CONTOUR_TARGETS];
            explicit contour_targets hold at most as many.
        target_inset: fraction of the common loss range kept clear at
            both ends when selecting targets automatically, in [0, 0.5).
        refine_batch_law: run the Gauss-Newton refinement of stage 4.
        post_correct: refit the batch law on pooled analytic pairs.
    """

    trim: WarmupTrim = field(default_factory=WarmupTrim)
    split: str = "test"
    smooth_half_life: float | None = None
    contour_targets: tuple[float, ...] | None = None
    num_targets: int = 5
    target_inset: float = 0.05
    refine_batch_law: bool = False
    post_correct: bool = True

    def __post_init__(self):
        if not isinstance(self.trim, WarmupTrim):
            raise ValidationError(f"trim must be a WarmupTrim, got {self.trim!r}")
        if not (isinstance(self.split, str) and self.split in SPLITS):
            raise ValidationError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.smooth_half_life is not None:
            positive_real("smooth_half_life", self.smooth_half_life, error=ValidationError)
        if self.contour_targets is not None:
            # a tuple, so no caller can change the checked targets
            targets = _checked_targets(self.contour_targets)
            if len(targets) > MAX_CONTOUR_TARGETS:
                raise ValidationError(
                    f"contour_targets holds {len(targets)} targets, more than "
                    f"MAX_CONTOUR_TARGETS = {MAX_CONTOUR_TARGETS}"
                )
            object.__setattr__(self, "contour_targets", targets)
        _check_target_knobs(self.num_targets, self.target_inset, "target_inset")
        for name in ("refine_batch_law", "post_correct"):
            if not isinstance(getattr(self, name), bool):
                raise ValidationError(f"{name} must be True or False, got {getattr(self, name)!r}")


@dataclass(kw_only=True)
class FitReport:
    """Everything fit_full_pipeline learned.

    The batch law and its stages are None when the scan stage could not
    run; the stage-1/2 values are present either way. big_batch_ratio is
    max B_crit(L) / B over the big-batch run's trimmed losses under the
    final constants, None without a batch law.
    """

    n_c: float
    alpha_n: float
    s_c: float
    alpha_s: float
    b_star: float | None = None
    alpha_b: float | None = None
    meta: dict
    converged_stage: StageFit
    step_stage: StageFit
    contours: list[ContourFit] = field(default_factory=list)
    batch_stage: StageFit | None = None
    post_correction: PostCorrection | None = None
    big_batch_ratio: float | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.b_star is not None and self.alpha_b is not None

    @property
    def constants(self) -> ScalingConstants | None:
        """The six values as ScalingConstants, None for a partial fit."""
        if not self.complete:
            return None
        return ScalingConstants(**{k: getattr(self, k) for k in CONSTANT_NAMES}, meta=self.meta)


# ---------------------------------------------------------------------------
# regression helpers
# ---------------------------------------------------------------------------


def _ols(x: np.ndarray, y: np.ndarray) -> StageFit:
    """Centered least squares of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InsufficientDataError(f"need at least 2 points, got {x.size}")
    x_bar, y_bar = x.mean(), y.mean()
    xm = x - x_bar
    ym = y - y_bar
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise InsufficientDataError("regressor values are all identical")
    slope = float(xm @ ym) / sxx
    intercept = float(y_bar - slope * x_bar)
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum(ym**2))
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    dof = x.size - 2
    residual_std = math.sqrt(ss_res / dof) if dof > 0 else 0.0
    return StageFit(slope, intercept, r_squared, residual_std, int(x.size))


def _power_law_from_logs(stage: StageFit, what: str) -> PowerLawFit:
    """Turn ln y = intercept + slope * ln x into scale/exponent form.

    The model is y = (scale / x) ** exponent, so slope = -exponent and
    intercept = exponent * ln(scale).
    """
    exponent = -stage.slope
    positive_real(f"{what}: fitted exponent", exponent, EXPONENT_LIMIT, FitFailureError)
    scale = math.exp(stage.intercept / exponent)
    positive_real(f"{what}: fitted scale", scale, error=FitFailureError)
    return PowerLawFit(scale, exponent, stage)


def _one_model_size(runs) -> None:
    n0 = runs[0].n_params
    for run in runs[1:]:
        if abs(run.n_params - n0) > 1e-9 * n0:
            raise ValidationError(f"runs mix model sizes {n0!r} and {run.n_params!r}")


def _one_setup(runs) -> None:
    """All runs share one experiment setup: dataset tag and context length."""
    for name in ("dataset_tag", "context_length"):
        for run in runs[1:]:
            if getattr(run, name) != getattr(runs[0], name):
                raise ValidationError(
                    f"runs mix setups: run {runs[0].run_id!r} has {name} "
                    f"{getattr(runs[0], name)!r}, run {run.run_id!r} has {getattr(run, name)!r}"
                )


def _checked_targets(targets) -> tuple:
    """The one contour-target contract: a 1-D sequence of positive finite
    reals, bools refused; ValidationError names a bad target."""
    if isinstance(targets, str) or not np.iterable(targets):
        raise ValidationError(f"contour targets must be a 1-D sequence of losses, got {targets!r}")
    values = tuple(targets)
    for target in values:
        positive_real("each contour target", target, error=ValidationError)
    return values


def _check_target_knobs(num_targets, inset, inset_name: str) -> None:
    """The automatic-target rules FitOptions and default_contour_targets share."""
    integer_at_least("num_targets", num_targets, 1, ValidationError)
    if num_targets > MAX_CONTOUR_TARGETS:
        raise ValidationError(f"num_targets must be at most {MAX_CONTOUR_TARGETS}, got {num_targets!r}")
    positive_real(inset_name, inset, 0.5, ValidationError, zero=True)


# ---------------------------------------------------------------------------
# stage 1: converged losses across model sizes
# ---------------------------------------------------------------------------


def fit_converged_law(runs) -> PowerLawFit:
    """Fit the converged loss law L(N) = (n_c / N) ** alpha_n.

    Args:
        runs: ConvergedRun sequence with at least two distinct sizes.

    Returns:
        PowerLawFit with scale n_c and exponent alpha_n.

    Raises:
        InsufficientDataError: fewer than two distinct model sizes.
        FitFailureError: the fitted exponent or scale is invalid.
    """
    runs = list(runs)
    if len({r.n_params for r in runs}) < 2:
        raise InsufficientDataError("converged fit needs at least two distinct model sizes")
    ordered = sorted(runs, key=lambda r: r.n_params)
    losses = np.array([r.final_loss for r in ordered])
    if np.any(np.diff(losses) > 0):
        warnings.warn(
            "converged losses are not monotone decreasing in model size",
            ScalingLawWarning,
            stacklevel=2,
        )
    stage = _ols(np.log([r.n_params for r in ordered]), np.log(losses))
    return _power_law_from_logs(stage, "converged-loss law")


def extract_converged_run(
    run: RunRecord,
    trim: WarmupTrim = WarmupTrim(),
    split: str = "test",
    tail_fraction: float = 0.05,
) -> ConvergedRun:
    """Read a converged loss off the tail of a run's log.

    The estimate is the mean of the last ``tail_fraction`` of the
    post-warm-up samples, which suits logs of runs trained to (or past)
    convergence.
    """
    positive_real("tail_fraction", tail_fraction, error=ValidationError)
    if tail_fraction > 1:
        raise ValidationError(f"tail_fraction must lie in (0, 1], got {tail_fraction!r}")
    trimmed = trim_warmup(run, trim)
    _, _, losses = trimmed.split_arrays(split)
    k = max(1, math.ceil(tail_fraction * losses.size))
    return ConvergedRun(run.n_params, float(losses[-k:].mean()))


# ---------------------------------------------------------------------------
# stage 2: step law at unbounded batch
# ---------------------------------------------------------------------------


def fit_step_law(
    n_c: float,
    alpha_n: float,
    run: RunRecord,
    trim: WarmupTrim = WarmupTrim(),
    split: str = "test",
) -> PowerLawFit:
    """Fit the step law from one run at effectively unbounded batch.

    Subtracts the converged term implied by (n_c, alpha_n) for the
    run's model size and regresses the log excess loss on log steps.

    Raises:
        InsufficientDataError: fewer than two samples survive trimming.
        InconsistentConstantsError: some losses sit at or below the
            converged floor, i.e. stage 1 and this run disagree.
    """
    trimmed = trim_warmup(run, trim)
    steps, _, losses = trimmed.split_arrays(split)
    if steps.size < 2:
        raise InsufficientDataError("step-law fit needs at least two post-warm-up samples")
    floor = math.exp(alpha_n * (math.log(n_c) - math.log(run.n_params)))
    excess = losses - floor
    if np.any(excess <= 0):
        raise InconsistentConstantsError(
            f"{int(np.sum(excess <= 0))} samples of run {run.run_id!r} are at or below "
            f"the converged floor {floor:.6g} implied by the size law"
        )
    stage = _ols(np.log(steps), np.log(excess))
    return _power_law_from_logs(stage, "step law")


# ---------------------------------------------------------------------------
# stage 3: equal-loss contours of a batch scan
# ---------------------------------------------------------------------------


def default_contour_targets(
    runs,
    num_targets: int = 5,
    split: str = "test",
    inset: float = 0.05,
) -> np.ndarray:
    """Loss values every run of a scan crosses, evenly spaced.

    Takes the loss range shared by all runs and insets both ends by
    ``inset`` of its width, so targets stay clear of the ragged edges.
    ``inset`` lies in [0, 0.5) and ``num_targets`` in [1, MAX_CONTOUR_TARGETS].
    """
    runs = list(runs)
    if not runs:
        raise InsufficientDataError("no runs to select contour targets from")
    _check_target_knobs(num_targets, inset, "inset")
    lo = -math.inf
    hi = math.inf
    for run in runs:
        _, _, losses = run.split_arrays(split)
        lo = max(lo, float(losses.min()))
        hi = min(hi, float(losses.max()))
    if not lo < hi:
        raise InsufficientDataError(
            f"scan runs share no loss range (floor {lo:.6g} >= ceiling {hi:.6g})"
        )
    span = hi - lo
    return np.linspace(lo + inset * span, hi - inset * span, num_targets)


def _first_past(losses: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per target, the index of the first sample at or past it, seen from the
    side the curve starts on: at or below a target under the first loss, at
    or above any other. -1 where no sample is."""
    first = np.full(targets.size, -1)
    rows = max(1, _BLOCK_CELLS // losses.size)
    below = targets < losses[0]
    for side, past_of in ((below, np.less_equal), (~below, np.greater_equal)):
        index = np.flatnonzero(side)
        for b in range(0, index.size, rows):
            at = index[b : b + rows]
            past = past_of(losses, targets[at, None])
            k = past.argmax(axis=1)
            first[at] = np.where(past[np.arange(at.size), k], k, -1)
    return first


def _crossings(steps, losses, k, start, end, targets, w) -> np.ndarray:
    """Crossing steps of (run, target) pairs in the pooled columns of a scan,
    given the first sample k at or past each target and its run's [start, end)."""
    # a sample equal to the target is the crossing; otherwise the crossing
    # lies between k and the sample before, where the window is seeded
    flip = losses[k] != targets
    seed = k - flip
    crossing = steps[k]
    i, j = seed[flip], k[flip]
    frac = (targets[flip] - losses[i]) / (losses[j] - losses[i])
    ln_lo, ln_hi = np.log(steps[i]), np.log(steps[j])
    crossing[flip] = np.exp(ln_lo + frac * (ln_hi - ln_lo))
    lo = np.maximum(start, seed - w)
    hi = np.minimum(end, seed + w + 2)
    fit = np.flatnonzero(hi - lo >= 4)
    if fit.size:
        lo, hi, targets = lo[fit], hi[fit], targets[fit]
        count = hi - lo
        offsets = np.arange(count.max())
        inside = offsets < count[:, None]
        # cells past a window's end re-read its first sample and are masked out
        at = np.where(inside, lo[:, None] + offsets, lo[:, None])
        x, y = np.log(steps[at]), losses[at]
        x_bar = np.sum(x, axis=1, where=inside) / count
        y_bar = np.sum(y, axis=1, where=inside) / count
        dx = x - x_bar[:, None]
        sxx = np.sum(dx * dx, axis=1, where=inside)
        sxy = np.sum(dx * (y - y_bar[:, None]), axis=1, where=inside)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = sxy / sxx
            root = (targets - (y_bar - slope * x_bar)) / slope
        # the line's root replaces the seed only inside a falling window
        ok = (sxx > 0) & (slope < 0) & (root >= x[:, 0]) & (root <= np.log(steps[hi - 1]))
        crossing[fit[ok]] = np.exp(root[ok])
    return crossing


def extract_contours(
    runs, targets, split: str = "test", refine_window: int = 25
) -> list[ContourPoints]:
    """Find where each run of a batch scan crosses each target loss.

    A run crosses a target at its first sample at or past it, seen from
    the side the run starts on: at or below a target under its first
    loss, at or above any other. A sample equal to the target is the
    crossing; otherwise the crossing is interpolated in log step between
    that sample and the one before. The raw crossing is biased early
    under noise (any blip past the target wins), so it only seeds a
    window of the run's samples, ``refine_window`` before it to
    ``refine_window + 1`` after it, clipped to the run's own samples; the
    line fit of loss against log step over that window places the
    crossing instead. A window of fewer than 4 samples, a slope that is
    not negative, or a root outside the window keeps the interpolated
    crossing. All (run, target) pairs are solved together.

    Args:
        runs: RunRecords at one model size, assumed warm-up trimmed.
        targets: loss values to trace, a 1-D sequence of positive finite
            reals (bools refused).
        split: split to read losses from.
        refine_window: half-width, in samples, of the local line fit
            around each raw crossing; 0 keeps the raw interpolation.

    Returns:
        One ContourPoints per target that at least two runs crossed;
        targets with fewer crossings are dropped with a warning, as are
        runs that never reach a target.
    """
    runs = list(runs)
    if not runs:
        raise InsufficientDataError("no scan runs given")
    _one_model_size(runs)
    integer_at_least("refine_window", refine_window, 0, ValidationError)
    targets = np.array(_checked_targets(targets), dtype=float)
    curves = [run.split_arrays(split) for run in runs]
    sizes = np.array([losses.size for _, _, losses in curves])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    steps = np.concatenate([s for s, _, _ in curves])
    losses = np.concatenate([l for _, _, l in curves])

    first = np.stack([_first_past(l, targets) for _, _, l in curves])
    crossed = first >= 0
    run_of, target_of = np.nonzero(crossed)
    at_step = np.full(first.shape, np.nan)
    # a window wider than the longest run fits the same samples
    w = min(refine_window, int(sizes.max()))
    rows = max(1, _BLOCK_CELLS // (2 * w + 2))
    for block in range(0, run_of.size, rows):
        r, c = run_of[block : block + rows], target_of[block : block + rows]
        at_step[r, c] = _crossings(
            steps, losses, starts[r] + first[r, c], starts[r], ends[r], targets[c], w
        )

    # one loop per target is left: the warnings, in order, and the contours
    batches = np.array([run.batch_tokens for run in runs])
    counts = crossed.sum(axis=0)
    contours = []
    for column, target in enumerate(targets):
        kept = crossed[:, column]
        for run, hit in zip(runs, kept):
            if not hit:
                warnings.warn(
                    f"run {run.run_id!r} never crosses loss {target:.6g}",
                    ScalingLawWarning,
                    stacklevel=2,
                )
        if counts[column] < 2:
            warnings.warn(
                f"contour at loss {target:.6g} has {counts[column]} points and was dropped",
                ScalingLawWarning,
                stacklevel=2,
            )
            continue
        b = batches[kept]
        s = at_step[kept, column]
        contours.append(ContourPoints(float(target), b, s, b * s))
    return contours


def fit_contour(points: ContourPoints) -> ContourFit:
    """Fit steps = s_min + e_min / batch to one contour.

    Raises:
        InsufficientDataError: fewer than two points.
        FitFailureError: non-positive intercept or slope, meaning the
            points do not describe a step/token trade-off.
    """
    stage = _ols(1.0 / points.batch_tokens, points.steps)
    s_min, e_min = stage.intercept, stage.slope
    if s_min <= 0 or e_min <= 0:
        raise FitFailureError(
            f"contour at loss {points.loss_target:.6g} fit s_min={s_min:.4g}, "
            f"e_min={e_min:.4g}; both must be positive"
        )
    resid = points.steps - (s_min + e_min / points.batch_tokens)
    return ContourFit(
        loss_target=points.loss_target,
        s_min_hat=float(s_min),
        e_min_hat=float(e_min),
        b_crit_hat=float(e_min / s_min),
        point_count=int(points.steps.size),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


# ---------------------------------------------------------------------------
# stage 4: critical batch law across contours
# ---------------------------------------------------------------------------


def _gauss_newton(residual_and_jacobian, theta0, max_iter=100, rel_step_tol=1e-10):
    """Damped Gauss-Newton, guaranteed not to increase the squared residual."""
    theta = np.asarray(theta0, dtype=float)
    r, jac = residual_and_jacobian(theta)
    cost = float(r @ r)
    for _ in range(max_iter):
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        scale = 1.0
        for _ in range(30):
            candidate = theta + scale * step
            r_new, jac_new = residual_and_jacobian(candidate)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                break
            scale *= 0.5
        else:
            return theta
        converged = np.all(np.abs(scale * step) <= rel_step_tol * (np.abs(theta) + rel_step_tol))
        theta, r, jac, cost = candidate, r_new, jac_new, cost_new
        if converged:
            break
    return theta


def _fit_batch_pairs(ln_l: np.ndarray, ln_b: np.ndarray, refine: bool) -> PowerLawFit:
    """Fit b_crit = b_star / loss ** (1 / alpha_b) to (ln loss, ln b_crit) pairs."""
    stage = _ols(ln_l, ln_b)
    if stage.slope >= 0:
        raise FitFailureError(
            f"critical batch grows with loss (slope {stage.slope:.4g}); law not identifiable"
        )
    alpha_b = -1.0 / stage.slope
    b_star = math.exp(stage.intercept)
    if refine:
        # relative residuals in linear space; seeding alpha_b inside
        # (0, 0.5) keeps the exponent iteration stable
        seeded = min(max(alpha_b, 1e-3), 0.5 - 1e-9)

        def rj(theta):
            ln_b_star, inv_alpha = theta
            pred_ratio = np.exp(ln_b_star - inv_alpha * ln_l - ln_b)
            r = pred_ratio - 1.0
            jac = np.column_stack([pred_ratio, -ln_l * pred_ratio])
            return r, jac

        ln_b_star, inv_alpha = _gauss_newton(rj, [math.log(b_star), 1.0 / seeded])
        if inv_alpha <= 0 or not math.isfinite(ln_b_star):
            raise FitFailureError("batch-law refinement left the valid parameter region")
        alpha_b = 1.0 / inv_alpha
        b_star = math.exp(ln_b_star)
    positive_real("fitted alpha_b", alpha_b, EXPONENT_LIMIT, FitFailureError)
    positive_real("fitted b_star", b_star, error=FitFailureError)
    return PowerLawFit(b_star, alpha_b, stage)


def fit_critical_batch_law(contours, refine: bool = False) -> PowerLawFit:
    """Fit the critical batch law from per-contour estimates.

    Args:
        contours: ContourFit sequence, at least two.
        refine: additionally run a damped Gauss-Newton on relative
            residuals, seeded from the least-squares solution.

    Returns:
        PowerLawFit with scale b_star and exponent alpha_b.
    """
    contours = list(contours)
    if len(contours) < 2:
        raise InsufficientDataError("critical-batch fit needs at least two contours")
    ln_l = np.log([f.loss_target for f in contours])
    ln_b = np.log([f.b_crit_hat for f in contours])
    return _fit_batch_pairs(ln_l, ln_b, refine)


def _batch_law_rms(ln_l, ln_b, b_star, alpha_b) -> float:
    resid = ln_b - (math.log(b_star) - ln_l / alpha_b)
    return float(np.sqrt(np.mean(resid**2)))


def post_correct_batch_law(
    candidate: ScalingConstants,
    scan_runs,
    contours=(),
    split: str = "test",
    refine: bool = False,
) -> PostCorrection:
    """Refit the batch law on measured plus analytically derived pairs.

    Stages 1 and 2 pin the unbounded-batch step count for any observed
    loss, so every sample of every scan run yields its own critical
    batch estimate, b_crit = batch * (steps / s_min(loss) - 1), denoised
    and cut as _DENOISE_WINDOW and _MIN_EXCESS say. Pooling these with the
    per-contour estimates and refitting usually sharpens (b_star, alpha_b).

    Args:
        candidate: complete constants from the preceding stages.
        scan_runs: warm-up trimmed scan runs.
        contours: ContourFit sequence whose pairs join the pool.
        split: split to read losses from.
        refine: passed through to the pooled refit.

    Returns:
        PostCorrection with the refit values and the pooled residual
        before and after. With no usable scan samples the candidate's
        values are returned unchanged under a warning.
    """
    pooled_l = [np.array([f.loss_target for f in contours])]
    pooled_b = [np.array([f.b_crit_hat for f in contours])]
    analytic = 0
    for run in scan_runs:
        steps, _, losses = run.split_arrays(split)
        if losses.size >= 2 * _DENOISE_WINDOW:
            kernel = np.full(_DENOISE_WINDOW, 1.0 / _DENOISE_WINDOW)
            losses = np.convolve(losses, kernel, mode="valid")
            half = _DENOISE_WINDOW // 2
            steps = steps[half : half + losses.size]
        floor = loss_at_convergence(candidate, run.n_params)
        excess = losses - floor
        with np.errstate(invalid="ignore", divide="ignore"):
            s_min = candidate.s_c * np.where(excess > 0, excess, np.nan) ** (-1.0 / candidate.alpha_s)
            ratio = steps / s_min - 1.0
        keep = np.isfinite(ratio) & (ratio > _MIN_EXCESS)
        if np.any(keep):
            analytic += int(np.sum(keep))
            pooled_l.append(losses[keep])
            pooled_b.append(run.batch_tokens * ratio[keep])
    # the logs are taken once: the refit and both residuals read them
    ln_l = np.log(np.concatenate(pooled_l))
    ln_b = np.log(np.concatenate(pooled_b))
    before = _batch_law_rms(ln_l, ln_b, candidate.b_star, candidate.alpha_b) if ln_l.size else math.nan
    if analytic == 0:
        warnings.warn(
            "no scan samples usable for post-correction; batch law left unchanged",
            ScalingLawWarning,
            stacklevel=2,
        )
        return PostCorrection(
            candidate.b_star, candidate.alpha_b, int(ln_l.size), before, before
        )
    refit = _fit_batch_pairs(ln_l, ln_b, refine)
    after = _batch_law_rms(ln_l, ln_b, refit.scale, refit.exponent)
    return PostCorrection(refit.scale, refit.exponent, int(ln_l.size), before, after)


# ---------------------------------------------------------------------------
# regime diagnostics
# ---------------------------------------------------------------------------


def _largest_gap(steps, losses, ref_steps, ref_losses) -> float | None:
    """Largest |loss - reference| over the steps inside the reference's
    step range, the reference interpolated in log step; None if no step is."""
    inside = (steps >= ref_steps[0]) & (steps <= ref_steps[-1])
    if not np.any(inside):
        return None
    interp = np.interp(np.log(steps[inside]), np.log(ref_steps), ref_losses)
    return float(np.abs(interp - losses[inside]).max())


def diagnose_infinite_data(
    run: RunRecord,
    threshold: float = 0.01,
    trim: WarmupTrim = WarmupTrim(),
) -> DataDiagnostic:
    """Check whether a run's train/test gap is small enough to ignore.

    Args:
        run: a run carrying both splits; test losses are interpolated,
            in log step, onto the train steps.
        threshold: largest tolerable absolute gap in nats.

    Raises:
        DiagnosticError: a split is missing or the grids do not overlap.
    """
    positive_real("threshold", threshold, error=ValidationError)
    trimmed = trim_warmup(run, trim)
    if set(trimmed.splits()) != {"train", "test"}:
        raise DiagnosticError(
            f"run {run.run_id!r} needs both splits, has {trimmed.splits()!r}"
        )
    tr_steps, _, tr_losses = trimmed.split_arrays("train")
    te_steps, _, te_losses = trimmed.split_arrays("test")
    max_gap = _largest_gap(tr_steps, tr_losses, te_steps, te_losses)
    if max_gap is None:
        raise DiagnosticError(f"run {run.run_id!r}: splits share no step range")
    return DataDiagnostic(max_gap, threshold, max_gap < threshold)


def diagnose_infinite_batch(
    runs,
    threshold: float = 0.005,
    trim: WarmupTrim = WarmupTrim(),
    split: str = "test",
) -> BatchDiagnostic:
    """Find the smallest batch whose loss curve has stopped moving.

    Compares each run's curve with the next larger batch's curve on
    their shared step range; the first pair closer than ``threshold``
    everywhere names the stationary batch.

    Args:
        runs: at least two runs at one model size, batches strictly
            increasing.

    Returns:
        BatchDiagnostic; ``stationary_batch`` is None when every pair
        still differs by the threshold or more.
    """
    positive_real("threshold", threshold, error=ValidationError)
    runs = list(runs)
    if len(runs) < 2:
        raise InsufficientDataError("batch diagnostic needs at least two runs")
    _one_model_size(runs)
    _one_setup(runs)
    batches = [r.batch_tokens for r in runs]
    if np.any(np.diff(batches) <= 0):
        raise ValidationError(f"batches must be strictly increasing, got {batches!r}")
    curves = []
    for run in runs:
        trimmed = trim_warmup(run, trim)
        steps, _, losses = trimmed.split_arrays(split)
        curves.append((steps, losses))
    deviations = []
    stationary = None
    for i in range(len(runs) - 1):
        dev = _largest_gap(*curves[i], *curves[i + 1])
        if dev is None:
            warnings.warn(
                f"runs at batches {batches[i]:g} and {batches[i + 1]:g} share no steps",
                ScalingLawWarning,
                stacklevel=2,
            )
            deviations.append((batches[i], batches[i + 1], math.inf))
            continue
        deviations.append((batches[i], batches[i + 1], dev))
        if stationary is None and dev < threshold:
            stationary = batches[i]
    return BatchDiagnostic(stationary, deviations, threshold)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def fit_batch_stage(scan_runs, options: FitOptions | None = None) -> tuple:
    """Stages 3 and 4: trim, order by batch, smooth, fit contours and the batch law.

    Returns (runs, contours, law): the trimmed runs in batch order, so
    the order given changes no result, with their measured losses; a
    ContourFit per kept contour; and the PowerLawFit of (b_star, alpha_b).

    Raises:
        InsufficientDataError: no contour has two or more crossings.
    """
    opts = options or FitOptions()
    scan_runs = list(scan_runs)
    _one_setup(scan_runs)
    runs = [trim_warmup(run, opts.trim) for run in scan_runs]
    # the one sort: contour points, and every sum over them, follow batch order
    runs.sort(key=lambda r: r.batch_tokens)
    # smoothing feeds the contours only: its lag would bias the pairs that
    # post-correction builds from the returned runs, which it denoises itself;
    # the contours read one split, so only that split is smoothed
    curves = runs
    if opts.smooth_half_life is not None:
        curves = [
            ema_smooth(run._with_columns({opts.split: run.split_arrays(opts.split)}),
                       opts.smooth_half_life)
            for run in runs
        ]
    targets = opts.contour_targets
    if targets is None:
        targets = default_contour_targets(
            curves, opts.num_targets, split=opts.split, inset=opts.target_inset
        )
    points = extract_contours(curves, targets, split=opts.split)
    if not points:
        raise InsufficientDataError("no contour has two or more crossings")
    contours = [fit_contour(p) for p in points]
    return runs, contours, fit_critical_batch_law(contours, refine=opts.refine_batch_law)


def fit_full_pipeline(
    converged,
    big_batch_run: RunRecord,
    scan_runs=(),
    options: FitOptions | None = None,
) -> FitReport:
    """Run all fitting stages and assemble the constants.

    Args:
        converged: ConvergedRun sequence for stage 1.
        big_batch_run: one run at effectively unbounded batch for
            stage 2.
        scan_runs: batch scan for stages 3 and 4; with none given the
            report is marked incomplete and carries no batch law.
        options: pipeline knobs, defaults throughout when None.

    Returns:
        FitReport; it is ``complete`` and its ``constants`` are a full
        ScalingConstants exactly when the scan stages ran.
    """
    opts = options or FitOptions()
    converged = list(converged)
    scan_runs = list(scan_runs)
    _one_setup([big_batch_run, *scan_runs])

    size_fit = fit_converged_law(converged)
    step_fit = fit_step_law(
        size_fit.scale, size_fit.exponent, big_batch_run, trim=opts.trim, split=opts.split
    )

    meta = {
        "dataset_tag": big_batch_run.dataset_tag,
        "context_length": big_batch_run.context_length,
        "converged_runs": len(converged),
        "scan_runs": len(scan_runs),
    }
    # stages 3 and 4 fill in the batch law
    report = FitReport(
        n_c=size_fit.scale,
        alpha_n=size_fit.exponent,
        s_c=step_fit.scale,
        alpha_s=step_fit.exponent,
        meta=meta,
        converged_stage=size_fit.stage,
        step_stage=step_fit.stage,
    )
    if not scan_runs:
        message = "no scan runs given; batch law not fitted"
        warnings.warn(message, ScalingLawWarning, stacklevel=2)
        report.warnings.append(message)
        return report

    runs, report.contours, batch_fit = fit_batch_stage(scan_runs, opts)
    report.batch_stage = batch_fit.stage
    report.b_star, report.alpha_b = batch_fit.scale, batch_fit.exponent
    if opts.post_correct:
        # the candidate constants carry the contour-only batch law
        post = post_correct_batch_law(
            report.constants, runs, report.contours,
            split=opts.split, refine=opts.refine_batch_law,
        )
        report.post_correction = post
        report.b_star, report.alpha_b = post.b_star, post.alpha_b
    # stage 2 took the big batch as unbounded: say when the final law disagrees
    _, _, losses = trim_warmup(big_batch_run, opts.trim).split_arrays(opts.split)
    ratio = float(np.max(critical_batch(report.constants, losses))) / big_batch_run.batch_tokens
    report.big_batch_ratio = ratio
    if ratio > BIG_BATCH_RATIO_LIMIT:
        message = (
            f"big-batch run {big_batch_run.run_id!r} reaches a critical batch of {ratio:.3g} "
            f"times its batch (limit {BIG_BATCH_RATIO_LIMIT:g}); stage 2 takes its batch as "
            "unbounded, so s_c and the batch law are biased"
        )
        warnings.warn(message, ScalingLawWarning, stacklevel=2)
        report.warnings.append(message)
    return report
