"""Synthetic training runs drawn exactly from a set of scaling constants.

Every generator is deterministic given its noise seed, and independent
sub-streams keep runs generated one at a time identical to runs
generated in a batch. Runs are built as columns, then validated once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .laws import ScalingConstants, integer_at_least, loss_at_convergence, positive_real, solve_loss
from .records import SPLITS, ConvergedRun, RunRecord, _ColumnSet

_DEFAULT_CONTEXT = 1024


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise applied to generated losses.

    Multiplicative log-normal noise multiplies each loss by
    exp(sigma * z) with z standard normal, so it is unbiased in log
    space. ``sigma=0`` disables it.
    """

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        positive_real("sigma", self.sigma, error=ValidationError, zero=True)
        integer_at_least("seed", self.seed, 0, ValidationError)

    def factors(self, count: int, stream: int = 0) -> np.ndarray:
        """Noise factors for one run, drawn from an independent sub-stream."""
        if self.sigma == 0.0:
            return np.ones(count)
        rng = np.random.default_rng([self.seed, stream])
        return np.exp(self.sigma * rng.standard_normal(count))


@dataclass(frozen=True)
class WarmupSpec:
    """Additive warm-up inflation, in nats, decaying linearly to zero.

    A sample at step s gets inflation * max(0, 1 - s / length) added
    before noise is applied. ``length=0`` disables it.
    """

    length: float = 0.0
    inflation: float = 0.0

    def __post_init__(self):
        positive_real("length", self.length, error=ValidationError, zero=True)
        positive_real("inflation", self.inflation, error=ValidationError, zero=True)

    def added(self, steps: np.ndarray) -> np.ndarray:
        if self.length == 0.0 or self.inflation == 0.0:
            return np.zeros_like(steps)
        return self.inflation * np.clip(1.0 - steps / self.length, 0.0, None)


def _step_grid(num_steps: int, log_every: int) -> np.ndarray:
    integer_at_least("num_steps", num_steps, 1, ValidationError)
    integer_at_least("log_every", log_every, 1, ValidationError)
    steps = np.arange(log_every, num_steps + 1, log_every, dtype=float)
    if steps.size == 0 or steps[-1] != num_steps:
        steps = np.append(steps, float(num_steps))
    return steps


def _to_record(run_id, c, n, batch_tokens, steps, losses) -> RunRecord:
    context = c.meta.get("context_length", _DEFAULT_CONTEXT)
    integer_at_least('meta["context_length"]', context, 1, ValidationError)
    # one column set for both splits; errors name each step's train row, 2 * position,
    # as in the canonical rows
    columns = _ColumnSet(SPLITS, range(0, 2 * steps.size, 2), steps, steps * float(batch_tokens), losses)
    return RunRecord(
        run_id=run_id,
        n_params=float(n),
        batch_tokens=float(batch_tokens),
        context_length=context,
        dataset_tag=c.meta.get("dataset_tag", "synthetic"),
        samples=columns,
    )


def gen_converged_suite(
    c: ScalingConstants,
    sizes,
    noise: NoiseSpec = NoiseSpec(),
) -> list[ConvergedRun]:
    """Converged losses for a list of model sizes, from noise stream 0.

    Args:
        c: generating constants.
        sizes: parameter counts; repeats are allowed and redrawn.
        noise: per-size measurement noise.
    """
    sizes = np.atleast_1d(np.asarray(sizes, dtype=float))
    losses = np.atleast_1d(loss_at_convergence(c, sizes)) * noise.factors(sizes.size)
    return [ConvergedRun(float(n), float(l)) for n, l in zip(sizes, losses)]


def gen_trajectory(
    c: ScalingConstants,
    n,
    batch_tokens,
    num_steps: int,
    noise: NoiseSpec = NoiseSpec(),
    warmup: WarmupSpec = WarmupSpec(),
    log_every: int = 1,
    run_id: str | None = None,
    stream: int = 0,
) -> RunRecord:
    """One constant-batch training run sampled from the loss surface.

    Train and test splits are emitted with identical values: the law
    lives in the data-unbounded regime where the two do not separate.

    Args:
        c: generating constants.
        n: model size in parameters.
        batch_tokens: batch size in tokens.
        num_steps: final step; the grid is every ``log_every``-th step
            plus the final one.
        noise: measurement noise, applied after warm-up inflation.
        warmup: additive warm-up transient.
        log_every: logging stride in steps.
        run_id: defaults to a descriptive synthetic id.
        stream: sub-stream index of the noise: runs that share a
            NoiseSpec draw independent noise when their streams differ.
    """
    steps = _step_grid(num_steps, log_every)
    clean = np.atleast_1d(solve_loss(c, n, steps, batch_tokens))
    observed = (clean + warmup.added(steps)) * noise.factors(steps.size, stream)
    if run_id is None:
        run_id = f"sim-n{float(n):g}-b{float(batch_tokens):g}-r{stream}"
    return _to_record(run_id, c, n, batch_tokens, steps, observed)


def gen_batch_scan(
    c: ScalingConstants,
    n,
    batches,
    num_steps,
    noise: NoiseSpec = NoiseSpec(),
    warmup: WarmupSpec = WarmupSpec(),
    log_every: int = 1,
) -> list[RunRecord]:
    """A batch-size scan: one run per batch at a fixed model size.

    Args:
        batches: at least two distinct batch sizes; duplicates rejected.
        num_steps: final step for every run, or one value per batch
            (small batches need more steps to reach the same losses).

    Returns:
        Runs ordered by increasing batch size.
    """
    batches = [float(b) for b in batches]
    if len(batches) < 2:
        raise ValidationError("a batch scan needs at least two batch sizes")
    if len(set(batches)) != len(batches):
        raise ValidationError(f"duplicate batch sizes in {batches!r}")
    # each entry reaches _step_grid as given, so a fraction is refused, not truncated
    per_batch = [num_steps] * len(batches) if np.ndim(num_steps) == 0 else list(num_steps)
    if len(per_batch) != len(batches):
        raise ValidationError("num_steps must be one value or one per batch")
    order = np.argsort(batches)
    # the run of rank i draws noise stream 1 + i, clear of gen_trajectory's default 0
    return [
        gen_trajectory(
            c, n, batches[i], per_batch[i],
            noise=noise, warmup=warmup, log_every=log_every,
            stream=1 + int(rank),
        )
        for rank, i in enumerate(order)
    ]


def gen_converged_log(
    c: ScalingConstants,
    n,
    batch_tokens=1e12,
    samples: int = 120,
    noise: NoiseSpec = NoiseSpec(),
    stream: int = 0,
) -> RunRecord:
    """The logged tail of a run already trained to convergence.

    Every sample sits at the converged loss for ``n`` (plus noise); the
    steps just index the tail. This is the file-shaped counterpart of a
    ConvergedRun, for pipelines that ingest everything as run logs. Its
    run id is ``sim-converged-n{n:g}-r{stream}``.
    """
    integer_at_least("samples", samples, 1, ValidationError)
    # the tail's steps only index it: 10000, 10100, ...
    steps = 10_000.0 + 100.0 * np.arange(samples, dtype=float)
    level = loss_at_convergence(c, n)
    observed = level * noise.factors(samples, stream)
    return _to_record(f"sim-converged-n{float(n):g}-r{stream}", c, n, batch_tokens, steps, observed)
