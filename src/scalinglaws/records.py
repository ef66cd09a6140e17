"""Containers for training-run data and basic reshaping of it.

A run is a sequence of logged samples at constant batch size, held as
one columnar store: a numpy structured array (step, tokens, loss, split)
in canonical order, by step with train before test. Both splits may log
the same steps, so steps must increase within each split only. Rows are
validated once, when a RunRecord is built; reshaping slices the store.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields, replace
from typing import Callable

import numpy as np

from .errors import ValidationError
from .laws import positive_real

SPLITS = ("train", "test")

# tokens must equal step * batch_tokens for constant-batch runs, to this
# relative slack
TOKEN_RTOL = 1e-3

# split is an object field: a fixed-width string field would truncate an
# unknown name such as "trainee" into a known one
SAMPLE_DTYPE = np.dtype([("step", float), ("tokens", float), ("loss", float), ("split", object)])


@dataclass(frozen=True)
class ConvergedRun:
    """Final loss of a run trained to convergence at one model size."""

    n_params: float
    final_loss: float

    def __post_init__(self):
        positive_real("n_params", self.n_params, error=ValidationError)
        positive_real("final_loss", self.final_loss, error=ValidationError)


@dataclass
class RunRecord:
    """A single constant-batch training run.

    Args:
        run_id: identifier carried through serialization, not interpreted.
        n_params: non-embedding parameter count of the trained model.
        batch_tokens: tokens per optimization step.
        context_length: sequence length used for training.
        dataset_tag: short name of the training corpus.
        samples: (step, tokens, loss, split) rows, a SAMPLE_DTYPE array
            or a sequence of tuples; steps strictly increasing within each
            split. Stored read-only, as SAMPLE_DTYPE, in canonical order.
        row_names: how errors name row i of the given samples ("sample
            i" by default); the log reader names file lines.
    """

    run_id: str
    n_params: float
    batch_tokens: float
    context_length: int
    dataset_tag: str
    samples: np.ndarray = ()
    row_names: InitVar[Callable[[int], str] | None] = None

    def __post_init__(self, row_names):
        if not self.run_id:
            raise ValidationError("run_id must be a non-empty string")
        for name in ("n_params", "batch_tokens", "context_length"):
            positive_real(name, getattr(self, name), error=ValidationError)
        self.samples = _canonical_samples(self, row_names or (lambda i: f"sample {i}"))

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        # the sample store compares column by column, like every other field
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def splits(self) -> tuple[str, ...]:
        """Splits present in this run, in SPLITS order."""
        present = set(self.samples["split"])
        return tuple(name for name in SPLITS if name in present)

    def split_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (steps, tokens, losses) arrays for one split, in step order."""
        rows = self.samples["split"] == split
        if not rows.any():
            raise ValidationError(f"run {self.run_id!r} has no {split!r} samples")
        return tuple(self.samples[name][rows] for name in ("step", "tokens", "loss"))

    def final_step(self) -> float:
        # canonical order sorts by step, so the last row holds the largest
        return float(self.samples["step"][-1])


def _canonical_samples(run: RunRecord, row_name: Callable[[int], str]) -> np.ndarray:
    """Check a run's rows and return them in canonical order.

    The one place that checks row values, per-split step order and
    token/step consistency. Reports the first rule broken, at its first row.
    """
    samples = np.asarray(run.samples, dtype=SAMPLE_DTYPE)
    if samples.ndim != 1 or samples.size == 0:
        raise ValidationError(f"run {run.run_id!r} has no sample rows")
    step, tokens, loss, split = (samples[name] for name in SAMPLE_DTYPE.names)
    code = np.full(samples.size, -1, dtype=np.int8)
    for k, name in enumerate(SPLITS):
        code[split == name] = k
    # each row's predecessor within its split, in the order given; -1 if none
    grouped = np.argsort(code, kind="stable")
    prev = np.full(samples.size, -1)
    prev[grouped[1:]] = np.where(code[grouped[1:]] == code[grouped[:-1]], grouped[:-1], -1)

    def order_fault(i):
        where = f"step {float(step[i])!r} in split {split[i]!r}"
        if step[i] == step[prev[i]]:
            return f"duplicate {where} (also {row_name(prev[i])})"
        return f"decreasing {where} after {float(step[prev[i]])!r} ({row_name(prev[i])})"

    with np.errstate(invalid="ignore", over="ignore"):
        expected = step * run.batch_tokens
        rules = (
            (code < 0, lambda i: f"unknown split {split[i]!r}"),
            (~(np.isfinite(step) & (step > 0)),
             lambda i: f"step must be positive, got {float(step[i])!r}"),
            (~(np.isfinite(loss) & (loss > 0)),
             lambda i: f"loss must be positive, got {float(loss[i])!r}"),
            (~(np.abs(tokens - expected) <= TOKEN_RTOL * expected),
             lambda i: f"tokens {float(tokens[i])!r} inconsistent with "
                       f"step {float(step[i])!r} at batch {run.batch_tokens!r}"),
            ((prev >= 0) & (step <= step[prev]), order_fault),
        )
    for broken, fault in rules:
        rows = np.flatnonzero(broken)
        if rows.size:
            raise ValidationError(f"{row_name(rows[0])}: {fault(rows[0])}")
    samples = samples[np.lexsort((code, step))]
    samples.flags.writeable = False
    return samples


# ---------------------------------------------------------------------------
# reshaping: warm-up trimming and smoothing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarmupTrim:
    """Rule for dropping warm-up samples from the head of a run.

    Samples with step below max(min_step, final_fraction * final step)
    are dropped. The default reflects that the first ~100 steps and the
    first few percent of any run are dominated by warm-up transients.
    ``WarmupTrim(0, 0)`` is the identity.
    """

    min_step: float = 100.0
    final_fraction: float = 0.02

    def __post_init__(self):
        positive_real("min_step", self.min_step, error=ValidationError, zero=True)
        positive_real("final_fraction", self.final_fraction, 1.0, ValidationError, zero=True)

    def threshold(self, final_step: float) -> float:
        return max(self.min_step, self.final_fraction * final_step)


def trim_warmup(run: RunRecord, trim: WarmupTrim = WarmupTrim()) -> RunRecord:
    """Drop warm-up samples from the head of a run.

    Raises:
        ValidationError: if the rule would remove every sample.
    """
    cutoff = trim.threshold(run.final_step())
    # rows are sorted by step, so the kept ones are a tail of the store
    first = int(np.searchsorted(run.samples["step"], cutoff))
    if first == len(run.samples):
        raise ValidationError(f"warm-up trim removed every sample of run {run.run_id!r}")
    if first == 0:
        return run
    return replace(run, samples=run.samples[first:])


def ema_smooth(run: RunRecord, half_life: float) -> RunRecord:
    """Smooth each split's loss with an exponential moving average.

    The decay is expressed per step, so unevenly spaced samples are
    weighted by their step gaps. A constant series maps to itself.

    Args:
        half_life: steps over which a sample's weight halves; must be > 0.
    """
    positive_real("half_life", half_life, error=ValidationError)
    samples = run.samples.copy()
    for split in run.splits():
        steps, _, losses = run.split_arrays(split)
        out = np.empty_like(losses)
        out[0] = losses[0]
        decay = np.exp2(-np.diff(steps) / half_life)
        for i in range(1, losses.size):
            out[i] = decay[i - 1] * out[i - 1] + (1.0 - decay[i - 1]) * losses[i]
        samples["loss"][samples["split"] == split] = out
    return replace(run, samples=samples)
