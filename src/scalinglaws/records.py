"""Containers for training-run data and basic reshaping of it.

A run is a sequence of logged samples (step, tokens, loss, split) at
constant batch size, held as one read-only column set (steps, tokens,
losses) per split, each in step order; a generated run's identical
splits share one set. Both splits may log the same steps, so steps must
increase within each split only. Rows are checked once, when a
RunRecord is built; reshaping slices or replaces checked columns and
checks nothing again. ``RunRecord.samples`` derives the rows on demand,
in canonical order (by step, train before test), with the split as an
int8 code, the index of its name in SPLITS.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import InitVar, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .laws import integer_at_least, positive_real

SPLITS = ("train", "test")
# split name -> the code stored in the split column
SPLIT_CODES = {name: code for code, name in enumerate(SPLITS)}

# tokens must equal step * batch_tokens for constant-batch runs, to this
# relative slack
TOKEN_RTOL = 1e-3

SAMPLE_DTYPE = np.dtype([("step", float), ("tokens", float), ("loss", float), ("split", np.int8)])
# rows given as tuples name their split; names become codes once checked
_NAMED_DTYPE = np.dtype([("step", float), ("tokens", float), ("loss", float), ("split", object)])


@dataclass(frozen=True)
class ConvergedRun:
    """Final loss of a run trained to convergence at one model size."""

    n_params: float
    final_loss: float

    def __post_init__(self):
        positive_real("n_params", self.n_params, error=ValidationError)
        positive_real("final_loss", self.final_loss, error=ValidationError)


# one or more splits' columns (steps, tokens, losses), in the order given;
# errors name position p as given row rows[p]
_ColumnSet = namedtuple("_ColumnSet", "splits rows steps tokens losses")


@dataclass(frozen=True)
class RunRecord:
    """A constant-batch training run, frozen once its rows are checked; hashed by its header.

    Args:
        run_id: non-empty string carried through serialization, not interpreted.
        n_params: non-embedding parameter count of the trained model.
        batch_tokens: tokens per optimization step.
        context_length: sequence length used for training.
        dataset_tag: short name of the training corpus, a string.
        samples: (step, tokens, loss, split) rows, a SAMPLE_DTYPE array
            (split as a code) or a sequence of tuples (split as a name);
            steps strictly increasing within each split. Stored as
            read-only columns per split; read back through the
            ``samples`` property.
        row_names: how errors name row i of the given samples ("sample
            i" by default); the log reader names file lines.
    """

    run_id: str
    n_params: float
    batch_tokens: float
    context_length: int
    dataset_tag: str
    samples: InitVar[np.ndarray | Sequence | _ColumnSet] = ()
    row_names: InitVar[Callable[[int], str] | None] = None

    def __post_init__(self, samples, row_names):
        if not (isinstance(self.run_id, str) and self.run_id):
            raise ValidationError(f"run_id must be a non-empty string, got {self.run_id!r}")
        if not isinstance(self.dataset_tag, str):
            raise ValidationError(f"dataset_tag must be a string, got {self.dataset_tag!r}")
        for name in ("n_params", "batch_tokens"):
            positive_real(name, getattr(self, name), error=ValidationError)
        integer_at_least("context_length", self.context_length, 1, ValidationError)
        row_name = row_names or (lambda i: f"sample {i}")
        groups = [samples] if isinstance(samples, _ColumnSet) else _grouped(self, samples, row_name)
        object.__setattr__(self, "_columns", _checked(self, groups, row_name))

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        # header fields by value, then each split's columns
        mine, theirs = self._columns, other._columns
        return (all(getattr(self, f.name) == getattr(other, f.name) for f in fields(self))
                and mine.keys() == theirs.keys()
                and all(np.array_equal(a, b) for s in mine for a, b in zip(mine[s], theirs[s])))

    def _with_columns(self, columns: dict) -> RunRecord:
        """This header over columns sliced or derived from checked ones: no check again."""
        run = object.__new__(RunRecord)
        run.__dict__.update(self.__dict__, _columns=columns)
        return run

    def _sample_rows(self) -> np.ndarray:
        """The samples as read-only SAMPLE_DTYPE rows, by step, train before test."""
        # train's block first, so a stable sort puts train before test at a shared step
        columns = list(self._columns.values())
        order = np.argsort(np.concatenate([c[0] for c in columns]), kind="stable")
        samples = np.empty(order.size, dtype=SAMPLE_DTYPE)
        for k, name in enumerate(SAMPLE_DTYPE.names[:3]):
            samples[name] = np.concatenate([c[k] for c in columns])[order]
        codes = [SPLIT_CODES[split] for split in self._columns]
        samples["split"] = np.repeat(codes, [c[0].size for c in columns])[order]
        samples.flags.writeable = False
        return samples

    def splits(self) -> tuple[str, ...]:
        """Splits present in this run, in SPLITS order."""
        return tuple(self._columns)

    def split_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (steps, tokens, losses) of one split, read-only, in step order."""
        try:
            return self._columns[split]
        except KeyError:
            raise ValidationError(f"run {self.run_id!r} has no {split!r} samples") from None

    def final_step(self) -> float:
        return max(float(steps[-1]) for steps, _, _ in self._columns.values())


# set after the class body, where `samples` names the InitVar: a view, not a field
RunRecord.samples = property(RunRecord._sample_rows)


def split_codes(names: np.ndarray) -> np.ndarray:
    """Each split name's int8 code, -1 for a name outside SPLITS."""
    codes = np.full(names.shape, -1, dtype=np.int8)
    for code, name in enumerate(SPLITS):
        codes[names == name] = code
    return codes


def _grouped(run: RunRecord, samples, row_name: Callable[[int], str]) -> list[_ColumnSet]:
    """Given rows as one fresh column set per split present, in the order given."""
    coded = isinstance(samples, np.ndarray) and samples.dtype == SAMPLE_DTYPE
    rows = samples if coded else np.asarray(samples, dtype=_NAMED_DTYPE)
    if rows.ndim != 1 or rows.size == 0:
        raise ValidationError(f"run {run.run_id!r} has no sample rows")
    code = rows["split"] if coded else split_codes(rows["split"])
    unknown = np.flatnonzero((code < 0) | (code >= len(SPLITS)))
    if unknown.size:
        i = unknown[0]  # a name as given, or a code outside SPLITS
        raise ValidationError(f"{row_name(i)}: unknown split {int(code[i]) if coded else rows['split'][i]!r}")
    at = [np.flatnonzero(code == k) for k in range(len(SPLITS))]
    return [_ColumnSet((split,), at[k], *(rows[name][at[k]] for name in SAMPLE_DTYPE.names[:3]))
            for k, split in enumerate(SPLITS) if at[k].size]


def _checked(run: RunRecord, groups: list[_ColumnSet], row_name: Callable[[int], str]) -> dict:
    """Check each column set's values and step order; return split -> read-only columns.

    The one place that checks row values, per-split step order and
    token/step consistency. Reports the first rule broken, at its first
    given row, over all the sets.
    """

    def order_fault(g, p):
        step, before = float(g.steps[p]), float(g.steps[p - 1])
        where = f"step {step!r} in split {g.splits[0]!r}"
        if step == before:
            return f"duplicate {where} (also {row_name(g.rows[p - 1])})"
        return f"decreasing {where} after {before!r} ({row_name(g.rows[p - 1])})"

    rules = [
        (lambda g: ~(np.isfinite(g.steps) & (g.steps > 0)),
         lambda g, p: f"step must be positive, got {float(g.steps[p])!r}"),
        (lambda g: ~(np.isfinite(g.losses) & (g.losses > 0)),
         lambda g, p: f"loss must be positive, got {float(g.losses[p])!r}"),
        (lambda g: ~(np.abs(g.tokens - g.steps * run.batch_tokens)
                     <= TOKEN_RTOL * (g.steps * run.batch_tokens)),
         lambda g, p: f"tokens {float(g.tokens[p])!r} inconsistent with "
                      f"step {float(g.steps[p])!r} at batch {run.batch_tokens!r}"),
        # values are valid by now; each set's steps must rise strictly
        (lambda g: np.diff(g.steps, prepend=-np.inf) <= 0, order_fault),
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        for broken, fault in rules:
            firsts = [(g, np.flatnonzero(broken(g))[:1]) for g in groups]
            faults = [(g.rows[at[0]], g, at[0]) for g, at in firsts if at.size]
            if faults:
                i, g, p = min(faults, key=lambda f: f[0])
                raise ValidationError(f"{row_name(i)}: {fault(g, p)}")
    for g in groups:
        for column in g[2:]:
            column.flags.writeable = False
    return {split: g[2:] for g in groups for split in g.splits}


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
    # each split's steps are sorted, so its kept samples are a tail of its columns
    firsts = {split: int(np.searchsorted(c[0], cutoff)) for split, c in run._columns.items()}
    kept = {
        split: tuple(column[firsts[split]:] for column in c)
        for split, c in run._columns.items() if firsts[split] < c[0].size
    }
    if not kept:
        raise ValidationError(f"warm-up trim removed every sample of run {run.run_id!r}")
    return run._with_columns(kept) if any(firsts.values()) else run


def ema_smooth(run: RunRecord, half_life: float) -> RunRecord:
    """Smooth each split's loss with an exponential moving average.

    The decay is expressed per step, so unevenly spaced samples are
    weighted by their step gaps. A constant series maps to itself.

    Args:
        half_life: steps over which a sample's weight halves; must be > 0.
    """
    positive_real("half_life", half_life, error=ValidationError)
    columns = {}
    for split, (steps, tokens, losses) in run._columns.items():
        out = np.empty_like(losses)
        out[0] = losses[0]
        decay = np.exp2(-np.diff(steps) / half_life)
        for i in range(1, losses.size):
            out[i] = decay[i - 1] * out[i - 1] + (1.0 - decay[i - 1]) * losses[i]
        out.flags.writeable = False
        columns[split] = (steps, tokens, out)
    return run._with_columns(columns)
