"""Run records: validation, trimming, smoothing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    ConvergedRun,
    RunRecord,
    ValidationError,
    WarmupTrim,
    ema_smooth,
    gen_trajectory,
    trim_warmup,
)
from scalinglaws.records import SAMPLE_DTYPE, SPLIT_CODES, SPLITS, TOKEN_RTOL


def make_run(steps, losses, batch=1e6, split="train", **kwargs):
    samples = [(s, s * batch, l, split) for s, l in zip(steps, losses)]
    defaults = dict(
        run_id="r0", n_params=1e7, batch_tokens=batch,
        context_length=1024, dataset_tag="c4",
    )
    defaults.update(kwargs)
    return RunRecord(samples=samples, **defaults)


def row(step, tokens, loss, split="train"):
    return (step, tokens, loss, split)


HEADER = dict(run_id="r0", n_params=1e7, batch_tokens=1e6, context_length=1024, dataset_tag="c4")


def coded(rows):
    """Tuple rows as a writable SAMPLE_DTYPE array, split names as codes."""
    samples = np.empty(len(rows), dtype=SAMPLE_DTYPE)
    for i, (step, tokens, loss, split) in enumerate(rows):
        samples[i] = (step, tokens, loss, SPLIT_CODES[split])
    return samples


def named(samples):
    """A SAMPLE_DTYPE array back as tuple rows, split codes as names."""
    return [(s, t, l, SPLITS[k]) for s, t, l, k in samples.tolist()]


def rows_by_split(steps):
    """Canonical rows per split, from a (train, test) pair of step lists."""
    return {
        split: [(s, s * 1e6, 1.0 + 1.0 / s, split) for s in sorted(split_steps)]
        for split, split_steps in zip(SPLITS, steps)
    }


def canonical(rows):
    return sorted(rows["train"] + rows["test"], key=lambda r: (r[0], SPLIT_CODES[r[3]]))


two_splits = st.tuples(*[st.lists(st.floats(1e-2, 1e6), min_size=1, max_size=10, unique=True)] * 2)


class TestSampleValidation:
    def test_accepts_valid(self):
        run = RunRecord(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4",
            samples=[row(step=10.0, tokens=1e7, loss=3.5)],
        )
        assert run.samples["split"][0] == SPLIT_CODES["train"]

    @pytest.mark.parametrize("kwargs", [
        dict(step=0.0, tokens=0.0, loss=3.5),
        dict(step=-5.0, tokens=-5e6, loss=3.5),
        dict(step=10.0, tokens=-1.0, loss=3.5),
        dict(step=10.0, tokens=1e7, loss=float("nan")),
        dict(step=10.0, tokens=1e7, loss=3.5, split="validation"),
    ])
    def test_rejects_invalid_inside_run(self, kwargs):
        # samples are validated when attached to a run
        with pytest.raises(ValidationError):
            RunRecord(
                run_id="r0", n_params=1e7, batch_tokens=1e6,
                context_length=1024, dataset_tag="c4",
                samples=[row(**kwargs)],
            )


class TestRunValidation:
    def test_duplicate_step_in_split(self):
        with pytest.raises(ValidationError, match="duplicate step"):
            make_run([100, 100, 200], [3.0, 2.9, 2.8])

    def test_decreasing_step_in_split(self):
        with pytest.raises(ValidationError, match="decreasing step"):
            make_run([200, 100], [2.8, 3.0])

    def test_same_step_across_splits_allowed(self):
        samples = [
            row(step=100.0, tokens=1e8, loss=3.0, split="train"),
            row(step=100.0, tokens=1e8, loss=3.1, split="test"),
        ]
        run = RunRecord(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4", samples=samples,
        )
        assert run.splits() == ("train", "test")

    def test_token_consistency(self):
        samples = [row(step=100.0, tokens=2e8, loss=3.0)]
        with pytest.raises(ValidationError, match="tokens"):
            RunRecord(
                run_id="r0", n_params=1e7, batch_tokens=1e6,
                context_length=1024, dataset_tag="c4", samples=samples,
            )

    def test_token_slack_within_tolerance(self):
        # 0.05% off the exact product is accepted
        samples = [row(step=100.0, tokens=1e8 * 1.0005, loss=3.0)]
        run = RunRecord(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4", samples=samples,
        )
        assert run.final_step() == 100.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            make_run([], [])

    @pytest.mark.parametrize("field,value", [
        ("n_params", 0.0), ("batch_tokens", -1.0),
        ("context_length", 0), ("run_id", ""),
        ("n_params", True), ("context_length", True),
        ("context_length", 1024.5), ("context_length", 2048.0),
        ("run_id", 5), ("run_id", None), ("dataset_tag", None), ("dataset_tag", 3),
    ])
    def test_header_fields_validated(self, field, value):
        with pytest.raises(ValidationError):
            make_run([100], [3.0], **{field: value})

    def test_frozen_after_validation(self):
        run = make_run([100], [3.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.batch_tokens = -1.0
        assert run.batch_tokens == 1e6

    @pytest.mark.parametrize("n_params,final_loss", [(True, 3.0), (1e7, True)])
    def test_converged_run_rejects_bools(self, n_params, final_loss):
        with pytest.raises(ValidationError):
            ConvergedRun(n_params, final_loss)


class TestSplitArrays:
    def test_returns_sorted_arrays(self):
        run = make_run([100, 200, 400], [3.0, 2.8, 2.7])
        steps, tokens, losses = run.split_arrays("train")
        np.testing.assert_array_equal(steps, [100, 200, 400])
        np.testing.assert_array_equal(tokens, np.array([100, 200, 400]) * 1e6)
        np.testing.assert_array_equal(losses, [3.0, 2.8, 2.7])

    def test_missing_split_rejected(self):
        run = make_run([100], [3.0])
        with pytest.raises(ValidationError, match="no 'test' samples"):
            run.split_arrays("test")

    def test_unknown_split_rejected(self):
        run = make_run([100], [3.0])
        with pytest.raises(ValidationError):
            run.split_arrays("dev")


class TestCanonicalOrder:
    def test_orders_by_step_then_split(self):
        rows = [
            row(step=200.0, tokens=2e8, loss=2.8, split="test"),
            row(step=100.0, tokens=1e8, loss=3.1, split="test"),
            row(step=100.0, tokens=1e8, loss=3.0, split="train"),
        ]
        header = dict(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4",
        )
        # steps must increase within a split in the order given
        with pytest.raises(ValidationError, match="decreasing step"):
            RunRecord(samples=rows, **header)
        # splits interleaved any other way are stored in canonical order
        run = RunRecord(samples=[rows[1], rows[0], rows[2]], **header)
        assert list(zip(run.samples["step"], run.samples["split"])) == [
            (100.0, SPLIT_CODES["train"]), (100.0, SPLIT_CODES["test"]),
            (200.0, SPLIT_CODES["test"]),
        ]

    @settings(max_examples=40, deadline=None)
    @given(steps=two_splits, data=st.data())
    def test_any_interleaving_builds_the_same_record(self, steps, data):
        rows = rows_by_split(steps)
        picks = data.draw(st.permutations([k for k, v in rows.items() for _ in v]))
        pending = {k: iter(v) for k, v in rows.items()}
        mixed = [next(pending[k]) for k in picks]
        expected = RunRecord(samples=rows["train"] + rows["test"], **HEADER)
        assert RunRecord(samples=mixed, **HEADER) == expected
        # coded rows, canonical (checked in one pass) or not (sorted), agree
        assert RunRecord(samples=coded(canonical(rows)), **HEADER) == expected
        assert RunRecord(samples=coded(mixed), **HEADER) == expected

    @settings(max_examples=40, deadline=None)
    @given(steps=two_splits, data=st.data())
    def test_corrupt_canonical_row_is_named_as_in_tuple_form(self, steps, data):
        samples = coded(canonical(rows_by_split(steps)))
        fault = data.draw(st.sampled_from(
            ["nan step", "zero step", "negative step", "zero loss", "tokens", "code -1",
             "code 2", "duplicate"]
        ))
        if fault == "duplicate":
            # a row takes the step of the row before it in its split
            later = [i for i in range(1, samples.size) if samples["split"][i] in samples["split"][:i]]
            assume(later)
            i = data.draw(st.sampled_from(later))
            before = np.flatnonzero(samples["split"][:i] == samples["split"][i])[-1]
            samples[["step", "tokens"]][i] = samples[["step", "tokens"]][before]
        else:
            i = data.draw(st.integers(0, samples.size - 1))
            column, value = {
                "nan step": ("step", np.nan), "zero step": ("step", 0.0),
                "negative step": ("step", -samples["step"][i]), "zero loss": ("loss", 0.0),
                "tokens": ("tokens", samples["tokens"][i] * (1 + 2 * TOKEN_RTOL)),
                "code -1": ("split", -1), "code 2": ("split", 2),
            }[fault]
            samples[column][i] = value
        with pytest.raises(ValidationError, match=rf"^sample {i}: ") as err:
            RunRecord(samples=samples, **HEADER)
        if fault.startswith("code"):
            assert str(err.value) == f"sample {i}: unknown split {fault[5:]}"
        else:
            with pytest.raises(ValidationError) as tuple_err:
                RunRecord(samples=named(samples), **HEADER)
            assert str(err.value) == str(tuple_err.value)


class TestStoreAliasing:
    """A record keeps a given store only if nobody can write to it."""

    def rows(self):
        return coded([row(step=s, tokens=s * 1e6, loss=3.0) for s in (10.0, 50.0, 100.0, 500.0)])

    def test_writable_array_is_copied(self):
        source = self.rows()
        run = RunRecord(samples=source, **HEADER)
        source["loss"] = 9.0
        np.testing.assert_array_equal(run.samples["loss"], 3.0)
        assert not run.samples.flags.writeable

    def test_read_only_view_of_writable_base_is_copied(self):
        base = self.rows()
        view = base.view()
        view.flags.writeable = False
        run = RunRecord(samples=view, **HEADER)
        base["loss"] = 9.0
        np.testing.assert_array_equal(run.samples["loss"], 3.0)

    def test_read_only_view_of_writable_buffer_is_copied(self):
        buffer = bytearray(self.rows().tobytes())
        view = np.frombuffer(buffer, dtype=SAMPLE_DTYPE)
        view.flags.writeable = False
        run = RunRecord(samples=view, **HEADER)
        buffer[:] = bytes(len(buffer))
        np.testing.assert_array_equal(run.samples["loss"], 3.0)

    def test_split_arrays_are_the_stored_columns(self):
        run = RunRecord(samples=self.rows(), **HEADER)
        columns = run.split_arrays("train")
        assert all(a is b for a, b in zip(columns, run.split_arrays("train")))
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 9.0

    def test_trimmed_columns_share_memory(self):
        run = RunRecord(samples=self.rows(), **HEADER)
        trimmed = trim_warmup(run, WarmupTrim(min_step=100.0))
        np.testing.assert_array_equal(trimmed.split_arrays("train")[0], [100.0, 500.0])
        for kept, stored in zip(trimmed.split_arrays("train"), run.split_arrays("train")):
            assert not kept.flags.writeable
            assert np.shares_memory(kept, stored)


class TestHash:
    def test_equal_records_hash_equal(self):
        generated = gen_trajectory(C4_CONSTANTS, 1e7, 1e5, 50, log_every=5, run_id="r0")
        header = {f.name: getattr(generated, f.name) for f in dataclasses.fields(generated)}
        runs = [
            generated,
            RunRecord(samples=named(generated.samples), **header),
            RunRecord(samples=generated.samples.copy(), **header),
        ]
        assert runs[0] == runs[1] == runs[2]
        assert len({hash(run) for run in runs}) == 1
        assert len(set(runs)) == 1
        assert hash(runs[0]) != hash(RunRecord(samples=generated.samples, **{**header, "run_id": "r1"}))

    def test_never_equal_to_a_non_record(self):
        run = make_run([100.0, 200.0], [3.0, 2.9])
        assert run.__eq__("r0") is NotImplemented
        assert run != "r0" and run != 1e7

    def test_numpy_header_numbers_stored_as_python_numbers(self):
        run = make_run([100.0, 200.0], [3.0, 2.9], n_params=np.float32(1e7), context_length=np.int64(1024))
        assert type(run.n_params) is float and type(run.batch_tokens) is float
        assert type(run.context_length) is int and run.context_length == 1024


def ema(steps, losses, half_life):
    """The smoothing, written out for one split."""
    out = [losses[0]]
    for gap, loss in zip(np.diff(steps), losses[1:]):
        decay = 2.0 ** (-gap / half_life)
        out.append(decay * out[-1] + (1.0 - decay) * loss)
    return out


class TestColumnStoreAgainstRows:
    """The per-split columns against the same operations done on the rows."""

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.tuples(*[st.lists(st.floats(1.0, 1e4), max_size=8, unique=True)] * 2),
        form=st.sampled_from(["tuples", "coded"]),
        data=st.data(),
    )
    def test_matches_row_operations(self, steps, form, data):
        assume(any(steps))
        rows = rows_by_split(steps)
        picks = data.draw(st.permutations([k for k, v in rows.items() for _ in v]))
        pending = {k: iter(v) for k, v in rows.items()}
        mixed = [next(pending[k]) for k in picks]
        run = RunRecord(samples=coded(mixed) if form == "coded" else mixed, **HEADER)
        samples = run.samples
        assert run.splits() == tuple(split for split in SPLITS if rows[split])
        for split in run.splits():
            gathered = samples[samples["split"] == SPLIT_CODES[split]]
            columns = run.split_arrays(split)
            for column, name in zip(columns, ("step", "tokens", "loss")):
                np.testing.assert_array_equal(column, gathered[name])
                with pytest.raises(ValueError):
                    column[0] = 1.0
            smoothed = ema_smooth(run, half_life=50.0).split_arrays(split)
            np.testing.assert_array_equal(smoothed[:2], columns[:2])
            np.testing.assert_allclose(smoothed[2], ema(columns[0], columns[2], 50.0), rtol=1e-12)
        trim = WarmupTrim(min_step=data.draw(st.floats(0.0, 1e4)), final_fraction=0.1)
        kept = samples[samples["step"] >= trim.threshold(run.final_step())]
        if kept.size:
            assert trim_warmup(run, trim) == RunRecord(samples=kept, **HEADER)
        else:
            with pytest.raises(ValidationError, match="removed every sample"):
                trim_warmup(run, trim)


class TestWarmupTrim:
    def test_threshold_rule(self):
        trim = WarmupTrim(min_step=100.0, final_fraction=0.02)
        assert trim.threshold(1000.0) == 100.0
        assert trim.threshold(1e6) == 2e4

    def test_drops_early_samples(self):
        run = make_run([10, 50, 100, 500, 1000], [5.0, 4.0, 3.5, 3.0, 2.9])
        trimmed = trim_warmup(run, WarmupTrim())
        steps, _, _ = trimmed.split_arrays("train")
        np.testing.assert_array_equal(steps, [100, 500, 1000])

    def test_no_op_returns_same_object(self):
        run = make_run([100, 500, 1000], [3.5, 3.0, 2.9])
        assert trim_warmup(run, WarmupTrim()) is run

    def test_everything_trimmed_is_an_error(self):
        run = make_run([10, 20], [5.0, 4.0])
        with pytest.raises(ValidationError):
            trim_warmup(run, WarmupTrim(min_step=100.0))

    @pytest.mark.parametrize("min_step,final_fraction", [
        (True, 0.0), (0.0, True), (False, 0.0), (0.0, False), (-1.0, 0.0), (float("nan"), 0.0),
        (0.0, 1.0),
    ])
    def test_rejects_bad_rule(self, min_step, final_fraction):
        with pytest.raises(ValidationError):
            WarmupTrim(min_step, final_fraction)


class TestEmaSmooth:
    def test_first_sample_unchanged(self):
        run = make_run([100, 200, 300], [3.0, 2.0, 1.0])
        smoothed = ema_smooth(run, half_life=100.0)
        _, _, losses = smoothed.split_arrays("train")
        assert losses[0] == 3.0

    def test_half_life_decay(self):
        # one half-life apart: out[1] = 0.5*x0 + 0.5*x1
        run = make_run([100, 200], [4.0, 2.0])
        _, _, losses = ema_smooth(run, half_life=100.0).split_arrays("train")
        assert losses[1] == pytest.approx(3.0, rel=1e-12)

    def test_constant_series_is_fixed_point(self):
        run = make_run([100, 200, 400, 800], [2.5] * 4)
        _, _, losses = ema_smooth(run, half_life=50.0).split_arrays("train")
        np.testing.assert_allclose(losses, 2.5, rtol=1e-12)

    def test_smooths_each_split_separately(self):
        samples = [
            row(step=100.0, tokens=1e8, loss=4.0, split="train"),
            row(step=100.0, tokens=1e8, loss=10.0, split="test"),
            row(step=200.0, tokens=2e8, loss=2.0, split="train"),
        ]
        run = RunRecord(
            run_id="r0", n_params=1e7, batch_tokens=1e6,
            context_length=1024, dataset_tag="c4", samples=samples,
        )
        _, _, train_losses = ema_smooth(run, half_life=100.0).split_arrays("train")
        # the test-split sample must not leak into the train average
        assert train_losses[1] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -10.0, float("nan")])
    def test_rejects_bad_half_life(self, bad):
        run = make_run([100, 200], [3.0, 2.0])
        with pytest.raises(ValidationError):
            ema_smooth(run, half_life=bad)
