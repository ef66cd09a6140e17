"""Serialization: run logs and constants documents."""

import io
import json
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalinglaws import (
    C4_CONSTANTS,
    ConstantsDocument,
    FormatVersionError,
    ParseError,
    RunRecord,
    ScalingLawWarning,
    ValidationError,
    document_from_report,
    fit_full_pipeline,
    gen_batch_scan,
    gen_converged_suite,
    gen_trajectory,
    min_steps_for_loss,
    critical_batch,
    read_constants,
    read_run_log,
    write_constants,
    write_run_log,
)
from scalinglaws import io as sio
from scalinglaws.errors import ScalingLawError
from scalinglaws.io import _open_out
from scalinglaws.records import TOKEN_RTOL

C4 = C4_CONSTANTS


def awkward_run():
    """A run whose floats exercise full-precision round-tripping."""
    batch = 123456.789
    samples = []
    for step, loss in [(100.5, 2.684193150679535), (200.25, 2.5606071335510348),
                       (333.0, 2.47390452915212)]:
        for split in ("train", "test"):
            samples.append((step, step * batch, loss, split))
    return RunRecord(
        run_id="awkward/run:1", n_params=1.23e7, batch_tokens=batch,
        context_length=2048, dataset_tag="c4-variant", samples=samples,
    )


@pytest.fixture(scope="module")
def full_report():
    converged = gen_converged_suite(C4, [1e6, 3e6, 1e7, 3e7])
    big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=2000, log_every=2)
    batches = [1e5, 1e6, 1e7]
    steps = [
        int(1.25 * min_steps_for_loss(C4, 1e7, 4.2) * (1 + critical_batch(C4, 4.2) / b))
        for b in batches
    ]
    scans = gen_batch_scan(C4, n=1e7, batches=batches, num_steps=steps)
    return fit_full_pipeline(converged, big, scans)


class TestRunLogRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_path_round_trip_is_exact(self, tmp_path, fmt):
        run = awkward_run()
        path = tmp_path / f"run.{fmt}"
        write_run_log(run, path, fmt=fmt)
        back = read_run_log(path)
        assert back.run_id == run.run_id
        assert back.n_params == run.n_params
        assert back.batch_tokens == run.batch_tokens
        assert back.context_length == run.context_length
        assert back.dataset_tag == run.dataset_tag
        assert len(back.samples) == len(run.samples)
        for column in ("step", "tokens", "loss", "split"):
            assert back.samples[column].tolist() == run.samples[column].tolist()

    def test_synthetic_round_trip(self, tmp_path):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=500, log_every=50)
        path = tmp_path / "run.jsonl"
        write_run_log(run, path)
        back = read_run_log(path)
        assert back.samples.tolist() == run.samples.tolist()

    def test_stream_round_trip(self):
        run = awkward_run()
        buf = io.StringIO()
        write_run_log(run, buf, fmt="csv")
        back = read_run_log(io.StringIO(buf.getvalue()))
        assert back.samples.tolist() == run.samples.tolist()

    def test_stdout_target(self, capsys):
        run = awkward_run()
        write_run_log(run, "-")
        out = capsys.readouterr().out
        header = json.loads(out.splitlines()[0])
        assert header["run_id"] == "awkward/run:1"
        assert len(out.splitlines()) == 1 + len(run.samples)

    def test_counts_written_as_integers(self, tmp_path):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=100, log_every=50)
        path = tmp_path / "run.jsonl"
        write_run_log(run, path)
        text = path.read_text()
        assert '"n_params": 10000000,' in text
        assert '"step": 50,' in text
        assert '"tokens": 5000000,' in text

    def test_jsonl_row_is_json_dumps_of_its_dict(self):
        # integral counts, counts at and past 2**63 (kept as floats), fractional values
        batch = 1e6
        rows = [(1.0, 3.0), (2.5, 2.684193150679535), (1e13, 0.1), (2.0**63, 1e-300), (2.0**64, 7.0)]
        run = RunRecord("r", 1e7, batch, 1024, "c4",
                        [(step, step * batch, loss, split) for step, loss in rows for split in ("train", "test")])
        out = io.StringIO()
        write_run_log(run, out)
        body = out.getvalue().splitlines(keepends=True)[1:]
        expected = [
            json.dumps({"step": sio._decimal(step), "tokens": sio._decimal(tokens),
                        "loss": loss, "split": ("train", "test")[code]}) + "\n"
            for step, tokens, loss, code in run.samples.tolist()
        ]
        assert body == expected
        assert '"step": 1, "tokens": 1000000,' in body[0]
        assert '"tokens": 1e+19,' in body[4]
        assert '"step": 9.223372036854776e+18,' in body[6]

    def test_no_temp_file_left_behind(self, tmp_path):
        write_run_log(awkward_run(), tmp_path / "run.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="format"):
            write_run_log(awkward_run(), tmp_path / "x", fmt="tsv")

    def test_blank_lines_skipped(self):
        run = awkward_run()
        buf = io.StringIO()
        write_run_log(run, buf)
        padded = buf.getvalue().replace("\n", "\n\n")
        back = read_run_log(io.StringIO(padded))
        assert len(back.samples) == len(run.samples)


def header_line(**overrides):
    header = {
        "schema_version": 1, "format": "jsonl", "run_id": "r0",
        "n_params": 1e7, "batch_tokens": 1e6, "context_length": 1024,
        "dataset_tag": "c4",
    }
    header.update(overrides)
    return json.dumps(header)


def row_line(step, loss, split="train", tokens=None):
    tokens = step * 1e6 if tokens is None else tokens
    return json.dumps({"step": step, "tokens": tokens, "loss": loss, "split": split})


class TestRunLogErrors:
    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty file") as err:
            read_run_log(io.StringIO(""))
        assert err.value.line == 1

    def test_bad_header_json(self):
        with pytest.raises(ParseError, match="header") as err:
            read_run_log(io.StringIO("{not json\n"))
        assert err.value.line == 1

    def test_header_not_object(self):
        with pytest.raises(ParseError, match="object"):
            read_run_log(io.StringIO("[1, 2]\n"))

    def test_unknown_schema_version(self):
        text = header_line(schema_version=99) + "\n" + row_line(100, 3.0) + "\n"
        with pytest.raises(FormatVersionError, match="99"):
            read_run_log(io.StringIO(text))

    def test_version_error_is_a_parse_error(self):
        assert issubclass(FormatVersionError, ParseError)

    def test_missing_header_fields(self):
        header = {"schema_version": 1, "format": "jsonl", "run_id": "r0"}
        with pytest.raises(ParseError, match="missing fields"):
            read_run_log(io.StringIO(json.dumps(header) + "\n"))

    def test_unknown_format(self):
        text = header_line(format="tsv") + "\n"
        with pytest.raises(ParseError, match="tsv"):
            read_run_log(io.StringIO(text))

    def test_bad_row_json_names_line(self):
        text = header_line() + "\n" + row_line(100, 3.0) + "\n{oops\n"
        with pytest.raises(ParseError, match="bad JSON row") as err:
            read_run_log(io.StringIO(text))
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_row_not_object(self):
        text = header_line() + "\n[1, 2, 3, 4]\n"
        with pytest.raises(ParseError, match="must be an object") as err:
            read_run_log(io.StringIO(text))
        assert err.value.line == 2

    def test_row_missing_fields(self):
        text = header_line() + "\n" + json.dumps({"step": 100, "loss": 3.0}) + "\n"
        with pytest.raises(ParseError, match="missing fields"):
            read_run_log(io.StringIO(text))

    def test_row_non_numeric(self):
        text = header_line() + "\n" + json.dumps(
            {"step": "abc", "tokens": 1e8, "loss": 3.0, "split": "train"}
        ) + "\n"
        with pytest.raises(ParseError, match="must be numbers"):
            read_run_log(io.StringIO(text))

    def test_row_unknown_split(self):
        text = header_line() + "\n" + row_line(100, 3.0, split="dev") + "\n"
        with pytest.raises(ParseError, match="dev"):
            read_run_log(io.StringIO(text))

    def test_csv_wrong_column_count(self):
        text = header_line(format="csv") + "\n100,1e8\n"
        with pytest.raises(ParseError, match="comma-separated") as err:
            read_run_log(io.StringIO(text))
        assert err.value.line == 2

    def test_nonpositive_loss_is_validation_error(self):
        text = header_line() + "\n" + row_line(100, -3.0) + "\n"
        with pytest.raises(ValidationError, match="line 2"):
            read_run_log(io.StringIO(text))

    def test_duplicate_step_names_both_lines(self):
        text = "\n".join([header_line(), row_line(100, 3.0), row_line(100, 2.9), ""])
        with pytest.raises(ValidationError, match=r"line 3.*also line 2"):
            read_run_log(io.StringIO(text))

    def test_decreasing_step_names_both_lines(self):
        text = "\n".join([header_line(), row_line(200, 3.0), row_line(100, 3.2), ""])
        with pytest.raises(ValidationError, match=r"line 3.*line 2"):
            read_run_log(io.StringIO(text))

    def test_test_row_before_train_row_reads_as_canonical(self):
        # valid but not canonical: sorted on the way in, same record
        rows = [row_line(100, 3.0), row_line(100, 3.1, split="test"), row_line(200, 2.9)]
        canonical = "\n".join([header_line(), *rows, ""])
        swapped = "\n".join([header_line(), rows[1], rows[0], rows[2], ""])
        assert read_run_log(io.StringIO(swapped)) == read_run_log(io.StringIO(canonical))

    def test_header_only_file(self):
        with pytest.raises(ValidationError, match="no sample rows"):
            read_run_log(io.StringIO(header_line() + "\n"))

    @pytest.mark.parametrize("field,value", [
        ("n_params", "lots"),
        ("n_params", True),
        ("context_length", 1024.5),
        ("context_length", True),
        ("context_length", "7"),
        pytest.param("context_length", 10**400, id="context_length-huge"),
        ("batch_tokens", float("inf")),
        ("run_id", True),
        ("run_id", 5),
        ("dataset_tag", None),
    ])
    def test_bad_header_value_type(self, field, value):
        # counts are JSON numbers, never coerced from bools or strings
        text = header_line(**{field: value}) + "\n" + row_line(100, 3.0) + "\n"
        with pytest.raises(ParseError, match="bad header field") as err:
            read_run_log(io.StringIO(text))
        assert err.value.line == 1

    def test_failed_write_leaves_target_and_no_part_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(awkward_run(), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="midway"):
            with _open_out(path) as out:
                out.write("half a log\n")
                raise RuntimeError("midway")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl"]

    def test_integral_float_context_length_accepted(self):
        text = header_line(context_length=2048.0) + "\n" + row_line(100, 3.0) + "\n"
        assert read_run_log(io.StringIO(text)).context_length == 2048

    def test_token_inconsistency_caught(self):
        text = header_line() + "\n" + row_line(100, 3.0, tokens=5e9) + "\n"
        with pytest.raises(ValidationError, match="inconsistent"):
            read_run_log(io.StringIO(text))


# steps both integral and fractional, so both ways of writing a count occur
steps_st = st.one_of(st.integers(1, 10**7).map(float), st.floats(1e-2, 1e7))


@st.composite
def valid_runs(draw):
    """Runs with an odd batch, one or both splits, and tokens anywhere
    inside the slack around step * batch."""
    batch = draw(st.floats(1.0, 1e9))
    rows = []
    for split in draw(st.sampled_from([("train",), ("test",), ("train", "test")])):
        for step in sorted(draw(st.lists(steps_st, min_size=1, max_size=12, unique=True))):
            slack = draw(st.floats(-0.5, 0.5)) * TOKEN_RTOL
            rows.append((step, step * batch * (1.0 + slack), draw(st.floats(1e-3, 1e3)), split))
    return RunRecord(
        run_id=draw(st.text(min_size=1, max_size=8)),
        n_params=draw(st.floats(1.0, 1e12)),
        batch_tokens=batch,
        context_length=draw(st.integers(1, 1 << 20)),
        dataset_tag=draw(st.text(max_size=8)),
        samples=rows,
    )


# integers reach past the float range, which float() cannot convert
row_values = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.floats(),
    st.text(max_size=6), st.sampled_from(["train", "test"]),
)
row_fields = ["step", "tokens", "loss", "split"]
fuzzed_lines = st.one_of(
    st.fixed_dictionaries({k: row_values for k in row_fields}).map(json.dumps),
    st.dictionaries(st.sampled_from(row_fields), row_values).map(json.dumps),
    st.lists(row_values.map(str), min_size=4, max_size=4).map(",".join),
    st.lists(row_values.map(str), max_size=5).map(",".join),
    st.text(max_size=30),
)


class TestRunLogProperties:
    @settings(max_examples=40, deadline=None)
    @given(run=valid_runs())
    def test_write_read_round_trip(self, run):
        for fmt in ("jsonl", "csv"):
            written = io.StringIO()
            write_run_log(run, written, fmt=fmt)
            back = read_run_log(io.StringIO(written.getvalue()))
            assert back == run
            again = io.StringIO()
            write_run_log(back, again, fmt=fmt)
            assert again.getvalue() == written.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(fmt=st.sampled_from(["jsonl", "csv"]), lines=st.lists(fuzzed_lines, max_size=6))
    @example(fmt="jsonl", lines=[row_line(10**400, 3.0, tokens=1e8)])
    def test_fuzzed_rows_raise_only_format_errors(self, fmt, lines):
        text = header_line(format=fmt) + "\n" + "\n".join(lines) + "\n"
        try:
            read_run_log(io.StringIO(text))
        except (ParseError, ValidationError, FormatVersionError):
            pass


def read_outcome(text, block_lines, bulk=True):
    """The record read from text, or (class, message, line) of its error;
    bulk=False parses every block line by line."""
    line_by_line = mock.patch.object(sio, "_bulk_columns", return_value=None)
    with mock.patch.object(sio, "_BLOCK_LINES", block_lines), (
        nullcontext() if bulk else line_by_line
    ):
        try:
            return read_run_log(io.StringIO(text))
        except ScalingLawError as e:
            return type(e), str(e), getattr(e, "line", None)


@st.composite
def run_log_texts(draw):
    """A valid run's log, or a header over fuzzed rows, in either format,
    with fuzzed rows and blank lines spliced in anywhere."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    if draw(st.booleans()):
        written = io.StringIO()
        write_run_log(draw(valid_runs()), written, fmt=fmt)
        lines = written.getvalue().split("\n")
    else:
        lines = [header_line(format=fmt)]
    extra = draw(st.lists(st.one_of(fuzzed_lines, st.sampled_from(["", " ", "\x0c"])), max_size=3))
    for line in extra:
        lines.insert(draw(st.integers(1, len(lines))), line)
    if draw(st.booleans()):  # one line grows a tail
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        lines[i] += draw(st.sampled_from([",0", ",train", "\r", "}", ', "x": 0}']))
    return "\n".join(lines)


# two rows on line 2, whose last is closed by line 3: each line is bad
# alone, but joined by a comma they make valid JSON
_crossing_rows = (
    row_line(100, 3.0) + ", " + row_line(200, 2.9)[:-1] + ', "x": [0\n0]}\n'
)


# csv cells that np.loadtxt and _parse_row could read differently (numbers
# only float() takes or only loadtxt strips, names either one alters),
# beside values both read and the record rejects
_CSV_EDGE_CELLS = [
    "train\x00", "\r", " ", "\t", "1_0", "\u0665", "\uff13.\uff15", "3.0\xa0", '"3.0"',
    '"train"', " train", "trainee", "test\t", "1e400", "nan", "1\x1c", "\x1f2", "3.5\r", "",
]


@st.composite
def csv_edge_texts(draw):
    """A csv log of good rows, some with a cell replaced or padded by an
    edge literal, some lines replaced by one (blank lines among them)."""
    lines = [header_line(format="csv")]
    for step in range(1, draw(st.integers(1, 6)) + 1):
        cells = [str(step), f"{step}e6", "3.0", draw(st.sampled_from(["train", "test"]))]
        edge = draw(st.sampled_from(_CSV_EDGE_CELLS))
        k = draw(st.integers(0, 3))
        how = draw(st.sampled_from(["keep", "replace", "before", "after", "line"]))
        if how == "replace":
            cells[k] = edge
        elif how in ("before", "after"):
            cells[k] = edge + cells[k] if how == "before" else cells[k] + edge
        lines.append(edge if how == "line" else ",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _csv_log(*rows):
    return header_line(format="csv") + "\n" + "\n".join(rows) + "\n"


class TestBulkReader:
    @settings(max_examples=60, deadline=None)
    @given(text=st.one_of(run_log_texts(), csv_edge_texts()), block_lines=st.integers(1, 5))
    @example(text=header_line() + "\n" + _crossing_rows, block_lines=4096)
    @example(
        # a string cannot carry a row's closing brace into the next line
        text=header_line() + '\n{"step": "}\n{", ' + row_line(100, 3.0)[1:] + "\n",
        block_lines=4096,
    )
    @example(
        # raw U+2028 is a line break to splitlines(), not to a run log
        text=header_line() + "\n" + row_line(100, 3.0)[:-1] + ', "note": "a\u2028b"}\n',
        block_lines=4096,
    )
    @example(text=header_line(format="csv") + "\n100,1e8,3.0,train\x0c\nbad\n", block_lines=4096)
    @example(text=header_line(format="csv") + "\n100,1e8,3.0,train,0\n", block_lines=4096)
    # np.loadtxt drops a NUL after a name, ends a line at "\r", skips blank
    # lines and strips \x1c-\x1f around a number; float() alone takes "1_0"
    # and non-ASCII digits
    @example(text=_csv_log("100,1e8,3.0,train\x00"), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.0,train\r200,2e8,2.9,train", ""), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.0,train\r", "", "200,2e8,2.9,train"), block_lines=4096)
    @example(text=_csv_log(" ", "\t", "\x0c"), block_lines=4096)
    @example(text=_csv_log("1_0,1e7,3.0,train"), block_lines=4096)
    @example(text=_csv_log("\u0665,5e6,3.0,train"), block_lines=4096)
    @example(text=_csv_log("\uff13.\uff15,3.5e6,3.0,train"), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.0\xa0,train"), block_lines=4096)
    @example(text=_csv_log('"100",1e8,3.0,train'), block_lines=4096)
    @example(text=_csv_log('100,1e8,3.0,"train"'), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.0, train"), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.0,trainee"), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.0,test\t"), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.0,train", "200,2e8,2.9,train,0", "300,3e8,2.8"),
             block_lines=4096)
    @example(text=_csv_log("1e400,1e8,3.0,train"), block_lines=4096)
    @example(text=_csv_log("100,1e8,nan,train"), block_lines=4096)
    @example(text=_csv_log("100\x1c,1e8,3.0,train"), block_lines=4096)
    @example(text=_csv_log("100,1e8,3.5\r,train"), block_lines=4096)
    def test_bulk_parse_matches_line_by_line(self, text, block_lines):
        assert read_outcome(text, block_lines) == read_outcome(text, block_lines, bulk=False)

    @pytest.mark.parametrize("text,block_lines,rows", [
        (_csv_log("", "", ""), 4096, None),  # a block of blank lines only
        (header_line(format="csv") + "\n", 4096, None),  # a header alone
        (_csv_log("100,1e8,3.0,train", "", "", "", "200,2e8,2.9,train"), 2, 2),
        (header_line(format="csv") + "\n100,1e8,3.0,train", 4096, 1),  # no last newline
    ])
    def test_no_warning_leaks(self, text, block_lines, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = read_outcome(text, block_lines)
        if rows is None:
            assert outcome == (ValidationError, "run 'r0' has no sample rows", None)
        else:
            assert len(outcome.samples) == rows

    def test_rows_joined_across_lines_rejected(self):
        with pytest.raises(ParseError, match="bad JSON row") as err:
            read_run_log(io.StringIO(header_line() + "\n" + _crossing_rows))
        assert err.value.line == 2

    def test_line_separator_inside_a_string_is_no_line_break(self):
        text = header_line() + "\n" + row_line(100, 3.0)[:-1] + ', "note": "a\u2028b"}\n'
        assert len(read_run_log(io.StringIO(text)).samples) == 1

    def test_form_feed_is_no_line_break(self):
        text = header_line(format="csv") + "\n100,1e8,3.0,train\x0c\nbad\n"
        with pytest.raises(ParseError, match="comma-separated") as err:
            read_run_log(io.StringIO(text))
        assert err.value.line == 3

    @pytest.mark.parametrize("tail,message", [
        ("\n" + row_line(100, 3.0) + "\n", "Invalid control character"),  # cut by a newline
        ("", "Unterminated string"),  # cut by the end of the file
    ])
    def test_row_cut_inside_a_string(self, tail, message):
        with pytest.raises(ParseError, match=message) as err:
            read_run_log(io.StringIO(header_line() + '\n{"split": "tra' + tail))
        assert err.value.line == 2

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_many_blocks_keep_line_numbers(self, fmt):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=5000, log_every=1)
        written = io.StringIO()
        write_run_log(run, written, fmt=fmt)
        assert read_run_log(io.StringIO(written.getvalue())) == run
        lines = written.getvalue().split("\n")
        lines[9000] = lines[9001]  # line 9001, in the third block, copies line 9002
        with pytest.raises(ValidationError, match=r"line 9002: duplicate .*also line 9001"):
            read_run_log(io.StringIO("\n".join(lines)))


class _UnreadableStream(io.StringIO):
    """A text stream that can be iterated by line but never read whole."""

    def read(self, *args):
        raise AssertionError("the whole stream was read at once")


class TestStreamingReader:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_body_is_read_block_by_block(self, fmt):
        run = gen_trajectory(C4, n=1e7, batch_tokens=1e5, num_steps=200, log_every=20)
        written = io.StringIO()
        write_run_log(run, written, fmt=fmt)
        with mock.patch.object(sio, "_BLOCK_LINES", 3):
            assert read_run_log(_UnreadableStream(written.getvalue())) == run


class TestConstantsDocuments:
    def test_constants_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "constants.json"
        write_constants(C4, path)
        doc = read_constants(path)
        assert doc.n_c == C4.n_c
        assert doc.alpha_n == C4.alpha_n
        assert doc.s_c == C4.s_c
        assert doc.alpha_s == C4.alpha_s
        assert doc.b_star == C4.b_star
        assert doc.alpha_b == C4.alpha_b
        assert doc.meta == C4.meta
        assert doc.complete()
        again = doc.constants()
        assert again == C4

    def test_scientific_notation_in_file(self, tmp_path):
        path = tmp_path / "constants.json"
        write_constants(C4, path)
        text = path.read_text()
        assert '"n_c": 1.5000000000000000e+14' in text
        assert '"kind": "scaling-constants"' in text
        json.loads(text)  # the hand-rendered layout is still valid JSON

    def test_report_document_round_trip(self, tmp_path, full_report):
        doc = document_from_report(full_report)
        path = tmp_path / "fit.json"
        write_constants(doc, path)
        back = read_constants(path)
        assert back.complete()
        assert back.n_c == doc.n_c
        assert back.b_star == doc.b_star
        assert back.diagnostics["complete"] is True
        assert len(back.diagnostics["contours"]) == len(full_report.contours)
        assert back.diagnostics["converged_stage"]["count"] == 4
        assert "post_correction" in back.diagnostics
        assert back.meta["dataset_tag"] == "c4"

    def test_partial_fit_round_trip(self, tmp_path):
        converged = gen_converged_suite(C4, [1e6, 1e7, 1e8])
        big = gen_trajectory(C4, n=1e7, batch_tokens=1e12, num_steps=1000, log_every=10)
        with pytest.warns(ScalingLawWarning):
            report = fit_full_pipeline(converged, big)
        path = tmp_path / "partial.json"
        write_constants(report, path)
        text = path.read_text()
        assert '"b_star": null' in text
        doc = read_constants(path)
        assert not doc.complete()
        assert doc.b_star is None and doc.alpha_b is None
        with pytest.raises(ValidationError, match="partial"):
            doc.constants()
        assert doc.meta["dataset_tag"] == "c4"

    def test_read_rejects_bad_documents(self, tmp_path):
        cases = {
            "bad.json": ("{oops", ParseError),
            "kind.json": ('{"schema_version": 1, "kind": "runbook"}', ParseError),
            "version.json": ('{"schema_version": 7, "kind": "scaling-constants"}',
                             FormatVersionError),
            "noblock.json": ('{"schema_version": 1, "kind": "scaling-constants"}',
                             ParseError),
        }
        for name, (text, exc) in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(exc):
                read_constants(path)

    def test_read_rejects_bad_values(self, tmp_path):
        base = {
            "schema_version": 1, "kind": "scaling-constants",
            "constants": {
                "n_c": 1.5e14, "alpha_n": 0.076, "s_c": 2.6e3,
                "alpha_s": 0.67, "b_star": 1.7e8, "alpha_b": 0.205,
            },
        }
        bad_negative = json.loads(json.dumps(base))
        bad_negative["constants"]["s_c"] = -1.0
        bad_missing = json.loads(json.dumps(base))
        del bad_missing["constants"]["alpha_s"]
        bad_null_required = json.loads(json.dumps(base))
        bad_null_required["constants"]["n_c"] = None
        bad_bool = json.loads(json.dumps(base))
        bad_bool["constants"]["alpha_n"] = True
        bad_string = json.loads(json.dumps(base))
        bad_string["constants"]["n_c"] = "1.5e14"
        bad_partial_exponent = json.loads(json.dumps(base))
        bad_partial_exponent["constants"].update(alpha_n=5.0, b_star=None, alpha_b=None)
        bad_half_batch_law = json.loads(json.dumps(base))
        bad_half_batch_law["constants"]["b_star"] = None
        cases = [bad_negative, bad_missing, bad_null_required, bad_bool, bad_string,
                 bad_partial_exponent, bad_half_batch_law]
        for i, obj in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(obj))
            with pytest.raises(ParseError):
                read_constants(path)

    def test_nullable_batch_law_accepted(self, tmp_path):
        obj = {
            "schema_version": 1, "kind": "scaling-constants",
            "constants": {
                "n_c": 1.5e14, "alpha_n": 0.076, "s_c": 2.6e3,
                "alpha_s": 0.67, "b_star": None, "alpha_b": None,
            },
        }
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(obj))
        doc = read_constants(path)
        assert not doc.complete()

    def test_document_from_constants_keeps_meta(self):
        doc = ConstantsDocument.from_constants(C4, diagnostics={"note": 1})
        assert doc.meta == C4.meta
        assert doc.diagnostics == {"note": 1}
