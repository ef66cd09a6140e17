"""Reading and writing run logs and constants documents.

Run logs are a single JSON header line followed by one row per logged
sample, either JSON objects (the default) or bare comma-separated
values when the header declares format=csv. The body is streamed in
blocks of lines, each parsed as it arrives in one pass: one np.loadtxt
pass per csv block, one json.loads for a jsonl block. A block that pass
cannot take whole (a bad row, blank lines, padding, extra JSON
structure, a character np.loadtxt reads otherwise than float()) is
parsed line by line instead, so errors name their line. Rows are then
validated once, together, when the RunRecord is built; the writer
writes from the record's columns. Constants documents are a
single JSON object, whose values ConstantsDocument checks by the same
rules as ScalingConstants. Counts are serialized in plain decimal;
fitted constants in scientific notation with enough digits to
round-trip bit-identically. File writes go through a temp file and
rename, so a reader never sees a half-written file.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatVersionError, ParseError, ValidationError
from .fitting import FitReport
from .laws import CONSTANT_NAMES, ScalingConstants, check_constants
from .records import SAMPLE_DTYPE, SPLIT_CODES, SPLITS, RunRecord, split_codes

__all__ = [
    "ConstantsDocument",
    "document_from_report",
    "read_constants",
    "read_run_log",
    "write_constants",
    "write_run_log",
]

SCHEMA_VERSION = 1
RUN_FORMATS = ("jsonl", "csv")
_HEADER_FIELDS = ("run_id", "n_params", "batch_tokens", "context_length", "dataset_tag")
_ROW_FIELDS = ("step", "tokens", "loss", "split")
# one template per format for a row written as (step, tokens, loss, split);
# a jsonl row is what json.dumps makes of the row's dict: counts pass
# through _decimal, losses are finite floats, split names need no escapes
_ROW_TEMPLATES = {
    "jsonl": '{"step": %s, "tokens": %s, "loss": %r, "split": "%s"}\n',
    "csv": "%s,%s,%r,%s\n",
}
# lines parsed in one pass at most, so a long log never holds every row's
# parsed objects at once
_BLOCK_LINES = 4096
# a csv row as np.loadtxt reads it; the split cell holds one character more
# than the longest name, so a longer cell is never cut down to a name
_CSV_DTYPE = np.dtype(SAMPLE_DTYPE.descr[:3] + [("split", f"U{max(map(len, SPLITS)) + 1}")])


# ---------------------------------------------------------------------------
# path/stream plumbing
# ---------------------------------------------------------------------------


@contextmanager
def _open_out(target):
    """Yield a text stream for a path, '-', or an open file-like object.

    Paths are written atomically: content lands in a temp file in the
    same directory and is renamed over the target only on success.
    """
    if hasattr(target, "write"):
        yield target
        return
    if target == "-":
        yield sys.stdout
        return
    path = Path(target)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@contextmanager
def _open_in(source):
    if hasattr(source, "read"):
        yield source
        return
    if source == "-":
        yield sys.stdin
        return
    with open(source, "r", encoding="utf-8") as handle:
        yield handle


def _decimal(value: float):
    """Counts go to JSON as plain integers whenever they are integral."""
    value = float(value)
    return int(value) if value.is_integer() and abs(value) < 2**63 else value


# ---------------------------------------------------------------------------
# run logs
# ---------------------------------------------------------------------------


def write_run_log(run: RunRecord, target, fmt: str = "jsonl") -> None:
    """Serialize a run, header line first, one sample per row after.

    Args:
        run: the run to write.
        target: path, '-' for stdout, or an open text stream.
        fmt: 'jsonl' rows (objects) or 'csv' rows (step,tokens,loss,split).
    """
    if fmt not in RUN_FORMATS:
        raise ValidationError(f"unknown run-log format {fmt!r}")
    header = {
        "schema_version": SCHEMA_VERSION,
        "format": fmt,
        "run_id": run.run_id,
        "n_params": _decimal(run.n_params),
        "batch_tokens": _decimal(run.batch_tokens),
        "context_length": _decimal(run.context_length),
        "dataset_tag": run.dataset_tag,
    }
    # Python floats: under numpy 2 the repr of a numpy scalar is not a number
    samples = run.samples
    columns = [samples[name].tolist() for name in _ROW_FIELDS[:3]]
    columns.append([SPLITS[code] for code in samples["split"].tolist()])
    row = _ROW_TEMPLATES[fmt]
    with _open_out(target) as out:
        out.write(json.dumps(header) + "\n")
        for step, tokens, loss, split in zip(*columns):
            out.write(row % (_decimal(step), _decimal(tokens), loss, split))


def _parse_row(text: str, line_no: int, fmt: str) -> tuple:
    """One row's syntax, as (step, tokens, loss, split code); values are checked per run."""
    if fmt == "csv":
        fields = text.split(",")
        if len(fields) != len(_ROW_FIELDS):
            raise ParseError(
                f"expected {len(_ROW_FIELDS)} comma-separated values, got {len(fields)}",
                line=line_no,
            )
        fields[3] = fields[3].strip()
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON row: {e.msg}", line=line_no) from None
        if not isinstance(obj, dict):
            raise ParseError(f"row must be an object, got {type(obj).__name__}", line=line_no)
        missing = [k for k in _ROW_FIELDS if k not in obj]
        if missing:
            raise ParseError(f"row missing fields {missing}", line=line_no)
        fields = [obj[k] for k in _ROW_FIELDS]
    step, tokens, loss, split = fields
    try:
        row = (float(step), float(tokens), float(loss), split)
    except (TypeError, ValueError, OverflowError):
        raise ParseError("step, tokens, and loss must be numbers", line=line_no) from None
    if split not in SPLITS:
        raise ParseError(f"unknown split {split!r}", line=line_no)
    return row[:3] + (SPLIT_CODES[split],)


def _bulk_columns(lines: list[str], fmt: str) -> list | None:
    """A block's (step, tokens, loss, split code) columns, parsed in one pass:
    one np.loadtxt pass per csv block, one json.loads per jsonl block.

    Returns None where the pass cannot prove that each line is one row
    that _parse_row would take, and take to the same values.
    """
    n = len(lines)
    if fmt == "csv":
        # np.loadtxt reads each line as _parse_row would only where these hold:
        # - no "\r": loadtxt takes it for a line end;
        # - no NUL: the U dtype drops one after the split name;
        # - none of \x1c-\x1f: loadtxt strips them around a number, float() does not;
        # - 3n commas: as loadtxt takes four fields on every line it reads, no
        #   line is blank, so none is skipped (nor a block of them warned of).
        text = "".join(lines)
        if text.count(",") != 3 * n or any(c in text for c in "\r\x00\x1c\x1d\x1e\x1f"):
            return None
        try:
            rows = np.loadtxt(lines, dtype=_CSV_DTYPE, delimiter=",", comments=None, ndmin=1)
        except ValueError:  # a row _parse_row rejects, or a cell only float() takes: "1_0"
            return None
        codes = split_codes(rows["split"])
        # a cell that is no name as it stands (" train", "trainee") is left to _parse_row
        return None if (codes < 0).any() else [rows[f] for f in _ROW_FIELDS[:3]] + [codes]
    # Each line must be one JSON object, alone. A string cannot run over a
    # raw newline, so if every line starts with "{", ends with "}\n" ("}" if
    # the stream ends there) and holds no other brace, the "}" that ends a
    # line closes the object its "{" opened: no container crosses a line break.
    text = ",".join(lines)
    if not (text[:1] == "{" and text.endswith(("}", "}\n"))
            and text.count("{") == n == text.count("}")
            and text.count("}\n,{") == n - 1):
        return None
    try:
        rows = json.loads("[" + text + "]")
    except json.JSONDecodeError:
        return None
    fields = [map(itemgetter(k), rows) for k in _ROW_FIELDS]
    try:
        # float() as _parse_row converts; a missing field or a name outside
        # SPLITS is a KeyError
        return [*(list(map(float, f)) for f in fields[:3]),
                list(map(SPLIT_CODES.__getitem__, fields[3]))]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _parse_block(lines: list[str], first_line: int, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """A block's non-blank rows as SAMPLE_DTYPE, with their line numbers.

    Lines keep the ending the stream gave them, so _parse_row sees each as
    read: JSON names a string cut by a newline otherwise than one cut by the end.
    """
    columns = _bulk_columns(lines, fmt)
    if columns is not None:
        numbers = np.arange(first_line, first_line + len(lines))
    else:
        rows, numbers = [], []
        for line_no, text in enumerate(lines, start=first_line):
            if text.strip():
                rows.append(_parse_row(text, line_no, fmt))
                numbers.append(line_no)
        columns = list(zip(*rows)) or [()] * len(_ROW_FIELDS)
        numbers = np.array(numbers, dtype=int)
    block = np.empty(len(numbers), dtype=SAMPLE_DTYPE)
    for name, column in zip(_ROW_FIELDS, columns):
        block[name] = column
    return block, numbers


def _header_count(header: dict, name: str, integral: bool = False):
    """A header count: a finite JSON number, never a bool or a string."""
    value = header[name]
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond any float
        ok = False
    # an integer field is never truncated
    if not ok or (integral and not float(value).is_integer()):
        raise ParseError(f"bad header field {name}: {value!r}", line=1)
    return int(value) if integral else float(value)


def read_run_log(source) -> RunRecord:
    """Parse and validate one run log.

    Rows must be strictly increasing in step within each split; the
    returned record's samples are in canonical (step, split) order.

    Args:
        source: path, '-' for stdin, or an open text stream.

    Raises:
        ParseError: malformed header or row, with the 1-based line.
        FormatVersionError: unknown schema version.
        ValidationError: structurally valid rows that break run
            invariants (decreasing or duplicate steps, bad values,
            token/step inconsistency), naming the offending lines.
    """
    with _open_in(source) as handle:
        header_text = handle.readline()
        if not header_text.strip():
            raise ParseError("empty file, expected a header line", line=1)
        try:
            header = json.loads(header_text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON header: {e.msg}", line=1) from None
        if not isinstance(header, dict):
            raise ParseError("header must be a JSON object", line=1)
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise FormatVersionError(f"unsupported schema version {version!r}", line=1)
        missing = [k for k in _HEADER_FIELDS if k not in header]
        if missing:
            raise ParseError(f"header missing fields {missing}", line=1)
        for name in ("run_id", "dataset_tag"):  # strings, never coerced from other JSON types
            if not isinstance(header[name], str):
                raise ParseError(f"bad header field {name}: {header[name]!r}", line=1)
        fmt = header.get("format", "jsonl")
        if fmt not in RUN_FORMATS:
            raise ParseError(f"unknown run-log format {fmt!r}", line=1)
        # lines end where iterating the stream ends them; never splitlines()
        blocks, first_line = [], 2
        while lines := list(islice(handle, _BLOCK_LINES)):
            blocks.append(_parse_block(lines, first_line, fmt))
            first_line += len(lines)
    samples = np.concatenate([b[0] for b in blocks] or [np.empty(0, SAMPLE_DTYPE)])
    numbers = np.concatenate([b[1] for b in blocks] or [np.empty(0, int)])

    return RunRecord(
        run_id=header["run_id"],
        n_params=_header_count(header, "n_params"),
        batch_tokens=_header_count(header, "batch_tokens"),
        context_length=_header_count(header, "context_length", integral=True),
        dataset_tag=header["dataset_tag"],
        samples=samples,
        row_names=lambda i: f"line {numbers[i]}",
    )


# ---------------------------------------------------------------------------
# constants documents
# ---------------------------------------------------------------------------


@dataclass
class ConstantsDocument:
    """Serializable form of fitted constants plus provenance.

    The constants obey the same rules as ScalingConstants, except that
    b_star and alpha_b are both None for a partial fit (no batch scan).

    Raises:
        DomainError: a constant out of range, only one of b_star and
            alpha_b given, or meta or diagnostics not a dict.
    """

    n_c: float
    alpha_n: float
    s_c: float
    alpha_s: float
    b_star: float | None
    alpha_b: float | None
    meta: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.meta, dict) and isinstance(self.diagnostics, dict)):
            raise DomainError("meta and diagnostics must be objects")
        if (self.b_star is None) != (self.alpha_b is None):
            raise DomainError("b_star and alpha_b must be both set or both null")
        # the batch law comes last in CONSTANT_NAMES
        check_constants(self, CONSTANT_NAMES if self.complete() else CONSTANT_NAMES[:4])

    def complete(self) -> bool:
        return self.b_star is not None and self.alpha_b is not None

    def constants(self) -> ScalingConstants:
        """The document as ScalingConstants; requires a complete fit."""
        if not self.complete():
            raise ValidationError("document holds a partial fit, no batch law")
        return ScalingConstants(**_constant_values(self), meta=dict(self.meta))

    @classmethod
    def from_constants(cls, c: ScalingConstants, diagnostics: dict | None = None):
        return cls(**_constant_values(c), meta=dict(c.meta), diagnostics=dict(diagnostics or {}))


def _constant_values(holder) -> dict:
    return {name: getattr(holder, name) for name in CONSTANT_NAMES}


def document_from_report(report: FitReport) -> ConstantsDocument:
    """Build the serializable document for a pipeline report."""
    diagnostics: dict = {
        "converged_stage": asdict(report.converged_stage),
        "step_stage": asdict(report.step_stage),
        "contours": [asdict(f) for f in report.contours],
        "complete": report.complete,
        "warnings": list(report.warnings),
    }
    if report.batch_stage is not None:
        diagnostics["batch_stage"] = asdict(report.batch_stage)
    if report.post_correction is not None:
        # not asdict: the batch law is in the constants block already
        p = report.post_correction
        diagnostics["post_correction"] = {
            "pair_count": p.pair_count,
            "residual_rms_before": p.residual_rms_before,
            "residual_rms_after": p.residual_rms_after,
        }
    if report.big_batch_ratio is not None:
        diagnostics["big_batch_ratio"] = report.big_batch_ratio
    return ConstantsDocument(
        **_constant_values(report), meta=dict(report.meta), diagnostics=diagnostics
    )


def _constant_repr(value: float | None) -> str:
    # 17 significant digits: scientific notation that parses back to the
    # identical double
    return "null" if value is None else format(float(value), ".16e")


def _nested_json(obj, pad: str) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + pad)


def write_constants(doc, target) -> None:
    """Write a constants document (or ScalingConstants) as JSON.

    Args:
        doc: ConstantsDocument, FitReport, or ScalingConstants.
        target: path, '-' for stdout, or an open text stream.
    """
    if isinstance(doc, ScalingConstants):
        doc = ConstantsDocument.from_constants(doc)
    elif isinstance(doc, FitReport):
        doc = document_from_report(doc)
    parts = [
        "{",
        f'  "schema_version": {SCHEMA_VERSION},',
        '  "kind": "scaling-constants",',
        '  "constants": {',
    ]
    for i, name in enumerate(CONSTANT_NAMES):
        comma = "," if i < len(CONSTANT_NAMES) - 1 else ""
        parts.append(f'    "{name}": {_constant_repr(getattr(doc, name))}{comma}')
    parts.append("  },")
    parts.append(f'  "meta": {_nested_json(doc.meta, "  ")},')
    parts.append(f'  "diagnostics": {_nested_json(doc.diagnostics, "  ")}')
    parts.append("}")
    with _open_out(target) as out:
        out.write("\n".join(parts) + "\n")


def read_constants(source) -> ConstantsDocument:
    """Parse a constants document.

    Raises:
        ParseError: not a constants document, or values that
            ConstantsDocument rejects (non-numbers, bools, out of range,
            only one of b_star and alpha_b null, meta or diagnostics not
            an object).
        FormatVersionError: unknown schema version.
    """
    with _open_in(source) as handle:
        text = handle.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FormatVersionError(f"unsupported schema version {version!r}")
    kind = obj.get("kind", "scaling-constants")
    if kind != "scaling-constants":
        raise ParseError(f"not a constants document (kind {kind!r})")
    block = obj.get("constants")
    if not isinstance(block, dict):
        raise ParseError("missing constants block")
    missing = [k for k in CONSTANT_NAMES if k not in block]
    if missing:
        raise ParseError(f"constants block missing {missing}")
    try:
        return ConstantsDocument(
            **{k: block[k] for k in CONSTANT_NAMES},
            meta=obj.get("meta", {}),
            diagnostics=obj.get("diagnostics", {}),
        )
    except DomainError as e:
        raise ParseError(f"bad document: {e}") from None
