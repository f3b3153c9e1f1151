"""CSV/JSON ingestion and emission.

Files use 1-based observation indices; in-memory objects are 0-based, with
the conversion happening exactly once here.  Fit artifacts are canonical
JSON: sorted keys and 17-significant-digit reals, so identical fits produce
byte-identical files and round-trips restore bit-equal values.  Series are
CSV with columns (t, cumsum).  CSV is RFC-4180-style, UTF-8, '.' decimal.
Data tables and bare matrices share one reader, :func:`_read_table`: blank
lines are skipped, cells are numbers as ``float()`` reads them, a ragged
row is named by its row and a cell that is not a number by its row and
column.  A file that cannot be opened, written, decoded as UTF-8 or split
into CSV cells raises :class:`IoError`.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager

import numpy as np

from .exceptions import (
    IoError,
    MissingColumn,
    ParseError,
    RaggedRows,
    ValidationError,
)
from .grouping import groups_from_labels
from .model import Dataset, GroupSpec, MaximinFit, SupportSet
from .variance import SeriesReport


@contextmanager
def _file_errors(path):
    """Report a failure to open, read, write or decode ``path`` as IoError."""
    try:
        yield
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise IoError(f"{path}: not readable as CSV ({exc})") from exc


def _canonical(value) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(value, dict):
        items = sorted(value.items())
        inner = ",".join(f"{json.dumps(k)}:{_canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iu":
        # index lists can hold every observation: format them in one pass
        return "[" + ",".join(map(str, value.tolist())) + "]"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise IoError(f"cannot serialize non-finite value {v!r}")
        return format(v, ".17g")
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise IoError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    return _canonical(value) + "\n"


def write_fit(fit: MaximinFit, path, groups: GroupSpec | None = None) -> None:
    """Persist a fit as canonical JSON; optionally embed its group layout
    (1-based indices) so downstream evaluation can rebuild per-group scores."""
    doc = {
        "beta": list(fit.beta),
        "scale": fit.scale,
        "group_v": list(fit.group_V),
        "iterations": fit.iterations,
        "converged": bool(fit.converged),
    }
    if groups is not None:
        doc["groups"] = [g + 1 for g in groups.groups]
        doc["replacement"] = groups.replacement
    text = canonical_json(doc)
    with _file_errors(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_fit(path) -> tuple[MaximinFit, GroupSpec | None]:
    doc = _read_json(path)
    try:
        fit = MaximinFit(
            beta=np.asarray(doc["beta"], dtype=np.float64),
            group_V=np.asarray(doc["group_v"], dtype=np.float64),
            scale=float(doc["scale"]),
            iterations=int(doc["iterations"]),
            converged=bool(doc["converged"]),
        )
    except KeyError as exc:
        raise IoError(f"{path}: missing fit field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise IoError(f"{path}: malformed fit ({exc})") from exc
    spec = None
    if "groups" in doc:
        try:
            groups = tuple(np.asarray(g, dtype=np.int64) - 1 for g in doc["groups"])
        except (TypeError, ValueError) as exc:
            raise IoError(f"{path}: malformed groups ({exc})") from exc
        spec = GroupSpec(groups=groups,
                         replacement=doc.get("replacement", "partition"))
    return fit, spec


def _read_json(path):
    with _file_errors(path), open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise IoError(f"{path}: not valid JSON ({exc})") from exc


# rows formatted per write by the CSV writers: the text of a whole table
# would take several times the memory of its numbers
_ROWS_PER_WRITE = 8192


def write_series(report: SeriesReport, path) -> None:
    """CSV with header (t, cumsum); t counts observations from 1.  Lines end
    in CRLF, as Python's csv writer ends them."""
    with _file_errors(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,cumsum\r\n")
        for lo in range(0, report.cumsum.shape[0], _ROWS_PER_WRITE):
            block = report.cumsum[lo:lo + _ROWS_PER_WRITE].tolist()
            t = range(lo + 1, lo + 1 + len(block))
            fh.write("".join(map("%d,%.17g\r\n".__mod__, zip(t, block))))


def read_series(path) -> np.ndarray:
    with _file_errors(path), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return np.array([float(r[1]) for r in rows[1:]], dtype=np.float64)


# numpy's C reader set up for the dialect csv.reader reads: comma-separated,
# double-quoted cells, no comment lines
_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2}


def read_csv(path, has_header: bool = True, y_column: str = "y",
             group_column: str | None = None,
             standardize: bool = False) -> tuple[Dataset, GroupSpec | None]:
    """Load a rectangular numeric table into a Dataset.

    The named column becomes Y; every remaining column (except the group
    column, if any) becomes a predictor.  Without a header, columns are
    addressed by 1-based position as strings ("1", "2", ...).  The group
    column may hold arbitrary labels and feeds the label partition.
    ``standardize`` centers each predictor column and scales it to unit
    biased variance.  Blank lines are skipped; cells are numbers as Python's
    ``float()`` reads them.
    """
    names, cells, labels = _read_table(
        path, has_header,
        lambda header: _columns(path, header, y_column, group_column))
    X, Y = cells[:, :-1], cells[:, -1]

    if standardize:
        X = X - X.mean(axis=0)
        sd = np.sqrt((X * X).mean(axis=0))
        if np.any(sd == 0.0):
            dead = [names[k] for k in np.where(sd == 0.0)[0]]
            raise ValidationError(f"constant predictor column(s): {dead}")
        X = X / sd

    dataset = Dataset(X=X, Y=Y)
    spec = groups_from_labels(labels) if labels is not None else None
    return dataset, spec


def read_matrix_csv(path) -> np.ndarray:
    """A bare numeric matrix, no header, read by :func:`read_csv`'s rules."""
    return _read_table(path, False, lambda header: (list(range(len(header))), None))[1]


def _columns(path, header, y_column, group_column):
    """The predictor positions followed by the response's, and the group
    column's position (or None), in ``header``."""
    if y_column not in header:
        raise MissingColumn(f"{path}: no column named {y_column!r}")
    y_pos = header.index(y_column)
    group_pos = None
    if group_column is not None:
        if group_column not in header:
            raise MissingColumn(f"{path}: no column named {group_column!r}")
        group_pos = header.index(group_column)
        if group_pos == y_pos:
            raise ValidationError("y_column and group_column must differ")
    x_pos = [j for j in range(len(header)) if j != y_pos and j != group_pos]
    if not x_pos:
        raise MissingColumn(f"{path}: no predictor columns remain")
    return x_pos + [y_pos], group_pos


def _read_table(path, has_header, columns):
    """The number columns and the text column of a CSV table.

    ``columns(header)`` gives the number columns' positions, in the order
    a row's cells are checked, and the text column's or None; without a
    header, columns are named "1", "2", ... by position.  Returns the
    number columns' names, their cells as an (n, k) array in that order,
    and the text column's cells or None.
    """
    with _file_errors(path), open(path, "r", encoding="utf-8", newline="") as fh:
        parsed = _parse_table(fh, has_header, columns)
        if parsed is None:
            fh.seek(0)
            parsed = _parse_cells(fh, path, has_header, columns)
    return parsed


def _skip_blank_lines(fh) -> bool:
    """Move ``fh`` to the start of its next line that is not empty; False
    at the end of the file."""
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return False
        if line.strip("\r\n"):
            fh.seek(start)
            return True


def _parse_table(fh, has_header, columns):
    """Read a table without a text column with numpy's C parser.

    Returns None when ``columns`` rejects the header or names a text
    column, when the parser rejects the file, when a row is not as wide as
    the first, or when there is no data row: the cell-by-cell reader then
    raises the error that names the faulty row and column (checking row
    widths before the header), reads the text column, or reads the numbers
    only Python's ``float()`` accepts (``1_0``, non-ASCII digits).
    """
    if not _skip_blank_lines(fh):
        return None
    start = fh.tell()
    header = _header(next(csv.reader(iter(fh.readline, ""))), has_header)
    if not has_header:
        fh.seek(start)
    elif not _skip_blank_lines(fh):
        return None
    try:
        number, text = columns(header)
    except ValidationError:  # raised again after the row widths are checked
        return None
    if text is not None:
        return None
    try:
        cells = np.loadtxt(fh, **_LOADTXT)
    except ValueError:
        return None
    if cells.shape[1] != len(header):
        return None
    return [header[j] for j in number], cells[:, number], None


def _header(first, has_header):
    """Column names: the first row's cells stripped, or "1", "2", ..."""
    if has_header:
        return [h.strip() for h in first]
    return [str(i + 1) for i in range(len(first))]


def _parse_cells(fh, path, has_header, columns):
    """Read the table cell by cell with ``float()``, raising on the first
    fault in row order.  A fault names the file line its row starts on."""
    reader = csv.reader(fh)
    rows, start = [], 1  # (first file line, cells) of every nonblank record
    for record in reader:
        if record:
            rows.append((start, record))
        start = reader.line_num + 1
    if not rows:
        raise RaggedRows(f"{path}: empty table")

    header = _header(rows[0][1], has_header)
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise RaggedRows(f"{path}: no data rows")

    width = len(header)
    for line, row in data_rows:
        if len(row) != width:
            raise RaggedRows(f"{path}: row {line} has {len(row)} cells, expected {width}")

    number, text = columns(header)
    cells = np.empty((len(data_rows), len(number)))
    for i, (line, row) in enumerate(data_rows):
        for k, j in enumerate(number):
            try:
                cells[i, k] = float(row[j])
            except ValueError:
                raise ParseError(line, j + 1, f"not a number: {row[j]!r}") from None
    labels = None if text is None else np.array([row[text] for _, row in data_rows])
    return [header[j] for j in number], cells, labels


def _csv_cell(text: str) -> str:
    """A cell quoted the way csv.writer quotes it by default."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv_dataset(dataset: Dataset, path, labels=None) -> None:
    """Emit a dataset as (y, x1..xp[, group]) rows with CRLF line ends."""
    head = ["y"] + [f"x{j + 1}" for j in range(dataset.p)]
    cell_formats = ["%.17g"] * (dataset.p + 1)
    if labels is not None:
        head.append("group")
        cell_formats.append("%s")
        labels = [_csv_cell(str(label)) for label in labels]
    row_format = ",".join(cell_formats) + "\r\n"
    table = np.column_stack([dataset.Y, dataset.X])
    with _file_errors(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(head) + "\r\n")
        for lo in range(0, dataset.n, _ROWS_PER_WRITE):
            rows = table[lo:lo + _ROWS_PER_WRITE].tolist()
            if labels is not None:
                rows = [row + [label] for row, label in zip(rows, labels[lo:])]
            fh.write("".join(map(row_format.__mod__, map(tuple, rows))))


def write_support(support: SupportSet, path, extra: dict | None = None) -> None:
    doc = {"points": [list(row) for row in support.points],
           "sigma": [list(row) for row in support.sigma]}
    if extra:
        doc.update(extra)
    text = canonical_json(doc)
    with _file_errors(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_support(path, sigma=None) -> SupportSet:
    doc = _read_json(path)
    if "points" not in doc:
        raise MissingColumn(f"{path}: support file needs a 'points' entry")
    try:
        points = np.asarray(doc["points"], dtype=np.float64)
        if sigma is None:
            if "sigma" in doc:
                sigma = np.asarray(doc["sigma"], dtype=np.float64)
            else:
                sigma = np.eye(np.atleast_2d(points).shape[1])
    except (TypeError, ValueError) as exc:
        raise IoError(f"{path}: malformed support ({exc})") from exc
    return SupportSet(points=points, sigma=sigma)
