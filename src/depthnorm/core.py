"""Sample-matrix container, ingestion, and elementary column transforms.

A dataset is a G x n matrix: G features (genes, probes, RNAs) down the
rows and n sample columns.  All operations are pure; they return new
matrices and never mutate their input.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np


class DataError(ValueError):
    """Base class for data and validation failures (CLI exit code 1)."""


class ParseError(DataError):
    """Malformed input file."""


class DimensionError(DataError):
    """Shape or length constraint violated."""


class DomainError(DataError):
    """Value outside the domain an operation is defined on."""


class DegenerateScaleError(DataError):
    """A scale statistic needed for rescaling is zero."""


class EmptyResultError(DataError):
    """An operation produced a result with no rows."""


class PartitionError(DataError):
    """Invalid class partition."""


def _readonly(a: np.ndarray) -> np.ndarray:
    """Read-only view in ``a``'s own layout, so a caller's array keeps its writeable flag."""
    a = np.asarray(a, dtype=np.float64).view()
    a.flags.writeable = False
    return a


def require_finite(v: np.ndarray) -> None:
    """Raise a DomainError naming the first non-finite cell of the 2-D ``v`` (1-based)."""
    if not np.isfinite(v).all():
        bad = np.argwhere(~np.isfinite(v))[0]
        raise DomainError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")


def default_sample_ids(n: int) -> tuple[str, ...]:
    """1-based column numbers used when no header names the samples."""
    return tuple(str(j + 1) for j in range(n))


@dataclass(frozen=True, eq=False)
class ExpressionMatrix:
    """G x n matrix of sample columns."""

    values: np.ndarray
    sample_ids: tuple[str, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"expected a 2-D matrix, got ndim={v.ndim}")
        g, n = v.shape
        if n < 2:
            raise DimensionError(f"need at least 2 sample columns, got {n}")
        if g < 1:
            raise DimensionError("matrix has no rows")
        require_finite(v)
        object.__setattr__(self, "values", _readonly(v))
        ids = tuple(self.sample_ids) if self.sample_ids else default_sample_ids(n)
        if len(ids) != n:
            raise DimensionError(f"{len(ids)} sample ids for {n} columns")
        object.__setattr__(self, "sample_ids", ids)

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "ExpressionMatrix":
        """New matrix with the same ids and fresh values."""
        return ExpressionMatrix(values, self.sample_ids)


@dataclass(frozen=True, eq=False)
class ReferenceCurve:
    """Length-G target vector the columns are mapped onto.

    References used for quantile mapping must be non-decreasing (sorted
    construction guarantees it); the component-wise median of an unsorted
    matrix is a valid curve object but is rejected at mapping time.
    """

    values: np.ndarray
    source_tag: str = "component_median"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DimensionError("reference curve must be 1-D")
        if not np.isfinite(v).all():
            raise DomainError("non-finite reference value")
        object.__setattr__(self, "values", v)

    @property
    def is_non_decreasing(self) -> bool:
        return bool((np.diff(self.values) >= 0).all())


@dataclass(frozen=True)
class ClassPartition:
    """1-based class labels for the n columns; every class has >= 2 members."""

    labels: tuple[int, ...]
    class_count: int = field(init=False)  # the largest label

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if not labels:
            raise PartitionError("empty class partition")
        count = max(labels)
        if min(labels) < 1:
            raise PartitionError(f"labels must lie in [1, {count}]")
        sizes = Counter(labels)
        for k in range(1, count + 1):
            if sizes.get(k, 0) < 2:
                raise PartitionError(f"class {k} has {sizes.get(k, 0)} member(s); need >= 2")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_count", count)

    def members(self, k: int) -> np.ndarray:
        """Column indices belonging to class ``k``."""
        return np.array([j for j, lab in enumerate(self.labels) if lab == k], dtype=np.intp)


# ---------------------------------------------------------------------------
# the table codec: every CSV/TSV file is read by read_rows and written by write_rows


def _delimiter(path, fmt: Optional[str]) -> str:
    """``fmt`` ('csv' or 'tsv'), else the suffix: .tsv, .tab and .txt are tab-separated."""
    if fmt is None:
        fmt = "tsv" if Path(path).suffix.lower() in {".tsv", ".tab", ".txt"} else "csv"
    if fmt not in {"csv", "tsv"}:
        raise ParseError(f"unknown format {fmt!r}; expected 'csv' or 'tsv'")
    return "\t" if fmt == "tsv" else ","


@contextmanager
def _reading(path):
    """The file open as text; a missing, undecodable or malformed file is a ParseError naming it."""
    try:
        with open(path, newline="") as fh:
            yield fh
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except UnicodeDecodeError as e:
        where = f"undecodable byte at offset {e.start}"
        raise ParseError(f"{path}: not {e.encoding} text ({where})") from None
    except csv.Error as e:
        raise ParseError(f"{path}: {e}") from None


def read_text(path) -> str:
    """The whole file as text."""
    with _reading(path) as fh:
        return fh.read()


def read_rows(path, delimiter: str = ",") -> list[list[str]]:
    """The file's non-empty rows, each a list of str cells."""
    with _reading(path) as fh:
        return [r for r in csv.reader(fh, delimiter=delimiter) if r]


def _nonblank(lines):
    """The first of ``lines`` that holds more than a line break, or None."""
    return next((line for line in lines if line.strip("\r\n")), None)


def _numeric(cells) -> bool:
    try:
        np.array(cells, dtype=np.float64)
    except ValueError:
        return False
    return True


# csv's excel dialect ends every written row with this
LINE_END = "\r\n"


def write_rows(dest, rows, delimiter: str = ",") -> Optional[str]:
    """Write ``rows`` to ``dest``, a path or a text stream; with ``dest`` None, return the text.

    Cells are str, int or Python float; csv writes a float as its repr,
    which reads back exactly.  Row one is quoted in full when one of its
    str cells reads as a number or has surrounding whitespace, so that a
    reader can tell it is a header and take it verbatim.
    """
    if not hasattr(dest, "write"):
        with io.StringIO() if dest is None else open(dest, "w", newline="") as fh:
            write_rows(fh, rows, delimiter)
            return fh.getvalue() if dest is None else None
    rows = iter(rows)
    for first in rows:
        quote_all = any(isinstance(c, str) and (c != c.strip() or _numeric(c)) for c in first)
        quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
        writer = csv.writer(dest, delimiter=delimiter, quoting=quoting, lineterminator=LINE_END)
        writer.writerow(first)
        break
    csv.writer(dest, delimiter=delimiter, lineterminator=LINE_END).writerows(rows)


# loadtxt strips these separators as whitespace and float() does not, so
# a data line holding one is left to the per-row parse.  (loadtxt is given
# no quote character: a quoted cell fails it and takes that parse too.)
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _plain_lines(lines, limit: int):
    """``lines``, raising ValueError at one loadtxt might read unlike csv and float()."""
    for line in lines:
        # an unquoted field is no longer than its line, so this check
        # leaves every over-long field to csv
        if len(line) > limit:
            raise ValueError("line longer than a CSV field")
        for c in _SEPARATORS:
            if c in line:
                raise ValueError("line holds a separator character")
        yield line


def _split_header(lines, delimiter: str, has_header: Optional[bool]):
    """(sample ids, data lines): csv reads row one, judged a header by :func:`load_matrix`'s rules."""
    first = _nonblank(lines)
    if first is None:
        return (), lines
    if has_header is not False:
        quoted = first.startswith('"')
        head = next(csv.reader(chain([first], lines), delimiter=delimiter))
        if has_header or quoted or not _numeric(head):
            return tuple(tok if quoted else tok.strip() for tok in head), lines
    return (), chain([first], lines)


def _parse_fast(lines, delimiter: str, sample_ids: tuple[str, ...]) -> Optional[np.ndarray]:
    """The data lines' values from one ``np.loadtxt`` call.

    None, or a ValueError, means the per-row parse must decide.
    """
    rows = _plain_lines(lines, csv.field_size_limit())
    # loadtxt warns on input without data, so find the first data line here
    row = _nonblank(rows)
    if row is None:
        return None
    data = np.loadtxt(
        chain([row], rows), delimiter=delimiter, comments=None, ndmin=2, dtype=np.float64
    )
    width = data.shape[1]
    if width < 2 or (sample_ids and len(sample_ids) != width):
        return None
    return data


def _parse_rows(path, delimiter: str, sample_ids: tuple[str, ...]) -> np.ndarray:
    """Values cell by cell, raising a ParseError that names the bad row.

    A file with ``sample_ids`` has its row one, the header, skipped.
    """
    rows = read_rows(path, delimiter)
    if not rows:
        raise ParseError(f"{path}: empty file")
    if sample_ids:
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, r in enumerate(rows):
        rownum = i + (2 if sample_ids else 1)
        if len(r) != width:
            raise ParseError(f"ragged row at row {rownum}: {len(r)} cells, expected {width}")
        try:
            data[i] = r
        except ValueError:
            j = next(j for j, tok in enumerate(r) if not _numeric(tok))
            raise ParseError(
                f"non-numeric cell {r[j].strip()!r} at row {rownum}, column {j + 1}"
            ) from None
    if width < 2:
        raise DimensionError(f"need at least 2 sample columns, got {width}")
    if sample_ids and len(sample_ids) != width:
        raise ParseError(f"header has {len(sample_ids)} names for {width} columns")
    return data


def load_matrix(path, fmt: Optional[str] = None, has_header: Optional[bool] = None) -> ExpressionMatrix:
    """Read a CSV/TSV matrix: one feature per row, one sample per column.

    ``fmt`` is 'csv' or 'tsv'; inferred from the file suffix when None.
    ``has_header`` controls whether the first row holds sample ids; when
    None, row one is a header if the file quotes it or if one of its cells
    is not a number.  A quoted header is read verbatim, an unquoted one
    with each id stripped.

    The file is read once: csv takes row one and a single ``np.loadtxt``
    call the data lines.  A file that call cannot read the way csv and
    ``float()`` would (quoted data cells, ragged or non-numeric rows,
    spellings such as ``1_0``) is parsed again row by row, which gives
    the same values or a ParseError naming the row and column.
    """
    delimiter = _delimiter(path, fmt)
    # a file whose row one cannot be read fails the per-row read as well
    sample_ids: tuple[str, ...] = ()
    try:
        with _reading(path) as fh:
            sample_ids, lines = _split_header(iter(fh), delimiter, has_header)
            data = _parse_fast(lines, delimiter, sample_ids)
    except ValueError:
        data = None
    if data is None:
        data = _parse_rows(path, delimiter, sample_ids)
    return ExpressionMatrix(data, sample_ids)


# save_matrix formats a block of about this many cells at a time
_WRITE_CELLS = 1 << 14

# the longest repr of a finite double, such as "-2.2250738585072014e-308"
_TEXT_WIDTH = 24


def _distinct_bits(values: np.ndarray) -> Optional[np.ndarray]:
    """The cells' distinct bits ascending, or None once they fill more than half the cells.

    One buffer holds the bits found so far, ascending, and room for one
    column after them.  Each column is copied into that tail and sorted; a
    stable sort (numpy's timsort) then merges the two ascending runs in
    one pass, and the repeats are squeezed out in place, a column's length
    at a time.  No array larger than the buffer, half the cells plus one
    column, is made.
    """
    g, n = values.shape
    bits = values.view(np.int64)
    found = np.empty(g * n // 2 + g, dtype=np.int64)
    count = 0
    for j in range(n):
        merged = found[:count + g]
        merged[count:] = bits[:, j]
        merged[count:].sort()
        merged.sort(kind="stable")
        new = np.empty(merged.size, dtype=bool)
        new[0] = True
        np.not_equal(merged[1:], merged[:-1], out=new[1:])
        count = int(np.count_nonzero(new))
        if count < merged.size:
            kept = 0
            for at in range(0, merged.size, g):
                part = merged[at:at + g][new[at:at + g]]
                merged[kept:kept + part.size] = part
                kept += part.size
        if 2 * count > g * n:
            return None
    return found[:count].copy()


def _text_table(values: np.ndarray):
    """(the distinct values' texts, their lengths, the distinct values' bits ascending).

    Values are told apart by bit pattern, so ``-0.0`` stays apart from
    ``0.0``.  Each text is a repr in ASCII, NUL-padded to a row of
    ``_TEXT_WIDTH`` bytes and two more for the separator that follows it
    in a file; the reprs are made a chunk at a time.  (None, None, None)
    when there are more distinct values than half the cells: the table
    would then hold over two matrix copies, and formatting each block's
    cells directly is about as fast (``save_matrix_branches`` in
    BENCH_16.json times both ways).
    """
    distinct = _distinct_bits(values)
    if distinct is None:
        return None, None, None
    floats = distinct.view(np.float64)
    table = np.zeros(distinct.size, dtype=f"S{_TEXT_WIDTH + 2}")
    lengths = np.empty(distinct.size, dtype=np.uint8)
    for at in range(0, distinct.size, _WRITE_CELLS):
        chunk = table[at:at + _WRITE_CELLS]
        chunk[:] = [repr(v) for v in floats[at:at + _WRITE_CELLS].tolist()]
        lengths[at:at + _WRITE_CELLS] = np.char.str_len(chunk)
    return table.view(np.uint8).reshape(-1, _TEXT_WIDTH + 2), lengths, distinct


def _table_index(block: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Each cell of ``block`` in C order as its index into the ascending bits ``distinct``.

    The block's bits are sorted before the search, which keeps
    ``searchsorted`` fast, and the positions are scattered back.
    """
    bits = np.ascontiguousarray(block).view(np.int64).ravel()
    order = np.argsort(bits)
    index = np.empty_like(order)
    index[order] = np.searchsorted(distinct, bits[order])
    return index


def _rows_text(index: np.ndarray, table: np.ndarray, lengths: np.ndarray, n: int,
               delimiter: str) -> np.ndarray:
    """The bytes of whole rows of ``n`` cells, given in C order as indices into the table.

    Each cell's padded row of the table is gathered, the delimiter (or
    CRLF at a row's end) is put right after its text, and the NUL bytes
    left are dropped: a repr holds none.
    """
    text = np.take(table, index, axis=0)
    at = np.arange(0, text.size, text.shape[1]) + lengths[index]
    flat = text.reshape(-1)
    flat[at] = ord(delimiter)
    ends = at[n - 1::n]
    flat[ends] = ord("\r")
    flat[ends + 1] = ord("\n")
    return flat[flat != 0]


def save_matrix(m: ExpressionMatrix, path) -> None:
    """Write a matrix that :func:`load_matrix` reads back exactly.

    The path's suffix sets the delimiter, as for :func:`load_matrix`.
    Default sample ids ``1..n`` are not written; any others form a header
    row, quoted in full when an id reads as a number or has surrounding
    whitespace (see :func:`write_rows`).  A cell is its float's repr, as
    csv writes it.  The rows are formatted and written a block of about
    ``_WRITE_CELLS`` cells at a time.  When a distinct value fills two
    cells or more on average, as in a quantile-normalized matrix (at most
    one value per row, so even at two columns), each distinct value is
    formatted once into a table of ASCII texts, and each block's bytes are
    gathered from it with numpy, with no Python object per cell; otherwise
    each block formats its own cells and no table is built.  Beyond the
    matrix, the peak is the buffer that finds the distinct values a column
    at a time (half the cells plus one column, of which only the values
    found and one column are ever written), or the table when it is
    larger: 35 bytes per distinct value (its bits, text and length),
    about 2.2 matrix copies for a two-column quantile-normalized matrix
    and 0.2 at 24 columns.
    """
    for s in m.sample_ids:
        if len(s) > csv.field_size_limit():
            raise DataError(f"sample id {s[:20]!r}... is longer than a CSV field can hold")
    delimiter = _delimiter(path, None)
    values = m.values
    g, n = values.shape
    table, lengths, distinct = _text_table(values)
    step = max(1, _WRITE_CELLS // n)
    with open(path, "w", newline="") as fh:
        if m.sample_ids != default_sample_ids(n):
            write_rows(fh, [m.sample_ids], delimiter)
        # the repr of a finite float holds no delimiter, quote or line break,
        # so csv would have written every data cell unquoted
        if table is None:
            for at in range(0, g, step):
                rows = (map(repr, row) for row in values[at:at + step].tolist())
                fh.writelines(delimiter.join(row) + LINE_END for row in rows)
        else:
            # a block's text takes about 80 bytes a cell, so it is built a
            # quarter block at a time and written as bytes, after the header
            part = n * max(1, step // 4)
            fh.flush()
            for at in range(0, g, step):
                index = _table_index(values[at:at + step], distinct)
                for start in range(0, index.size, part):
                    rows = index[start:start + part]
                    fh.buffer.write(_rows_text(rows, table, lengths, n, delimiter))


def load_class_labels(source: str, n: int) -> ClassPartition:
    """Labels from a one-column file, or from an inline comma list."""
    p = Path(source)
    if p.exists():
        tokens = [t.strip() for t in read_text(p).replace(",", "\n").split() if t.strip()]
    else:
        tokens = [t.strip() for t in source.split(",") if t.strip()]
    try:
        labels = tuple(int(t) for t in tokens)
    except ValueError as e:
        if not p.exists():
            raise ParseError(
                f"no such label file {source!r}, and it is not a comma list of integers"
            ) from None
        raise ParseError(f"class labels must be integers: {e}") from None
    if len(labels) != n:
        raise PartitionError(f"{len(labels)} class labels for {n} columns")
    return ClassPartition(labels)


# ---------------------------------------------------------------------------
# elementary transforms


def filter_zero_rows(m: ExpressionMatrix, max_zeros: int) -> ExpressionMatrix:
    """Keep rows with at most ``max_zeros`` zero entries, preserving order."""
    if not 0 <= max_zeros <= m.n_samples:
        raise DomainError(f"max_zeros must lie in [0, {m.n_samples}]")
    keep = (m.values == 0).sum(axis=1) <= max_zeros
    if not keep.any():
        raise EmptyResultError("zero-count filter removed every row")
    return m.with_values(m.values[keep])


def log1_transform(m: ExpressionMatrix) -> ExpressionMatrix:
    """Elementwise natural log(value + 1); monotone, so ranks survive."""
    if (m.values < 0).any():
        i, j = np.argwhere(m.values < 0)[0]
        raise DomainError(f"negative value at row {i + 1}, column {j + 1}")
    return m.with_values(np.log1p(m.values))


def column_sort(m: ExpressionMatrix) -> ExpressionMatrix:
    """Sort every column ascending (the X* representation).

    The sorted columns are the curves that depth compares, so they are
    built in the layout the distances read: one C-contiguous n x G array
    with each row sorted, of which the result wraps the transpose (G x n,
    F-ordered).  The values equal ``np.sort(m.values, axis=0)`` bit for
    bit, and ``pairwise_distances`` reads the curves without a copy.
    """
    curves = np.array(m.values.T, order="C")
    curves.sort(axis=1)
    return m.with_values(curves.T)


def component_wise_median(m: ExpressionMatrix) -> ReferenceCurve:
    """Vector of per-row medians; non-decreasing when the input is sorted.

    Note the result need not resemble any sample column and can even fall
    outside the convex hull of the columns, which is what motivates the
    depth-based reference.
    """
    # across the rows of the transpose: on column_sort's layout np.median then
    # partitions one copy of the curves, where along axis 1 it takes two
    return ReferenceCurve(np.median(m.values.T, axis=0), source_tag="component_median")


_ANCHORS = ("median", "q75", "mean", "sum")


def _anchor_stat(values: np.ndarray, anchor: str) -> np.ndarray:
    # column by column: along axis 0, np.median and np.quantile partition a
    # copy of the whole matrix, and one column at a time gives the same bits
    if anchor == "median":
        return np.array([np.median(col) for col in values.T])
    if anchor == "q75":
        return np.array([np.quantile(col, 0.75) for col in values.T])
    if anchor == "mean":
        return values.mean(axis=0)
    if anchor == "sum":
        return values.sum(axis=0)
    raise DomainError(f"unknown anchor {anchor!r}; expected one of {_ANCHORS}")


def linear_prenormalize(m: ExpressionMatrix, anchor: str = "median") -> ExpressionMatrix:
    """Scale each column so its anchor statistic matches the grand anchor.

    The grand anchor is the median across columns of the per-column
    statistic, so the overall scale stays with the data.  Pure rescaling:
    within-column ranks are unchanged.
    """
    stat = _anchor_stat(m.values, anchor)
    if (stat <= 0).any():
        j = int(np.flatnonzero(stat <= 0)[0])
        raise DegenerateScaleError(
            f"column {m.sample_ids[j]!r} has non-positive {anchor} ({stat[j]!r})"
        )
    grand = np.median(stat)
    return m.with_values(m.values * (grand / stat))
