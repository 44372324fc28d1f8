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
from dataclasses import dataclass
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
    """Read-only view, so a caller's own array keeps its writeable flag."""
    a = np.ascontiguousarray(a, dtype=np.float64).view()
    a.flags.writeable = False
    return a


def default_sample_ids(n: int) -> tuple[str, ...]:
    """1-based column numbers used when no header names the samples."""
    return tuple(str(j + 1) for j in range(n))


@dataclass(frozen=True, eq=False)
class ExpressionMatrix:
    """G x n matrix of sample columns.

    ``sorted_flag`` is True only for matrices produced by
    :func:`column_sort` (every column non-decreasing), the representation
    used by the depth and outlier machinery.
    """

    values: np.ndarray
    sample_ids: tuple[str, ...] = ()
    sorted_flag: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"expected a 2-D matrix, got ndim={v.ndim}")
        g, n = v.shape
        if n < 2:
            raise DimensionError(f"need at least 2 sample columns, got {n}")
        if g < 1:
            raise DimensionError("matrix has no rows")
        if not np.isfinite(v).all():
            bad = np.argwhere(~np.isfinite(v))[0]
            raise DomainError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
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

    def with_values(self, values: np.ndarray, sorted_flag: bool = False) -> "ExpressionMatrix":
        """New matrix with the same ids and fresh values."""
        return ExpressionMatrix(values, self.sample_ids, sorted_flag)


@dataclass(frozen=True)
class ClassPartition:
    """1-based class labels for the n columns; every class has >= 2 members."""

    labels: tuple[int, ...]
    class_count: int = 0

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        count = self.class_count or (max(labels) if labels else 0)
        if not labels:
            raise PartitionError("empty class partition")
        if any(k < 1 or k > count for k in labels):
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


def _first_row_quoted(path) -> bool:
    """Whether the first non-blank line opens with a quote (a header to read verbatim)."""
    with _reading(path) as fh:
        return next((line for line in fh if line.strip("\r\n")), "").startswith('"')


def _numeric(cells) -> bool:
    try:
        np.array(cells, dtype=np.float64)
    except ValueError:
        return False
    return True


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
        csv.writer(dest, delimiter=delimiter, quoting=quoting).writerow(first)
        break
    csv.writer(dest, delimiter=delimiter).writerows(rows)


def load_matrix(path, fmt: Optional[str] = None, has_header: Optional[bool] = None) -> ExpressionMatrix:
    """Read a CSV/TSV matrix: one feature per row, one sample per column.

    ``fmt`` is 'csv' or 'tsv'; inferred from the file suffix when None.
    ``has_header`` controls whether the first row holds sample ids; when
    None, row one is a header if the file quotes it or if one of its cells
    is not a number.  A quoted header is read verbatim, an unquoted one
    with each id stripped.
    """
    rows = read_rows(path, _delimiter(path, fmt))
    if not rows:
        raise ParseError(f"{path}: empty file")
    quoted = has_header is not False and _first_row_quoted(path)
    if has_header is None:
        has_header = quoted or not _numeric(rows[0])
    sample_ids: tuple[str, ...] = ()
    if has_header:
        sample_ids = tuple(tok if quoted else tok.strip() for tok in rows[0])
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, r in enumerate(rows):
        rownum = i + (2 if has_header else 1)
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
    return ExpressionMatrix(data, sample_ids)


def save_matrix(m: ExpressionMatrix, path, fmt: Optional[str] = None) -> None:
    """Write a matrix that :func:`load_matrix` reads back exactly.

    Default sample ids ``1..n`` are not written; any others form a header
    row, quoted in full when an id reads as a number or has surrounding
    whitespace (see :func:`write_rows`).
    """
    for s in m.sample_ids:
        if len(s) > csv.field_size_limit():
            raise DataError(f"sample id {s[:20]!r}... is longer than a CSV field can hold")
    header = [] if m.sample_ids == default_sample_ids(m.n_samples) else [list(m.sample_ids)]
    write_rows(path, chain(header, (row.tolist() for row in m.values)), _delimiter(path, fmt))


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
    return m.with_values(m.values[keep], sorted_flag=m.sorted_flag)


def log1_transform(m: ExpressionMatrix) -> ExpressionMatrix:
    """Elementwise natural log(value + 1); monotone, so ranks survive."""
    if (m.values < 0).any():
        i, j = np.argwhere(m.values < 0)[0]
        raise DomainError(f"negative value at row {i + 1}, column {j + 1}")
    return m.with_values(np.log1p(m.values), sorted_flag=m.sorted_flag)


def column_sort(m: ExpressionMatrix) -> ExpressionMatrix:
    """Sort every column ascending (the X* representation)."""
    return m.with_values(np.sort(m.values, axis=0), sorted_flag=True)


def component_wise_median(m: ExpressionMatrix):
    """Vector of per-row medians; non-decreasing when the input is sorted.

    Note the result need not resemble any sample column and can even fall
    outside the convex hull of the columns, which is what motivates the
    depth-based reference.
    """
    from .normalize import ReferenceCurve

    return ReferenceCurve(np.median(m.values, axis=1), source_tag="component_median")


_ANCHORS = ("median", "q75", "mean", "sum")


def _anchor_stat(values: np.ndarray, anchor: str) -> np.ndarray:
    if anchor == "median":
        return np.median(values, axis=0)
    if anchor == "q75":
        return np.quantile(values, 0.75, axis=0)
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
    return m.with_values(m.values * (grand / stat), sorted_flag=m.sorted_flag)
