"""Functional depth of sample columns by iterated farthest-pair extraction.

Column-sorted samples are treated as non-decreasing curves under the
Euclidean (L2) distance.  The farthest pair of curves forms the outermost
border; removing it and repeating peels the sample inward, and a column's
depth is the index of the border it lands in divided by the sample size.
The members of the innermost border are the deepest curves and serve as
the normalization reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core import (
    DataError, DimensionError, DomainError, ExpressionMatrix, ReferenceCurve, write_rows,
)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric n x n matrix of inter-column distances."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionError(f"distance matrix must be square, got {d.shape}")
        if not np.isfinite(d).all():
            raise DomainError("non-finite distance")
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class Border:
    """One extracted border: a farthest pair, or a final odd singleton."""

    members: tuple[int | str, ...]  # column positions; sample ids in an OutlierReport
    distance: float


@dataclass(frozen=True)
class BorderSequence:
    """All borders in extraction order; they partition the column indices.

    The sequence is the whole record of depth: ``border_index`` gives each
    column the 1-based index of its border and ``depth`` divides it by n.
    """

    borders: tuple[Border, ...]
    n: int

    def distances(self) -> np.ndarray:
        return np.array([b.distance for b in self.borders])

    @property
    def deepest_members(self) -> tuple[int, ...]:
        return self.borders[-1].members

    @property
    def border_index(self) -> np.ndarray:
        index = np.empty(self.n, dtype=np.intp)
        for k, border in enumerate(self.borders, start=1):
            index[list(border.members)] = k
        return index

    @property
    def depth(self) -> np.ndarray:
        return self.border_index / self.n


def pairwise_distances(m: ExpressionMatrix) -> DistanceMatrix:
    """Euclidean distance between every pair of columns.

    The kernel reads the columns as rows: a :func:`~depthnorm.core.column_sort`
    result is already laid out so, and any other matrix is copied once.
    """
    d = _kernels.pairwise_dists(np.ascontiguousarray(m.values.T))
    # the values are finite, so a non-finite distance is an overflow
    if not np.isfinite(d).all():
        raise DataError(
            "column distances overflow float64: the values are too large; rescale the data"
        )
    return DistanceMatrix(d)


def extract_borders(dm: DistanceMatrix) -> BorderSequence:
    """Peel farthest pairs off the sample until at most one column is left.

    Each round removes the pair with the largest distance among the
    remaining columns (ties broken toward the lexicographically smallest
    index pair); with an odd sample the final column forms a singleton
    border at distance 0.  One sort of all pairs followed by a sweep gives
    the same sequence as rescanning every round.
    """
    n = dm.n
    if n < 2:
        raise DimensionError("need at least 2 columns to extract borders")
    iu, ju = np.triu_indices(n, 1)
    dist = dm.d[iu, ju]
    # descending distance, then ascending (i, j)
    order = np.lexsort((ju, iu, -dist))
    used = np.zeros(n, dtype=bool)
    borders = []
    for k in order:
        i, j = int(iu[k]), int(ju[k])
        if used[i] or used[j]:
            continue
        used[i] = used[j] = True
        borders.append(Border((i, j), float(dist[k])))
    leftover = np.flatnonzero(~used)
    if leftover.size:
        borders.append(Border((int(leftover[0]),), 0.0))
    return BorderSequence(tuple(borders), n)


def peel_borders(m: ExpressionMatrix) -> BorderSequence:
    """Border sequence of the columns of ``m``, the one path from curves to depth.

    Depth, the normalization reference and the outlier fence are all read
    from this sequence; pass a column-sorted matrix for the paper's depth.
    """
    return extract_borders(pairwise_distances(m))


def deepest_curve(m: ExpressionMatrix, borders: Optional[BorderSequence] = None):
    """Reference curve: the component-wise mean of the deepest border's members.

    Intended for column-sorted matrices (the depth is defined on the
    sorted curves), where the mean of a deepest pair is still
    non-decreasing and a singleton deepest border gives that column (a
    -0.0 entry comes back as 0.0).
    """
    if borders is None:
        borders = peel_borders(m)
    members = borders.deepest_members
    tag = "deepest" if len(members) == 1 else "deepest_pair_average"
    return ReferenceCurve(m.values[:, list(members)].mean(axis=1), source_tag=tag)


def depth_records(m: ExpressionMatrix, bs: BorderSequence):
    """Rows for the depth CSV export, one per sample column."""
    border_index = bs.border_index
    partner = {}
    for border in bs.borders:
        if len(border.members) == 2:
            a, b = border.members
            partner[a], partner[b] = b, a
    rows = []
    for j in range(bs.n):
        k = int(border_index[j])
        rows.append(
            {
                "sample_id": m.sample_ids[j],
                "border_index": k,
                "depth": f"{k}/{bs.n}",
                "intra_pair_distance": float(bs.borders[k - 1].distance),
                "pair_partner_id": m.sample_ids[partner[j]] if j in partner else "",
            }
        )
    return rows


def save_depth_csv(m: ExpressionMatrix, bs: BorderSequence, path) -> None:
    fields = ["sample_id", "border_index", "depth", "intra_pair_distance", "pair_partner_id"]
    write_rows(path, [fields, *([r[f] for f in fields] for r in depth_records(m, bs))])
