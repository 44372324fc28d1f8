"""Quantile mapping of sample columns onto a common reference scale."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    ExpressionMatrix,
    column_sort,
    component_wise_median,
    linear_prenormalize,
    write_rows,
)
from .depth import BorderSequence, deepest_curve, peel_borders


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
class QuantileGrid:
    """Strictly increasing probability levels including 0 and 1."""

    levels: tuple[float, ...]

    def __post_init__(self):
        levels = tuple(float(p) for p in self.levels)
        if len(levels) < 2:
            raise DimensionError("grid needs at least the levels 0 and 1")
        if levels[0] != 0.0 or levels[-1] != 1.0:
            raise DomainError("grid must start at 0 and end at 1")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DomainError("grid levels must be strictly increasing")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def uniform(cls, knots: int) -> "QuantileGrid":
        """Evenly spaced grid with ``knots`` levels (>= 2)."""
        if knots < 2:
            raise DomainError("need at least 2 grid knots")
        return cls(tuple(np.linspace(0.0, 1.0, knots)))


def _check_ref(m: ExpressionMatrix, ref: ReferenceCurve) -> np.ndarray:
    rv = ref.values
    if rv.shape[0] != m.n_features:
        raise DimensionError(
            f"reference length {rv.shape[0]} does not match G={m.n_features}"
        )
    if not ref.is_non_decreasing:
        raise DomainError("reference curve must be non-decreasing for quantile mapping")
    return rv


def quantile_normalize_full(m: ExpressionMatrix, ref: ReferenceCurve) -> ExpressionMatrix:
    """Replace each value by the reference value at its within-column rank.

    Tied values share the average of the reference values over their rank
    range, so the map stays well-defined and order-preserving.  Every
    member of a tie run gets the same value, so the order within a run
    cannot change the output and the argsort need not be stable.
    """
    rv = _check_ref(m, ref)
    g = m.n_features
    csum = np.concatenate(([0.0], np.cumsum(rv)))
    out = np.empty_like(m.values)
    for j in range(m.n_samples):
        col = m.values[:, j]
        order = np.argsort(col)
        sorted_col = col[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_col)) + 1))
        ends = np.concatenate((starts[1:], [g]))
        lengths = ends - starts
        # untied values take the reference entry itself; only tie runs average,
        # held within their run's reference values against round-off
        means = np.clip((csum[ends] - csum[starts]) / lengths, rv[starts], rv[ends - 1])
        run_values = np.where(lengths == 1, rv[starts], means)
        out[order, j] = np.repeat(run_values, lengths)
    return m.with_values(out)


def _column_knots(col: np.ndarray, levels: np.ndarray, ref_q: np.ndarray):
    """Column quantile knots with zero-width brackets collapsed.

    A run of equal column quantiles maps interior points to the midpoint
    of the corresponding reference bracket.
    """
    cq = np.quantile(col, levels)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(cq)) + 1))
    ends = np.concatenate((starts[1:], [len(cq)])) - 1
    xp = cq[starts]
    fp = np.where(starts == ends, ref_q[starts], 0.5 * (ref_q[starts] + ref_q[ends]))
    return xp, fp


def quantile_normalize_subset(
    m: ExpressionMatrix, ref: ReferenceCurve, grid: QuantileGrid
) -> ExpressionMatrix:
    """Map columns by linear interpolation between matched quantile knots.

    Quantiles are evaluated with the linear order-statistic convention
    (level p sits at position 1 + (G-1)p), so grid knots map exactly onto
    the corresponding reference knots.
    """
    rv = _check_ref(m, ref)
    levels = np.asarray(grid.levels)
    ref_q = np.quantile(rv, levels)
    out = np.empty_like(m.values)
    for j in range(m.n_samples):
        col = m.values[:, j]
        xp, fp = _column_knots(col, levels, ref_q)
        if col.min() < xp[0] or col.max() > xp[-1]:
            raise DomainError(
                f"column {m.sample_ids[j]!r} has values outside its quantile range; "
                "extrapolation is not defined"
            )
        out[:, j] = np.interp(col, xp, fp)
    return m.with_values(out)


class PipelineResult(NamedTuple):
    matrix: ExpressionMatrix
    reference: ReferenceCurve
    borders: Optional[BorderSequence]


def normalize_pipeline(
    m: ExpressionMatrix,
    prenorm_anchor: Optional[str] = "median",
    reference: str = "deepest",
    grid: Optional[QuantileGrid] = None,
) -> PipelineResult:
    """Scale columns, build the reference from the sorted columns, map.

    The optional linear prenormalization (median anchor by default) is
    applied before depth computation and the quantile map is applied to
    the prenormalized, unsorted columns; the output keeps the original
    row order.  ``reference`` selects the component-wise median of the
    sorted columns or the deepest sorted column.  With a ``grid`` the
    columns are interpolated between its quantile knots; without one they
    take the reference value at each rank.
    """
    work = linear_prenormalize(m, prenorm_anchor) if prenorm_anchor else m
    sorted_m = column_sort(work)
    borders = None
    if reference == "component_median":
        ref = component_wise_median(sorted_m)
    elif reference == "deepest":
        borders = peel_borders(sorted_m)
        ref = deepest_curve(sorted_m, borders)
    else:
        raise DomainError(f"unknown reference {reference!r}")
    if grid is None:
        mapped = quantile_normalize_full(work, ref)
    else:
        mapped = quantile_normalize_subset(work, ref, grid)
    return PipelineResult(mapped, ref, borders)


def save_reference_csv(ref: ReferenceCurve, path) -> None:
    write_rows(path, chain([[ref.source_tag]], ([x] for x in ref.values.tolist())))
