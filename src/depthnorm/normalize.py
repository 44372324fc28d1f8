"""Quantile mapping of sample columns onto a common reference scale."""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .core import (
    _WRITE_CELLS,
    LINE_END,
    DimensionError,
    DomainError,
    ExpressionMatrix,
    ReferenceCurve,
    column_sort,
    component_wise_median,
    write_rows,
)
from .depth import BorderSequence, deepest_curve, peel_borders


def _check_ref(m: ExpressionMatrix, ref: ReferenceCurve) -> np.ndarray:
    rv = ref.values
    if rv.shape[0] != m.n_features:
        raise DimensionError(
            f"reference length {rv.shape[0]} does not match G={m.n_features}"
        )
    if not ref.is_non_decreasing:
        raise DomainError("reference curve must be non-decreasing for quantile mapping")
    return rv


def rank_map_into(values: np.ndarray, rv: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` each value of ``values`` replaced by ``rv`` at its within-column rank.

    ``rv`` is non-decreasing with one entry per row.  Tied values share
    the average of ``rv`` over their rank range, so the map stays
    well-defined and order-preserving.  Every member of a tie run gets
    the same value, so the order within a run cannot change the output
    and the argsort need not be stable.  Besides the argsort, a column's
    temporaries are two boolean masks and arrays the size of its ties.
    """
    g = values.shape[0]
    csum = np.concatenate(([0.0], np.cumsum(rv)))
    for j in range(values.shape[1]):
        col = values[:, j]
        order = np.argsort(col)
        sorted_col = col[order]
        # tied[k]: ranks k and k + 1 hold one value
        tied = sorted_col[1:] == sorted_col[:-1]
        del sorted_col
        # untied values take the reference entry itself
        out[order, j] = rv
        # a run of tied ranks [s, e) begins and ends where tied changes
        changes = np.flatnonzero(np.diff(np.concatenate(([False], tied, [False]))))
        starts, ends = changes[0::2], changes[1::2] + 1
        lengths = ends - starts
        # a tie run averages its reference values, held within them against round-off
        means = np.clip((csum[ends] - csum[starts]) / lengths, rv[starts], rv[ends - 1])
        in_run = np.zeros(g, dtype=bool)
        in_run[1:] = tied
        in_run[:-1] |= tied
        out[order[in_run], j] = np.repeat(means, lengths)


def quantile_normalize_full(m: ExpressionMatrix, ref: ReferenceCurve) -> ExpressionMatrix:
    """Replace each value by the reference value at its within-column rank.

    Tie runs take the average of the reference over their rank range
    (see :func:`rank_map_into`).
    """
    out = np.empty_like(m.values)
    rank_map_into(m.values, _check_ref(m, ref), out)
    return m.with_values(out)


def _column_knots(col: np.ndarray, levels: np.ndarray, ref_q: np.ndarray, j: int):
    """Column quantile knots with zero-width brackets collapsed.

    A run of equal column quantiles maps interior points to the midpoint
    of the corresponding reference bracket.  The knots at levels 0 and 1
    are the column's min and max: np.quantile interpolates them as
    a + (b - a) * 0, which is NaN when b - a overflows.  A gap between
    knots that overflows would give np.interp a zero slope, so it is an
    error, as is a knot that is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cq = np.quantile(col, levels)
        cq[0], cq[-1] = col.min(), col.max()
        gaps = np.diff(cq)  # not finite where a knot is not, or where a gap overflows
    if not np.isfinite(gaps).all():
        raise DomainError(
            f"column {j + 1}: its range overflows float64 between quantile knots; "
            "rescale the data"
        )
    starts = np.concatenate(([0], np.flatnonzero(gaps) + 1))
    ends = np.concatenate((starts[1:], [len(cq)])) - 1
    xp = cq[starts]
    fp = np.where(starts == ends, ref_q[starts], 0.5 * (ref_q[starts] + ref_q[ends]))
    return xp, fp


def quantile_normalize_subset(m: ExpressionMatrix, ref: ReferenceCurve, knots: int) -> ExpressionMatrix:
    """Map columns by linear interpolation between ``knots`` matched quantile knots.

    The knots sit at the evenly spaced levels ``np.linspace(0, 1, knots)``.
    Quantiles are evaluated with the linear order-statistic convention
    (level p sits at position 1 + (G-1)p), so column knots map exactly
    onto the corresponding reference knots, and the knots at levels 0 and
    1 are each column's min and max.
    """
    if knots < 2:
        raise DomainError("need at least 2 grid knots")
    rv = _check_ref(m, ref)
    levels = np.linspace(0.0, 1.0, knots)
    ref_q = np.quantile(rv, levels)
    out = np.empty_like(m.values)
    for j in range(m.n_samples):
        col = m.values[:, j]
        xp, fp = _column_knots(col, levels, ref_q, j)
        out[:, j] = np.interp(col, xp, fp)
    return m.with_values(out)


class PipelineResult(NamedTuple):
    matrix: ExpressionMatrix
    reference: ReferenceCurve
    borders: Optional[BorderSequence]


def normalize_pipeline(
    m: ExpressionMatrix, reference: str = "deepest", knots: Optional[int] = None
) -> PipelineResult:
    """Build the reference from the sorted columns of ``m`` and map the columns onto it.

    ``m`` is mapped as given: a caller that wants the paper's first step,
    the linear rescaling of each column, applies
    :func:`~depthnorm.core.linear_prenormalize` first.  The output keeps
    the row order of ``m``.  ``reference`` selects the component-wise
    median of the sorted columns or the deepest sorted column.  With
    ``knots`` the columns are interpolated between that many evenly spaced
    quantile knots (:func:`quantile_normalize_subset`); without them they
    take the reference value at each rank.

    Memory: besides ``m``, one matrix-sized array is alive at a time, the
    sorted curves or the output (the component-wise median partitions one
    more copy of the curves for a moment).
    """
    curves = column_sort(m)
    borders = None
    if reference == "component_median":
        ref = component_wise_median(curves)
    elif reference == "deepest":
        borders = peel_borders(curves)
        ref = deepest_curve(curves, borders)
    else:
        raise DomainError(f"unknown reference {reference!r}")
    # the map reads the unsorted columns: the sorted copy goes before it
    # allocates its output
    del curves
    if knots is None:
        mapped = quantile_normalize_full(m, ref)
    else:
        mapped = quantile_normalize_subset(m, ref, knots)
    return PipelineResult(mapped, ref, borders)


def save_reference_csv(ref: ReferenceCurve, path) -> None:
    """The source tag, then one value per line as csv would write it."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, [[ref.source_tag]])
        # the repr of a finite float holds no comma, quote or line break
        for at in range(0, ref.values.size, _WRITE_CELLS):
            chunk = ref.values[at:at + _WRITE_CELLS].tolist()
            fh.write(LINE_END.join(map(repr, chunk)) + LINE_END)
