"""Numeric kernels used by the hot paths, one numpy implementation each.

The summarization kernels work on batches of equal-shape blocks.  A
single block is a batch of one, and ragged probe layouts are grouped by
block size, each size running in batches of at most ``_CHUNK_VALUES``
values, so a kernel's temporaries stay small whatever the matrix size.
Blocks are independent, so the batching does not change a bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import DomainError

# ---------------------------------------------------------------------------
# pairwise column distances


# rows of differences per einsum call in pairwise_dists: a few rows of G values
_DIST_ROWS = 4


def _row_blocks(start: int, stop: int):
    """(a, b) edges of blocks of ``_DIST_ROWS`` rows covering [start, stop).

    A one-row remainder joins the block before it, so a block has one row
    only when the whole range has.  ``einsum`` sums a one-row operand in
    another order than the same row inside a larger block, so this keeps
    every distance's bits those of one call on the whole range.
    """
    edges = list(range(start, stop, _DIST_ROWS)) + [stop]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def pairwise_dists(xt: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Euclidean distances between the rows of ``xt`` (n x G), as n x n.

    With ``rows``, the distances are between those rows of ``xt``, in
    their order, and no copy of them is made.  Row i's differences to the
    rows after it are taken a block of a few rows at a time: the block's
    rows are gathered into one reused buffer and row i subtracted there,
    so the temporaries hold at most ``_DIST_ROWS + 1`` rows whatever n is,
    and the blocks, and with them the bits, are those of the same rows as
    a whole array.  Values whose differences or squares overflow give inf
    entries, without a warning, for the caller to reject.
    """
    # as positions in range, so the "clip" below never clips
    rows = np.arange(xt.shape[0]) if rows is None else np.arange(xt.shape[0])[rows]
    n = len(rows)
    d = np.zeros((n, n))
    buf = np.empty((min(n, _DIST_ROWS + 1), xt.shape[1]))
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            for a, b in _row_blocks(i + 1, n):
                # "clip" writes straight into the buffer, where "raise" buffers a copy
                diff = np.take(xt, rows[a:b], axis=0, out=buf[: b - a], mode="clip")
                np.subtract(diff, xt[rows[i]], out=diff)
                d[i, a:b] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return d + d.T


def centred_gram_dists(c: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``c`` (n x G), whose columns have mean 0.

    Uses d² = ‖a‖² + ‖b‖² − 2a·b.  The error in d² is of order
    eps * (‖a‖² + ‖b‖²), so a pair much closer than the rows' spread
    loses relative accuracy.  Values whose squares overflow give inf or
    nan entries, without a warning, for the caller's ``DistanceMatrix``
    to reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = c @ c.T
        sq = np.diag(gram)
        d2 = sq[:, None] + sq[None, :] - 2.0 * gram
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        return np.sqrt(d2)


# ---------------------------------------------------------------------------
# short-axis median


def median(a: np.ndarray, axis: int) -> np.ndarray:
    """``np.median(a, axis=axis)`` of finite ``a``, bit for bit, from one sort.

    On an axis of a dozen elements one sort beats ``np.median``'s
    partition and mean.  The middle pair is summed from ``+0.0`` and
    halved, as ``np.mean`` does, so two ``-0.0`` give ``+0.0`` while a
    negative subnormal sum still halves to ``-0.0``.  NaN is not
    propagated: the summarizers reject non-finite input at entry.
    """
    s = np.sort(a, axis=axis)
    n = s.shape[axis]
    hi = np.take(s, n // 2, axis=axis)
    if n % 2:
        return hi + 0.0
    return (np.take(s, n // 2 - 1, axis=axis) + hi + 0.0) / 2


# ---------------------------------------------------------------------------
# median polish


# values (blocks x rows x columns) in one summarizer batch: on a 1,000 x 11 x 12
# dataset 8,192 made the biweight clearly slower, and larger batches were no
# faster while their temporaries grow with the batch
_CHUNK_VALUES = 32_768


def _size_groups(starts, n):
    """Yield (gene indices, their row indices as genes x size) per batch of equal-size blocks.

    Each batch holds at most ``_CHUNK_VALUES`` values of an ``n``-column
    matrix, and at least one block.
    """
    sizes = np.diff(starts)
    for size in np.unique(sizes):
        genes = np.flatnonzero(sizes == size)
        step = max(1, _CHUNK_VALUES // (size * n))
        for at in range(0, genes.size, step):
            chunk = genes[at:at + step]
            yield chunk, starts[chunk][:, None] + np.arange(size)


def polish_blocks(resid, max_iter, tol):
    """Median polish of equal-shape float64 blocks, in place on ``resid``.

    Blocks that converge are frozen, so each block sees exactly the sweep
    sequence it would see on its own.
    """
    nblocks, p, n = resid.shape
    row = np.zeros((nblocks, p))
    col = np.zeros((nblocks, n))
    overall = np.zeros(nblocks)
    oldsum = np.zeros(nblocks)
    active = np.ones(nblocks, dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        r = resid[idx]
        rdelta = median(r, axis=2)
        r -= rdelta[:, :, None]
        row[idx] += rdelta
        delta = median(col[idx], axis=1)
        col[idx] -= delta[:, None]
        overall[idx] += delta
        cdelta = median(r, axis=1)
        r -= cdelta[:, None, :]
        col[idx] += cdelta
        delta = median(row[idx], axis=1)
        row[idx] -= delta[:, None]
        overall[idx] += delta
        resid[idx] = r
        newsum = np.abs(r).sum(axis=(1, 2))
        done = (newsum == 0.0) | (np.abs(newsum - oldsum[idx]) < tol * newsum)
        oldsum[idx] = newsum
        active[idx[done]] = False
    return overall, row, col, resid


def polish_summaries(values, starts, max_iter, tol):
    """Per-block median-polish summaries (overall + column effects)."""
    out = np.empty((starts.shape[0] - 1, values.shape[1]))
    for genes, rows in _size_groups(starts, values.shape[1]):
        overall, _, col, _ = polish_blocks(values[rows], max_iter, tol)
        out[genes] = overall[:, None] + col
    return out


# ---------------------------------------------------------------------------
# biweight location


def biweight_series(series, c, eps, max_iter, tol):
    """Biweight location of many equal-length series (rows of ``series``)."""
    t = median(series, axis=1)
    with np.errstate(over="ignore"):
        mad = median(np.abs(series - t[:, None]), axis=1)
        scale = c * mad
    # an infinite scale would give every value weight 1: the mean, not the biweight
    if not np.isfinite(scale).all():
        raise DomainError("biweight scale c * MAD overflows float64; rescale the data")
    out = t.copy()
    idx = np.flatnonzero(mad != 0.0)
    s = series[idx]
    denom = (scale + eps)[idx]
    t = t[idx]
    for _ in range(max_iter):
        if idx.size == 0:
            break
        u = (s - t[:, None]) / denom[:, None]
        w = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)
        wsum = w.sum(axis=1)
        dead = wsum == 0.0
        t_new = np.where(dead, t, (w * s).sum(axis=1) / np.where(dead, 1.0, wsum))
        out[idx] = t_new
        keep = ~(dead | (np.abs(t_new - t) <= tol))
        idx = idx[keep]
        s = s[keep]
        denom = denom[keep]
        t = t_new[keep]
    return out


def biweight_summaries(values, starts, c, eps, max_iter, tol):
    """Per-block, per-column biweight locations."""
    n = values.shape[1]
    out = np.empty((starts.shape[0] - 1, n))
    for genes, rows in _size_groups(starts, n):
        # gathered as genes x n x size, so each series is one contiguous row
        series = values[rows[:, None, :], np.arange(n)[:, None]].reshape(genes.size * n, -1)
        out[genes] = biweight_series(series, c, eps, max_iter, tol).reshape(genes.size, n)
    return out
