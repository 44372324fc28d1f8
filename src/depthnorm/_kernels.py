"""Numeric kernels used by the hot paths, one numpy implementation each.

The summarization kernels work on batches of equal-shape blocks.  A
single block is a batch of one, and ragged probe layouts are grouped by
block size so that each size runs as one batch.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError

# ---------------------------------------------------------------------------
# pairwise column distances


def pairwise_dists(xt: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``xt`` (n x G), as n x n.

    Values whose differences or squares overflow give inf entries,
    without a warning, for the caller to reject.
    """
    n = xt.shape[0]
    d = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            diff = xt[i + 1:] - xt[i]
            d[i, i + 1:] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return d + d.T


def gram_dists(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` (n x G), from one Gram product.

    Subtracts each feature's mean over the rows, then calls
    ``centred_gram_dists``; on sorted curves, which share their trend,
    the centring removes most of the cancellation.  Agrees with
    ``pairwise_dists`` to round-off, not bit for bit, so only the
    Monte-Carlo surrogates use it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return centred_gram_dists(x - x.mean(axis=0))


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


def _size_groups(starts):
    """Yield (gene indices, their row indices as genes x size) per block size."""
    sizes = np.diff(starts)
    for size in np.unique(sizes):
        genes = np.flatnonzero(sizes == size)
        yield genes, starts[genes][:, None] + np.arange(size)


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
    for genes, rows in _size_groups(starts):
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
    for genes, rows in _size_groups(starts):
        # gathered as genes x n x size, so each series is one contiguous row
        series = values[rows[:, None, :], np.arange(n)[:, None]].reshape(genes.size * n, -1)
        out[genes] = biweight_series(series, c, eps, max_iter, tol).reshape(genes.size, n)
    return out
