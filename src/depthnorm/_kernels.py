"""Numeric kernels used by the hot paths, one numpy implementation each.

The summarization kernels work on batches of equal-shape blocks.  A
single block is a batch of one, and ragged probe layouts are grouped by
block size, each size split into equal batches of at most
``_CHUNK_VALUES`` values, so a kernel's temporaries stay small whatever
the matrix size.  A sweep works in place on its batch, with one scratch
array of the batch's shape, and keeps the blocks or series still
iterating at the front, so it makes one numpy call per step whatever the
batch holds: the fewer the calls, the less two workers wait on each
other for the GIL.  Blocks are independent and a converged one is
frozen, so neither the batching nor the compaction changes a bit.  The
biweight sweeps a probes x series batch, one series per column, so its
sums add the probe rows in order and a series' bits do not depend on the
batch it is in.
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


def pairwise_dists(xt: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``xt`` (n x G), as n x n.

    Row i's differences to the rows after it are taken a block of a few
    rows at a time, subtracted into one reused buffer, so the temporaries
    hold at most ``_DIST_ROWS + 1`` rows whatever n is.  Values whose
    differences or squares overflow give inf entries, without a warning,
    for the caller to reject.
    """
    n = xt.shape[0]
    d = np.zeros((n, n))
    buf = np.empty((min(n, _DIST_ROWS + 1), xt.shape[1]))
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            for a, b in _row_blocks(i + 1, n):
                diff = np.subtract(xt[a:b], xt[i], out=buf[: b - a])
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


def median(a: np.ndarray, axis: int, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.median(a, axis=axis)`` of finite ``a``, bit for bit, from one sort.

    On an axis of a dozen elements one sort beats ``np.median``'s
    partition and mean.  The middle pair is summed from ``+0.0`` and
    halved, as ``np.mean`` does, so two ``-0.0`` give ``+0.0`` while a
    negative subnormal sum still halves to ``-0.0``.  NaN is not
    propagated: the summarizers reject non-finite input at entry.
    With ``scratch``, an array of ``a``'s shape (``a`` itself included),
    the sort runs there in place of a new copy, as ``np.sort`` would.
    """
    if scratch is None:
        s = np.sort(a, axis=axis)
    else:
        if scratch is not a:
            np.copyto(scratch, a)
        scratch.sort(axis=axis)
        s = scratch
    n = s.shape[axis]
    hi = np.take(s, n // 2, axis=axis)
    if n % 2:
        return hi + 0.0
    return (np.take(s, n // 2 - 1, axis=axis) + hi + 0.0) / 2


# ---------------------------------------------------------------------------
# median polish


# values (blocks x rows x columns) in one summarizer batch.  A sweep makes the same
# numpy calls whatever its batch holds, and each call hands the GIL over, so two
# workers scale better on fewer, larger batches.  On the 1,000 x 11 x 12 dataset
# (2 vCPUs) the biweight took 43 ms a call on one thread and 30 on two at 32,768
# (5 batches), 35 and 22 here (2 batches), and 31 and 18 in one batch, whose
# traced peak per dataset was 5.7 MB against 4.1 here.
_CHUNK_VALUES = 131_072


def _size_groups(starts, n):
    """Yield (gene indices, their row indices as genes x size) per batch of equal-size blocks.

    The blocks of each size are split into as few batches of at most
    ``_CHUNK_VALUES`` values of an ``n``-column matrix as hold them, of
    equal length to within one block, so there is no small tail batch; a
    block larger than the bound is a batch of its own.
    """
    sizes = np.diff(starts)
    for size in np.unique(sizes):
        genes = np.flatnonzero(sizes == size)
        per_batch = max(1, _CHUNK_VALUES // (size * n))
        for chunk in np.array_split(genes, -(-genes.size // per_batch)):
            yield chunk, starts[chunk][:, None] + np.arange(size)


def polish_blocks(resid, max_iter, tol):
    """Median polish of equal-shape float64 blocks, in place on ``resid``.

    Blocks that converge are frozen, so each block sees exactly the sweep
    sequence it would see on its own.  The active blocks stay at the front
    of ``resid``, their effects and L1 norms in compact arrays, so a sweep
    makes one call per step over all of them.  A block that converges
    writes its effects out and moves behind the active ones, and
    ``resid`` is put back in block order at the end.  The sorts and
    ``|r|`` share one scratch array of ``resid``'s shape.
    """
    nblocks, p, n = resid.shape
    overall = np.zeros(nblocks)
    row = np.zeros((nblocks, p))
    col = np.zeros((nblocks, n))
    ov, rw, cl, oldsum = overall.copy(), row.copy(), col.copy(), overall.copy()
    slot = np.arange(nblocks)  # the block each slot of resid holds
    buf = np.empty_like(resid)
    k = nblocks  # the active blocks are slots 0..k-1
    for _ in range(max_iter):
        if k == 0:
            break
        r, b = resid[:k], buf[:k]
        rdelta = median(r, 2, b)
        r -= rdelta[:, :, None]
        rw += rdelta
        delta = median(cl, 1)
        cl -= delta[:, None]
        ov += delta
        cdelta = median(r, 1, b)
        r -= cdelta[:, None, :]
        cl += cdelta
        delta = median(rw, 1)
        rw -= delta[:, None]
        ov += delta
        newsum = np.add.reduce(np.abs(r, out=b), axis=(1, 2))
        done = (newsum == 0.0) | (np.abs(newsum - oldsum) < tol * newsum)
        oldsum = newsum
        if done.any():
            keep, gone = np.flatnonzero(~done), np.flatnonzero(done)
            blocks = slot[gone]
            overall[blocks], row[blocks], col[blocks] = ov[gone], rw[gone], cl[gone]
            order = np.concatenate((keep, gone))
            # "clip" writes straight into the scratch, where "raise" buffers a copy
            np.take(r, order, axis=0, out=b, mode="clip")
            np.copyto(r, b)
            slot[:k] = slot[order]
            ov, rw, cl, oldsum = ov[keep], rw[keep], cl[keep], oldsum[keep]
            k = keep.size
    blocks = slot[:k]  # still active after max_iter sweeps
    overall[blocks], row[blocks], col[blocks] = ov, rw, cl
    if (slot != np.arange(nblocks)).any():
        np.take(resid, np.argsort(slot), axis=0, out=buf, mode="clip")
        np.copyto(resid, buf)
    return overall, row, col, resid


def polish_summaries(values, starts, max_iter, tol):
    """Per-block median-polish summaries (overall + column effects)."""
    out = np.empty((starts.shape[0] - 1, values.shape[1]))
    for genes, rows in _size_groups(starts, values.shape[1]):
        overall, _, col, resid = polish_blocks(values[rows], max_iter, tol)
        out[genes] = overall[:, None] + col
        del resid  # before the next batch is gathered
    return out


# ---------------------------------------------------------------------------
# biweight location


def _biweight_columns(s, c, eps, max_iter, tol):
    """Biweight location of each column of ``s`` (p x k, C-ordered), which it overwrites.

    Every step broadcasts a length-k vector down p contiguous rows, and
    ``np.add.reduce(u, axis=0)`` adds those rows one after another, so
    each series' sums run in probe order from +0.0 whatever the batch
    holds.  A single column would be summed pairwise instead, so the
    active set never shrinks to one: a lone series sweeps beside a copy
    of itself.  The columns still iterating are taken to the front of a
    scratch of ``s``'s size as a p x k C-ordered array, which becomes
    ``s``.
    """
    p, m = s.shape
    if m == 1:
        s = np.repeat(s, 2, axis=1)
    w = np.empty_like(s)
    sf, wf = s.reshape(-1), w.reshape(-1)
    t = median(s, 0, w)
    with np.errstate(over="ignore"):
        mad = median(np.abs(np.subtract(s, t, out=w), out=w), 0, w)
        scale = c * mad
    # an infinite scale would give every value weight 1: the mean, not the biweight
    if not np.isfinite(scale).all():
        raise DomainError("biweight scale c * MAD overflows float64; rescale the data")
    out = t.copy()
    idx = np.flatnonzero(mad != 0.0)
    if idx.size < s.shape[1]:
        idx = _never_one(idx)
        np.take(s, idx, axis=1, out=_front(wf, p, idx.size), mode="clip")
        sf, wf = wf, sf
    denom = (scale + eps)[idx]
    t = t[idx]
    for _ in range(max_iter):
        k = idx.size
        if k == 0:
            break
        a, u = _front(sf, p, k), _front(wf, p, k)
        np.subtract(a, t, out=u)
        np.divide(u, denom, out=u)
        np.multiply(u, u, out=u)
        np.subtract(1.0, u, out=u)
        # (1 - u²)² where |u| < 1 and 0 elsewhere, bit for bit
        np.square(np.maximum(u, 0.0, out=u), out=u)
        wsum = np.add.reduce(u, axis=0)
        num = np.add.reduce(np.multiply(u, a, out=u), axis=0)
        dead = wsum == 0.0
        t_new = np.where(dead, t, num / np.where(dead, 1.0, wsum))
        out[idx] = t_new
        keep = np.flatnonzero(~(dead | (np.abs(t_new - t) <= tol)))
        if keep.size < k:
            keep = _never_one(keep)
            np.take(a, keep, axis=1, out=_front(wf, p, keep.size), mode="clip")
            sf, wf = wf, sf
            idx, denom, t_new = idx[keep], denom[keep], t_new[keep]
        t = t_new
    return out[:m]


def _never_one(cols):
    """``cols``, with a lone column taken twice."""
    return np.repeat(cols, 2) if cols.size == 1 else cols


def _front(flat, p, k):
    """The first p * k values of ``flat`` as a C-ordered p x k array."""
    return flat[:p * k].reshape(p, k)


def biweight_series(series, c, eps, max_iter, tol):
    """Biweight location of many equal-length series (rows of ``series``)."""
    s = np.asarray(series, dtype=np.float64).T.copy()  # the caller's rows stay as they are
    return _biweight_columns(s, c, eps, max_iter, tol)


def biweight_summaries(values, starts, c, eps, max_iter, tol):
    """Per-block, per-column biweight locations."""
    n = values.shape[1]
    out = np.empty((starts.shape[0] - 1, n))
    for genes, rows in _size_groups(starts, n):
        # gathered as size x (genes * n), so each series is one column
        series = np.take(values, rows.T, axis=0).reshape(rows.shape[1], -1)
        out[genes] = _biweight_columns(series, c, eps, max_iter, tol).reshape(genes.size, n)
    return out
