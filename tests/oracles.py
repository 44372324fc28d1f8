"""Independent reference implementations the tests check against.

These deliberately share no code with the package: the border oracle
rescans the full distance matrix every round (O(n^3)), the fence oracle
applies the classic one-dimensional rule, and the biweight oracle is a
direct transcription of the weighting iteration.  The calibration
replicate oracle allocates every step afresh.  The rank-map oracle
is the tie-averaging quantile map with a stable argsort.  The matrix text
oracles are the cell-by-cell reader and the csv.writer writer that the
vectorized ``load_matrix`` and ``save_matrix`` must match.
"""

import csv
from itertools import chain

import numpy as np


def borders_oracle(d: np.ndarray):
    """Rescan-every-round farthest-pair extraction.

    Ties broken toward the lexicographically smallest (i, j), matching
    the library rule.  Returns [(members, distance), ...].
    """
    n = d.shape[0]
    remaining = list(range(n))
    out = []
    while len(remaining) >= 2:
        best = None
        for a in range(len(remaining)):
            for b in range(a + 1, len(remaining)):
                i, j = remaining[a], remaining[b]
                key = (-d[i, j], i, j)
                if best is None or key < best[0]:
                    best = (key, (i, j))
        i, j = best[1]
        out.append(((i, j), d[i, j]))
        remaining.remove(i)
        remaining.remove(j)
    if remaining:
        out.append(((remaining[0],), 0.0))
    return out


def replicate_quantile_oracle(rng, n: int, n_features: int, factor: np.ndarray,
                              target_rate: float) -> float:
    """One calibration replicate, each step in a freshly allocated array.

    The surrogates are ``factor @ z`` with rows sorted; their distances
    follow the centred Gram formula (d² = ‖a‖² + ‖b‖² − 2a·b, clipped at
    0) and their borders come from ``borders_oracle``.  Returns the
    (1 - target_rate) quantile of the per-column ratios.
    """
    x = factor @ rng.standard_normal((n, n_features))
    x.sort(axis=1)
    c = x - x.mean(axis=0)
    gram = c @ c.T
    sq = np.diag(gram)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    np.fill_diagonal(d2, 0.0)
    borders = borders_oracle(np.sqrt(d2))
    dist = np.array([d for _, d in borders])
    ratio_of = {j: d / np.median(dist) for members, d in borders for j in members}
    return float(np.quantile([ratio_of[j] for j in range(n)], 1.0 - target_rate))


def hinge_iqr(x: np.ndarray) -> float:
    """Fourth-spread: median of upper half minus median of lower half
    (halves include the sample median for odd n)."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    half = (n + 1) // 2
    return float(np.median(xs[n - half:]) - np.median(xs[:half]))


def tukey_fence_flags_extremes(x: np.ndarray, g: float) -> bool:
    """Classic rule: is max above the upper fence or min below the lower?"""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    half = (n + 1) // 2
    q1 = float(np.median(xs[:half]))
    q3 = float(np.median(xs[n - half:]))
    iqr = q3 - q1
    return bool(xs[-1] > q3 + g * iqr or xs[0] < q1 - g * iqr)


def biweight_oracle(x: np.ndarray, c: float = 5.0, eps: float = 1e-4) -> float:
    x = np.asarray(x, dtype=float)
    t = float(np.median(x))
    mad = float(np.median(np.abs(x - t)))
    if mad == 0:
        return t
    for _ in range(50):
        u = (x - t) / (c * mad + eps)
        w = np.where(np.abs(u) < 1, (1 - u**2) ** 2, 0.0)
        if w.sum() == 0:
            return t
        t_new = float((w * x).sum() / w.sum())
        if abs(t_new - t) <= 1e-9:
            return t_new
        t = t_new
    return t


def rank_map_oracle(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Each value replaced by the sorted ``ref`` at its within-column rank.

    A stable argsort; a run of tied values takes the mean of ``ref`` over
    the run's ranks, clipped to the run's ``ref`` range, and a run of one
    takes its ``ref`` entry itself.
    """
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    g = values.shape[0]
    csum = np.concatenate(([0.0], np.cumsum(ref)))
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        col = values[:, j]
        order = np.argsort(col, kind="stable")
        starts = np.concatenate(([0], np.flatnonzero(np.diff(col[order])) + 1))
        ends = np.concatenate((starts[1:], [g]))
        lengths = ends - starts
        means = np.clip((csum[ends] - csum[starts]) / lengths, ref[starts], ref[ends - 1])
        out[order, j] = np.repeat(np.where(lengths == 1, ref[starts], means), lengths)
    return out


def medpolish_oracle(block: np.ndarray, max_iter: int, tol: float):
    """Row-first alternating sweeps, R-style relative L1 stop rule."""
    resid = np.array(block, dtype=float)
    p, n = resid.shape
    overall = 0.0
    row = np.zeros(p)
    col = np.zeros(n)
    oldsum = 0.0
    for _ in range(max_iter):
        rd = np.median(resid, axis=1)
        resid -= rd[:, None]
        row += rd
        d = np.median(col)
        col -= d
        overall += d
        cd = np.median(resid, axis=0)
        resid -= cd
        col += cd
        d = np.median(row)
        row -= d
        overall += d
        s = np.abs(resid).sum()
        if s == 0 or abs(s - oldsum) < tol * s:
            break
        oldsum = s
    return overall, row, col, resid


def _oracle_numeric(cells) -> bool:
    try:
        np.array(cells, dtype=np.float64)
    except ValueError:
        return False
    return True


def load_matrix_oracle(path, delimiter: str, has_header=None):
    """(values, sample ids) read cell by cell with csv, or ValueError with load_matrix's message."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh, delimiter=delimiter) if r]
        with open(path, newline="") as fh:
            first = next((line for line in fh if line.strip("\r\n")), "")
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except UnicodeDecodeError as e:
        raise ValueError(
            f"{path}: not {e.encoding} text (undecodable byte at offset {e.start})"
        ) from None
    except csv.Error as e:
        raise ValueError(f"{path}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    quoted = has_header is not False and first.startswith('"')
    if has_header is None:
        has_header = quoted or not _oracle_numeric(rows[0])
    ids = ()
    if has_header:
        ids = tuple(tok if quoted else tok.strip() for tok in rows[0])
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header but no data rows")
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, r in enumerate(rows):
        rownum = i + (2 if has_header else 1)
        if len(r) != width:
            raise ValueError(f"ragged row at row {rownum}: {len(r)} cells, expected {width}")
        try:
            data[i] = r
        except ValueError:
            j = next(j for j, tok in enumerate(r) if not _oracle_numeric(tok))
            raise ValueError(
                f"non-numeric cell {r[j].strip()!r} at row {rownum}, column {j + 1}"
            ) from None
    if width < 2:
        raise ValueError(f"need at least 2 sample columns, got {width}")
    if ids and len(ids) != width:
        raise ValueError(f"header has {len(ids)} names for {width} columns")
    if not np.isfinite(data).all():
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"non-finite value at row {i + 1}, column {j + 1}")
    return data, ids or tuple(str(j + 1) for j in range(width))


def save_matrix_oracle(values, sample_ids, path, delimiter: str) -> None:
    """csv.writer writes every row, header included; a float cell is its repr."""
    values = np.asarray(values, dtype=np.float64)
    default = tuple(str(j + 1) for j in range(values.shape[1]))
    header = [] if tuple(sample_ids) == default else [list(sample_ids)]
    with open(path, "w", newline="") as fh:
        rows = chain(header, (row.tolist() for row in values))
        for first in rows:
            quote_all = any(
                isinstance(c, str) and (c != c.strip() or _oracle_numeric(c)) for c in first
            )
            quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
            csv.writer(fh, delimiter=delimiter, quoting=quoting).writerow(first)
            break
        csv.writer(fh, delimiter=delimiter).writerows(rows)
