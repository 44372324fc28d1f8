"""Probe-to-gene summarization and two-group differential testing.

Covers the comparison harness: quantile or depth normalization feeds
log2 probe intensities into full median polish (the classic multi-array
summary) or Tukey's biweight location, and gene-level matrices go through
a Welch two-sample t-test with power / false-discovery bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .core import (
    ClassPartition,
    DimensionError,
    DomainError,
    ExpressionMatrix,
    PartitionError,
    default_sample_ids,
    require_finite,
)

DEFAULT_POLISH_MAX_ITER = 20
DEFAULT_POLISH_TOL = 0.01
DEFAULT_BIWEIGHT_C = 5.0
DEFAULT_BIWEIGHT_EPS = 1e-4
DEFAULT_BIWEIGHT_MAX_ITER = 50
DEFAULT_BIWEIGHT_TOL = 1e-9
# c, eps, max_iter and tol, as the biweight kernels take them
_BIWEIGHT = (DEFAULT_BIWEIGHT_C, DEFAULT_BIWEIGHT_EPS, DEFAULT_BIWEIGHT_MAX_ITER,
             DEFAULT_BIWEIGHT_TOL)


@dataclass(frozen=True, eq=False)
class ProbeMatrix:
    """P x n probe intensities with contiguous probe blocks per gene."""

    values: np.ndarray
    probe_to_gene: np.ndarray
    sample_ids: tuple[str, ...] = ()

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError("probe matrix must be 2-D")
        if 0 in v.shape:
            raise DimensionError(
                f"probe matrix needs a probe row and a sample column, got shape {v.shape}"
            )
        require_finite(v)
        gene = np.asarray(self.probe_to_gene, dtype=np.intp)
        if gene.shape != (v.shape[0],):
            raise DimensionError("probe_to_gene must have one entry per probe row")
        step = np.diff(gene)
        if (step < 0).any() or gene[0] != 0 or (step > 1).any():
            raise DimensionError("genes must be contiguous blocks numbered 0..G-1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probe_to_gene", gene)
        ids = tuple(self.sample_ids) if self.sample_ids else default_sample_ids(v.shape[1])
        object.__setattr__(self, "sample_ids", ids)

    @classmethod
    def uniform(cls, values, probes_per_gene: int, sample_ids=()) -> "ProbeMatrix":
        values = np.asarray(values)
        if probes_per_gene < 1:
            raise DimensionError(f"probes_per_gene must be >= 1, got {probes_per_gene}")
        if values.shape[0] % probes_per_gene:
            raise DimensionError(
                f"{values.shape[0]} probes do not split into blocks of {probes_per_gene}"
            )
        gene = np.repeat(np.arange(values.shape[0] // probes_per_gene), probes_per_gene)
        return cls(values, gene, sample_ids)

    @property
    def n_genes(self) -> int:
        return int(self.probe_to_gene[-1]) + 1

    def block_starts(self) -> np.ndarray:
        starts = np.flatnonzero(np.diff(self.probe_to_gene)) + 1
        return np.concatenate(([0], starts, [self.probe_to_gene.shape[0]])).astype(np.int64)


class MedianPolishFit(NamedTuple):
    overall: float
    row_effects: np.ndarray
    col_effects: np.ndarray
    residuals: np.ndarray


def median_polish(
    block: np.ndarray,
    max_iter: int = DEFAULT_POLISH_MAX_ITER,
    tol: float = DEFAULT_POLISH_TOL,
) -> MedianPolishFit:
    """Full median polish of a two-way table, rows swept first.

    Alternating row/column median sweeps move effects out of the
    residuals until the residual L1 norm changes by less than ``tol``
    (relative) per sweep or ``max_iter`` is reached.  The decomposition
    reconstructs the input: overall + row + col + residual.  The
    gene-by-sample summary is overall + col_effects.
    """
    block = np.array(block, dtype=np.float64, order="C")  # the kernel works in place
    if block.ndim != 2 or block.size == 0:
        raise DimensionError("median polish needs a non-empty 2-D block")
    require_finite(block)
    overall, row, col, resid = _kernels.polish_blocks(block[None], max_iter, tol)
    return MedianPolishFit(float(overall[0]), row[0], col[0], resid[0])


def biweight_location(values) -> float:
    """Tukey biweight location: redescending weights (1-u^2)^2 for |u|<1.

    u = (x - t) / (c*MAD + eps) with the MAD held at its initial value;
    the location iterates to |dt| <= ``DEFAULT_BIWEIGHT_TOL`` or
    ``DEFAULT_BIWEIGHT_MAX_ITER`` rounds.  Zero MAD falls back to the median.
    The weighted sums add the values in their order, from +0.0, as
    ``summarize_genes`` adds each block's probes, so a sample gives the
    same bits here as a probe block there.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise DomainError("biweight location of an empty sample")
    require_finite(x[:, None])  # the sample as one column
    return float(_kernels.biweight_series(x[None], *_BIWEIGHT)[0])


def summarize_genes(pm: ProbeMatrix, method: str = "median_polish") -> ExpressionMatrix:
    """Collapse probe blocks to one row per gene (log-scale input expected).

    ``median_polish`` uses overall + column effects per block;
    ``biweight`` applies the biweight location per column within the
    block.
    """
    starts = pm.block_starts()
    if method == "median_polish":
        out = _kernels.polish_summaries(
            pm.values, starts, DEFAULT_POLISH_MAX_ITER, DEFAULT_POLISH_TOL
        )
    elif method == "biweight":
        out = _kernels.biweight_summaries(pm.values, starts, *_BIWEIGHT)
    else:
        raise DomainError(f"unknown summarization method {method!r}")
    return ExpressionMatrix(out, pm.sample_ids)


@dataclass(frozen=True, eq=False)
class TestResult:
    """Per-gene Welch statistics with optional ground truth.

    A p-value of 0.0 has two causes, which ``statistic`` tells apart: a
    row with zero variance in both groups and unequal means has t = +-inf,
    while a p-value below about 2e-308 that underflowed to 0.0 has a
    finite t.
    """

    __test__ = False  # not a pytest class despite the name

    statistic: np.ndarray
    p_value: np.ndarray
    truth_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        p = np.asarray(self.p_value, dtype=np.float64)
        if ((p < 0) | (p > 1)).any():
            raise DomainError("p-values must lie in [0, 1]")
        object.__setattr__(self, "p_value", p)
        object.__setattr__(self, "statistic", np.asarray(self.statistic, dtype=np.float64))
        if self.truth_labels is not None:
            object.__setattr__(self, "truth_labels", np.asarray(self.truth_labels, dtype=bool))


def _welch(gm: ExpressionMatrix, groups: ClassPartition):
    """Welch t, its degrees of freedom, and the p-value of each zero-variance row.

    Where both groups have zero variance the limit convention holds: t is
    0 and p is 1 for equal means, t is +-inf and p is 0 for unequal ones.
    The returned p is NaN on every other row, whose p-value comes from
    the t distribution.
    """
    if groups.class_count != 2:
        raise PartitionError(f"need exactly 2 classes, got {groups.class_count}")
    if len(groups.labels) != gm.n_samples:
        raise PartitionError("partition length does not match sample count")
    a = gm.values[:, groups.members(1)]
    b = gm.values[:, groups.members(2)]
    n1, n2 = a.shape[1], b.shape[1]
    m1, m2 = a.mean(axis=1), b.mean(axis=1)
    v1, v2 = a.var(axis=1, ddof=1), b.var(axis=1, ddof=1)
    se2 = v1 / n1 + v2 / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (m1 - m2) / np.sqrt(se2)
        df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    p_limit = np.full(t.shape, np.nan)
    equal = (se2 == 0) & (m1 == m2)
    t[equal], p_limit[equal] = 0.0, 1.0
    unequal = (se2 == 0) & (m1 != m2)
    t[unequal] = np.where(m1[unequal] > m2[unequal], np.inf, -np.inf)
    p_limit[unequal] = 0.0
    return t, df, p_limit


def _two_sided_p(df: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 P(T_df > |t|) from scipy's Student t distribution function."""
    from scipy.special import stdtr  # the package's only scipy use; kept off startup

    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * stdtr(df, -np.abs(t))


def two_sample_ttest(
    gm: ExpressionMatrix,
    groups: ClassPartition,
    truth: Optional[np.ndarray] = None,
) -> TestResult:
    """Welch two-sample t-test per gene (two-sided).

    Degenerate rows follow the limit convention: zero variance in both
    groups gives p = 1 for equal means and p = 0 for unequal means, with
    t = 0 and t = +-inf.  A p-value below about 2e-308 underflows to 0.0
    as well, but its t is finite, so ``np.isinf(result.statistic)`` picks
    out the zero-variance rows among those with p = 0.
    """
    t, df, p_limit = _welch(gm, groups)
    p = np.where(np.isnan(p_limit), _two_sided_p(df, t), p_limit)
    return TestResult(t, p, truth)


# welch_flags' band: numpy decides a gene only when its bounds, or else its
# estimated p-value, lie farther than this (relative) from alpha; stdtr decides
# the rest.  Against stdtr the estimate's relative error was at most 2e-13 and
# the bounds held to 3e-13 (df 0.5 to 1,000, p from 1e-6 to 0.99).
_TAIL_BAND = 1e-8
# stdtr returns 0 for a p-value below about 2e-308, where the estimate is still
# right, so near a smaller alpha the band keeps the width it has at this alpha
_TAIL_FLOOR = 1e-290
_TAIL_MAX_ITER = 200  # continued-fraction steps before a gene is left to stdtr
_TAIL_TOL = 1e-13  # converged when a block of steps changes the value by less (relative)
# Above this df the estimate loses digits: its relative error grew to 1e-11 by
# df 1e5 and 8e-9 by df 1e8.  Welch df is at most n1 + n2 - 2, so only matrices
# of over a thousand samples reach it.
_TAIL_MAX_DF = 1e3
# series terms in welch_flags' bounds: at 8 they decided all 24,000 genes of 24
# calls from a simulated study (df 10, delta 0 and 1, alpha 0.05), so the
# continued fraction below seldom runs
_TAIL_TERMS = 8
_TAIL_BLOCK = np.arange(1.0, 5.0)[:, None]  # the steps m whose coefficients are made at once
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # log Gamma(1/2)
_GAMMA_SHIFT = np.arange(8.0)[:, None]
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)  # B_2k / (2k (2k - 1))


def _log_gamma_ratio(a: np.ndarray) -> np.ndarray:
    """log Gamma(a) - log Gamma(a + 1/2) for a > 0, in numpy.

    Gamma(a) / Gamma(a + 1/2) is the product of (a + k + 1/2) / (a + k)
    for k < 8 times the same ratio at z = a + 8, where Stirling's series
    with five terms is exact to about 1e-14.  The series' leading terms
    are taken as 1/2 - z log1p(1 / 2z), which does not cancel.
    """
    shift = np.log(np.prod((a + _GAMMA_SHIFT + 0.5) / (a + _GAMMA_SHIFT), axis=0))
    z = a + 8.0
    iz, iw = 1.0 / z, 1.0 / (z + 0.5)
    sz = sw = 0.0
    for c in reversed(_STIRLING):  # Horner in 1/z^2
        sz = sz * (iz * iz) + c
        sw = sw * (iw * iw) + c
    return shift + (0.5 - z * np.log1p(0.5 * iz)) - 0.5 * np.log(z) + (sz * iz - sw * iw)


def _tail_terms(df: np.ndarray, t: np.ndarray):
    """a = df/2, x = df / (df + t^2), 1 - x, and log(x^a / B(a, 1/2)).

    x and 1 - x are each taken without cancellation, and log x as
    -log1p(t^2/df) for x near 1.  The log term is NaN where df is not
    positive or above ``_TAIL_MAX_DF``.  Call under np.errstate.
    """
    t2 = t * t
    s = df + t2
    a = 0.5 * df
    usable = np.where((a > 0.0) & (df <= _TAIL_MAX_DF), a, np.nan)  # no log of 0 below
    log_front = -a * np.log1p(t2 / df) - _LOG_SQRT_PI - _log_gamma_ratio(usable)
    return a, df / s, t2 / s, log_front


def _two_sided_p_bounds(df: np.ndarray, t: np.ndarray):
    """Lower and upper bounds on 2 P(T_df > |t|); NaN where df is not usable.

    The tail is I_x(a, 1/2) with a = df/2 and x = df / (df + t^2).  Its
    integrand u^(a - 1) (1 - u)^(-1/2) expands in the binomial series of
    (1 - u)^(-1/2), whose coefficients c_k are all positive, so
    I_x(a, 1/2) = x^a / B(a, 1/2) * sum_k c_k x^k / (a + k).  The first
    terms (k <= ``_TAIL_TERMS``) bound it from below.  The rest is at most
    1 / (a + K + 1) times the rest of sum_k c_k x^k = (1 - x)^(-1/2),
    which bounds it from above.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, x, y, log_front = _tail_terms(df, t)
        term = head = np.ones_like(x)  # c_k x^k and its running sum
        body = 1.0 / a
        for k in range(1, _TAIL_TERMS + 1):
            term = term * x * ((k - 0.5) / k)
            head = head + term
            body = body + term / (a + k)
        f = np.exp(log_front)
        lower = f * body
        return lower, lower + f / (a + _TAIL_TERMS + 1) * (1.0 / np.sqrt(y) - head)


def _two_sided_p_estimate(df: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 P(T_df > |t|) in numpy, NaN where it is not trusted.

    The tail is I_x(df/2, 1/2) with x = df / (df + t^2).  The incomplete
    beta's continued fraction (DiDonato & Morris, ACM TOMS 708) runs by
    its forward recurrence over all genes at once, four steps at a time,
    rescaled after each block; a gene drops out when a block changes its
    value by less than ``_TAIL_TOL``.  Where x >= (a + 1) / (a + b + 2)
    the fraction is taken for 1 - I_{1-x}(1/2, df/2) instead.  A zero
    denominator makes the value infinite or NaN, which never converges.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, x, y, log_front = _tail_terms(df, t)
        swap = x >= (a + 1.0) / (a + 2.5)
        pa = np.where(swap, 0.5, a)
        pb = np.where(swap, a, 0.5)
        z = np.where(swap, y, x)
        frac = np.full(a.size, np.nan)
        front = np.exp(log_front + 0.5 * np.log(y))  # x^a (1 - x)^(1/2) / B(a, 1/2)
        # the fraction is 1 / (1 + d1 / (1 + d2 / ...)); after d1 its convergent
        # is A / B with A = 1, B = 1 + d1, and one term back both are 1
        one = np.ones(a.size)
        # one row per quantity (a, b, x, A and B one term back, A, B, the last
        # block's value), so dropping converged genes is one gather
        state = np.stack([pa, pb, z, one, one, one, 1.0 - (pa + pb) * z / (pa + 1.0), one])
        idx = np.arange(a.size)
        for m0 in range(0, _TAIL_MAX_ITER, len(_TAIL_BLOCK)):
            if idx.size == 0:
                break
            p, q, z, a_back, b_back, a_cur, b_cur, last = state
            m = _TAIL_BLOCK + m0
            p2m = p + 2.0 * m
            even = m * (q - m) * z / ((p2m - 1.0) * p2m)
            odd = -(p + m) * (p + q + m) * z / (p2m * (p2m + 1.0))
            for k in range(len(m)):
                for d in (even[k], odd[k]):
                    a_back, a_cur = a_cur, a_cur + d * a_back
                    b_back, b_cur = b_cur, b_cur + d * b_back
            h = a_cur / b_cur
            done = np.abs(h - last) < _TAIL_TOL * np.abs(h)  # False where h is inf or NaN
            state[3], state[4] = a_back / b_cur, b_back / b_cur
            state[5], state[6], state[7] = h, 1.0, h
            if done.any():
                frac[idx[done]] = h[done]
                idx, state = idx[~done], state[:, ~done]
        return np.where(swap, 1.0 - 2.0 * front * frac, front * frac / a)


def welch_flags(gm: ExpressionMatrix, groups: ClassPartition, alpha: float) -> np.ndarray:
    """``two_sample_ttest(gm, groups).p_value < alpha``, mostly without scipy.

    Bounds on each p-value decide every gene whose bounds both lie farther
    than ``_TAIL_BAND`` (relative) to one side of ``alpha``.  A numpy
    estimate decides the others whose estimate is finite and farther than
    that from ``alpha``, which is far wider than its error; stdtr decides
    the rest, so the flags are exactly the test's.  scipy is imported only
    for those genes.
    """
    t, df, p_limit = _welch(gm, groups)
    flags = p_limit < alpha  # the zero-variance rows' verdicts; False elsewhere until set
    band = _TAIL_BAND * max(alpha, _TAIL_FLOOR)
    live = np.flatnonzero(np.isnan(p_limit))
    lo, hi = _two_sided_p_bounds(df[live], t[live])
    below, above = hi < alpha - band, lo > alpha + band  # both False where NaN
    flags[live[below]] = True
    live = live[~(below | above)]
    p = _two_sided_p_estimate(df[live], t[live])
    with np.errstate(invalid="ignore"):
        sure = np.abs(p - alpha) > band  # False where p is NaN
    flags[live[sure]] = p[sure] < alpha
    rest = live[~sure]
    if rest.size:
        flags[rest] = _two_sided_p(df[rest], t[rest]) < alpha
    return flags


def count_discoveries(flagged: np.ndarray, truth: np.ndarray) -> tuple[float, int]:
    """Power (percent of true genes flagged) and the number of false flags."""
    n_true = int(truth.sum())
    if n_true == 0:
        raise DomainError("no true genes in the truth labels")
    power = 100.0 * float((flagged & truth).sum()) / n_true
    false = int((flagged & ~truth).sum())
    return power, false


def power_false_discovery(tr: TestResult, alpha: float) -> tuple[float, int]:
    """Power (percent of true genes flagged at ``alpha``) and false flags."""
    if tr.truth_labels is None:
        raise DomainError("power requires truth labels")
    return count_discoveries(tr.p_value < alpha, tr.truth_labels)
