"""Probe-to-gene summarization and two-group differential testing.

Covers the comparison harness: quantile or depth normalization feeds
log2 probe intensities into full median polish (the classic multi-array
summary) or Tukey's biweight location, and gene-level matrices go through
a Welch two-sample t-test with power / false-discovery bookkeeping.
"""

from __future__ import annotations

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
        if (np.diff(gene) < 0).any() or gene[0] != 0 or (np.diff(np.unique(gene)) != 1).any():
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
    """Per-gene Welch statistics with optional ground truth."""

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


def two_sample_ttest(
    gm: ExpressionMatrix,
    groups: ClassPartition,
    truth: Optional[np.ndarray] = None,
) -> TestResult:
    """Welch two-sample t-test per gene (two-sided).

    Degenerate rows follow the limit convention: zero variance in both
    groups gives p = 1 for equal means and p = 0 for unequal means.
    """
    from scipy.special import stdtr  # the package's only scipy use; kept off startup

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
        p = 2.0 * stdtr(df, -np.abs(t))  # Student t survival function
    degenerate = se2 == 0
    equal = degenerate & (m1 == m2)
    t[equal] = 0.0
    p[equal] = 1.0
    unequal = degenerate & (m1 != m2)
    t[unequal] = np.where(m1[unequal] > m2[unequal], np.inf, -np.inf)
    p[unequal] = 0.0
    return TestResult(t, p, truth)


def power_false_discovery(tr: TestResult, alpha: float) -> tuple[float, int]:
    """Power (percent of true genes flagged at ``alpha``) and false flags."""
    if tr.truth_labels is None:
        raise DomainError("power requires truth labels")
    flagged = tr.p_value < alpha
    truth = tr.truth_labels
    n_true = int(truth.sum())
    if n_true == 0:
        raise DomainError("no true genes in the truth labels")
    power = 100.0 * float((flagged & truth).sum()) / n_true
    false = int((flagged & ~truth).sum())
    return power, false

