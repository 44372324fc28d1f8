"""Depth-ordered outlier screening with a Monte-Carlo-calibrated fence.

The classic one-dimensional fence flags x when x - y exceeds a multiple
of the interquartile range; here the pair (x, y) becomes a border pair of
curves, the gap becomes the intra-pair distance, and the interquartile
range is estimated by the median border distance.  The fence multiplier
is calibrated on multivariate-normal surrogates matched to the data's
size, dimension, and inter-sample covariance.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import _kernels
from .core import (
    ClassPartition,
    DataError,
    DegenerateScaleError,
    DimensionError,
    DomainError,
    ExpressionMatrix,
    ParseError,
    read_rows,
    read_text,
    write_rows,
)
from .depth import (
    Border,
    BorderSequence,
    DistanceMatrix,
    deepest_curve,
    extract_borders,
    peel_borders,
)
from .normalize import ReferenceCurve, quantile_normalize_full


def robust_iqr(bs: BorderSequence) -> float:
    """Median intra-pair distance over all borders (odd singleton counts 0).

    On scalar columns this reproduces the classical fourth-spread
    (Tukey-hinge interquartile range) of the sample.
    """
    return float(np.median(bs.distances()))


@dataclass(frozen=True)
class TukeyCalibration:
    """Calibrated fence multiplier and the Monte-Carlo record behind it."""

    g_factor: float
    target_rate: float
    replicates: int
    seed: int
    per_replicate_quantiles: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.target_rate < 1.0:
            raise DomainError("target_rate must lie in (0, 1)")
        if self.replicates < 1:
            raise DomainError("need at least one replicate")
        med = float(np.median(np.asarray(self.per_replicate_quantiles)))
        if self.per_replicate_quantiles and med != self.g_factor:
            raise DomainError("g_factor must be the median of the replicate quantiles")

    def to_json(self) -> str:
        return json.dumps(
            {
                "g_factor": self.g_factor,
                "target_rate": self.target_rate,
                "replicates": self.replicates,
                "seed": self.seed,
                "per_replicate_quantiles": list(self.per_replicate_quantiles),
            },
            indent=2,
        )

    @classmethod
    def fixed(cls, g_factor: float) -> "TukeyCalibration":
        """Calibration record for an externally chosen multiplier."""
        return cls(g_factor, 0.0001, 1, 0, (g_factor,))


def _psd_repair(cov: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero, then rescale to keep the diagonal."""
    with np.errstate(over="ignore"):
        sym = 0.5 * (cov + cov.T)
    if not np.isfinite(sym).all():
        raise DataError("covariance overflows float64 (a non-finite entry); rescale the data")
    w, v = np.linalg.eigh(sym)
    if w.min() >= 0:
        return sym
    w = np.clip(w, 0.0, None)
    fixed = (v * w) @ v.T
    d_old = np.diag(sym).copy()
    d_new = np.diag(fixed).copy()
    scale = np.ones_like(d_new)
    ok = (d_new > 0) & (d_old > 0)
    scale[ok] = np.sqrt(d_old[ok] / d_new[ok])
    return fixed * np.outer(scale, scale)


def robust_covariance(m: ExpressionMatrix) -> np.ndarray:
    """Robust inter-sample covariance: MAD scales with rank correlations.

    Per-column scale is 1.4826 * MAD (normal-consistent); correlation is
    the Spearman rank correlation mapped through 2*sin(pi*rho/6) to the
    normal scale; the assembled matrix is symmetrized and floored at zero
    eigenvalues with the diagonal preserved.
    """
    if m.n_features < 3:
        raise DimensionError("need G >= 3 rows to estimate covariance")
    med = np.median(m.values, axis=0)
    mad = np.median(np.abs(m.values - med), axis=0)
    if (mad == 0).any():
        j = int(np.flatnonzero(mad == 0)[0])
        raise DegenerateScaleError(f"column {m.sample_ids[j]!r} has zero MAD")
    scale = 1.4826 * mad
    # ranks 1..G, tie runs averaged (rankdata's "average" ranks, exactly)
    ranks = quantile_normalize_full(m, ReferenceCurve(np.arange(1.0, m.n_features + 1))).values
    rho = np.corrcoef(ranks, rowvar=False)
    corr = 2.0 * np.sin(np.pi * rho / 6.0)
    # scales beyond about 1e154 overflow here; _psd_repair reports it
    with np.errstate(over="ignore"):
        cov = corr * np.outer(scale, scale)
    return _psd_repair(cov)


def _normal_factor(cov: np.ndarray) -> np.ndarray:
    sym = _psd_repair(np.asarray(cov, dtype=np.float64))
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    factor = v * np.sqrt(w)
    if not np.isfinite(factor).all():
        raise DataError("covariance is not usable even after PSD repair")
    return factor


def _replicate_quantile(rng, n, n_features, factor, target_rate) -> float:
    # sample-major: one contiguous row per surrogate curve, covariance factor @ factor.T
    x = factor @ rng.standard_normal((n, n_features))
    x.sort(axis=1)
    bs = extract_borders(DistanceMatrix(_kernels.gram_dists(x)))
    iqr = robust_iqr(bs)
    with np.errstate(over="ignore"):
        size = np.median(np.linalg.norm(x, axis=1))
    if not np.isfinite(size):
        raise DataError("surrogate curve norms overflow float64; rescale the data")
    # a rank-deficient covariance leaves border distances of round-off size only
    if iqr <= 1e-6 * size:
        raise DegenerateScaleError(
            f"surrogate median border distance {iqr!r} is round-off; degenerate covariance"
        )
    ratios = bs.distances()[bs.border_index - 1] / iqr
    return float(np.quantile(ratios, 1.0 - target_rate))


def calibrate_g(
    n: int,
    n_features: int,
    cov: np.ndarray,
    target_rate: float = 0.0001,
    replicates: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> TukeyCalibration:
    """Estimate the fence multiplier from matched normal surrogates.

    Each replicate draws ``n`` surrogate curves of ``n_features`` values,
    one row each, as ``factor @ z`` for a standard normal ``z`` (n x
    n_features) and ``factor @ factor.T == cov``; so each feature is an
    n-variate normal with covariance ``cov``.  The rows are sorted in
    place (the column-sort of real data), their distances come from one
    Gram product (``_kernels.gram_dists``, whose round-off is far below
    the Monte-Carlo spread of G), and ``extract_borders`` peels them as
    it peels real data.  A replicate records the empirical (1 - target_rate)
    quantile of the n per-column ratios (border distance / median border
    distance); the calibrated multiplier is the median of those quantiles.

    The two members of a border share one ratio, so the two largest of
    the n ratios are equal and every ``target_rate`` at or below 1/(n - 1)
    returns the largest ratio: the default 1e-4 changes nothing for
    n <= 10,000.

    Deterministic for a given seed; replicates run on derived,
    order-independent seeds.
    """
    if replicates < 1:
        raise DomainError("need at least one replicate")
    if not 0.0 < target_rate < 1.0:
        raise DomainError("target_rate must lie in (0, 1)")
    if n_features < 1:
        raise DimensionError("need at least one feature per surrogate curve")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (n, n):
        raise DimensionError(f"covariance must be {n}x{n}, got {cov.shape}")
    factor = _normal_factor(cov)
    children = np.random.SeedSequence(seed).spawn(replicates)

    def one(i: int) -> float:
        rng = np.random.default_rng(children[i])
        return _replicate_quantile(rng, n, n_features, factor, target_rate)

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        quantiles = list(pool.map(one, range(replicates)))
    return TukeyCalibration(
        g_factor=float(np.median(quantiles)),
        target_rate=target_rate,
        replicates=replicates,
        seed=seed,
        per_replicate_quantiles=tuple(quantiles),
    )


@dataclass(frozen=True)
class FlaggedSample:
    sample_id: str
    column: int
    pair_index: int
    rule: str


@dataclass(frozen=True)
class OutlierReport:
    """Border pairs of one scope with the fence verdict.

    ``flagged_pairs`` is the maximal prefix of ``pairs`` whose intra-pair
    distance exceeds the benchmark (border distances are non-increasing,
    so the exceedances form a prefix).
    """

    scope: str
    sample_ids: tuple[str, ...]
    pairs: tuple[Border, ...]
    iqr_estimate: float
    g_factor: float
    benchmark: float
    flagged_pairs: tuple[Border, ...]
    flagged_samples: tuple[FlaggedSample, ...]


def _scope_report(
    m: ExpressionMatrix,
    columns: np.ndarray,
    g_factor: float,
    scope: str,
    flag_both: bool,
) -> OutlierReport:
    ids = m.sample_ids
    sub = ExpressionMatrix(m.values[:, columns], sorted_flag=True)
    bs = peel_borders(sub)
    iqr = robust_iqr(bs)
    # a zero scale would flag every pair that is apart at all
    if iqr == 0.0 and bs.borders[0].distance > 0.0:
        raise DegenerateScaleError(f"{scope}: median border distance is 0; the fence has no scale")
    benchmark = g_factor * iqr

    deep_curve = deepest_curve(sub, bs).values

    flagged_pairs = []
    flagged = []
    for k, border in enumerate(bs.borders):
        if len(border.members) < 2 or not border.distance > benchmark:
            break
        flagged_pairs.append(border)
        a, b = border.members
        if flag_both:
            chosen, rule = (a, b), "both-members"
        else:
            da = np.linalg.norm(sub.values[:, a] - deep_curve)
            db = np.linalg.norm(sub.values[:, b] - deep_curve)
            chosen, rule = ((b,) if db > da else (a,)), "farther-from-deepest"
        for c in chosen:
            flagged.append(FlaggedSample(ids[columns[c]], int(columns[c]), k, rule))

    remap = [Border(tuple(int(columns[j]) for j in b.members), b.distance) for b in bs.borders]
    remap_flagged = remap[: len(flagged_pairs)]
    return OutlierReport(
        scope=scope,
        sample_ids=ids,
        pairs=tuple(remap),
        iqr_estimate=iqr,
        g_factor=g_factor,
        benchmark=benchmark,
        flagged_pairs=tuple(remap_flagged),
        flagged_samples=tuple(flagged),
    )


def detect_outliers(
    m: ExpressionMatrix,
    cal: TukeyCalibration,
    scope: str = "global",
    labels: Optional[ClassPartition] = None,
    flag_both: bool = False,
) -> list[OutlierReport]:
    """Flag border pairs whose distance exceeds g_factor * robust IQR.

    Requires column-sorted input (the representation the depth is defined
    on).  Global scope screens all columns together; per-class scope
    repeats the border construction and IQR estimate inside each class,
    reusing the globally calibrated multiplier.  From each flagged pair
    the member farther from the deepest curve is reported (both members
    with ``flag_both``).
    """
    if not m.sorted_flag:
        raise DomainError("detect_outliers requires column-sorted input (see column_sort)")
    if scope == "global":
        cols = np.arange(m.n_samples, dtype=np.intp)
        return [_scope_report(m, cols, cal.g_factor, "global", flag_both)]
    if scope == "per_class":
        if labels is None:
            raise DomainError("per-class scope requires class labels")
        reports = []
        for k in range(1, labels.class_count + 1):
            cols = labels.members(k)
            reports.append(_scope_report(m, cols, cal.g_factor, f"class {k}", flag_both))
        return reports
    raise DomainError(f"unknown scope {scope!r}")


# ---------------------------------------------------------------------------
# rendering and serialization


def format_report_table(report: OutlierReport, title: str = "", max_pairs: int = 8) -> str:
    """Plain-text table in the published layout (least-deep pairs first)."""
    shown = report.pairs[:max_pairs]
    top, bottom, dist = [], [], []
    for b in shown:
        ids = [report.sample_ids[j] for j in b.members]
        top.append(ids[0])
        bottom.append(ids[1] if len(ids) > 1 else "-")
        dist.append(f"{b.distance:,.1f}")
    width = max(8, *(len(s) for s in top + bottom + dist)) + 2
    label_w = len("distance intra-pair") + 2

    def row(label, cells):
        return label.ljust(label_w) + "".join(c.rjust(width) for c in cells)

    lines = []
    if title:
        lines.append(title.center(label_w + width * len(shown)))
    lines.append("-" * (label_w + width * len(shown)))
    lines.append(row("pairs of gene", top))
    lines.append(row("expressions", bottom))
    lines.append(row("distance intra-pair", dist))
    lines.append(row("outlier's benchmark", [f"{report.benchmark:,.1f}"]))
    lines.append(row("Tukey's constant", [f"{report.g_factor:g}"]))
    flagged = ", ".join(s.sample_id for s in report.flagged_samples) or "none"
    lines.append(f"potential outliers: {flagged}")
    return "\n".join(lines)


def save_report_csv(reports: list[OutlierReport], path) -> None:
    header = ["scope", "pair_index", "member_1", "member_2", "distance_intra_pair",
              "iqr_estimate", "benchmark", "tukey_constant", "flagged", "flagged_member"]
    rows = [header]
    for rep in reports:
        for k, b in enumerate(rep.pairs):
            ids = [rep.sample_ids[j] for j in b.members] + [""]
            flagged = ";".join(s.sample_id for s in rep.flagged_samples if s.pair_index == k)
            rows.append([rep.scope, k + 1, ids[0], ids[1], b.distance, rep.iqr_estimate,
                         rep.benchmark, rep.g_factor, int(k < len(rep.flagged_pairs)), flagged])
    write_rows(path, rows)


def reports_to_json(reports: list[OutlierReport]) -> str:
    payload = []
    for rep in reports:
        payload.append(
            {
                "scope": rep.scope,
                "flagged_samples": [s.sample_id for s in rep.flagged_samples],
                "rule": rep.flagged_samples[0].rule if rep.flagged_samples else "farther-from-deepest",
                "benchmark": rep.benchmark,
                "iqr_estimate": rep.iqr_estimate,
                "tukey_constant": rep.g_factor,
                "pairs": [
                    {
                        "members": [rep.sample_ids[j] for j in b.members],
                        "distance": b.distance,
                    }
                    for b in rep.pairs
                ],
            }
        )
    return json.dumps({"reports": payload}, indent=2)


def _csv_payload(rows: list[list[str]]) -> list[dict]:
    """Regroup the rows of ``outliers.csv`` into the ``outliers.json`` layout."""
    payload: dict[str, dict] = {}
    for r in (dict(zip(rows[0], cells)) for cells in rows[1:]):
        # the CSV repeats the scope's fields on every row but does not record the rule
        rep = payload.setdefault(
            r["scope"], dict(r, pairs=[], flagged_samples=[], rule="farther-from-deepest")
        )
        members = [r["member_1"]] + ([r["member_2"]] if r["member_2"] else [])
        rep["pairs"].append({"members": members, "distance": r["distance_intra_pair"]})
        if r["flagged_member"]:
            rep["flagged_samples"] += r["flagged_member"].split(";")
    return list(payload.values())


def _report_from_payload(d: dict) -> OutlierReport:
    ids = tuple(s for p in d["pairs"] for s in p["members"])
    col = {s: j for j, s in enumerate(ids)}
    pairs = tuple(
        Border(tuple(col[s] for s in p["members"]), float(p["distance"])) for p in d["pairs"]
    )
    pair_of = {j: k for k, b in enumerate(pairs) for j in b.members}
    flagged = tuple(
        FlaggedSample(s, col[s], pair_of[col[s]], d["rule"]) for s in d["flagged_samples"]
    )
    return OutlierReport(
        scope=d["scope"],
        sample_ids=ids,
        pairs=pairs,
        iqr_estimate=float(d["iqr_estimate"]),
        g_factor=float(d["tukey_constant"]),
        benchmark=float(d["benchmark"]),
        flagged_pairs=pairs[: len({f.pair_index for f in flagged})],
        flagged_samples=flagged,
    )


def load_reports(path) -> list[OutlierReport]:
    """Read ``outliers.json`` or ``outliers.csv`` back into reports.

    The files name each scope's samples but not their column positions,
    so a loaded report's ``sample_ids`` lists the scope's samples in pair
    order and its column indices refer to that tuple.
    """
    path = Path(path)
    is_json = path.suffix.lower() == ".json"
    data = read_text(path) if is_json else read_rows(path)
    try:
        payload = json.loads(data)["reports"] if is_json else _csv_payload(data)
        return [_report_from_payload(d) for d in payload]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: not an outlier report ({e!r})") from None
