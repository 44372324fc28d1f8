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
    PartitionError,
    column_sort,
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
    """Monte-Carlo record of the fence multiplier: the replicate quantiles it is the median of."""

    per_replicate_quantiles: tuple[float, ...]
    target_rate: float = 0.0001
    seed: int = 0

    def __post_init__(self):
        if not self.per_replicate_quantiles:
            raise DomainError("need at least one replicate")
        # a multiplier of 0 or less flags every pair apart at all; inf flags none
        if not 0.0 < self.g_factor < np.inf:
            raise DomainError(f"g_factor must be finite and positive, got {self.g_factor!r}")
        if not 0.0 < self.target_rate < 1.0:
            raise DomainError("target_rate must lie in (0, 1)")

    @property
    def g_factor(self) -> float:
        return float(np.median(self.per_replicate_quantiles))

    @property
    def replicates(self) -> int:
        return len(self.per_replicate_quantiles)

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
        return cls((g_factor,))


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


# Columns per mixing block: an n x 448 block of the product stays in cache.
_MIX_BLOCK = 448
# Block edges fall on multiples of 16 columns.  BLAS gemm kernels take the
# result's columns in groups of up to 16; an edge inside a group would send
# the group's columns to a narrower kernel that rounds differently.
_MIX_ALIGN = 16


def _mix_edges(g: int) -> list[int]:
    """Column edges of the ceil(g / 448) mixing blocks, each at most 448 wide.

    Inner edges fall on multiples of 16 and split the columns about
    evenly, so with two or more blocks none is narrower than 208 columns
    (a one-column block would go through gemv).
    """
    blocks = -(-g // _MIX_BLOCK)
    step = _MIX_ALIGN * blocks
    return [-(-k * g // step) * _MIX_ALIGN for k in range(blocks)] + [g]


def _mix_rows(factor: np.ndarray, buf: np.ndarray, tmp: np.ndarray) -> None:
    """Overwrite ``buf`` (n x G) with ``factor @ buf``, block by block of columns.

    ``tmp`` holds at least n * min(G, 448) floats.  Every column before
    the last G mod 16 gets the bits of ``factor @ buf``; those last
    columns may differ by round-off where the whole product and the last
    block take different BLAS kernels.  A single block (G <= 448) is the
    whole product.
    """
    n = buf.shape[0]
    edges = _mix_edges(buf.shape[1])
    for a, b in zip(edges[:-1], edges[1:]):
        out = tmp[: n * (b - a)].reshape(n, b - a)
        np.matmul(factor, buf[:, a:b], out=out)
        buf[:, a:b] = out


def _replicate_quantile(rng, factor, target_rate, buf, tmp) -> float:
    # sample-major: one row of buf per surrogate curve, covariance factor @ factor.T
    rng.standard_normal(out=buf)
    _mix_rows(factor, buf, tmp)
    buf.sort(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        # np.linalg.norm(buf, axis=1) bit for bit, without its n x G square
        size = np.median([np.sqrt(np.add.reduce(r * r)) for r in buf])
        buf -= buf.mean(axis=0)
    bs = extract_borders(DistanceMatrix(_kernels.centred_gram_dists(buf)))
    iqr = robust_iqr(bs)
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
    Gram product (``_kernels.centred_gram_dists``, whose round-off is far
    below the Monte-Carlo spread of G), and ``extract_borders`` peels
    them as it peels real data.  A replicate records the empirical
    (1 - target_rate) quantile of the n per-column ratios (border
    distance / median border distance); the calibrated multiplier is the
    median of those quantiles.

    The two members of a border share one ratio, so the two largest of
    the n ratios are equal and every ``target_rate`` at or below 1/(n - 1)
    returns the largest ratio: the default 1e-4 changes nothing for
    n <= 10,000.

    Memory: each of the ``min(threads, replicates)`` workers owns one
    n x n_features buffer (8 * n * n_features bytes) and an n x 448
    scratch block, allocated here before the pool starts and reused by
    every replicate it runs.  A replicate draws ``z`` into its buffer,
    mixes it by ``factor`` in place in column blocks (``_mix_rows``:
    edges on multiples of 16, none one column wide unless
    n_features == 1), then sorts, centres and reduces it to distances in
    place.  The mixed buffer has the bits of ``factor @ z``, except
    possibly for round-off in its last n_features mod 16 columns.

    Deterministic for a given seed; replicates run on derived,
    order-independent seeds, so the result does not depend on ``threads``.
    """
    if replicates < 1:
        raise DomainError("need at least one replicate")
    if not 0.0 < target_rate < 1.0:
        raise DomainError("target_rate must lie in (0, 1)")
    if n_features < 1:
        raise DimensionError("need at least one feature per surrogate curve")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (n, n):
        raise DimensionError(f"covariance must be {n}x{n}, got {cov.shape}")
    factor = _normal_factor(cov)
    children = np.random.SeedSequence(seed).spawn(replicates)
    workers = min(threads, replicates)
    # allocated in this thread: memory a worker thread frees can stay in its own arena
    free = [
        (np.empty((n, n_features)), np.empty(n * min(n_features, _MIX_BLOCK)))
        for _ in range(workers)
    ]

    def one(child) -> float:
        # at most `workers` tasks run at once, so a pair is always free
        buffers = free.pop()
        try:
            return _replicate_quantile(np.random.default_rng(child), factor, target_rate,
                                       *buffers)
        finally:
            free.append(buffers)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        quantiles = list(pool.map(one, children))
    return TukeyCalibration(tuple(quantiles), target_rate, seed)


# samples a flagged pair contributes under each rule
_FLAGS_PER_PAIR = {"farther-from-deepest": 1, "both-members": 2}


@dataclass(frozen=True)
class OutlierReport:
    """Border pairs of one scope, named by sample id, with the fence verdict.

    ``rule`` names how samples are taken from a flagged pair:
    ``farther-from-deepest`` or ``both-members``.
    """

    scope: str
    pairs: tuple[Border, ...]
    iqr_estimate: float
    g_factor: float
    rule: str
    flagged_samples: tuple[str, ...]

    @property
    def benchmark(self) -> float:
        """The fence: pairs farther apart than this are flagged."""
        return self.g_factor * self.iqr_estimate

    @property
    def flagged_pairs(self) -> tuple[Border, ...]:
        """The leading pairs that hold a flagged sample: a prefix of ``pairs``."""
        return self.pairs[: len(self.flagged_samples) // _FLAGS_PER_PAIR[self.rule]]


def _scope_report(
    curves: ExpressionMatrix,
    columns: np.ndarray,
    g_factor: float,
    scope: str,
    flag_both: bool,
) -> OutlierReport:
    sub = ExpressionMatrix(curves.values[:, columns], tuple(curves.sample_ids[j] for j in columns))
    ids = sub.sample_ids
    bs = peel_borders(sub)
    iqr = robust_iqr(bs)
    # a zero scale would flag every pair that is apart at all
    if iqr == 0.0 and bs.borders[0].distance > 0.0:
        raise DegenerateScaleError(f"{scope}: median border distance is 0; the fence has no scale")
    benchmark = g_factor * iqr

    deep_curve = deepest_curve(sub, bs).values

    flagged = []
    for border in bs.borders:
        if len(border.members) < 2 or not border.distance > benchmark:
            break
        a, b = border.members
        if flag_both:
            chosen = (a, b)
        else:
            da = np.linalg.norm(sub.values[:, a] - deep_curve)
            db = np.linalg.norm(sub.values[:, b] - deep_curve)
            chosen = (b,) if db > da else (a,)
        flagged += [ids[c] for c in chosen]

    return OutlierReport(
        scope=scope,
        pairs=tuple(Border(tuple(ids[j] for j in b.members), b.distance) for b in bs.borders),
        iqr_estimate=iqr,
        g_factor=g_factor,
        rule="both-members" if flag_both else "farther-from-deepest",
        flagged_samples=tuple(flagged),
    )


def detect_outliers(
    m: ExpressionMatrix,
    cal: TukeyCalibration,
    labels: Optional[ClassPartition] = None,
    flag_both: bool = False,
) -> list[OutlierReport]:
    """Flag border pairs whose distance exceeds g_factor * robust IQR.

    ``m`` is the matrix :func:`robust_covariance` takes; the screen runs
    on its column-sorted curves (the representation the depth is defined
    on).  The first report screens all columns together.  With
    ``labels``, one report per class follows, repeating the border
    construction and IQR estimate inside the class and reusing the
    globally calibrated multiplier.  From each flagged pair the member
    farther from the deepest curve is reported (both members with
    ``flag_both``).
    """
    if labels is not None and len(labels.labels) != m.n_samples:
        raise PartitionError(f"{len(labels.labels)} class labels for {m.n_samples} columns")
    curves = column_sort(m)
    scopes = [("global", np.arange(m.n_samples, dtype=np.intp))]
    if labels is not None:
        scopes += [(f"class {k}", labels.members(k)) for k in range(1, labels.class_count + 1)]
    return [_scope_report(curves, cols, cal.g_factor, scope, flag_both) for scope, cols in scopes]


# ---------------------------------------------------------------------------
# rendering and serialization


# Pairs shown in a report table: the least deep, where the outliers are.
TABLE_PAIRS = 8


def format_report_table(report: OutlierReport, title: str = "") -> str:
    """Plain-text table in the published layout (least-deep pairs first)."""
    shown = report.pairs[:TABLE_PAIRS]
    top, bottom, dist = [], [], []
    for b in shown:
        top.append(b.members[0])
        bottom.append(b.members[1] if len(b.members) > 1 else "-")
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
    lines.append(f"potential outliers: {', '.join(report.flagged_samples) or 'none'}")
    return "\n".join(lines)


def save_report_csv(reports: list[OutlierReport], path) -> None:
    """One row per pair; later columns are appended, so earlier ones keep their places."""
    header = ["scope", "pair_index", "member_1", "member_2", "distance_intra_pair",
              "iqr_estimate", "benchmark", "tukey_constant", "flagged", "flagged_member", "rule",
              "member_count"]
    rows = [header]
    for rep in reports:
        per_pair = _FLAGS_PER_PAIR[rep.rule]
        flagged_count = len(rep.flagged_pairs)
        for k, b in enumerate(rep.pairs):
            chosen = rep.flagged_samples[k * per_pair : (k + 1) * per_pair]
            rows.append([rep.scope, k + 1, *(b.members + ("",))[:2], b.distance, rep.iqr_estimate,
                         rep.benchmark, rep.g_factor, int(k < flagged_count), ";".join(chosen),
                         rep.rule, len(b.members)])
    write_rows(path, rows)


def reports_to_json(reports: list[OutlierReport]) -> str:
    payload = []
    for rep in reports:
        payload.append(
            {
                "scope": rep.scope,
                "flagged_samples": list(rep.flagged_samples),
                "rule": rep.rule,
                "benchmark": rep.benchmark,
                "iqr_estimate": rep.iqr_estimate,
                "tukey_constant": rep.g_factor,
                "pairs": [{"members": list(b.members), "distance": b.distance} for b in rep.pairs],
            }
        )
    return json.dumps({"reports": payload}, indent=2)


def _csv_payload(rows: list[list[str]]) -> list[dict]:
    """Regroup the rows of ``outliers.csv`` into the ``outliers.json`` layout."""
    scopes: dict[str, list[dict]] = {}
    for r in (dict(zip(rows[0], cells)) for cells in rows[1:]):
        scopes.setdefault(r["scope"], []).append(r)
    payload = []
    for mine in scopes.values():
        pairs, flagged = [], []
        for r in mine:
            count = r["member_count"]
            if count not in ("1", "2"):
                raise ValueError(f"member_count {count!r} is not 1 or 2")
            members = [r["member_1"], r["member_2"]][: int(count)]
            pairs.append({"members": members, "distance": r["distance_intra_pair"]})
            if r["flagged"] == "1":
                flagged += members if r["rule"] == "both-members" else [r["flagged_member"]]
        payload.append(dict(mine[0], pairs=pairs, flagged_samples=flagged))
    return payload


def _report_from_payload(d: dict) -> OutlierReport:
    pairs = tuple(Border(tuple(p["members"]), float(p["distance"])) for p in d["pairs"])
    report = OutlierReport(
        scope=d["scope"],
        pairs=pairs,
        iqr_estimate=float(d["iqr_estimate"]),
        g_factor=float(d["tukey_constant"]),
        rule=d["rule"],
        flagged_samples=tuple(d["flagged_samples"]),
    )
    if report.rule not in _FLAGS_PER_PAIR:
        raise ValueError(f"unknown rule {report.rule!r}")
    if float(d["benchmark"]) != report.benchmark:
        raise ValueError(f"benchmark {d['benchmark']!r} is not tukey_constant x iqr_estimate")
    if not set(report.flagged_samples) <= {s for b in pairs for s in b.members}:
        raise ValueError("a flagged sample is in no pair")
    return report


def load_reports(path) -> list[OutlierReport]:
    """Read ``outliers.json`` or ``outliers.csv`` back into reports.

    A loaded report equals the report that was written.
    """
    path = Path(path)
    is_json = path.suffix.lower() == ".json"
    data = read_text(path) if is_json else read_rows(path)
    try:
        payload = json.loads(data)["reports"] if is_json else _csv_payload(data)
        return [_report_from_payload(d) for d in payload]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: not an outlier report ({e!r})") from None
