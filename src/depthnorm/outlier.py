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
from collections import Counter
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
    extract_borders,
    pairwise_distances,
)
from .normalize import rank_map_into


def robust_iqr(bs: BorderSequence) -> float:
    """Median intra-pair distance over all borders (odd singleton counts 0).

    On scalar columns this reproduces the classical fourth-spread
    (Tukey-hinge interquartile range) of the sample.
    """
    return float(np.median(bs.distances()))


@dataclass(frozen=True)
class TukeyCalibration:
    """Monte-Carlo record of the fence multiplier: the replicate statistics it is the median of.

    Each replicate's statistic is its largest per-column ratio, the 1.0
    quantile of the ratios, as ``per_replicate_quantiles`` names it.
    """

    per_replicate_quantiles: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        if not self.per_replicate_quantiles:
            raise DomainError("need at least one replicate")
        # a multiplier of 0 or less flags every pair apart at all; inf flags none
        if not 0.0 < self.g_factor < np.inf:
            raise DomainError(f"g_factor must be finite and positive, got {self.g_factor!r}")

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

    Memory: one matrix-sized array, the ranks, besides one column's
    temporaries.  The medians are taken column by column, and the rank
    correlation replays ``np.corrcoef(ranks, rowvar=False)`` step for
    step in place on the ranks, bit for bit.
    """
    if m.n_features < 3:
        raise DimensionError("need G >= 3 rows to estimate covariance")
    # column by column: along axis 0, np.median partitions a copy of the matrix
    med = np.array([np.median(col) for col in m.values.T])
    mad = np.array([np.median(np.abs(col - c)) for col, c in zip(m.values.T, med)])
    if (mad == 0).any():
        j = int(np.flatnonzero(mad == 0)[0])
        raise DegenerateScaleError(f"column {m.sample_ids[j]!r} has zero MAD")
    scale = 1.4826 * mad
    # ranks 1..G, tie runs averaged (rankdata's "average" ranks, exactly), in
    # the layout np.corrcoef's own copy of them would have
    ranks = np.empty_like(m.values)
    rank_map_into(m.values, np.arange(1.0, m.n_features + 1), ranks)
    x = ranks.T
    x -= x.mean(axis=1)[:, None]
    rho = np.dot(x, x.T)
    rho *= np.true_divide(1, m.n_features - 1)
    stddev = np.sqrt(np.diag(rho))
    rho /= stddev[:, None]
    rho /= stddev[None, :]
    np.clip(rho, -1, 1, out=rho)
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


def _replicate_quantile(rng, factor, buf, tmp) -> float:
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
    # borders come farthest first, and a positive iqr keeps the order: the largest ratio
    return float(bs.borders[0].distance / iqr)


def calibrate_g(
    cov: np.ndarray,
    n_features: int,
    replicates: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> TukeyCalibration:
    """Estimate the fence multiplier from matched normal surrogates.

    ``cov`` is the n x n inter-sample covariance.  Each replicate draws
    n surrogate curves of ``n_features`` values, one row each, as
    ``factor @ z`` for a standard normal ``z`` (n x n_features) and
    ``factor @ factor.T == cov``; so each feature is an
    n-variate normal with covariance ``cov``.  The rows are sorted in
    place (the column-sort of real data), their distances come from one
    Gram product (``_kernels.centred_gram_dists``, whose round-off is far
    below the Monte-Carlo spread of G), and ``extract_borders`` peels
    them as it peels real data.  A replicate records the outermost
    border's distance over the median border distance (the largest of
    the n per-column ratios); the calibrated multiplier is the median of
    those records.

    Two values are exact: n = 2 gives G = 1.0 (the one border over
    itself) and n = 3 gives G = 2.0 (the border over the median of it
    and the singleton's 0).  A border's distance never exceeds G times
    the median there, so the calibrated fence never flags at n <= 3.

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
    if n_features < 1:
        raise DimensionError("need at least one feature per surrogate curve")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or len(cov) < 2:
        raise DimensionError(f"covariance must be n x n with n >= 2, got shape {cov.shape}")
    n = len(cov)
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
            return _replicate_quantile(np.random.default_rng(child), factor, *buffers)
        finally:
            free.append(buffers)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        quantiles = list(pool.map(one, children))
    return TukeyCalibration(tuple(quantiles), seed)


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


@dataclass(frozen=True)
class ScopeScreen:
    """The data half of one scope's screen: all the fence needs besides its multiplier.

    ``pairs`` are the scope's borders named by sample id, ``iqr_estimate``
    is their median distance, and ``farther`` holds, for each two-member
    border in order, the member farther from the scope's deepest curve.
    """

    scope: str
    pairs: tuple[Border, ...]
    iqr_estimate: float
    farther: tuple[str, ...]

    def report(self, g_factor: float, flag_both: bool = False) -> OutlierReport:
        """Apply Tukey's fence at ``g_factor`` times the IQR estimate to the borders."""
        benchmark = g_factor * self.iqr_estimate
        flagged = []
        # the singleton border, if any, comes last and has no farther member
        for border, far in zip(self.pairs, self.farther):
            if not border.distance > benchmark:
                break
            flagged += border.members if flag_both else (far,)
        return OutlierReport(
            scope=self.scope,
            pairs=self.pairs,
            iqr_estimate=self.iqr_estimate,
            g_factor=g_factor,
            rule="both-members" if flag_both else "farther-from-deepest",
            flagged_samples=tuple(flagged),
        )


def _screen_scope(
    curves: ExpressionMatrix, d: np.ndarray, scope: str, cols: np.ndarray
) -> ScopeScreen:
    """The screen of the columns ``cols`` of the sorted ``curves``, whose distance matrix is ``d``.

    The scope's borders are peeled from its rows and columns of ``d``, so
    a pair has one distance in every scope.  Its deepest curve and the
    farther-member norms read its columns of the curves in place.
    """
    ids = tuple(curves.sample_ids[j] for j in cols)
    bs = extract_borders(DistanceMatrix(d[np.ix_(cols, cols)]))
    iqr = robust_iqr(bs)
    # a zero scale would flag every pair that is apart at all
    if iqr == 0.0 and bs.borders[0].distance > 0.0:
        raise DegenerateScaleError(f"{scope}: median border distance is 0; the fence has no scale")
    # deepest_curve of the scope: the mean of its deepest members, as columns of the curves
    deep_curve = curves.values[:, cols[list(bs.deepest_members)]].mean(axis=1)
    farther = []
    for border in bs.borders:
        if len(border.members) < 2:
            break
        a, b = border.members
        da = np.linalg.norm(curves.values[:, cols[a]] - deep_curve)
        db = np.linalg.norm(curves.values[:, cols[b]] - deep_curve)
        farther.append(ids[b] if db > da else ids[a])
    return ScopeScreen(
        scope=scope,
        pairs=tuple(Border(tuple(ids[j] for j in b.members), b.distance) for b in bs.borders),
        iqr_estimate=iqr,
        farther=tuple(farther),
    )


def screen_outliers(
    m: ExpressionMatrix,
    labels: Optional[ClassPartition] = None,
) -> list[ScopeScreen]:
    """The data half of :func:`detect_outliers`: one :class:`ScopeScreen` per scope.

    The screens hold no matrix-sized data, so a caller may drop ``m``
    before the fence multiplier is calibrated and apply it after with
    :meth:`ScopeScreen.report`.  Raises here, before any calibration,
    when two columns share a sample id, the distances overflow or a
    scope's fence has no scale.  Beyond ``m``, one matrix-sized array is
    alive: the sorted curves, which every scope reads in place.  Their
    distance matrix is computed once, and each scope reads its rows and
    columns of it.
    """
    if labels is not None and len(labels.labels) != m.n_samples:
        raise PartitionError(f"{len(labels.labels)} class labels for {m.n_samples} columns")
    # the reports name each sample by its id
    repeated = sorted(s for s, count in Counter(m.sample_ids).items() if count > 1)
    if repeated:
        raise DomainError(f"sample ids {repeated!r} name more than one column")
    curves = column_sort(m)
    d = pairwise_distances(curves).d
    scopes = [("global", np.arange(m.n_samples))]
    if labels is not None:
        scopes += [(f"class {k}", labels.members(k)) for k in range(1, labels.class_count + 1)]
    return [_screen_scope(curves, d, scope, cols) for scope, cols in scopes]


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
    ``flag_both``).  This is :func:`screen_outliers` followed by
    :meth:`ScopeScreen.report` on each screen.
    """
    return [s.report(cal.g_factor, flag_both) for s in screen_outliers(m, labels)]


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
    for scope, mine in scopes.items():
        # each row repeats its scope's fields; a writer never makes them differ
        for field in ("iqr_estimate", "benchmark", "tukey_constant", "rule"):
            if any(r[field] != mine[0][field] for r in mine):
                raise ValueError(f"the rows of scope {scope!r} disagree on {field}")
        pairs, flagged = [], []
        for r in mine:
            if r["pair_index"] != str(len(pairs) + 1):
                raise ValueError(f"pair_index {r['pair_index']!r} is not {len(pairs) + 1}")
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
    if not isinstance(d["flagged_samples"], list) or not all(
        isinstance(p["members"], list) for p in d["pairs"]
    ):
        raise ValueError("members or flagged_samples is not a list")
    pairs = tuple(Border(tuple(p["members"]), float(p["distance"])) for p in d["pairs"])
    if not pairs:
        raise ValueError(f"scope {d['scope']!r} has no pairs")
    for b in pairs:
        if len(b.members) not in (1, 2) or not all(isinstance(s, str) for s in b.members):
            raise ValueError(f"members {list(b.members)!r} are not 1 or 2 sample ids")
    named = [s for b in pairs for s in b.members]
    if len(set(named)) < len(named):
        raise ValueError("a sample is named twice")
    if any(len(b.members) == 1 for b in pairs[:-1]):
        raise ValueError("a one-member border comes before the last")
    if any(a.distance < b.distance for a, b in zip(pairs, pairs[1:])):
        raise ValueError("pair distances rise")
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
    if not set(report.flagged_samples) <= set(named):
        raise ValueError("a flagged sample is in no pair")
    # the flags must be the fence's verdict: a stored farther member stands for the
    # farther-from-deepest choice, which the file does not otherwise record
    both = report.rule == "both-members"
    stored = () if both else report.flagged_samples
    farther = tuple(
        stored[k] if k < len(stored) and stored[k] in b.members else b.members[0]
        for k, b in enumerate(pairs) if len(b.members) == 2
    )
    verdict = ScopeScreen(report.scope, pairs, report.iqr_estimate, farther).report(
        report.g_factor, both
    )
    if verdict != report:
        raise ValueError(f"flagged samples {list(report.flagged_samples)!r} are not the fence's "
                         f"verdict {list(verdict.flagged_samples)!r}")
    return report


def load_reports(path) -> list[OutlierReport]:
    """Read ``outliers.json`` or ``outliers.csv`` back into reports.

    A loaded report equals the report that was written.  A file that no
    writer makes is a ParseError: one without reports, a report without
    pairs of 1 or 2 ids, a sample named twice, a one-member border before
    the last, pair distances that rise, or flags that are not the fence's
    verdict on the pairs.
    """
    path = Path(path)
    is_json = path.suffix.lower() == ".json"
    data = read_text(path) if is_json else read_rows(path)
    try:
        payload = json.loads(data)["reports"] if is_json else _csv_payload(data)
        reports = [_report_from_payload(d) for d in payload]
        if not reports:
            raise ValueError("no reports")
        return reports
    # json.loads gives up on deep nesting with a RecursionError
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise ParseError(f"{path}: not an outlier report ({e!r})") from None
