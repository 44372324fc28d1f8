"""Synthetic probe-level datasets and the normalization comparison study.

Datasets mimic a two-group expression experiment: heavy-tailed probe
intensities centered at 3, a shift added to the first block of genes in
the first half of the samples, and a per-sample power distortion
(exponent 3 + eps) that destroys scale comparability and creates the
need for normalization.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    ClassPartition, DimensionError, DomainError, ExpressionMatrix, ParseError, linear_prenormalize,
    read_rows, write_rows,
)
from .normalize import normalize_pipeline
from .pipeline import ProbeMatrix, power_false_discovery, summarize_genes, two_sample_ttest

METHOD_RMA = "RMA"
METHOD_FDN_MP = "FDN-median-polish"
METHOD_FDN_BW = "FDN-biweight"
ALL_METHODS = (METHOD_RMA, METHOD_FDN_MP, METHOD_FDN_BW)

_METHOD_LABEL = {
    METHOD_RMA: "RMA",
    METHOD_FDN_MP: "Median Polish FDN",
    METHOD_FDN_BW: "M-Estimator FDN",
}


@dataclass(frozen=True)
class SimulationConfig:
    """One cell of the study grid (a single df and shift)."""

    n_samples: int = 12
    n_genes: int = 1000
    probes_per_gene: int = 11
    df: float = 10.0
    delta: float = 0.0
    affected_genes: int = 100
    distortion_range: tuple[float, float] = (0.0, 2.0)
    base_power: float = 3.0
    center: float = 3.0
    negative_floor: float = 0.001
    n_datasets: int = 20
    seed: int = 1729
    alpha: float = 0.05

    def __post_init__(self):
        if self.n_samples < 4 or self.n_samples % 2:
            raise DimensionError(
                f"n_samples must be even and >= 4, got {self.n_samples} "
                "(the Welch test needs two equal groups of at least two)"
            )
        if min(self.n_genes, self.probes_per_gene, self.n_datasets) < 1:
            raise DimensionError("counts must be >= 1")
        if not 0 < self.df < np.inf:
            raise DomainError(f"df must be positive and finite, got {self.df!r}")
        if not 0 <= self.delta < np.inf:
            raise DomainError(f"delta must be finite and non-negative, got {self.delta!r}")
        if not 1 <= self.affected_genes <= self.n_genes:
            raise DomainError(
                f"affected_genes must lie in [1, n_genes], got {self.affected_genes} "
                "(power needs a true gene)"
            )
        lo, hi = self.distortion_range
        if not np.isfinite([lo, hi]).all():
            raise DomainError(f"distortion range must be finite, got {lo!r} {hi!r}")
        if hi < lo:
            raise DomainError("empty distortion range")
        if not 0 < self.negative_floor < np.inf:
            raise DomainError("negative_floor must be positive and finite")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.alpha < 1:
            raise DomainError(f"alpha must lie strictly between 0 and 1, got {self.alpha!r}")


def generate_dataset(cfg: SimulationConfig, dataset_seed: int) -> tuple[ProbeMatrix, np.ndarray]:
    """One synthetic probe matrix plus the true differential-gene labels.

    Draw order is fixed (probe noise, then the per-sample exponents) so
    that configs differing only in ``delta`` share their randomness for a
    given (seed, dataset_seed) pair.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, dataset_seed)))
    p_total = cfg.n_genes * cfg.probes_per_gene
    values = cfg.center + rng.standard_t(cfg.df, size=(p_total, cfg.n_samples))
    eps = rng.uniform(cfg.distortion_range[0], cfg.distortion_range[1], size=cfg.n_samples)
    values[values <= 0] = cfg.negative_floor
    shifted = cfg.affected_genes * cfg.probes_per_gene
    values[:shifted, : cfg.n_samples // 2] += cfg.delta
    values = values ** (cfg.base_power + eps)
    truth = np.zeros(cfg.n_genes, dtype=bool)
    truth[: cfg.affected_genes] = True
    return ProbeMatrix.uniform(values, cfg.probes_per_gene), truth


@dataclass(frozen=True)
class StudyRow:
    df: float
    delta: float
    method: str
    power: float
    false_discoveries: float


@dataclass(frozen=True)
class StudyReport:
    """Mean power / false discoveries per (df, delta, method) cell."""

    rows: tuple[StudyRow, ...]
    n_datasets: int

    def to_csv(self, path=None) -> Optional[str]:
        header = ["df", "delta", "method", "power", "false_discoveries", "n_datasets"]
        rows = ([r.df, r.delta, r.method, r.power, r.false_discoveries, self.n_datasets]
                for r in self.rows)
        return write_rows(path, [header, *rows])

    @classmethod
    def from_csv(cls, path) -> "StudyReport":
        table = read_rows(path)
        rows = [dict(zip(table[0], cells)) for cells in table[1:]]
        if not rows:
            raise DomainError(f"{path}: empty study report")
        try:
            report = cls(
                tuple(
                    StudyRow(
                        float(r["df"]), float(r["delta"]), r["method"],
                        float(r["power"]), float(r["false_discoveries"])
                    )
                    for r in rows
                ),
                int(rows[0]["n_datasets"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{path}: not a study report ({e!r})") from None
        have = {(r.df, r.delta, r.method) for r in report.rows}
        for df, delta in report.cells():
            for method in report.methods():
                if (df, delta, method) not in have:
                    raise ParseError(f"{path}: no row for df={df!r}, delta={delta!r}, {method}")
        return report

    def cell(self, df: float, delta: float, method: str) -> StudyRow:
        for r in self.rows:
            if r.df == df and r.delta == delta and r.method == method:
                return r
        raise KeyError((df, delta, method))

    def cells(self) -> list[tuple[float, float]]:
        return sorted({(r.df, r.delta) for r in self.rows})

    def methods(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.method not in seen:
                seen.append(r.method)
        return seen

    def format_table(self) -> str:
        """Text table: power block then false-discovery block per method."""
        methods = self.methods()
        labels = [_METHOD_LABEL.get(m, m) for m in methods]
        w = max(12, *(len(s) for s in labels)) + 2
        head = "".rjust(12) + "".join(s.rjust(w) for s in labels)
        out = [f"datasets per cell: {self.n_datasets}"]
        for title, field in (("Power", "power"), ("False Discovery", "false_discoveries")):
            out += ["", title.rjust(12), head]
            for df, delta in self.cells():
                row = f"df={df:g} d={delta:g}".rjust(12)
                for m in methods:
                    row += f"{getattr(self.cell(df, delta, m), field):.2f}".rjust(w)
                out.append(row)
        return "\n".join(out)


def _one_dataset(cfg: SimulationConfig, dataset_seed: int, methods: Sequence[str]) -> dict:
    pm, truth = generate_dataset(cfg, dataset_seed)
    # both references map the same median-prenormalized matrix
    m = linear_prenormalize(ExpressionMatrix(pm.values, pm.sample_ids), "median")
    groups = ClassPartition(
        tuple([1] * (cfg.n_samples // 2) + [2] * (cfg.n_samples // 2))
    )
    out = {}

    def run(reference: str, summaries: list[tuple[str, str]]):
        res = normalize_pipeline(m, prenorm_anchor=None, reference=reference)
        logged = ProbeMatrix(np.log2(res.matrix.values), pm.probe_to_gene, pm.sample_ids)
        for method_key, summarizer in summaries:
            gm = summarize_genes(logged, summarizer)
            tr = two_sample_ttest(gm, groups, truth)
            out[method_key] = power_false_discovery(tr, cfg.alpha)

    if METHOD_RMA in methods:
        run("component_median", [(METHOD_RMA, "median_polish")])
    fdn = [
        (key, summ)
        for key, summ in ((METHOD_FDN_MP, "median_polish"), (METHOD_FDN_BW, "biweight"))
        if key in methods
    ]
    if fdn:
        run("deepest", fdn)
    return out


def run_study(
    cfg: SimulationConfig,
    methods: Sequence[str] = ALL_METHODS,
    threads: int = 1,
) -> StudyReport:
    """Run one (df, delta) cell over ``cfg.n_datasets`` datasets.

    Datasets are independent jobs with derived seeds; results are reduced
    by dataset index, so any execution order (or thread count) yields the
    same report.
    """
    methods = list(methods)
    if not methods:
        raise DomainError("no methods selected")
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise DomainError(f"unknown methods: {unknown}; expected subset of {ALL_METHODS}")
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")

    def one(ds: int) -> dict:
        return _one_dataset(cfg, ds, methods)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        per_ds = list(pool.map(one, range(cfg.n_datasets)))

    rows = []
    for method in methods:
        powers = np.array([d[method][0] for d in per_ds])
        false = np.array([d[method][1] for d in per_ds], dtype=np.float64)
        rows.append(
            StudyRow(cfg.df, cfg.delta, method, float(powers.mean()), float(false.mean()))
        )
    return StudyReport(tuple(rows), cfg.n_datasets)


def run_grid(
    cfg: SimulationConfig,
    dfs: Sequence[float],
    deltas: Sequence[float],
    methods: Sequence[str] = ALL_METHODS,
    threads: int = 1,
) -> StudyReport:
    """Full study over a (df, delta) grid, one report with all rows."""
    rows: list[StudyRow] = []
    for df in dfs:
        for delta in deltas:
            cell = run_study(replace(cfg, df=df, delta=delta), methods, threads)
            rows.extend(cell.rows)
    return StudyReport(tuple(rows), cfg.n_datasets)
