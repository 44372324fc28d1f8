"""Checks of the CLI's artifacts against computations made apart from it.

Nothing here imports ``depthnorm``.  Distances come from
``scipy.spatial.distance.pdist``, borders from the brute-force
``tests/oracles.borders_oracle``, median polish from
``tests/oracles.medpolish_oracle`` and the Welch test from scipy.  No
check compares against a stored copy of earlier output, and none pins the
calibrated multiplier to a value: only its relation to the recorded
replicate quantiles is checked.

Each ``check_*`` returns a list of problems; an empty list means the
artifacts are correct.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.spatial.distance import pdist, squareform

ROOT = Path(__file__).resolve().parent.parent
DIST_RTOL = 1e-9


@functools.cache
def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_matrix(path: Path):
    with open(path) as fh:
        ids = tuple(fh.readline().strip().split(","))
    return ids, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _median_prenormalized_sorted(x: np.ndarray) -> np.ndarray:
    med = np.median(x, axis=0)
    return np.sort(x * (np.median(med) / med), axis=0)


def _borders(sorted_cols: np.ndarray):
    """Oracle borders of the given sorted columns: [((i, j), distance), ...]."""
    return _oracles().borders_oracle(squareform(pdist(sorted_cols.T)))


def _close(a, b, rtol=DIST_RTOL) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=0.0))


# ---------------------------------------------------------------------------
# normalize


def check_normalize(inp, out: Path) -> list[str]:
    problems = []
    ids, x = _read_matrix(inp.path)
    s = _median_prenormalized_sorted(x)
    borders = _borders(s)
    deepest = borders[-1][0]
    expected_ref = s[:, list(deepest)].mean(axis=1)

    ref = np.loadtxt(out / "reference.csv", skiprows=1, ndmin=1)
    if ref.shape != expected_ref.shape or not _close(ref, expected_ref):
        problems.append("reference.csv differs from the deepest sorted column(s)")

    norm_ids, normalized = _read_matrix(out / "normalized.csv")
    if norm_ids != ids or normalized.shape != x.shape:
        problems.append("normalized.csv has other sample ids or another shape than the input")
    else:
        for j in range(x.shape[1]):
            order = np.argsort(x[:, j], kind="stable")
            if not np.array_equal(normalized[order, j], ref):
                problems.append(
                    f"normalized.csv column {ids[j]} is not reference.csv in the input's rank order"
                )
                break

    with open(out / "depth.csv", newline="") as fh:
        rows = {r["sample_id"]: r for r in csv.DictReader(fh)}
    for k, (members, dist) in enumerate(borders, start=1):
        for j in members:
            row = rows.get(ids[j])
            if row is None or int(row["border_index"]) != k:
                problems.append(f"depth.csv border index of {ids[j]} is not {k}")
            elif not _close(float(row["intra_pair_distance"]), dist):
                problems.append(f"depth.csv distance of {ids[j]} differs from pdist")
    if len(rows) != len(ids):
        problems.append("depth.csv does not have one row per sample")
    return problems


# ---------------------------------------------------------------------------
# outliers


def check_outliers(inp, out: Path, replicates: int) -> list[str]:
    problems = []
    ids, x = _read_matrix(inp.path)
    s = _median_prenormalized_sorted(x)
    labels = np.asarray(inp.labels)
    scopes = {"global": np.arange(len(ids))}
    for k in sorted(set(inp.labels)):
        scopes[f"class {k}"] = np.flatnonzero(labels == k)

    cal = json.loads((out / "calibration.json").read_text())
    quantiles = np.asarray(cal["per_replicate_quantiles"], dtype=float)
    if cal["replicates"] != replicates or quantiles.shape != (replicates,):
        problems.append(f"calibration.json does not record {replicates} replicate quantiles")
    if not (quantiles >= 1.0).all():
        problems.append("a replicate quantile is below 1")
    g = cal["g_factor"]
    if g != float(np.median(quantiles)):
        problems.append("g_factor is not the median of the replicate quantiles")

    with open(out / "outliers.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    flagged_by_scope = {}
    for scope, cols in scopes.items():
        mine = sorted((r for r in rows if r["scope"] == scope), key=lambda r: int(r["pair_index"]))
        expected = [
            (frozenset(ids[cols[j]] for j in members), dist)
            for members, dist in _borders(s[:, cols])
        ]
        got = [(frozenset(filter(None, (r["member_1"], r["member_2"]))),
                float(r["distance_intra_pair"])) for r in mine]
        if [m for m, _ in got] != [m for m, _ in expected] or not _close(
            [d for _, d in got], [d for _, d in expected]
        ):
            problems.append(f"{scope}: border pairs differ from the pdist/oracle recomputation")
            continue
        dists = np.array([d for _, d in got])
        iqr = float(mine[0]["iqr_estimate"])
        fence = float(mine[0]["benchmark"])
        if any(float(r["iqr_estimate"]) != iqr or float(r["benchmark"]) != fence for r in mine):
            problems.append(f"{scope}: rows disagree on the IQR or the fence")
        if not _close(iqr, np.median([d for _, d in expected])) or iqr != float(np.median(dists)):
            problems.append(f"{scope}: IQR is not the median pair distance")
        if any(float(r["tukey_constant"]) != g for r in mine):
            problems.append(f"{scope}: Tukey's constant is not the calibrated g_factor")
        if not _close(fence, g * iqr, rtol=1e-12):
            problems.append(f"{scope}: fence is not g_factor x IQR")
        beyond = [len(m) == 2 and d > fence for m, d in got]
        flags = [r["flagged"] == "1" for r in mine]
        if flags != beyond:
            problems.append(f"{scope}: flagged pairs are not exactly those beyond the fence")
        for r, flag, (members, _) in zip(mine, flags, got):
            if flag != bool(r["flagged_member"]) or (flag and r["flagged_member"] not in members):
                problems.append(f"{scope}: pair {r['pair_index']} names a wrong flagged member")
        flagged_by_scope[scope] = [r["flagged_member"] for r in mine if r["flagged_member"]]

    missed = set(inp.planted) - set(flagged_by_scope.get("global", ()))
    if missed:
        problems.append(f"planted outliers not flagged globally: {sorted(missed)}")
    reports = json.loads((out / "outliers.json").read_text())["reports"]
    if {r["scope"]: r["flagged_samples"] for r in reports} != flagged_by_scope:
        problems.append("outliers.json and outliers.csv flag different samples")
    return problems


# ---------------------------------------------------------------------------
# simulate


def _simulated_dataset(sim, dataset: int):
    """The study's probe matrix, generated by the documented recipe."""
    rng = np.random.default_rng(np.random.SeedSequence((sim.seed, dataset)))
    probes = sim.genes * sim.probes_per_gene
    values = 3.0 + rng.standard_t(sim.df, size=(probes, sim.samples))
    eps = rng.uniform(0.0, 2.0, size=sim.samples)
    values[values <= 0] = 0.001
    values[: sim.affected * sim.probes_per_gene, : sim.samples // 2] += sim.delta
    return values ** (3.0 + eps)


def _rank_map(col: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Each value takes the reference value at its rank; ties share the mean."""
    uniq, inverse, counts = np.unique(col, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    csum = np.concatenate(([0.0], np.cumsum(ref)))
    return ((csum[ends] - csum[ends - counts]) / counts)[inverse]


def rma_row(sim) -> tuple[float, float]:
    """Mean power and false discoveries of RMA over the study's datasets."""
    powers, false = [], []
    half = sim.samples // 2
    truth = np.arange(sim.genes) < sim.affected
    for ds in range(sim.datasets):
        x = _simulated_dataset(sim, ds)
        med = np.median(x, axis=0)
        w = x * (np.median(med) / med)
        ref = np.median(np.sort(w, axis=0), axis=1)
        logged = np.log2(np.column_stack([_rank_map(w[:, j], ref) for j in range(sim.samples)]))
        genes = np.empty((sim.genes, sim.samples))
        for gene in range(sim.genes):
            block = logged[gene * sim.probes_per_gene:(gene + 1) * sim.probes_per_gene]
            overall, _, col, _ = _oracles().medpolish_oracle(block, 20, 0.01)
            genes[gene] = overall + col
        p = stats.ttest_ind(genes[:, :half], genes[:, half:], axis=1, equal_var=False).pvalue
        flagged = p < sim.alpha
        powers.append(100.0 * (flagged & truth).sum() / truth.sum())
        false.append(float((flagged & ~truth).sum()))
    return float(np.mean(powers)), float(np.mean(false))


METHODS = ("RMA", "FDN-median-polish", "FDN-biweight")
# Power and false discoveries are means over datasets of whole counts.
# Round-off between the program's median polish and the oracle's can move a
# p-value that sits on alpha; one such flip moves the mean by 1/datasets
# false discoveries (or 100/(affected*datasets) power points).
FLIP_ALLOWANCE = 1


def check_simulate(sim, out: Path) -> list[str]:
    problems = []
    with open(out / "study.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if sorted(r["method"] for r in rows) != sorted(METHODS):
        return [f"study.csv methods are {[r['method'] for r in rows]}, expected {METHODS}"]
    by_method = {r["method"]: r for r in rows}
    max_false = sim.genes - sim.affected
    for r in rows:
        if int(r["n_datasets"]) != sim.datasets:
            problems.append(f"{r['method']}: n_datasets is not {sim.datasets}")
        if float(r["df"]) != sim.df or float(r["delta"]) != sim.delta:
            problems.append(f"{r['method']}: wrong (df, delta) cell")
        if not 0.0 <= float(r["power"]) <= 100.0:
            problems.append(f"{r['method']}: power outside [0, 100]")
        if not 0.0 <= float(r["false_discoveries"]) <= max_false:
            problems.append(f"{r['method']}: false discoveries outside [0, {max_false}]")
    power, false = rma_row(sim)
    rma = by_method["RMA"]
    power_step = 100.0 / (sim.affected * sim.datasets)
    if abs(float(rma["power"]) - power) > FLIP_ALLOWANCE * power_step + 1e-9:
        problems.append(f"RMA power {rma['power']} differs from the recomputed {power!r}")
    if abs(float(rma["false_discoveries"]) - false) > FLIP_ALLOWANCE / sim.datasets + 1e-9:
        problems.append(
            f"RMA false discoveries {rma['false_discoveries']} differ from the recomputed {false!r}"
        )
    return problems
