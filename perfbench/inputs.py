"""Fixed-seed inputs for the benchmark workloads.

Every input is a pure function of (workload, seed, size): the same seed
writes the same bytes.  The program under test only sees the files
written here and, for ``simulate``, the seed passed on its command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_SAMPLES = 24
# Gross outliers, one per class: the top (1 - q) of a column's values are
# multiplied by f.  The centre of the column, and with it its median and
# MAD (which the fence calibration reads), stays as it was, while the
# column's sorted curve moves far from every other one.
OUTLIER_TAILS = ((0.98, 4.0), (0.95, 2.0))


@dataclass(frozen=True)
class MatrixInput:
    path: Path
    labels_path: Path | None = None
    labels: tuple[int, ...] | None = None
    planted: tuple[str, ...] = ()


def sample_names(n: int) -> tuple[str, ...]:
    return tuple(f"S{j + 1:02d}" for j in range(n))


def _expression(rng: np.random.Generator, n_genes: int, n_samples: int):
    """Log-normal intensities: gene level + sample noise + sample scale."""
    base = rng.normal(6.0, 1.2, size=(n_genes, 1))
    noise = rng.normal(0.0, 0.3, size=(n_genes, n_samples))
    scale = rng.uniform(-0.5, 0.5, size=n_samples)
    return np.exp(base + noise + scale)


def _write_matrix(directory: Path, values: np.ndarray) -> tuple[Path, tuple[str, ...]]:
    """Write ``expr.csv`` with a header of sample names.

    %.17g round-trips every double.  Continuous draws make ties within a
    column vanishingly rare; a tie is refused, so rank maps are unambiguous.
    """
    if (np.diff(np.sort(values, axis=0), axis=0) == 0).any():
        raise RuntimeError("generated column has tied values; choose another seed")
    ids = sample_names(values.shape[1])
    path = directory / "expr.csv"
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=",".join(ids), comments="")
    return path, ids


def normalize_input(directory: Path, seed: int, n_genes: int) -> MatrixInput:
    rng = np.random.default_rng([seed, 1])
    path, _ = _write_matrix(directory, _expression(rng, n_genes, N_SAMPLES))
    return MatrixInput(path)


def outliers_input(directory: Path, seed: int, n_genes: int) -> MatrixInput:
    rng = np.random.default_rng([seed, 2])
    x = _expression(rng, n_genes, N_SAMPLES)
    labels = np.array([1] * (N_SAMPLES // 2) + [2] * (N_SAMPLES // 2))
    rng.shuffle(labels)
    planted = [int(rng.choice(np.flatnonzero(labels == k))) for k in (1, 2)]
    for j, (q, factor) in zip(planted, OUTLIER_TAILS):
        col = x[:, j]
        col[col > np.quantile(col, q)] *= factor
    path, ids = _write_matrix(directory, x)
    labels_path = directory / "labels.txt"
    labels_path.write_text("".join(f"{k}\n" for k in labels))
    return MatrixInput(
        path, labels_path, tuple(int(k) for k in labels), tuple(ids[j] for j in planted)
    )


@dataclass(frozen=True)
class Simulation:
    """The simulate cell: the study's seed and size (the other values are
    the CLI defaults, restated for the checks)."""

    seed: int
    genes: int
    affected: int
    datasets: int
    samples: int = 12
    probes_per_gene: int = 11
    df: float = 10.0
    delta: float = 1.0
    alpha: float = 0.05


def simulate_seed(seed: int) -> int:
    """The study's --seed, derived from the benchmark seed."""
    return int(np.random.default_rng([seed, 3]).integers(1, 2**31 - 1))
