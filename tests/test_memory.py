"""Traced peak memory of the data path at a fixed size, in matrix copies.

The matrix is 20,000 x 24, so one float64 copy is 3.84 MB.  Each bound
counts what a call allocates beyond its input, its result included; the
``normalize`` bound counts the whole command, its parse included, and the
``outliers`` bound what the command still holds when calibration starts.
"""

import tracemalloc

import numpy as np
import pytest

from depthnorm import (
    ExpressionMatrix,
    TukeyCalibration,
    column_sort,
    ClassPartition,
    linear_prenormalize,
    normalize_pipeline,
    peel_borders,
    robust_covariance,
    save_matrix,
    screen_outliers,
)
from depthnorm import cli

G, N = 20_000, 24
COPY = G * N * 8


@pytest.fixture(scope="module")
def matrix():
    # all-distinct values, like a raw input or subset-mode output
    return ExpressionMatrix(np.random.default_rng(11).lognormal(6.0, 1.2, size=(G, N)))


def quantile_output(m: ExpressionMatrix) -> ExpressionMatrix:
    """``m`` as ``depthnorm normalize`` writes it with its default settings."""
    return normalize_pipeline(linear_prenormalize(m, "median")).matrix


def traced_peak(call, *args, **kwargs) -> float:
    """Peak traced bytes of the second of two calls, in matrix copies (the first warms caches)."""
    call(*args, **kwargs)
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / COPY


def test_save_matrix_of_quantile_output(matrix, tmp_path):
    # about one distinct value per row: the buffer of distinct bits (half the cells
    # plus one column, mostly never touched), then the table of texts, 26 bytes per
    # distinct value, and one block's indices and text at a time.  Measured 0.64.
    out = quantile_output(matrix)
    assert traced_peak(save_matrix, out, tmp_path / "m.csv") < 0.75


def test_save_matrix_of_f_ordered_quantile_output(matrix, tmp_path):
    # each block is made contiguous on its own, not the whole matrix
    out = quantile_output(matrix)
    out = out.with_values(np.asfortranarray(out.values))
    assert traced_peak(save_matrix, out, tmp_path / "m.csv") < 0.75


def test_save_matrix_of_all_distinct_values(matrix, tmp_path):
    # the buffer of distinct bits until it holds over half the cells, then one
    # block of cells at a time
    assert traced_peak(save_matrix, matrix, tmp_path / "m.csv") < 1.5


def test_peel_borders_of_sorted_curves(matrix):
    # the curves are read in place and differenced a few rows at a time
    assert traced_peak(peel_borders, column_sort(matrix)) < 0.5


@pytest.mark.parametrize("reference, bound", [("deepest", 1.5), ("component_median", 2.25)],
                         ids=["deepest", "component_median"])
def test_normalize_pipeline(matrix, reference, bound):
    # the matrix is mapped as given: either its sorted curves or the output, plus
    # one column's temporaries (or, for the median reference, one partitioned copy
    # of the curves)
    assert traced_peak(normalize_pipeline, matrix, reference=reference) < bound


@pytest.mark.parametrize("n, seed, bound", [(3, 12, 2.25), (2, 13, 3.0)], ids=["three", "two"])
def test_save_matrix_of_narrow_quantile_output(tmp_path, n, seed, bound):
    # each distinct value fills n cells, so the table is built; its 26 bytes and the
    # 8 of the bits per distinct value set the peak.  Measured 1.92 at three
    # columns and 2.65 at two.
    narrow = ExpressionMatrix(np.random.default_rng(seed).lognormal(6.0, 1.2, size=(G * N // n, n)))
    out = quantile_output(narrow)
    assert traced_peak(save_matrix, out, tmp_path / "m.csv") < bound


@pytest.mark.parametrize("options", [[], ["--boxplot-svg"], ["--mode", "subset"]],
                         ids=["default", "boxplot", "subset"])
def test_normalize_command(matrix, tmp_path, options):
    # the parse, then the prenormalized columns with their sorted curves or the
    # output, then the output and the write: the input is freed once
    # prenormalized, and the prenormalized columns before the write.  The box
    # plots add one logged copy and one column's quantile temporaries.
    save_matrix(matrix, tmp_path / "m.csv")
    argv = ["normalize", "--input", str(tmp_path / "m.csv"), "--output-dir", str(tmp_path / "out")]
    assert traced_peak(cli.main, argv + options) < 2.5


def test_screen_outliers_with_two_classes(matrix):
    # the sorted curves, which every scope reads in place
    labels = ClassPartition((1, 2) * (N // 2))
    assert traced_peak(screen_outliers, matrix, labels) < 1.3


def test_robust_covariance(matrix):
    # the ranks, written in place and reduced in place, plus one column's temporaries
    assert traced_peak(robust_covariance, matrix) < 1.25


def test_outliers_holds_no_input_copy_while_it_calibrates(matrix, tmp_path, monkeypatch):
    # the screens hold all the fence needs, so the matrix is freed before calibration
    save_matrix(matrix, tmp_path / "m.csv")
    held = []

    def calibrate(**kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return TukeyCalibration.fixed(1.5)

    monkeypatch.setattr(cli, "calibrate_g", calibrate)
    argv = ["outliers", "--input", str(tmp_path / "m.csv"), "--output-dir", str(tmp_path / "out")]
    # the first run imports what the command loads on first use
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
    finally:
        tracemalloc.stop()
    assert held[1] / COPY < 0.5
