import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from depthnorm import (
    ALL_METHODS,
    METHOD_FDN_BW,
    METHOD_FDN_MP,
    METHOD_RMA,
    ClassPartition,
    DimensionError,
    DomainError,
    ExpressionMatrix,
    ParseError,
    ProbeMatrix,
    SimulationConfig,
    StudyReport,
    generate_dataset,
    linear_prenormalize,
    normalize_pipeline,
    power_false_discovery,
    run_grid,
    run_study,
    summarize_genes,
    two_sample_ttest,
)
from depthnorm.simulate import _one_dataset

TINY = SimulationConfig(
    n_samples=8, n_genes=40, probes_per_gene=3, affected_genes=8,
    delta=2.0, n_datasets=3, seed=5,
)


class TestConfigValidation:
    def test_odd_sample_count_rejected(self):
        with pytest.raises(DimensionError):
            SimulationConfig(n_samples=11)

    def test_affected_bounded_by_genes(self):
        with pytest.raises(DomainError):
            SimulationConfig(n_genes=10, affected_genes=11)

    def test_two_samples_rejected(self):
        # one sample per group leaves the Welch test no variance
        with pytest.raises(DimensionError, match="n_samples must be even and >= 4, got 2"):
            SimulationConfig(n_samples=2)

    def test_floor_positive(self):
        with pytest.raises(DomainError):
            SimulationConfig(negative_floor=0.0)

    @pytest.mark.parametrize("field", [
        {"delta": -2.0}, {"delta": float("nan")}, {"df": float("inf")}, {"seed": -1},
        {"distortion_range": (0.0, float("nan"))}, {"negative_floor": float("inf")},
        {"alpha": 2.0}, {"alpha": float("nan")}, {"alpha": 0.0}, {"alpha": 1.0},
        {"affected_genes": 0},
    ], ids=["negative-delta", "nan-delta", "inf-df", "negative-seed", "nan-distortion",
            "inf-floor", "alpha-above-one", "nan-alpha", "zero-alpha", "alpha-one",
            "no-affected-genes"])
    def test_values_the_draws_cannot_use_rejected(self, field):
        with pytest.raises(DomainError):
            SimulationConfig(**field)


class TestGenerateDataset:
    def test_truth_marks_exactly_the_affected_genes(self):
        pm, truth = generate_dataset(TINY, 0)
        assert truth.sum() == TINY.affected_genes
        assert truth[: TINY.affected_genes].all()
        assert pm.values.shape == (TINY.n_genes * TINY.probes_per_gene, TINY.n_samples)

    def test_values_stay_positive(self):
        pm, _ = generate_dataset(TINY, 1)
        assert (pm.values > 0).all()

    def test_deterministic_per_dataset_seed(self):
        a, _ = generate_dataset(TINY, 2)
        b, _ = generate_dataset(TINY, 2)
        c, _ = generate_dataset(TINY, 3)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_deltas_share_their_noise(self):
        from dataclasses import replace

        base, _ = generate_dataset(replace(TINY, delta=0.0), 4)
        shifted, _ = generate_dataset(replace(TINY, delta=1.0), 4)
        untouched = slice(TINY.affected_genes * TINY.probes_per_gene, None)
        assert np.array_equal(base.values[untouched], shifted.values[untouched])

    def test_zero_distortion_keeps_samples_on_one_scale(self):
        from dataclasses import replace

        cfg = replace(TINY, distortion_range=(0.0, 0.0), delta=0.0, n_genes=400)
        pm, _ = generate_dataset(cfg, 0)
        medians = np.median(pm.values, axis=0)
        assert medians.max() / medians.min() < 1.2

    def test_heavy_tail_moments_before_distortion(self):
        from dataclasses import replace

        cfg = replace(
            TINY, n_genes=1000, probes_per_gene=11, n_samples=12,
            df=10.0, delta=0.0,
            base_power=1.0, distortion_range=(0.0, 0.0),
        )
        pm, _ = generate_dataset(cfg, 0)
        assert pm.values.mean() == pytest.approx(3.0, abs=0.02)
        assert pm.values.var() == pytest.approx(10.0 / 8.0, abs=0.08)


def one_dataset_prenormalizing_per_reference(cfg, dataset_seed):
    """Each method's (power, false discoveries), prenormalizing inside each pipeline run."""
    pm, truth = generate_dataset(cfg, dataset_seed)
    m = ExpressionMatrix(pm.values, pm.sample_ids)
    groups = ClassPartition((1,) * (cfg.n_samples // 2) + (2,) * (cfg.n_samples // 2))
    out = {}
    for reference, methods in (
        ("component_median", [(METHOD_RMA, "median_polish")]),
        ("deepest", [(METHOD_FDN_MP, "median_polish"), (METHOD_FDN_BW, "biweight")]),
    ):
        res = normalize_pipeline(linear_prenormalize(m, "median"), reference=reference)
        logged = ProbeMatrix(np.log2(res.matrix.values), pm.probe_to_gene, pm.sample_ids)
        for key, summarizer in methods:
            tr = two_sample_ttest(summarize_genes(logged, summarizer), groups, truth)
            out[key] = power_false_discovery(tr, cfg.alpha)
    return out


@pytest.mark.parametrize("df", [3.0, 10.0])
def test_one_dataset_matches_prenormalizing_per_reference(df):
    from dataclasses import replace

    cfg = replace(TINY, df=df, n_genes=60, probes_per_gene=5, affected_genes=12, delta=1.0)
    for ds in range(3):
        got = _one_dataset(cfg, ds, ALL_METHODS)
        assert got == one_dataset_prenormalizing_per_reference(cfg, ds), (df, ds)


def test_per_dataset_counts_match_the_exact_test_at_one_and_four_threads():
    from concurrent.futures import ThreadPoolExecutor
    from dataclasses import replace

    cfg = replace(TINY, n_genes=200, affected_genes=20, delta=1.0)
    seeds = range(8)
    sequential = [_one_dataset(cfg, ds, ALL_METHODS) for ds in seeds]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda ds: _one_dataset(cfg, ds, ALL_METHODS), seeds))
    assert threaded == sequential
    assert sequential == [one_dataset_prenormalizing_per_reference(cfg, ds) for ds in seeds]


def test_one_dataset_peak_memory_at_the_default_sizes():
    # the 1,000 x 11 x 12 dataset is 1.06 MB a matrix: the prenormalized and logged
    # matrices, the pipeline's working copies and bounded summarizer batches fit in 5 MB
    cfg = SimulationConfig()
    _one_dataset(cfg, 0, ALL_METHODS)  # warm lazy set-up (numpy's first calls)
    tracemalloc.start()
    try:
        _one_dataset(cfg, 1, ALL_METHODS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak / 2**20


@pytest.mark.parametrize("method, bound_mb", [("biweight", 1.85), ("median_polish", 1.7)])
def test_summarizer_peak_memory_at_the_default_sizes(method, bound_mb):
    # two batches of 500 genes (0.5 MB each): one gathered batch and one scratch array
    # of its shape at a time, the 1,000 x 12 result and the batch's per-series vectors
    pm, _ = generate_dataset(SimulationConfig(), 0)
    pm = ProbeMatrix.uniform(np.log2(pm.values), 11)
    summarize_genes(pm, method)  # warm lazy set-up
    tracemalloc.start()
    try:
        summarize_genes(pm, method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20, peak / 2**20


class TestRunStudy:
    def test_report_shape_single_method(self):
        report = run_study(TINY, methods=[METHOD_RMA])
        assert [r.method for r in report.rows] == [METHOD_RMA]
        row = report.rows[0]
        assert row.df == TINY.df and row.delta == TINY.delta
        assert 0.0 <= row.power <= 100.0
        assert 0.0 <= row.false_discoveries <= TINY.n_genes - TINY.affected_genes

    def test_all_methods_present(self):
        report = run_study(TINY)
        assert [r.method for r in report.rows] == list(ALL_METHODS)

    def test_threaded_run_matches_sequential(self):
        seq = run_study(TINY)
        par = run_study(TINY, threads=4)
        assert seq == par

    def test_first_welch_tests_on_many_threads_match_sequential(self):
        # in a fresh interpreter the four workers' first Welch decisions run at once,
        # and so would their imports of scipy.special for a gene at alpha
        from dataclasses import replace

        cfg = replace(TINY, n_datasets=8)
        probe = (
            "import sys\n"
            "from depthnorm import SimulationConfig, run_study\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            f"print(run_study({cfg!r}, threads=4).to_csv(), end='')\n"
        )
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", probe], cwd=root, env={**os.environ,
                             "PYTHONPATH": "src"}, capture_output=True, check=True)
        assert out.stdout.decode() == run_study(cfg, threads=1).to_csv()

    def test_empty_or_unknown_methods_rejected(self):
        with pytest.raises(DomainError):
            run_study(TINY, methods=[])
        with pytest.raises(DomainError):
            run_study(TINY, methods=["fdn"])

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(DomainError, match="threads must be at least 1"):
            run_study(TINY, threads=threads)

    def test_power_grows_with_the_shift(self):
        from dataclasses import replace

        weak = run_study(replace(TINY, delta=0.0), methods=[METHOD_RMA, METHOD_FDN_MP])
        strong = run_study(replace(TINY, delta=4.0), methods=[METHOD_RMA, METHOD_FDN_MP])
        for method in (METHOD_RMA, METHOD_FDN_MP):
            lo = weak.cell(TINY.df, 0.0, method).power
            hi = strong.cell(TINY.df, 4.0, method).power
            assert hi > 60.0 > lo + 40.0


class TestStudyReport:
    def test_grid_and_csv_roundtrip(self, tmp_path):
        report = run_grid(TINY, dfs=[10.0], deltas=[0.0, 2.0], methods=[METHOD_RMA, METHOD_FDN_BW])
        assert len(report.rows) == 4
        path = tmp_path / "study.csv"
        report.to_csv(path)
        back = StudyReport.from_csv(path)
        assert back == report

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["missing", "undecodable"])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, content):
        path = tmp_path / "study.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ParseError, match=str(path)):
            StudyReport.from_csv(path)

    def test_cell_lookup(self):
        report = run_study(TINY, methods=[METHOD_FDN_MP])
        row = report.cell(TINY.df, TINY.delta, METHOD_FDN_MP)
        assert row.method == METHOD_FDN_MP
        with pytest.raises(KeyError):
            report.cell(1.0, 9.9, METHOD_FDN_MP)

    def test_table_rendering(self):
        report = run_study(TINY)
        text = report.format_table()
        assert "Power" in text and "False Discovery" in text
        assert "M-Estimator FDN" in text and "Median Polish FDN" in text

    def test_bitwise_reproducibility(self):
        a = run_study(TINY).to_csv()
        b = run_study(TINY, threads=3).to_csv()
        assert a == b
