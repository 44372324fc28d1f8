import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthnorm import (
    ClassPartition,
    DimensionError,
    DomainError,
    ExpressionMatrix,
    PartitionError,
    ProbeMatrix,
    biweight_location,
    median_polish,
    power_false_discovery,
    summarize_genes,
    two_sample_ttest,
)
from depthnorm import pipeline
from depthnorm.pipeline import TestResult, welch_flags

from oracles import biweight_oracle, medpolish_oracle


class TestMedianPolish:
    def test_additive_table_has_zero_residuals(self):
        r = np.array([1.0, -2.0, 0.5])
        c = np.array([0.0, 3.0, -1.0, 2.0])
        block = r[:, None] + c[None, :]
        fit = median_polish(block)
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)
        summaries = fit.overall + fit.col_effects
        assert np.allclose(summaries - summaries[0], c - c[0])

    def test_single_row_block(self):
        block = np.array([[4.0, 7.0, 1.0]])
        fit = median_polish(block)
        assert np.allclose(fit.overall + fit.row_effects[0] + fit.col_effects, block[0])
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)

    def test_two_by_two(self):
        fit = median_polish(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)
        summaries = fit.overall + fit.col_effects
        assert summaries[1] - summaries[0] == pytest.approx(1.0)

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            block = rng.normal(size=(11, 12))
            fit = median_polish(block)
            recon = fit.overall + fit.row_effects[:, None] + fit.col_effects[None, :] + fit.residuals
            assert np.allclose(recon, block, atol=1e-9)

    def test_matches_reference_sweeps(self):
        rng = np.random.default_rng(4)
        block = rng.normal(size=(7, 5))
        fit = median_polish(block, max_iter=20, tol=0.01)
        o, r, c, resid = medpolish_oracle(block, 20, 0.01)
        assert fit.overall == pytest.approx(o, rel=1e-12, abs=1e-12)
        assert np.allclose(fit.row_effects, r, atol=1e-12)
        assert np.allclose(fit.col_effects, c, atol=1e-12)
        assert np.allclose(fit.residuals, resid, atol=1e-12)

    def test_residual_medians_vanish_at_tight_tolerance(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(9, 8))
        fit = median_polish(block, max_iter=500, tol=1e-12)
        assert np.abs(np.median(fit.residuals, axis=0)).max() < 1e-6
        assert np.abs(np.median(fit.residuals, axis=1)).max() < 1e-6

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            median_polish(np.empty((0, 3)))

    def test_rejects_non_finite_naming_the_cell(self):
        with pytest.raises(DomainError, match="non-finite value at row 1, column 2"):
            median_polish([[1.0, np.nan], [2.0, 3.0]])


class TestBiweightLocation:
    def test_constant_sample(self):
        assert biweight_location([7.0] * 9) == 7.0

    def test_symmetric_sample(self):
        assert biweight_location([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)

    def test_downweights_gross_outlier(self):
        t = biweight_location([1.0, 2.0, 3.0, 4.0, 100.0])
        assert 2.0 < t < 4.0

    def test_stays_inside_the_range(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(1, 25)))
            t = biweight_location(x)
            assert x.min() <= t <= x.max()

    def test_zero_mad_returns_median(self):
        x = [5.0, 5.0, 5.0, 5.0, 11.0]
        assert biweight_location(x) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            biweight_location([])

    def test_rejects_non_finite_naming_the_cell(self):
        with pytest.raises(DomainError, match="non-finite value at row 2, column 1"):
            biweight_location([1.0, np.nan, 2.0, 5.0])

    def test_matches_reference_iteration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = rng.standard_t(3, size=int(rng.integers(3, 30)))
            assert biweight_location(x) == pytest.approx(biweight_oracle(x), abs=1e-9)


class TestProbeMatrix:
    def test_uniform_blocks(self):
        pm = ProbeMatrix.uniform(np.arange(12.0).reshape(6, 2), 3)
        assert pm.n_genes == 2
        assert np.array_equal(pm.block_starts(), [0, 3, 6])

    def test_non_divisible_rejected(self):
        with pytest.raises(DimensionError):
            ProbeMatrix.uniform(np.ones((5, 2)), 3)

    def test_blocks_must_be_contiguous(self):
        with pytest.raises(DimensionError):
            ProbeMatrix(np.ones((4, 2)), [0, 1, 0, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2, 6), min_size=1, max_size=12)
           | st.lists(st.integers(0, 2), min_size=1, max_size=12).map(lambda s: np.cumsum(s) - s[0]))
    def test_blocks_check_agrees_with_the_unique_gene_numbers(self, gene):
        # "no gene number skipped", read from the sorted distinct numbers
        gene = np.asarray(gene, dtype=np.intp)
        unique_ok = not ((np.diff(gene) < 0).any() or gene[0] != 0
                         or (np.diff(np.unique(gene)) != 1).any())
        try:
            ProbeMatrix(np.ones((gene.size, 2)), gene)
        except DimensionError:
            accepted = False
        else:
            accepted = True
        assert accepted == unique_ok

    def test_no_probe_rows_rejected(self):
        with pytest.raises(DimensionError, match=r"got shape \(0, 2\)"):
            ProbeMatrix(np.ones((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(DimensionError, match=r"got shape \(0, 2\)"):
            ProbeMatrix.uniform(np.ones((0, 2)), 3)

    def test_no_sample_columns_rejected(self):
        with pytest.raises(DimensionError, match=r"got shape \(6, 0\)"):
            ProbeMatrix.uniform(np.ones((6, 0)), 3)

    @pytest.mark.parametrize("probes_per_gene", [0, -1, -3])
    def test_probes_per_gene_below_one_rejected(self, probes_per_gene):
        with pytest.raises(DimensionError, match=f"probes_per_gene must be >= 1, got "
                                                 f"{probes_per_gene}"):
            ProbeMatrix.uniform(np.ones((6, 2)), probes_per_gene)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected_naming_the_cell(self, bad):
        values = np.ones((6, 2))
        values[4, 1] = bad
        values[5, 0] = bad
        with pytest.raises(DomainError, match="non-finite value at row 5, column 2"):
            ProbeMatrix.uniform(values, 3)


class TestSummarizeGenes:
    def test_single_probe_blocks_pass_through(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(5, 4))
        pm = ProbeMatrix.uniform(vals, 1)
        for method in ("median_polish", "biweight"):
            out = summarize_genes(pm, method)
            assert np.allclose(out.values, vals, atol=1e-9)

    def test_methods_agree_on_additive_blocks(self):
        r = np.linspace(-1, 1, 7)
        c = np.array([0.0, 2.0, -1.0, 4.0])
        block = r[:, None] + c[None, :]
        pm = ProbeMatrix(block, np.zeros(7, dtype=int))
        mp = summarize_genes(pm, "median_polish").values[0]
        bw = summarize_genes(pm, "biweight").values[0]
        diff = mp - bw
        assert np.allclose(diff, diff[0], atol=1e-8)

    def test_biweight_resists_corrupted_probe(self):
        rng = np.random.default_rng(9)
        clean = rng.normal(size=(11, 6))
        block = clean.copy()
        block[3] += 500.0
        pm = ProbeMatrix(block, np.zeros(11, dtype=int))
        bw = summarize_genes(pm, "biweight").values[0]
        mean = block.mean(axis=0)
        target = clean.mean(axis=0)
        assert (np.abs(bw - target) < np.abs(mean - target)).all()

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(12, 5))
        pm = ProbeMatrix.uniform(vals, 4)
        perm = np.array([3, 0, 4, 1, 2])
        base = summarize_genes(pm, "median_polish").values
        permuted = summarize_genes(ProbeMatrix.uniform(vals[:, perm], 4), "median_polish").values
        assert np.allclose(permuted, base[:, perm], atol=1e-12)

    def test_unknown_method(self):
        pm = ProbeMatrix.uniform(np.ones((2, 2)), 1)
        with pytest.raises(DomainError):
            summarize_genes(pm, "mean")


class TestWelch:
    def test_identical_groups(self):
        gm = ExpressionMatrix(np.array([[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]]))
        tr = two_sample_ttest(gm, ClassPartition((1, 1, 1, 2, 2, 2)))
        assert tr.statistic[0] == 0.0
        assert tr.p_value[0] == 1.0

    def test_degenerate_separation(self):
        gm = ExpressionMatrix(np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]]))
        tr = two_sample_ttest(gm, ClassPartition((1, 1, 1, 1, 2, 2, 2, 2)))
        assert tr.p_value[0] == 0.0
        assert np.isinf(tr.statistic[0])

    def test_underflowed_p_value_has_a_finite_statistic(self):
        # groups one ulp apart in spread and 1 apart in mean: t = -8.5e15 at df 24, whose
        # tail lies below the smallest double, so p is 0.0 as for a zero-variance row
        k = np.array([0, 1, -1, 2, -2, 0, 1, -1, 2, -2, 0, 1, -1])
        gm = ExpressionMatrix(np.concatenate([k * 2.0**-52, 1.0 + k * 2.0**-52])[None])
        tr = two_sample_ttest(gm, ClassPartition((1,) * 13 + (2,) * 13))
        assert tr.p_value[0] == 0.0
        assert np.isfinite(tr.statistic[0]) and tr.statistic[0] < -1e15

    def test_swap_symmetry(self):
        rng = np.random.default_rng(11)
        gm = ExpressionMatrix(rng.normal(size=(40, 10)))
        a = two_sample_ttest(gm, ClassPartition((1,) * 5 + (2,) * 5))
        b = two_sample_ttest(gm, ClassPartition((2,) * 5 + (1,) * 5))
        assert np.allclose(a.statistic, -b.statistic)
        assert np.allclose(a.p_value, b.p_value)

    def test_matches_scipy_welch(self):
        from scipy import stats

        rng = np.random.default_rng(12)
        gm = ExpressionMatrix(rng.normal(size=(50, 9)))
        groups = ClassPartition((1,) * 4 + (2,) * 5)
        tr = two_sample_ttest(gm, groups)
        ref = stats.ttest_ind(
            gm.values[:, :4], gm.values[:, 4:], axis=1, equal_var=False
        )
        assert np.allclose(tr.statistic, ref.statistic)
        assert np.allclose(tr.p_value, ref.pvalue)

    def test_requires_two_classes(self):
        gm = ExpressionMatrix(np.ones((3, 6)))
        with pytest.raises(PartitionError):
            two_sample_ttest(gm, ClassPartition((1, 1, 2, 2, 3, 3)))

    def test_partition_of_the_wrong_length(self):
        gm = ExpressionMatrix(np.ones((3, 6)))
        with pytest.raises(PartitionError, match="^partition length does not match sample count$"):
            two_sample_ttest(gm, ClassPartition((1, 1, 2, 2)))


class TestWelchFlags:
    """``welch_flags`` is ``two_sample_ttest(...).p_value < alpha`` exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        n1=st.integers(2, 30),
        n2=st.integers(2, 30),
        kinds=st.lists(st.sampled_from(["drawn", "drawn", "drawn", "equal", "unequal"]),
                       min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        st.just("a gene's p")),
    )
    # a p-value near 4e-313, which stdtr gives as 0, against the smallest alpha
    @example(n1=15, n2=15, kinds=["unequal"], seed=0, alpha=5e-324)
    def test_flags_are_the_tests_verdicts(self, n1, n2, kinds, seed, alpha):
        rng = np.random.default_rng(seed)
        g = len(kinds)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (g, 1))
        values = scale * rng.standard_normal((g, n1 + n2))
        values[:, :n1] += scale * rng.normal(0.0, 2.0, (g, 1))
        for i, kind in enumerate(kinds):
            if kind != "drawn":  # constant in each group, up to the rounding of its mean
                values[i] = scale[i, 0]
                values[i, :n1] += scale[i, 0] if kind == "unequal" else 0.0
        gm = ExpressionMatrix(values)
        groups = ClassPartition((1,) * n1 + (2,) * n2)
        p = two_sample_ttest(gm, groups).p_value
        if alpha == "a gene's p":
            inside = p[(p > 0.0) & (p < 1.0)]
            alpha = float(inside[0]) if inside.size else 0.05
        np.testing.assert_array_equal(welch_flags(gm, groups, alpha), p < alpha)

    def test_a_gene_at_alpha_is_decided_by_stdtr(self):
        # alpha is gene 17's own p-value, so only stdtr can say that p < alpha is False
        values = np.random.default_rng(21).standard_normal((50, 10))
        groups = ClassPartition((1,) * 5 + (2,) * 5)
        p = two_sample_ttest(ExpressionMatrix(values), groups).p_value
        alpha = float(p[17])
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "from depthnorm import ClassPartition, ExpressionMatrix\n"
            "from depthnorm.pipeline import welch_flags\n"
            f"gm = ExpressionMatrix(np.array({values.tolist()!r}))\n"
            f"groups = ClassPartition({groups.labels!r})\n"
            f"flags = welch_flags(gm, groups, {alpha!r})\n"
            "print(int('scipy.special' in sys.modules), ''.join(str(int(f)) for f in flags))\n"
        )
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", probe], cwd=root, env={**os.environ,
                             "PYTHONPATH": "src"}, capture_output=True, text=True, check=True)
        loaded, flags = out.stdout.split()
        assert loaded == "1"
        assert flags[17] == "0"
        assert flags == "".join(str(int(f)) for f in p < alpha)

    def test_estimate_is_far_inside_the_band(self):
        # the filter trusts the numpy tail 1e-8 (relative) away from alpha; its
        # error must stay orders of magnitude below that wherever it gives a value
        from scipy.special import stdtr, stdtrit

        rng = np.random.default_rng(29)
        df = np.exp(rng.uniform(np.log(0.5), np.log(1000.0), 20000))
        p = np.exp(rng.uniform(np.log(1e-6), np.log(0.99), df.size))
        t = stdtrit(df, p / 2) * rng.choice([-1.0, 1.0], df.size)
        exact = 2.0 * stdtr(df, -np.abs(t))
        estimate = pipeline._two_sided_p_estimate(df, t)
        assert np.isfinite(estimate).all()
        assert np.max(np.abs(estimate - exact) / exact) < 1e-11

    def test_bounds_hold_the_exact_tail(self):
        # up to rounding (1e-12, far inside the band), lower <= stdtr's p <= upper
        from scipy.special import stdtr, stdtrit

        rng = np.random.default_rng(37)
        df = np.exp(rng.uniform(np.log(0.5), np.log(1000.0), 20000))
        p = np.exp(rng.uniform(np.log(1e-200), 0.0, df.size))
        t = stdtrit(df, p / 2) * rng.choice([-1.0, 1.0], df.size)
        # near df 0.5 a tiny p needs |t| above 1e154, whose square overflows
        df, t = df[np.isfinite(t * t)], t[np.isfinite(t * t)]
        exact = 2.0 * stdtr(df, -np.abs(t))
        lower, upper = pipeline._two_sided_p_bounds(df, t)
        assert df.size > 19900
        assert (lower <= exact * (1.0 + 1e-12)).all()
        assert (upper >= exact * (1.0 - 1e-12)).all()

    def test_log_gamma_ratio_matches_lgamma(self):
        # up to 100, where the two lgamma values cancel by less than 1e-13
        a = np.exp(np.random.default_rng(31).uniform(np.log(0.01), np.log(100.0), 5000))
        exact = [math.lgamma(v) - math.lgamma(v + 0.5) for v in a]
        np.testing.assert_allclose(pipeline._log_gamma_ratio(a), exact, rtol=0, atol=1e-12)

    def test_p_values_are_stdtr_bit_for_bit(self):
        from scipy.special import stdtr

        rng = np.random.default_rng(23)
        values = rng.standard_normal((300, 11)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
        values[:3] = [[2.0] * 11, [1.0] * 5 + [3.0] * 6, [4.0] * 5 + [1.0] * 6]
        tr = two_sample_ttest(ExpressionMatrix(values), ClassPartition((1,) * 5 + (2,) * 6))
        a, b = values[:, :5], values[:, 5:]
        v1, v2 = a.var(axis=1, ddof=1), b.var(axis=1, ddof=1)
        se2 = v1 / 5 + v2 / 6
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (a.mean(axis=1) - b.mean(axis=1)) / np.sqrt(se2)
            df = se2**2 / ((v1 / 5) ** 2 / 4 + (v2 / 6) ** 2 / 5)
            p = 2.0 * stdtr(df, -np.abs(t))
        p[:3] = [1.0, 0.0, 0.0]
        t[:3] = [0.0, -np.inf, np.inf]
        assert tr.p_value.tobytes() == p.tobytes()
        assert tr.statistic.tobytes() == t.tobytes()


class TestPowerFalseDiscovery:
    def test_everything_flagged(self):
        tr = TestResult(np.zeros(10), np.zeros(10), truth_labels=np.arange(10) < 3)
        power, fd = power_false_discovery(tr, 0.05)
        assert power == 100.0 and fd == 7

    def test_nothing_flagged(self):
        tr = TestResult(np.zeros(10), np.ones(10), truth_labels=np.arange(10) < 3)
        assert power_false_discovery(tr, 0.05) == (0.0, 0)

    def test_requires_truth(self):
        tr = TestResult(np.zeros(3), np.ones(3))
        with pytest.raises(DomainError):
            power_false_discovery(tr, 0.05)
