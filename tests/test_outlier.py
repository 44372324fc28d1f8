import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from depthnorm import (
    Border,
    ClassPartition,
    DataError,
    DegenerateScaleError,
    DimensionError,
    DistanceMatrix,
    DomainError,
    ExpressionMatrix,
    ParseError,
    PartitionError,
    ScopeScreen,
    TukeyCalibration,
    calibrate_g,
    column_sort,
    detect_outliers,
    extract_borders,
    pairwise_distances,
    peel_borders,
    robust_covariance,
    robust_iqr,
    screen_outliers,
)
from depthnorm import _kernels
from depthnorm.outlier import (
    _normal_factor,
    _psd_repair,
    _replicate_quantile,
    format_report_table,
    load_reports,
    reports_to_json,
    save_report_csv,
)

from oracles import (
    hinge_iqr,
    replicate_quantile_oracle,
    robust_covariance_oracle,
    tukey_fence_flags_extremes,
)

TEN_POINT_SAMPLE = [1.3, 2.1, 2.8, 2.9, 3.2, 3.9, 4.1, 4.8, 4.9, 5.3]

# einsum sums a lone row of more than 8,192 values in another order than the same
# row inside a larger block
WIDE = 8_193


@st.composite
def class_labels(draw):
    """Labels of 2 to 12 columns in classes of at least two members, in any order."""
    n = draw(st.integers(2, 12))
    count = draw(st.integers(1, n // 2))
    extra = draw(st.lists(st.integers(1, count), min_size=n - 2 * count, max_size=n - 2 * count))
    return tuple(draw(st.permutations(list(range(1, count + 1)) * 2 + extra)))


def scalar_matrix(points):
    return ExpressionMatrix(np.array([points], dtype=float))


def borders_of(points):
    return peel_borders(scalar_matrix(points))


class TestRobustIqr:
    def test_worked_sample_equals_two(self):
        assert robust_iqr(borders_of(TEN_POINT_SAMPLE)) == 2.0

    def test_two_columns(self):
        assert robust_iqr(borders_of([1.0, 4.5])) == 3.5

    def test_odd_sample_includes_singleton_zero(self):
        assert robust_iqr(borders_of([0.0, 1.0, 10.0])) == 5.0

    def test_matches_fourth_spread_on_scalar_samples(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(2, 40)))
            assert robust_iqr(borders_of(list(x))) == pytest.approx(hinge_iqr(x), rel=1e-12)


class TestCalibration:
    def test_single_replicate_is_its_own_median(self):
        cal = calibrate_g(np.eye(6), 40, replicates=1, seed=4)
        assert cal.g_factor == cal.per_replicate_quantiles[0]

    def test_deterministic_and_thread_invariant(self):
        kw = dict(replicates=12, seed=11)
        a = calibrate_g(np.eye(8), 100, **kw)
        b = calibrate_g(np.eye(8), 100, **kw)
        c = calibrate_g(np.eye(8), 100, threads=4, **kw)
        assert a == b == c
        assert a != calibrate_g(np.eye(8), 100, replicates=12, seed=12)

    def test_thread_invariant_under_frequent_switches(self):
        # more workers than cores, switching often: two replicates sharing a buffer would differ
        kw = dict(replicates=40, seed=5)
        one = calibrate_g(np.eye(6), 300, threads=1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = calibrate_g(np.eye(6), 300, threads=8, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert many == one

    # G <= 448 or a multiple of 16: the shapes where the blocked mix has every bit of factor @ z
    @pytest.mark.parametrize("n, g", [(2, 3), (3, 1), (4, 9), (5, 7), (11, 300), (12, 448),
                                      (24, 1344), (64, 896), (24, 20000), (200, 160)])
    def test_replicate_on_a_used_buffer_matches_the_allocating_oracle(self, n, g):
        rng = np.random.default_rng(n * g)
        a = rng.standard_normal((n, n))
        self._check_replicates_against_oracle(_normal_factor(a @ a.T / n + np.eye(n)), g)

    def test_replicate_matches_the_oracle_on_a_data_covariance(self):
        # unequal column scales and rank correlations, as `outliers` estimates them
        values = np.random.default_rng(9).lognormal(size=(300, 8)) * np.arange(1.0, 9.0)
        self._check_replicates_against_oracle(
            _normal_factor(robust_covariance(ExpressionMatrix(values))), 2000)

    @staticmethod
    def _check_replicates_against_oracle(factor, g):
        # at rate 1e-4 the oracle's quantile is the largest of its n <= 10,000 ratios
        n = len(factor)
        buf, tmp = np.empty((n, g)), np.empty(n * min(g, 448))
        _replicate_quantile(np.random.default_rng(1), factor, buf, tmp)  # leaves data
        for seed in (2, 3):
            got = _replicate_quantile(np.random.default_rng(seed), factor, buf, tmp)
            want = replicate_quantile_oracle(np.random.default_rng(seed), n, g, factor, 1e-4)
            assert got.hex() == want.hex(), seed

    @pytest.mark.parametrize("n, g_factor", [(2, 1.0), (3, 2.0)])
    def test_two_and_three_samples_calibrate_exactly(self, n, g_factor):
        # n = 2: the one border over itself; n = 3: the border over the median of it
        # and the singleton's 0.  So the calibrated fence never flags at n <= 3.
        rng = np.random.default_rng(n)
        for _ in range(3):
            a = rng.standard_normal((n, n))
            cal = calibrate_g(a @ a.T + 0.1 * np.eye(n), int(rng.integers(1, 500)),
                              replicates=5, seed=int(rng.integers(1000)))
            assert cal.per_replicate_quantiles == (g_factor,) * 5 and cal.g_factor == g_factor

    @pytest.mark.parametrize("shape", [(3, 4), (3,), (0, 0), (1, 1)])
    def test_covariance_that_is_not_n_by_n_with_two_samples_is_a_dimension_error(self, shape):
        with pytest.raises(DimensionError, match="n x n with n >= 2"):
            calibrate_g(np.ones(shape), 30, replicates=2)

    def test_leaves_the_callers_covariance_unchanged(self):
        cov = np.eye(5)
        cov[0, 1] = cov[1, 0] = 0.999
        cov[1, 2] = cov[2, 1] = 0.999
        cov[0, 2] = cov[2, 0] = -0.9  # not PSD: the repair runs too
        before = cov.copy()
        calibrate_g(cov, 50, replicates=2, seed=0)
        assert np.array_equal(cov, before)

    def test_peak_memory_is_one_buffer_per_worker(self):
        n, g = 24, 20000
        buffer_bytes = 8 * n * g
        calibrate_g(np.eye(n), g, replicates=4, seed=1, threads=2)  # warm lazy set-up
        tracemalloc.start()
        try:
            calibrate_g(np.eye(n), g, replicates=6, seed=1, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * buffer_bytes, peak / buffer_bytes

    def test_json_roundtrip(self):
        cal = calibrate_g(np.eye(6), 30, replicates=3, seed=1)
        d = json.loads(cal.to_json())
        assert list(d) == ["g_factor", "replicates", "seed", "per_replicate_quantiles"]
        assert d["g_factor"] == cal.g_factor == float(np.median(d["per_replicate_quantiles"]))
        assert (d["replicates"], d["seed"]) == (3, 1)
        assert d["replicates"] == cal.replicates
        assert tuple(d["per_replicate_quantiles"]) == cal.per_replicate_quantiles

    def test_fixed_multiplier_is_one_replicate(self):
        cal = TukeyCalibration.fixed(1.5)
        assert (cal.g_factor, cal.replicates) == (1.5, 1)
        assert json.loads(cal.to_json()) == {"g_factor": 1.5, "replicates": 1, "seed": 0,
                                             "per_replicate_quantiles": [1.5]}

    def test_validates_inputs(self):
        with pytest.raises(DomainError):
            calibrate_g(np.eye(6), 30, replicates=0)
        with pytest.raises(DomainError, match="need at least one replicate"):
            TukeyCalibration(())
        with pytest.raises(DomainError, match="seed must be non-negative"):
            calibrate_g(np.eye(6), 30, replicates=2, seed=-1)
        for threads in (0, -2):
            with pytest.raises(DomainError, match="threads must be at least 1"):
                calibrate_g(np.eye(6), 30, replicates=2, threads=threads)

    def test_no_features_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            calibrate_g(np.eye(6), 0, replicates=2)

    @pytest.mark.parametrize("scale, error, match", [
        (1e308, DataError, "covariance overflows"),  # cov + cov.T overflows
        (8e307, DomainError, "non-finite distance"),  # squared distances overflow
        (1e306, DataError, "norms overflow"),  # the curves' squared norms overflow
    ])
    def test_overflow_is_a_data_error_without_a_warning(self, scale, error, match):
        with pytest.raises(error, match=match):
            calibrate_g(np.eye(6) * scale, 2000, replicates=2)

    def test_non_psd_covariance_is_repaired(self):
        cov = np.eye(5)
        cov[0, 1] = cov[1, 0] = 0.999
        cov[1, 2] = cov[2, 1] = 0.999
        cov[0, 2] = cov[2, 0] = -0.9  # jointly infeasible: repair kicks in
        cal = calibrate_g(cov, 50, replicates=2, seed=0)
        assert np.isfinite(cal.g_factor)

    def test_zero_covariance_is_a_degenerate_scale(self):
        with pytest.raises(DegenerateScaleError):
            calibrate_g(np.zeros((4, 4)), 50)

    @pytest.mark.parametrize("g", [6, 2000])
    def test_rank_deficient_covariance_is_a_degenerate_scale(self, g):
        # four identical columns: a rank-1 covariance, border distances of round-off size
        col = np.arange(1.0, g + 1)[:, None]
        cov = robust_covariance(ExpressionMatrix(np.tile(col, (1, 4))))
        with pytest.raises(DegenerateScaleError, match="round-off"):
            calibrate_g(cov, g, replicates=3)

    def test_nearly_singular_covariances_still_calibrate(self):
        rng = np.random.default_rng(8)
        strong = np.full((4, 4), 0.999)
        np.fill_diagonal(strong, 1.0)
        vals = rng.normal(size=(200, 4))
        vals[:, 1] = vals[:, 0]  # two identical columns out of four
        for cov in (strong, robust_covariance(ExpressionMatrix(vals))):
            for g in (6, 2000):
                cal = calibrate_g(cov, g, replicates=3, seed=1)
                assert np.isfinite(cal.g_factor) and cal.g_factor > 0


class TestRobustCovariance:
    def test_overflow_is_a_data_error_without_a_warning(self):
        values = np.random.default_rng(1).lognormal(size=(200, 6)) * 1e200
        with pytest.raises(DataError, match="covariance overflows"):
            robust_covariance(ExpressionMatrix(values))

    def test_identical_columns_have_unit_correlation(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=50)
        m = ExpressionMatrix(np.column_stack([col, col, rng.normal(size=50)]))
        cov = robust_covariance(m)
        corr = cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1])
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_negated_column_has_minus_one_correlation(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=50)
        m = ExpressionMatrix(np.column_stack([col, -col, rng.normal(size=50)]))
        cov = robust_covariance(m)
        corr = cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1])
        # PSD repair may nudge the assembled matrix slightly
        assert corr == pytest.approx(-1.0, abs=1e-6)

    def test_independent_standard_normals(self):
        rng = np.random.default_rng(4)
        m = ExpressionMatrix(rng.standard_normal((10_000, 4)))
        cov = robust_covariance(m)
        off = cov[~np.eye(4, dtype=bool)]
        assert (np.abs(off) < 0.05).all()
        assert np.allclose(np.diag(cov), 1.0, atol=0.1)

    def test_constant_column_rejected(self):
        m = ExpressionMatrix(np.column_stack([np.ones(10), np.arange(10.0)]))
        with pytest.raises(DegenerateScaleError, match="1"):
            robust_covariance(m)

    def test_result_is_psd(self):
        rng = np.random.default_rng(5)
        m = ExpressionMatrix(rng.normal(size=(30, 6)))
        w = np.linalg.eigvalsh(robust_covariance(m))
        assert w.min() >= -1e-10

    @settings(max_examples=80, deadline=None)
    @given(
        g=st.integers(3, 300),
        n=st.integers(2, 9),
        levels=st.sampled_from([3, 8, 40, None]),
        duplicate=st.booleans(),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_whole_matrix_formula_bit_for_bit(self, g, n, levels, duplicate,
                                                          fortran, seed):
        # few levels give long tie runs; a duplicate column gives a correlation of one
        rng = np.random.default_rng(seed)
        if levels is None:
            vals = rng.lognormal(size=(g, n))
        else:
            vals = rng.integers(0, levels, size=(g, n)) + rng.uniform(1.0, 2.0, size=n)
        if duplicate:
            vals[:, -1] = vals[:, 0]
        if fortran:
            vals = np.asfortranarray(vals)
        if (np.median(np.abs(vals - np.median(vals, axis=0)), axis=0) == 0).any():
            with pytest.raises(DegenerateScaleError, match="zero MAD"):
                robust_covariance(ExpressionMatrix(vals))
            return
        expected = _psd_repair(robust_covariance_oracle(vals))
        assert robust_covariance(ExpressionMatrix(vals)).tobytes() == expected.tobytes()

    def test_tied_ranks_match_scipy_rankdata_bit_for_bit(self):
        rng = np.random.default_rng(6)
        vals = rng.integers(0, 7, size=(60, 5)).astype(float) + rng.uniform(size=5)
        m = ExpressionMatrix(vals)
        med = np.median(vals, axis=0)
        scale = 1.4826 * np.median(np.abs(vals - med), axis=0)
        rho = np.corrcoef(np.apply_along_axis(stats.rankdata, 0, vals), rowvar=False)
        expected = _psd_repair(2.0 * np.sin(np.pi * rho / 6.0) * np.outer(scale, scale))
        assert np.array_equal(robust_covariance(m), expected)


class TestDetectOutliers:
    def test_benchmark_above_max_distance_flags_nothing(self):
        m = scalar_matrix(TEN_POINT_SAMPLE)
        cal = TukeyCalibration.fixed(2.05)  # benchmark 4.1 vs max distance 4
        (report,) = detect_outliers(m, cal)
        assert report.benchmark == pytest.approx(4.1)
        assert report.flagged_pairs == ()
        assert report.flagged_samples == ()

    def test_extreme_pair_flagged_and_farther_member_chosen(self):
        m = scalar_matrix(TEN_POINT_SAMPLE)
        cal = TukeyCalibration.fixed(1.95)  # benchmark 3.9 < 4
        (report,) = detect_outliers(m, cal)
        assert len(report.flagged_pairs) == 1
        assert report.flagged_pairs[0].members == ("1", "10")
        # deepest border is (3.2, 3.9); its average 3.55 sits closer to 5.3
        assert report.flagged_samples == ("1",)
        assert report.rule == "farther-from-deepest"

    def test_huge_factor_flags_nothing(self):
        m = scalar_matrix(TEN_POINT_SAMPLE)
        (report,) = detect_outliers(m, TukeyCalibration.fixed(1e9))
        assert report.flagged_samples == ()

    def test_flag_both_members(self):
        m = scalar_matrix(TEN_POINT_SAMPLE)
        (report,) = detect_outliers(m, TukeyCalibration.fixed(1.95), flag_both=True)
        assert report.flagged_samples == ("1", "10")

    def test_unsorted_input_gives_the_reports_of_its_column_sort(self):
        rng = np.random.default_rng(16)
        vals = rng.normal(size=(30, 9))
        vals[:, 4] *= 5.0
        m = ExpressionMatrix(vals)
        labels = ClassPartition((1, 1, 2, 2, 1, 2, 1, 2, 2))
        for flag_both in (False, True):
            got = detect_outliers(m, TukeyCalibration.fixed(1.5), labels, flag_both)
            want = detect_outliers(column_sort(m), TukeyCalibration.fixed(1.5), labels, flag_both)
            assert got == want
            assert got[0].flagged_samples

    def test_flagged_pairs_form_a_prefix_and_shrink_with_g(self):
        rng = np.random.default_rng(10)
        m = column_sort(ExpressionMatrix(rng.normal(size=(30, 11))))
        flagged_counts = []
        for g in (0.5, 1.0, 1.5, 2.5):
            (report,) = detect_outliers(m, TukeyCalibration.fixed(g))
            k = len(report.flagged_pairs)
            flagged_counts.append(k)
            assert report.flagged_pairs == report.pairs[:k]
            if k < len(report.pairs):
                assert not report.pairs[k].distance > report.benchmark
        assert flagged_counts == sorted(flagged_counts, reverse=True)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        m = column_sort(ExpressionMatrix(rng.normal(size=(25, 9))))
        cal = TukeyCalibration.fixed(1.2)
        (base,) = detect_outliers(m, cal)
        scaled_m = column_sort(ExpressionMatrix(7.5 * m.values))
        (scaled,) = detect_outliers(scaled_m, cal)
        assert scaled.iqr_estimate == pytest.approx(7.5 * base.iqr_estimate, rel=1e-12)
        assert scaled.flagged_samples == base.flagged_samples

    def test_per_class_scope(self):
        rng = np.random.default_rng(14)
        vals = rng.normal(size=(20, 8))
        vals[:, 7] += 40.0  # forced far-out column in class 2
        m = ExpressionMatrix(vals)
        labels = ClassPartition((1, 1, 1, 1, 2, 2, 2, 2))
        reports = detect_outliers(m, TukeyCalibration.fixed(1.2), labels=labels)
        assert [r.scope for r in reports] == ["global", "class 1", "class 2"]
        assert reports[0] == detect_outliers(m, TukeyCalibration.fixed(1.2))[0]
        assert all(r.g_factor == 1.2 for r in reports)
        class2 = reports[2]
        assert "8" in class2.flagged_samples

    def test_one_screen_serves_every_multiplier(self):
        rng = np.random.default_rng(15)
        m = ExpressionMatrix(rng.normal(size=(30, 9)) * rng.uniform(0.5, 3.0, size=9))
        labels = ClassPartition((1, 2) * 4 + (1,))
        screens = screen_outliers(m, labels)
        # sample ids and distances only: nothing that holds the matrix
        assert not any(isinstance(v, np.ndarray) for s in screens for v in vars(s).values())
        for g in (0.5, 1.0, 1.5, 3.0):
            for flag_both in (False, True):
                assert [s.report(g, flag_both) for s in screens] == detect_outliers(
                    m, TukeyCalibration.fixed(g), labels, flag_both)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 13), g=st.integers(3, 300),
           data=st.data())
    def test_class_screens_are_the_screens_of_the_class_columns(self, seed, n, g, data):
        # below 8,193 features a class's entries of the global distances are those of its
        # columns alone
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(1.0, 1.0, size=(g, n)) * rng.uniform(0.5, 3.0, size=n)
        ids = tuple(f"s{j}" for j in range(n))
        labels = ClassPartition(data.draw(
            st.permutations((1, 1, 2, 2) + tuple(rng.integers(1, 3, size=n - 4)))))
        screens = screen_outliers(ExpressionMatrix(vals, ids), labels)
        for k, screen in enumerate(screens[1:], start=1):
            cols = labels.members(k)
            (alone,) = screen_outliers(ExpressionMatrix(vals[:, cols], tuple(ids[j] for j in cols)))
            assert (screen.scope, screen.pairs, screen.farther) == (f"class {k}", alone.pairs,
                                                                     alone.farther)
            assert screen.iqr_estimate == alone.iqr_estimate

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           g=st.sampled_from([3, WIDE, WIDE + 7, 12_000]) | st.integers(3, 12_000),
           labels=class_labels())
    # at the width where einsum sums a lone row in another order, a class's last pair
    # computed from a copy of its columns differed from the global entry in its last bit
    @example(seed=0, g=WIDE, labels=(1, 2, 1, 2))
    def test_class_screens_read_the_global_distances(self, seed, g, labels):
        n = len(labels)
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(1.0, 1.0, size=(g, n)) * rng.uniform(0.5, 3.0, size=n)
        ids = tuple(f"s{j}" for j in range(n))
        labels = ClassPartition(labels)
        screens = screen_outliers(ExpressionMatrix(vals, ids), labels)
        curves = column_sort(ExpressionMatrix(vals, ids))
        d = pairwise_distances(curves).d
        scopes = [("global", np.arange(n))] + [
            (f"class {k}", labels.members(k)) for k in range(1, labels.class_count + 1)]
        assert len(screens) == len(scopes)
        for screen, (scope, cols) in zip(screens, scopes):
            bs = extract_borders(DistanceMatrix(d[np.ix_(cols, cols)]))
            deep = curves.values[:, cols[list(bs.deepest_members)]].mean(axis=1)

            def far_out(j):
                return np.linalg.norm(curves.values[:, cols[j]] - deep)

            want = ScopeScreen(
                scope,
                tuple(Border(tuple(ids[cols[j]] for j in b.members), b.distance)
                      for b in bs.borders),
                robust_iqr(bs),
                tuple(ids[cols[max(b.members, key=far_out)]] for b in bs.borders
                      if len(b.members) == 2),
            )
            assert screen == want
        # a pair named in two scopes has one distance
        distance = {}
        for screen in screens:
            for b in screen.pairs:
                assert distance.setdefault(frozenset(b.members), b.distance) == b.distance

    @pytest.mark.parametrize("labels", [None, (1, 1, 2, 2, 1, 2), (1, 2, 3, 1, 2, 3)])
    def test_screen_computes_the_distances_once(self, monkeypatch, labels):
        real, calls = _kernels.pairwise_dists, []

        def spy(xt):
            calls.append(xt.shape)
            return real(xt)

        monkeypatch.setattr(_kernels, "pairwise_dists", spy)
        vals = np.random.default_rng(16).lognormal(size=(50, 6))
        screens = screen_outliers(ExpressionMatrix(vals), ClassPartition(labels) if labels else None)
        assert len(screens) == 1 + (max(labels) if labels else 0)
        assert calls == [(6, 50)]

    @pytest.mark.parametrize("labels, scope", [(None, "global"), ((2,) * 5 + (1, 1), "class 2")])
    def test_zero_fence_scale_names_the_scope(self, labels, scope):
        # four identical columns and one shifted by +1: the median border distance is 0
        col = np.arange(1.0, 7.0)[:, None]
        vals = np.hstack([np.tile(col, (1, 4)), col + 1.0, 2.0 * col, 3.0 * col])
        m = column_sort(ExpressionMatrix(vals[:, : len(labels) if labels else 5]))
        kw = {"labels": ClassPartition(labels)} if labels else {}
        with pytest.raises(DegenerateScaleError, match=scope):
            detect_outliers(m, TukeyCalibration.fixed(3.0), **kw)

    def test_scope_of_identical_columns_flags_nothing(self):
        col = np.arange(1.0, 7.0)[:, None]
        m = ExpressionMatrix(np.hstack([col, col, col + 1.0, 2.0 * col, 3.0 * col]))
        labels = ClassPartition((1, 1, 2, 2, 2))
        first = detect_outliers(m, TukeyCalibration.fixed(3.0), labels)[1]
        assert first.scope == "class 1"
        assert (first.benchmark, first.flagged_samples) == (0.0, ())

    @pytest.mark.parametrize("labels, n", [((1, 1, 2, 2, 2, 2), 4), ((1, 1, 2, 2), 6)])
    def test_label_count_other_than_n_is_a_partition_error(self, labels, n):
        m = ExpressionMatrix(np.random.default_rng(0).normal(size=(5, n)))
        with pytest.raises(PartitionError, match=f"^{len(labels)} class labels for {n} columns$"):
            detect_outliers(m, TukeyCalibration.fixed(1.0), ClassPartition(labels))

    def test_a_sample_id_naming_two_columns_is_a_domain_error(self):
        m = ExpressionMatrix(SPREAD, ("a", "b", "a", "c"))
        with pytest.raises(DomainError, match=r"^sample ids \['a'\] name more than one column$"):
            detect_outliers(m, TukeyCalibration.fixed(1.0))

    @pytest.mark.parametrize("flag_both, rule", [(False, "farther-from-deepest"),
                                                 (True, "both-members")])
    def test_rule_is_stated_when_nothing_is_flagged(self, flag_both, rule):
        m = scalar_matrix(TEN_POINT_SAMPLE)
        (report,) = detect_outliers(m, TukeyCalibration.fixed(1e9), flag_both=flag_both)
        assert report.flagged_samples == ()
        assert report.rule == rule
        assert json.loads(reports_to_json([report]))["reports"][0]["rule"] == rule


class TestFenceReduction:
    def test_pair_rule_matches_classic_fences_on_symmetric_samples(self):
        rng = np.random.default_rng(18)
        for g_factor in (1.2, 1.5, 2.0, 3.0):
            for _ in range(40):
                half = rng.uniform(0.1, 5.0, size=int(rng.integers(2, 12)))
                points = np.concatenate([-half, half])  # exactly symmetric about 0
                m = scalar_matrix(list(points))
                (report,) = detect_outliers(m, TukeyCalibration.fixed(g_factor))
                ours = len(report.flagged_pairs) >= 1
                oracle = tukey_fence_flags_extremes(points, (g_factor - 1) / 2)
                assert ours == oracle


class TestReportOutputs:
    def _report(self):
        (report,) = detect_outliers(scalar_matrix(TEN_POINT_SAMPLE), TukeyCalibration.fixed(1.95))
        return report

    def test_table_has_published_row_labels(self):
        text = format_report_table(self._report(), title="toy")
        for label in ("pairs of gene", "expressions", "distance intra-pair",
                      "outlier's benchmark", "Tukey's constant"):
            assert label in text

    def test_json_lists_flagged_samples(self):
        import json

        payload = json.loads(reports_to_json([self._report()]))
        assert payload["reports"][0]["flagged_samples"] == ["1"]
        assert payload["reports"][0]["scope"] == "global"

    def test_csv_has_one_row_per_pair(self, tmp_path):
        import csv

        path = tmp_path / "out.csv"
        save_report_csv([self._report()], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert rows[0]["flagged"] == "1" and rows[1]["flagged"] == "0"
        assert rows[0]["flagged_member"] == "1"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["missing", "undecodable"])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, suffix, content):
        path = tmp_path / f"outliers{suffix}"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ParseError, match=str(path)):
            load_reports(path)


def _saved_and_loaded(reports, directory):
    """The reports as ``outliers.json`` and ``outliers.csv`` read them back."""
    (directory / "outliers.json").write_text(reports_to_json(reports))
    save_report_csv(reports, directory / "outliers.csv")
    return load_reports(directory / "outliers.json"), load_reports(directory / "outliers.csv")


def _report_with_ids(ids, values, flag_both=False, g=1.0):
    m = ExpressionMatrix(np.asarray(values, dtype=float), ids)
    return detect_outliers(m, TukeyCalibration.fixed(g), flag_both=flag_both)


# four columns on 5 rows: column 0 far below, column 1 far above, 2 and 3 between
SPREAD = np.array([[0.0, 50.0, 10.0, 11.0]]) + np.arange(5.0)[:, None] * [1.0, 3.0, 1.5, 1.6]


class TestReportFiles:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        n=st.integers(4, 7),
        flag_both=st.booleans(),
        with_labels=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_saved_report_loads_back_equal(self, tmp_path, data, n, flag_both, with_labels,
                                             seed):
        tricky = st.sampled_from(["", ";", "a;b", ",", '"', "'", " x ", "\r\n", "1"])
        ids = tuple(data.draw(st.lists(st.one_of(st.text(), tricky), min_size=n, max_size=n,
                                       unique=True)))
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(6, n)) * rng.uniform(0.5, 4.0, size=n)
        labels = None
        if with_labels:
            labels = ClassPartition(data.draw(st.permutations([1 + j % 2 for j in range(n)])))
        m = ExpressionMatrix(values, ids)
        g = data.draw(st.sampled_from([0.8, 1.2, 2.0]))
        reports = detect_outliers(m, TukeyCalibration.fixed(g), labels, flag_both)
        from_json, from_csv = _saved_and_loaded(reports, tmp_path)
        assert from_json == reports == from_csv

    @pytest.mark.parametrize("flag_both", [False, True])
    def test_ids_holding_semicolons_survive_the_csv(self, tmp_path, flag_both):
        reports = _report_with_ids(("a;b", "c;d", "e", "f"), SPREAD, flag_both)
        assert reports[0].flagged_pairs[0].members == ("a;b", "c;d")
        assert _saved_and_loaded(reports, tmp_path) == (reports, reports)

    def test_a_flagged_empty_id_survives_the_csv(self, tmp_path):
        values = SPREAD[:, [2, 3, 1, 0]]  # the far-above column is the third, named ""
        reports = _report_with_ids(("a", "b", "", "d"), values)
        assert "" in reports[0].flagged_samples
        assert _saved_and_loaded(reports, tmp_path) == (reports, reports)

    def test_an_empty_second_member_is_not_a_singleton(self, tmp_path):
        reports = _report_with_ids(("a", "", "c", "d"), SPREAD)
        assert reports[0].pairs[0].members == ("a", "")
        assert _saved_and_loaded(reports, tmp_path) == (reports, reports)

    def test_an_odd_scope_keeps_its_singleton(self, tmp_path):
        reports = _report_with_ids(("a", "b", ""), SPREAD[:, [0, 1, 2]])
        assert reports[0].pairs[-1].members == ("",)
        assert _saved_and_loaded(reports, tmp_path) == (reports, reports)

    def test_identical_deepest_pair_named_empty_reads_back_as_a_pair(self, tmp_path):
        # a last pair at distance 0 whose second id is "" looks like a singleton but for its count
        values = SPREAD[:, [0, 2, 2, 1]]
        reports = _report_with_ids(("a", "b", "", "d"), values)
        assert reports[0].pairs[-1] == Border(("b", ""), 0.0)
        assert _saved_and_loaded(reports, tmp_path) == (reports, reports)

    @staticmethod
    def _csv_without(column, tmp_path):
        save_report_csv(_report_with_ids(("a", "b", "c", "d"), SPREAD), tmp_path / "r.csv")
        rows = [ln.split(",") for ln in (tmp_path / "r.csv").read_text().splitlines()]
        drop = rows[0].index(column)
        (tmp_path / "old.csv").write_text("".join(",".join(r[:drop] + r[drop + 1:]) + "\n"
                                                  for r in rows))
        return tmp_path / "old.csv"

    def test_csv_without_a_rule_column_is_a_parse_error(self, tmp_path):
        # tmp_path holds the test's name, so match the error, not the bare word
        with pytest.raises(ParseError, match=r"KeyError\('rule'\)"):
            load_reports(self._csv_without("rule", tmp_path))

    def test_csv_without_a_member_count_column_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match=r"KeyError\('member_count'\)"):
            load_reports(self._csv_without("member_count", tmp_path))

    @pytest.mark.parametrize("count", ["0", "3", "", "x"])
    def test_csv_member_count_other_than_one_or_two_is_a_parse_error(self, tmp_path, count):
        save_report_csv(_report_with_ids(("a", "b", "c", "d"), SPREAD), tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + f",{count}\n"
        (tmp_path / "r.csv").write_text("".join(lines))
        with pytest.raises(ParseError, match=f"member_count '{count}' is not 1 or 2"):
            load_reports(tmp_path / "r.csv")

    @pytest.mark.parametrize("field, value", [
        ("iqr_estimate", "999.0"),
        ("benchmark", "999.0"),
        ("tukey_constant", "999.0"),
        ("rule", "both-members"),
    ])
    def test_csv_rows_of_a_scope_that_disagree_are_a_parse_error(self, tmp_path, field, value):
        # the second row is the global scope's unflagged second pair
        save_report_csv(_report_with_ids(("a", "b", "c", "d"), SPREAD), tmp_path / "r.csv")
        rows = [ln.split(",") for ln in (tmp_path / "r.csv").read_text().splitlines()]
        assert rows[2][rows[0].index(field)] != value
        rows[2][rows[0].index(field)] = value
        (tmp_path / "r.csv").write_text("".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ParseError, match=f"rows of scope 'global' disagree on {field}"):
            load_reports(tmp_path / "r.csv")

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(benchmark=r["benchmark"] * 2), "benchmark"),
        (lambda r: r.update(flagged_samples=["z"]), "in no pair"),
        (lambda r: r.update(rule="nearest"), "unknown rule"),
        (lambda r: r.update(pairs=[]), "has no pairs"),
        (lambda r: r["pairs"][0].update(members=[]), "are not 1 or 2 sample ids"),
        (lambda r: r["pairs"][0].update(members=[1, 2]), "are not 1 or 2 sample ids"),
        (lambda r: r["pairs"][0]["members"].append("z"), "are not 1 or 2 sample ids"),
        (lambda r: r["pairs"][0].update(members="ab"), "is not a list"),
        (lambda r: r.update(flagged_samples="b"), "is not a list"),
        (lambda r: r["pairs"][1].update(members=["c", "c"]), "named twice"),
        (lambda r: r["pairs"][1].update(members=["c", "a"]), "named twice"),
        (lambda r: r["pairs"][0].update(members=["b"]), "one-member border comes before"),
        (lambda r: r["pairs"][1].update(distance=200.0), "pair distances rise"),
        # the fence at twice the IQR estimate clears the pair of the flagged b
        (lambda r: r.update(tukey_constant=2.0, benchmark=2.0 * r["iqr_estimate"]),
         "are not the fence's verdict"),
        (lambda r: r.update(flagged_samples=["b", "d"]), "are not the fence's verdict"),
        # c is in the second pair, which is below the fence; the flagged first pair holds a, b
        (lambda r: r.update(flagged_samples=["c"]), "are not the fence's verdict"),
    ])
    def test_json_that_contradicts_itself_is_a_parse_error(self, tmp_path, edit, message):
        payload = json.loads(reports_to_json(_report_with_ids(("a", "b", "c", "d"), SPREAD)))
        edit(payload["reports"][0])
        (tmp_path / "r.json").write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=message):
            load_reports(tmp_path / "r.json")

    @pytest.mark.parametrize("index", ["2", "0", "", "x"])
    def test_csv_pair_index_out_of_order_is_a_parse_error(self, tmp_path, index):
        save_report_csv(_report_with_ids(("a", "b", "c", "d"), SPREAD), tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace("global,1,", f"global,{index},", 1)
        (tmp_path / "r.csv").write_text("".join(lines))
        with pytest.raises(ParseError, match=f"pair_index '{index}' is not 1"):
            load_reports(tmp_path / "r.csv")

    @pytest.mark.parametrize("name, text", [
        ("r.json", '{"reports": []}'),
        ("r.csv", "scope,pair_index,member_1,member_2,distance_intra_pair,iqr_estimate,"
                  "benchmark,tukey_constant,flagged,flagged_member,rule,member_count\r\n"),
    ])
    def test_a_file_without_reports_is_a_parse_error(self, tmp_path, name, text):
        (tmp_path / name).write_text(text)
        with pytest.raises(ParseError, match="no reports"):
            load_reports(tmp_path / name)
