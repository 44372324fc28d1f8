import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from depthnorm import (
    Border,
    ClassPartition,
    DataError,
    DegenerateScaleError,
    DimensionError,
    DomainError,
    ExpressionMatrix,
    ParseError,
    PartitionError,
    TukeyCalibration,
    calibrate_g,
    column_sort,
    detect_outliers,
    peel_borders,
    robust_covariance,
    robust_iqr,
)
from depthnorm.outlier import (
    _normal_factor,
    _psd_repair,
    _replicate_quantile,
    format_report_table,
    load_reports,
    reports_to_json,
    save_report_csv,
)

from oracles import hinge_iqr, replicate_quantile_oracle, tukey_fence_flags_extremes

TEN_POINT_SAMPLE = [1.3, 2.1, 2.8, 2.9, 3.2, 3.9, 4.1, 4.8, 4.9, 5.3]


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
        cal = calibrate_g(6, 40, np.eye(6), target_rate=0.01, replicates=1, seed=4)
        assert cal.g_factor == cal.per_replicate_quantiles[0]

    def test_target_rate_near_one_flags_everything(self):
        cal = calibrate_g(12, 60, np.eye(12), target_rate=0.999999, replicates=5, seed=4)
        assert cal.g_factor <= 1.0

    def test_deterministic_and_thread_invariant(self):
        kw = dict(target_rate=1e-4, replicates=12, seed=11)
        a = calibrate_g(8, 100, np.eye(8), **kw)
        b = calibrate_g(8, 100, np.eye(8), **kw)
        c = calibrate_g(8, 100, np.eye(8), threads=4, **kw)
        assert a == b == c
        assert a != calibrate_g(8, 100, np.eye(8), target_rate=1e-4, replicates=12, seed=12)

    def test_thread_invariant_under_frequent_switches(self):
        # more workers than cores, switching often: two replicates sharing a buffer would differ
        kw = dict(target_rate=0.01, replicates=40, seed=5)
        one = calibrate_g(6, 300, np.eye(6), threads=1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = calibrate_g(6, 300, np.eye(6), threads=8, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert many == one

    # G <= 448 or a multiple of 16: the shapes where the blocked mix has every bit of factor @ z
    @pytest.mark.parametrize("n, g", [(3, 1), (5, 7), (12, 448), (24, 1344), (64, 896),
                                      (24, 20000)])
    def test_replicate_on_a_used_buffer_matches_the_allocating_oracle(self, n, g):
        rng = np.random.default_rng(n * g)
        a = rng.standard_normal((n, n))
        factor = _normal_factor(a @ a.T / n + np.eye(n))
        buf, tmp = np.empty((n, g)), np.empty(n * min(g, 448))
        _replicate_quantile(np.random.default_rng(1), factor, 0.05, buf, tmp)  # leaves data
        for seed in (2, 3):
            got = _replicate_quantile(np.random.default_rng(seed), factor, 0.05, buf, tmp)
            want = replicate_quantile_oracle(np.random.default_rng(seed), n, g, factor, 0.05)
            assert got.hex() == want.hex(), seed

    def test_peak_memory_is_one_buffer_per_worker(self):
        n, g = 24, 20000
        buffer_bytes = 8 * n * g
        calibrate_g(n, g, np.eye(n), replicates=4, seed=1, threads=2)  # warm lazy set-up
        tracemalloc.start()
        try:
            calibrate_g(n, g, np.eye(n), replicates=6, seed=1, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * buffer_bytes, peak / buffer_bytes

    def test_json_roundtrip(self):
        cal = calibrate_g(6, 30, np.eye(6), target_rate=0.01, replicates=3, seed=1)
        d = json.loads(cal.to_json())
        assert list(d) == ["g_factor", "target_rate", "replicates", "seed",
                           "per_replicate_quantiles"]
        assert d["g_factor"] == cal.g_factor == float(np.median(d["per_replicate_quantiles"]))
        assert (d["target_rate"], d["replicates"], d["seed"]) == (0.01, 3, 1)
        assert d["replicates"] == cal.replicates
        assert tuple(d["per_replicate_quantiles"]) == cal.per_replicate_quantiles

    def test_fixed_multiplier_is_one_replicate(self):
        cal = TukeyCalibration.fixed(1.5)
        assert (cal.g_factor, cal.replicates) == (1.5, 1)
        assert json.loads(cal.to_json()) == {"g_factor": 1.5, "target_rate": 0.0001,
                                             "replicates": 1, "seed": 0,
                                             "per_replicate_quantiles": [1.5]}

    def test_validates_inputs(self):
        with pytest.raises(DomainError):
            calibrate_g(6, 30, np.eye(6), target_rate=0.0)
        with pytest.raises(DomainError):
            calibrate_g(6, 30, np.eye(6), replicates=0)
        with pytest.raises(DomainError, match="need at least one replicate"):
            TukeyCalibration(())
        with pytest.raises(DomainError, match="seed must be non-negative"):
            calibrate_g(6, 30, np.eye(6), replicates=2, seed=-1)
        for threads in (0, -2):
            with pytest.raises(DomainError, match="threads must be at least 1"):
                calibrate_g(6, 30, np.eye(6), replicates=2, threads=threads)

    def test_no_features_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            calibrate_g(6, 0, np.eye(6), replicates=2)

    @pytest.mark.parametrize("scale, error, match", [
        (1e308, DataError, "covariance overflows"),  # cov + cov.T overflows
        (8e307, DomainError, "non-finite distance"),  # squared distances overflow
        (1e306, DataError, "norms overflow"),  # the curves' squared norms overflow
    ])
    def test_overflow_is_a_data_error_without_a_warning(self, scale, error, match):
        with pytest.raises(error, match=match):
            calibrate_g(6, 2000, np.eye(6) * scale, replicates=2)

    def test_non_psd_covariance_is_repaired(self):
        cov = np.eye(5)
        cov[0, 1] = cov[1, 0] = 0.999
        cov[1, 2] = cov[2, 1] = 0.999
        cov[0, 2] = cov[2, 0] = -0.9  # jointly infeasible: repair kicks in
        cal = calibrate_g(5, 50, cov, replicates=2, seed=0)
        assert np.isfinite(cal.g_factor)

    def test_zero_covariance_is_a_degenerate_scale(self):
        with pytest.raises(DegenerateScaleError):
            calibrate_g(4, 50, np.zeros((4, 4)))

    @pytest.mark.parametrize("g", [6, 2000])
    def test_rank_deficient_covariance_is_a_degenerate_scale(self, g):
        # four identical columns: a rank-1 covariance, border distances of round-off size
        col = np.arange(1.0, g + 1)[:, None]
        cov = robust_covariance(ExpressionMatrix(np.tile(col, (1, 4))))
        with pytest.raises(DegenerateScaleError, match="round-off"):
            calibrate_g(4, g, cov, replicates=3)

    def test_nearly_singular_covariances_still_calibrate(self):
        rng = np.random.default_rng(8)
        strong = np.full((4, 4), 0.999)
        np.fill_diagonal(strong, 1.0)
        vals = rng.normal(size=(200, 4))
        vals[:, 1] = vals[:, 0]  # two identical columns out of four
        for cov in (strong, robust_covariance(ExpressionMatrix(vals))):
            for g in (6, 2000):
                cal = calibrate_g(4, g, cov, replicates=3, seed=1)
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
        ids = tuple(data.draw(st.lists(st.one_of(st.text(), tricky), min_size=n, max_size=n)))
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

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(benchmark=r["benchmark"] * 2), "benchmark"),
        (lambda r: r.update(flagged_samples=["z"]), "in no pair"),
        (lambda r: r.update(rule="nearest"), "unknown rule"),
    ])
    def test_json_that_contradicts_itself_is_a_parse_error(self, tmp_path, edit, message):
        payload = json.loads(reports_to_json(_report_with_ids(("a", "b", "c", "d"), SPREAD)))
        edit(payload["reports"][0])
        (tmp_path / "r.json").write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=message):
            load_reports(tmp_path / "r.json")
