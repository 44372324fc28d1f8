import numpy as np
import pytest

from depthnorm import (
    ClassPartition,
    DegenerateScaleError,
    DimensionError,
    DomainError,
    EmptyResultError,
    ExpressionMatrix,
    ParseError,
    PartitionError,
    column_sort,
    component_wise_median,
    filter_zero_rows,
    linear_prenormalize,
    load_class_labels,
    load_matrix,
    log1_transform,
    save_matrix,
)


class TestLoadMatrix:
    def test_reads_plain_csv(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,4\n5,6\n")
        m = load_matrix(f)
        assert m.n_features == 3 and m.n_samples == 2
        assert np.array_equal(m.values, [[1, 2], [3, 4], [5, 6]])
        assert m.sample_ids == ("1", "2")

    def test_header_row_becomes_sample_ids(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("s1,s2\n1,2\n3,4\n")
        m = load_matrix(f)
        assert m.sample_ids == ("s1", "s2")
        assert m.n_features == 2

    def test_ragged_row_names_the_row(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="row 2"):
            load_matrix(f, has_header=False)

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,oops\n5,6\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_matrix(f, has_header=False)

    def test_single_column_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1\n2\n")
        with pytest.raises(DimensionError):
            load_matrix(f)

    def test_tsv_roundtrip(self, tmp_path):
        m = ExpressionMatrix(np.array([[1.5, 2.25], [3.0, 4.125]]), ("a", "b"))
        f = tmp_path / "m.tsv"
        save_matrix(m, f)
        back = load_matrix(f)
        assert back.sample_ids == ("a", "b")
        assert np.array_equal(back.values, m.values)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_matrix(tmp_path / "nope.csv")


class TestMatrixValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            ExpressionMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_values_are_read_only(self):
        m = ExpressionMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_callers_array_stays_writeable(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        ExpressionMatrix(arr)
        assert arr.flags.writeable
        arr[0, 0] = 9.0


class TestFilterZeroRows:
    def test_keeps_rows_within_budget(self):
        m = ExpressionMatrix(np.array([[0, 0, 1], [1, 2, 3], [0, 5, 6]], dtype=float))
        out = filter_zero_rows(m, 1)
        assert np.array_equal(out.values, [[1, 2, 3], [0, 5, 6]])

    def test_max_budget_is_identity(self):
        m = ExpressionMatrix(np.array([[0, 0], [1, 0]], dtype=float))
        assert np.array_equal(filter_zero_rows(m, m.n_samples).values, m.values)

    def test_empty_result_raises(self):
        m = ExpressionMatrix(np.zeros((3, 2)))
        with pytest.raises(EmptyResultError):
            filter_zero_rows(m, 0)

    def test_rows_form_a_subsequence(self):
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 3, size=(30, 4)).astype(float)
        m = ExpressionMatrix(vals)
        out = filter_zero_rows(m, 2)
        kept = out.values
        i = 0
        for row in vals:
            if i < len(kept) and np.array_equal(row, kept[i]):
                i += 1
        assert i == len(kept)


class TestLog1Transform:
    def test_known_values(self):
        m = ExpressionMatrix(np.array([[0.0, np.e - 1], [np.e**2 - 1, 0.0]]))
        out = log1_transform(m)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == pytest.approx(1.0)
        assert out.values[1, 0] == pytest.approx(2.0)

    def test_monotone_column_stays_sorted(self):
        m = column_sort(ExpressionMatrix(np.array([[0.0, 5.0], [np.e - 1, 1.0], [np.e**2 - 1, 3.0]])))
        out = log1_transform(m)
        assert out.sorted_flag
        assert (np.diff(out.values, axis=0) >= 0).all()

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            log1_transform(ExpressionMatrix(np.array([[1.0, -0.5], [2.0, 3.0]])))

    def test_commutes_with_column_sort(self):
        rng = np.random.default_rng(11)
        m = ExpressionMatrix(rng.uniform(0, 9, size=(40, 5)))
        a = column_sort(log1_transform(m))
        b = log1_transform(column_sort(m))
        assert np.allclose(a.values, b.values)


class TestColumnSort:
    def test_sorts_ascending(self):
        m = ExpressionMatrix(np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
        out = column_sort(m)
        assert np.array_equal(out.values[:, 0], [1, 2, 3])
        assert out.sorted_flag

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        m = ExpressionMatrix(rng.normal(size=(25, 3)))
        once = column_sort(m)
        assert np.array_equal(column_sort(once).values, once.values)

    def test_ties_preserved(self):
        m = ExpressionMatrix(np.array([[2.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(column_sort(m).values[:, 0], [1, 2, 2])


class TestComponentWiseMedian:
    def test_convex_hull_pathology(self):
        # five points whose coordinate-wise median escapes their hull
        pts = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 2, 5], [3, 1, 5]], dtype=float)
        m = ExpressionMatrix(pts.T)
        assert np.array_equal(component_wise_median(m).values, [1.0, 1.0, 0.0])

    def test_even_sample_midpoint(self):
        m = ExpressionMatrix(np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert np.array_equal(component_wise_median(m).values, [2.0, 3.0])

    def test_sorted_input_gives_sorted_reference(self):
        rng = np.random.default_rng(8)
        m = column_sort(ExpressionMatrix(rng.normal(size=(30, 6))))
        ref = component_wise_median(m)
        assert ref.is_non_decreasing


class TestLinearPrenormalize:
    def test_median_anchor(self):
        m = ExpressionMatrix(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
        out = linear_prenormalize(m, "median")
        # per-column medians 2 and 4, grand anchor median(2, 4) = 3
        assert np.allclose(np.median(out.values, axis=0), 3.0)
        assert np.allclose(out.values[:, 0], [1.5, 3.0, 4.5])
        assert np.allclose(out.values[:, 1], [1.5, 3.0, 4.5])

    def test_identical_columns_unchanged(self):
        m = ExpressionMatrix(np.array([[1.0, 1.0], [5.0, 5.0]]))
        assert np.allclose(linear_prenormalize(m, "median").values, m.values)

    def test_sum_anchor_factors(self):
        m = ExpressionMatrix(np.array([[4.0, 10.0], [6.0, 20.0]]))
        out = linear_prenormalize(m, "sum")
        # column sums 10 and 30, grand anchor 20, factors 2 and 2/3
        assert np.allclose(out.values[:, 0], [8.0, 12.0])
        assert np.allclose(out.values[:, 1], [10.0 * 2 / 3, 20.0 * 2 / 3])

    def test_zero_anchor_rejected(self):
        m = ExpressionMatrix(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(DegenerateScaleError):
            linear_prenormalize(m, "median")

    def test_ranks_unchanged(self):
        rng = np.random.default_rng(3)
        m = ExpressionMatrix(rng.uniform(0.5, 4, size=(30, 4)))
        out = linear_prenormalize(m, "q75")
        for j in range(4):
            assert np.array_equal(np.argsort(out.values[:, j]), np.argsort(m.values[:, j]))

    def test_unknown_anchor(self):
        m = ExpressionMatrix(np.ones((2, 2)))
        with pytest.raises(DomainError):
            linear_prenormalize(m, "mode")


class TestClassPartition:
    def test_accepts_valid_labels(self):
        p = ClassPartition((1, 1, 2, 2, 2))
        assert p.class_count == 2
        assert np.array_equal(p.members(2), [2, 3, 4])

    def test_singleton_class_rejected(self):
        with pytest.raises(PartitionError):
            ClassPartition((1, 1, 2))

    def test_out_of_range_label(self):
        with pytest.raises(PartitionError):
            ClassPartition((0, 1, 1), class_count=1)

    def test_load_from_file_and_inline(self, tmp_path):
        f = tmp_path / "labels.txt"
        f.write_text("1\n1\n2\n2\n")
        assert load_class_labels(str(f), 4).labels == (1, 1, 2, 2)
        assert load_class_labels("1,1,2,2", 4).labels == (1, 1, 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(PartitionError):
            load_class_labels("1,1,2", 4)
