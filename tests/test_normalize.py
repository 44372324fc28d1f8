import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depthnorm import (
    DimensionError,
    DomainError,
    ExpressionMatrix,
    ReferenceCurve,
    column_sort,
    linear_prenormalize,
    normalize_pipeline,
    quantile_normalize_full,
    quantile_normalize_subset,
)

from oracles import rank_map_oracle


def tie_free_matrix(rng, g, n):
    vals = rng.normal(size=(g, n))
    while any(np.unique(vals[:, j]).size < g for j in range(n)):
        vals = rng.normal(size=(g, n))
    return ExpressionMatrix(vals)


class TestFullMapping:
    def test_rank_substitution(self):
        m = ExpressionMatrix(np.array([[3.0, 3.0], [1.0, 1.0], [2.0, 2.0]]))
        ref = ReferenceCurve([10.0, 20.0, 30.0])
        out = quantile_normalize_full(m, ref)
        assert np.array_equal(out.values[:, 0], [30.0, 10.0, 20.0])

    def test_reference_equal_to_sorted_column_is_identity(self):
        m = ExpressionMatrix(np.array([[3.0, 3.0], [1.0, 1.0], [2.0, 2.0]]))
        ref = ReferenceCurve([1.0, 2.0, 3.0])
        assert np.array_equal(quantile_normalize_full(m, ref).values, m.values)

    def test_ties_share_the_reference_average(self):
        m = ExpressionMatrix(np.array([[5.0, 0.0], [5.0, 1.0], [1.0, 2.0]]))
        ref = ReferenceCurve([10.0, 20.0, 30.0])
        out = quantile_normalize_full(m, ref)
        assert np.array_equal(out.values[:, 0], [25.0, 25.0, 10.0])
        # ties stay ties, so the map is idempotent here too
        twice = quantile_normalize_full(out, ref)
        assert np.array_equal(twice.values, out.values)

    def test_length_mismatch(self):
        m = ExpressionMatrix(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            quantile_normalize_full(m, ReferenceCurve([1.0, 2.0]))

    def test_decreasing_reference_rejected(self):
        m = ExpressionMatrix(np.ones((2, 2)))
        with pytest.raises(DomainError):
            quantile_normalize_full(m, ReferenceCurve([2.0, 1.0]))

    def test_columns_become_reference_and_map_is_idempotent(self):
        rng = np.random.default_rng(7)
        ref = ReferenceCurve(np.sort(rng.normal(size=25)))
        for _ in range(20):
            m = tie_free_matrix(rng, 25, 4)
            out = quantile_normalize_full(m, ref)
            for j in range(4):
                assert np.array_equal(np.sort(out.values[:, j]), ref.values)
                assert np.array_equal(
                    np.argsort(out.values[:, j]), np.argsort(m.values[:, j])
                )
            twice = quantile_normalize_full(out, ref)
            assert np.array_equal(twice.values, out.values)


class TestSubsetMapping:
    def test_linear_stretch(self):
        m = ExpressionMatrix(
            np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0], [15.0, 15.0], [20.0, 20.0]])
        )
        ref = ReferenceCurve([0.0, 50.0, 100.0, 150.0, 200.0])
        out = quantile_normalize_subset(m, ref, 3)
        assert out.values[1, 0] == pytest.approx(50.0)
        assert np.allclose(out.values[:, 0], [0, 50, 100, 150, 200])

    def test_knot_maps_to_knot(self):
        rng = np.random.default_rng(3)
        m = tie_free_matrix(rng, 21, 3)
        ref = ReferenceCurve(np.sort(rng.normal(size=21)))
        out = quantile_normalize_subset(m, ref, 3)
        ref_median = np.quantile(ref.values, 0.5)
        for j in range(3):
            at_median = np.argwhere(m.values[:, j] == np.quantile(m.values[:, j], 0.5))
            for i in at_median.ravel():
                assert out.values[i, j] == pytest.approx(ref_median)

    def test_complete_grid_matches_full_mapping(self):
        rng = np.random.default_rng(12)
        g = 20
        for _ in range(10):
            m = tie_free_matrix(rng, g, 4)
            ref = ReferenceCurve(np.sort(rng.normal(size=g)))
            full = quantile_normalize_full(m, ref)
            subset = quantile_normalize_subset(m, ref, g)
            assert np.allclose(full.values, subset.values, atol=1e-10)

    def test_zero_width_bracket_maps_to_midpoint(self):
        # constant lower half: quantile knots at levels 0 and .5 coincide
        m = ExpressionMatrix(np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 2.0], [6.0, 3.0]]))
        ref = ReferenceCurve([10.0, 20.0, 30.0, 40.0])
        out = quantile_normalize_subset(m, ref, 3)
        ref_knots = np.quantile(ref.values, (0.0, 0.5, 1.0))
        expected = 0.5 * (ref_knots[0] + ref_knots[1])
        assert np.allclose(out.values[:3, 0], expected)

    def test_knots_sit_at_evenly_spaced_levels(self):
        # five knots sit at levels 0, 1/4, 1/2, 3/4 and 1: of 17 ranks, 0, 4, 8, 12 and 16
        rng = np.random.default_rng(5)
        m = tie_free_matrix(rng, 17, 3)
        ref = ReferenceCurve(np.sort(rng.normal(size=17)))
        out = quantile_normalize_subset(m, ref, 5)
        for j in range(3):
            at_knots = np.argsort(m.values[:, j])[[0, 4, 8, 12, 16]]
            assert np.array_equal(out.values[at_knots, j], ref.values[[0, 4, 8, 12, 16]])

    @pytest.mark.parametrize("knots", [1, 0, -3])
    def test_fewer_than_two_knots_is_a_domain_error(self, knots):
        m = ExpressionMatrix(np.arange(8.0).reshape(4, 2))
        with pytest.raises(DomainError, match="need at least 2 grid knots"):
            quantile_normalize_subset(m, ReferenceCurve(np.arange(4.0)), knots)
        with pytest.raises(DomainError, match="need at least 2 grid knots"):
            normalize_pipeline(m, knots=knots)

    def test_mapping_is_monotone_per_column(self):
        rng = np.random.default_rng(9)
        m = ExpressionMatrix(rng.uniform(size=(40, 3)))
        ref = ReferenceCurve(np.sort(rng.uniform(size=40)))
        out = quantile_normalize_subset(m, ref, 5)
        for j in range(3):
            order = np.argsort(m.values[:, j])
            assert (np.diff(out.values[order, j]) >= 0).all()


@st.composite
def tied_columns_and_reference(draw):
    """Integer columns over four levels, so most values are tied, and a sorted reference."""
    g, n = draw(st.integers(1, 40)), draw(st.integers(2, 4))
    cols = draw(hnp.arrays(np.int64, (g, n), elements=st.integers(0, 3)))
    ref = draw(hnp.arrays(np.float64, g, elements=st.floats(-1e6, 1e6)))
    return ExpressionMatrix(cols.astype(np.float64)), ReferenceCurve(np.sort(ref))


def assert_order_and_range_kept(m, ref, out):
    for j in range(m.n_samples):
        order = np.argsort(m.values[:, j], kind="stable")
        assert (np.diff(out.values[order, j]) >= 0).all()
    assert ref.values.min() <= out.values.min() and out.values.max() <= ref.values.max()


class TestQuantileMapProperties:
    @settings(max_examples=300, deadline=None)
    @given(tied_columns_and_reference())
    def test_full_map_keeps_order_and_range(self, case):
        m, ref = case
        assert_order_and_range_kept(m, ref, quantile_normalize_full(m, ref))

    @settings(max_examples=300, deadline=None)
    @given(tied_columns_and_reference(), st.integers(2, 12))
    def test_subset_map_keeps_order_and_range(self, case, knots):
        m, ref = case
        out = quantile_normalize_subset(m, ref, knots)
        assert_order_and_range_kept(m, ref, out)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 40))
    def test_full_map_of_a_tie_free_column_permutes_the_reference(self, data, g):
        cols = np.column_stack(
            [data.draw(st.permutations(range(g))) for _ in range(2)]
        ).astype(np.float64)
        ref = np.sort(data.draw(hnp.arrays(np.float64, g, elements=st.floats(-1e6, 1e6))))
        out = quantile_normalize_full(ExpressionMatrix(cols), ReferenceCurve(ref))
        for j in range(2):
            assert np.array_equal(np.sort(out.values[:, j]), ref)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 60), st.integers(2, 5), st.booleans())
    def test_full_map_matches_the_stable_argsort_oracle(self, data, g, n, ranks):
        # few levels, so most values are tied, and both signed zeros within one tie run
        levels = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0])
        cols = data.draw(hnp.arrays(np.float64, (g, n), elements=levels))
        if ranks:  # the Spearman-rank reference of robust_covariance
            ref = np.arange(1.0, g + 1.0)
        else:
            ref = np.sort(data.draw(hnp.arrays(np.float64, g, elements=st.floats(-1e6, 1e6))))
        out = quantile_normalize_full(ExpressionMatrix(cols), ReferenceCurve(ref))
        want = rank_map_oracle(cols, ref)
        assert np.array_equal(out.values.view(np.int64), want.view(np.int64))


class TestPipeline:
    def test_identical_columns_are_a_fixed_point(self):
        m = ExpressionMatrix(np.array([[4.0, 4.0], [1.0, 1.0], [6.0, 6.0]]))
        for reference in ("deepest", "component_median"):
            res = normalize_pipeline(linear_prenormalize(m, "median"), reference=reference)
            assert np.allclose(res.matrix.values, m.values)

    def test_deepest_reference_on_scalar_toy(self):
        m = ExpressionMatrix(np.array([[0.0, 1.0, 10.0]]))
        res = normalize_pipeline(m, reference="deepest")
        assert res.reference.values == pytest.approx([1.0])
        assert res.borders is not None
        assert res.borders.deepest_members == (1,)

    def test_component_median_full_mapping(self):
        m = ExpressionMatrix(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        res = normalize_pipeline(m, reference="component_median")
        assert np.array_equal(res.reference.values, [5.5, 11.0, 16.5])
        assert np.array_equal(res.matrix.values[:, 0], [5.5, 11.0, 16.5])
        assert np.array_equal(res.matrix.values[:, 1], [5.5, 11.0, 16.5])
        assert res.borders is None

    def test_prenormalized_variant_agrees_here(self):
        m = ExpressionMatrix(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        res = normalize_pipeline(linear_prenormalize(m, "median"), reference="component_median")
        assert np.allclose(res.matrix.values[:, 0], [5.5, 11.0, 16.5])

    def test_deepest_singleton_reference_is_a_sample_column(self):
        rng = np.random.default_rng(77)
        m = ExpressionMatrix(rng.uniform(1, 5, size=(15, 5)))  # odd n: singleton border
        res = normalize_pipeline(linear_prenormalize(m, "median"), reference="deepest")
        assert res.reference.source_tag == "deepest"
        sorted_input = column_sort(linear_prenormalize(m, "median")).values
        member = [
            np.array_equal(sorted_input[:, j], res.reference.values) for j in range(5)
        ]
        assert any(member)

    def test_a_grid_selects_the_subset_map(self):
        rng = np.random.default_rng(23)
        m = ExpressionMatrix(rng.uniform(1, 9, size=(40, 5)))
        prenormalized = linear_prenormalize(m, "median")
        res = normalize_pipeline(prenormalized, knots=7)
        want = quantile_normalize_subset(prenormalized, res.reference, 7)
        assert np.array_equal(res.matrix.values, want.values)
        full = normalize_pipeline(prenormalized).matrix
        assert not np.array_equal(res.matrix.values, full.values)

    def test_row_order_preserved(self):
        rng = np.random.default_rng(21)
        m = ExpressionMatrix(rng.uniform(1, 9, size=(12, 3)))
        res = normalize_pipeline(linear_prenormalize(m, "median"), reference="deepest")
        for j in range(3):
            assert np.array_equal(
                np.argsort(res.matrix.values[:, j]), np.argsort(m.values[:, j])
            )
