import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthnorm import (
    DimensionError,
    ExpressionMatrix,
    column_sort,
    component_wise_median,
    deepest_curve,
    extract_borders,
    pairwise_distances,
    peel_borders,
)
from depthnorm.depth import DistanceMatrix, depth_records, save_depth_csv
from depthnorm.normalize import save_reference_csv

from oracles import borders_oracle

TEN_POINT_SAMPLE = [1.3, 2.1, 2.8, 2.9, 3.2, 3.9, 4.1, 4.8, 4.9, 5.3]


def scalar_matrix(points):
    return ExpressionMatrix(np.array([points], dtype=float))


class TestPairwiseDistances:
    def test_three_four_five(self):
        m = ExpressionMatrix(np.array([[0.0, 3.0], [0.0, 4.0]]))
        assert pairwise_distances(m).d[0, 1] == 5.0

    def test_identical_columns(self):
        m = ExpressionMatrix(np.ones((4, 2)))
        assert pairwise_distances(m).d[0, 1] == 0.0

    def test_scalar_columns(self):
        m = scalar_matrix([1.0, 2.0, 4.0])
        d = pairwise_distances(m).d
        assert d[0, 1] == 1.0 and d[0, 2] == 3.0 and d[1, 2] == 2.0
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(3))


class TestExtractBorders:
    def test_worked_ten_point_sample(self):
        bs = extract_borders(pairwise_distances(scalar_matrix(TEN_POINT_SAMPLE)))
        assert bs.distances() == pytest.approx([4.0, 2.8, 2.0, 1.2, 0.7], rel=1e-12)
        assert [b.members for b in bs.borders] == [(0, 9), (1, 8), (2, 7), (3, 6), (4, 5)]

    def test_two_columns_single_border(self):
        bs = extract_borders(pairwise_distances(scalar_matrix([1.0, 7.0])))
        assert len(bs.borders) == 1
        assert bs.borders[0].members == (0, 1)

    def test_odd_sample_final_singleton(self):
        bs = extract_borders(pairwise_distances(scalar_matrix([0.0, 1.0, 10.0])))
        assert bs.borders[0].members == (0, 2)
        assert bs.borders[0].distance == 10.0
        assert bs.borders[1].members == (1,)
        assert bs.borders[1].distance == 0.0

    def test_requires_two_columns(self):
        with pytest.raises(DimensionError):
            extract_borders(DistanceMatrix(np.zeros((1, 1))))

    def test_matches_rescan_oracle_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            g = int(rng.integers(1, 30))
            m = ExpressionMatrix(rng.normal(size=(g, n)))
            dm = pairwise_distances(m)
            got = [(b.members, b.distance) for b in extract_borders(dm).borders]
            assert got == borders_oracle(dm.d)

    def test_tie_breaking_is_lexicographic(self):
        # rows of a unit square: all four side pairs tie at distance 1
        d = np.array(
            [
                [0, 1, 1, np.sqrt(2)],
                [1, 0, np.sqrt(2), 1],
                [1, np.sqrt(2), 0, 1],
                [np.sqrt(2), 1, 1, 0],
            ]
        )
        bs = extract_borders(DistanceMatrix(d))
        assert bs.borders[0].members == (0, 3)
        assert bs.borders[1].members == (1, 2)

    def test_distances_non_increasing_and_members_partition(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 16))
            m = ExpressionMatrix(rng.normal(size=(8, n)))
            bs = extract_borders(pairwise_distances(m))
            dist = bs.distances()
            assert (np.diff(dist) <= 1e-12).all()
            seen = [j for b in bs.borders for j in b.members]
            assert sorted(seen) == list(range(n))

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(31)
        vals = rng.normal(size=(12, 7))
        shift = rng.normal(size=(12, 1))
        base = extract_borders(pairwise_distances(ExpressionMatrix(vals)))
        moved = extract_borders(pairwise_distances(ExpressionMatrix(vals + shift)))
        assert [b.members for b in moved.borders] == [b.members for b in base.borders]
        assert moved.distances() == pytest.approx(base.distances(), rel=1e-9)
        scaled = extract_borders(pairwise_distances(ExpressionMatrix(3.5 * vals)))
        assert [b.members for b in scaled.borders] == [b.members for b in base.borders]
        assert scaled.distances() == pytest.approx(3.5 * base.distances(), rel=1e-9)


class TestDepthValues:
    def test_worked_sample_depths(self):
        bs = peel_borders(scalar_matrix(TEN_POINT_SAMPLE))
        assert bs.depth[4] == bs.depth[5] == 5 / 10
        assert bs.depth[0] == bs.depth[9] == 1 / 10
        assert bs.deepest_members == (4, 5)

    def test_two_columns(self):
        bs = peel_borders(scalar_matrix([0.0, 2.0]))
        assert np.array_equal(bs.depth, [0.5, 0.5])
        assert bs.deepest_members == (0, 1)

    def test_odd_unique_deepest(self):
        bs = peel_borders(scalar_matrix([0.0, 1.0, 10.0]))
        assert bs.depth[1] == pytest.approx(2 / 3)
        assert bs.deepest_members == (1,)

    def test_depths_are_border_index_over_n(self):
        rng = np.random.default_rng(40)
        bs = peel_borders(ExpressionMatrix(rng.normal(size=(6, 9))))
        assert np.array_equal(bs.depth, bs.border_index / 9)
        assert bs.depth.max() == bs.border_index.max() / 9


@st.composite
def tied_distance_matrices(draw):
    """Symmetric integer-valued distance matrices, n = 2..9, with many ties."""
    n = draw(st.integers(2, 9))
    k = n * (n - 1) // 2
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    return d + d.T


class TestBorderPathProperties:
    @settings(max_examples=300, deadline=None)
    @given(tied_distance_matrices())
    def test_ties_match_the_rescanning_oracle(self, d):
        got = [(b.members, b.distance) for b in extract_borders(DistanceMatrix(d)).borders]
        assert got == borders_oracle(d)

    @settings(max_examples=300, deadline=None)
    @given(tied_distance_matrices())
    def test_border_index_names_the_border_that_lists_each_column(self, d):
        bs = extract_borders(DistanceMatrix(d))
        n = d.shape[0]
        assert sorted(j for b in bs.borders for j in b.members) == list(range(n))
        for j in range(n):
            assert j in bs.borders[bs.border_index[j] - 1].members
        assert np.array_equal(bs.depth, bs.border_index / n)


class TestDeepestCurve:
    def test_odd_returns_sample_member(self):
        m = scalar_matrix([0.0, 1.0, 10.0])
        ref = deepest_curve(m)
        assert ref.values == pytest.approx([1.0])
        assert ref.source_tag == "deepest"

    def test_identical_pair_average_is_the_column(self):
        m = ExpressionMatrix(np.array([[2.0, 2.0], [5.0, 5.0]]))
        ref = deepest_curve(m)
        assert np.array_equal(ref.values, [2.0, 5.0])
        assert ref.source_tag == "deepest_pair_average"

    def test_four_column_example(self):
        m = ExpressionMatrix(np.array([[1.0, 1.0, 5.0, 0.0], [2.0, 2.0, 9.0, 1.0]]))
        bs = extract_borders(pairwise_distances(m))
        assert bs.borders[0].members == (2, 3)
        assert np.array_equal(deepest_curve(m, bs).values, [1.0, 2.0])

    def test_sorted_pair_average_stays_sorted(self):
        rng = np.random.default_rng(55)
        m = column_sort(ExpressionMatrix(rng.normal(size=(20, 8))))
        ref = deepest_curve(m)
        assert ref.is_non_decreasing


class TestDepthExport:
    def test_records_cover_every_sample(self):
        m = scalar_matrix(TEN_POINT_SAMPLE)
        bs = extract_borders(pairwise_distances(m))
        rows = depth_records(m, bs)
        assert len(rows) == 10
        assert rows[0]["border_index"] == 1
        assert rows[0]["pair_partner_id"] == "10"
        assert rows[4]["depth"] == "5/10"

    def test_singleton_has_no_partner(self):
        m = scalar_matrix([0.0, 1.0, 10.0])
        rows = depth_records(m, extract_borders(pairwise_distances(m)))
        assert rows[1]["pair_partner_id"] == ""
        assert rows[1]["intra_pair_distance"] == 0.0


def _artifacts(curves: ExpressionMatrix, directory: Path):
    """The bytes of reference.csv (deepest and component median) and depth.csv from ``curves``."""
    bs = peel_borders(curves)
    save_reference_csv(deepest_curve(curves, bs), directory / "deepest.csv")
    save_reference_csv(component_wise_median(curves), directory / "median.csv")
    save_depth_csv(curves, bs, directory / "depth.csv")
    return bs, [(directory / f).read_bytes() for f in ("deepest.csv", "median.csv", "depth.csv")]


@settings(max_examples=150, deadline=None)
@given(
    g=st.integers(1, 60),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    pool=st.sampled_from([None, (-0.0, 0.0, 1.0), (-0.0, -1e-300, 2.5, 2.5000000000000004)]),
)
def test_the_curve_layout_keeps_depth_and_reference_bytes(g, n, seed, pool):
    # the sorted curves in their n x G layout against the same values G x n C-ordered,
    # the layout column_sort gave before, with duplicate columns and signed-zero ties
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 1.0, size=(g, n)) if pool is None else rng.choice(pool, (g, n))
    values[:, rng.integers(0, n)] = values[:, 0]
    m = ExpressionMatrix(values, tuple(f"s{j}" for j in range(n)))
    curves = column_sort(m)
    rowwise = ExpressionMatrix(np.ascontiguousarray(np.sort(values, axis=0)), m.sample_ids)
    assert curves.values.T.flags.c_contiguous and rowwise.values.flags.c_contiguous
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        bs, got = _artifacts(curves, Path(a))
        bs_rowwise, want = _artifacts(rowwise, Path(b))
    assert bs == bs_rowwise
    assert got == want
