"""The batched numpy kernels agree block by block with the oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depthnorm import DomainError, _kernels
from depthnorm.outlier import _mix_rows
from depthnorm.pipeline import biweight_location
from oracles import biweight_oracle, medpolish_oracle

LAYOUTS = {
    "uniform": np.array([0, 11, 22, 33, 44, 55], dtype=np.int64),
    "ragged": np.array([0, 1, 4, 15, 22, 33, 38, 55], dtype=np.int64),
}


GRAM_SHAPES = [(2, 1), (5, 3), (12, 2000), (64, 500), (24, 50_000)]


def blocks_of(values, starts):
    return [values[starts[g]:starts[g + 1]] for g in range(starts.shape[0] - 1)]


def test_polish_summaries_match_oracle_block_by_block():
    rng = np.random.default_rng(4)
    values = rng.standard_t(4, size=(55, 6))
    values[::3] = np.round(values[::3], 1)  # ties
    before = values.copy()
    for name, starts in LAYOUTS.items():
        got = _kernels.polish_summaries(values, starts, 20, 0.01)
        assert np.array_equal(values, before)  # the kernel polishes a gathered copy
        for g, block in enumerate(blocks_of(values, starts)):
            overall, _, col, _ = medpolish_oracle(block, 20, 0.01)
            assert np.allclose(got[g], overall + col, atol=1e-12), (name, g)


def test_biweight_summaries_match_oracle_block_by_block():
    rng = np.random.default_rng(5)
    values = rng.standard_t(3, size=(55, 6))
    values[::4] = np.round(values[::4], 1)
    for name, starts in LAYOUTS.items():
        got = _kernels.biweight_summaries(values, starts, 5.0, 1e-4, 50, 1e-9)
        for g, block in enumerate(blocks_of(values, starts)):
            for j in range(values.shape[1]):
                assert got[g, j] == pytest.approx(biweight_oracle(block[:, j]), abs=1e-12), (
                    name, g, j,
                )


@pytest.mark.parametrize("x", [
    [1e308, -1e308, 1e308, -1e308, 5.0],  # c * MAD overflows
    [-1.7e308, -1.7e308, 1e308, 1.7e308, 1.7e308],  # some deviations overflow too
])
def test_biweight_scale_overflow_is_a_domain_error(x):
    with pytest.raises(DomainError, match="rescale"):
        biweight_location(x)


def test_biweight_of_large_finite_scale_keeps_its_value():
    x = np.array([3e306, -3e306, 2e306, -1e306, 5e305])
    assert biweight_location(x) == biweight_oracle(x)


# ---------------------------------------------------------------------------
# the short-axis median against np.median

# signed zeros, ties, subnormals, and values whose sums overflow to ±inf
MEDIAN_POOL = [-0.0, 0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1e308, 3.0]


@st.composite
def median_cases(draw):
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(0, ndim - 1))
    shape = [draw(st.integers(1, 4)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(1, 16))
    a = draw(hnp.arrays(np.float64, tuple(shape), elements=st.sampled_from(MEDIAN_POOL)))
    return a, axis


@settings(max_examples=500, deadline=None)
@given(median_cases())
def test_median_matches_np_median_bit_for_bit(case):
    a, axis = case
    with np.errstate(over="ignore"):
        got = _kernels.median(a, axis)
        want = np.median(a, axis=axis)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_median_of_signed_zeros_and_subnormals():
    # np.mean sums from +0.0, so -0.0 halves to +0.0 but a negative subnormal to -0.0
    for pair, want in [([-0.0, -0.0], 0.0), ([-5e-324, -0.0], -0.0), ([-0.0], 0.0)]:
        got = _kernels.median(np.array(pair), 0)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


# ---------------------------------------------------------------------------
# the blocked in-place mix of the calibration surrogates against factor @ z


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 64), g=st.integers(1, 3 * 448 + 2), seed=st.integers(0, 2**32 - 1))
def test_blocked_mix_has_the_bits_of_the_whole_product(n, g, seed):
    rng = np.random.default_rng(seed)
    factor, z = rng.standard_normal((n, n)), rng.standard_normal((n, g))
    want = factor @ z
    buf, tmp = z.copy(), np.full(n * min(g, 448), np.nan)
    _mix_rows(factor, buf, tmp)
    # every column but the last g mod 16 (all of them for one block) is bit for bit
    exact = g if g <= 448 else g - g % 16
    assert np.array_equal(buf[:, :exact], want[:, :exact])
    # the rest may round differently in another BLAS kernel: within the dot-product bound
    bound = 2 * n * np.finfo(float).eps * (np.abs(factor) @ np.abs(z))
    assert (np.abs(buf - want) <= bound).all()


# ---------------------------------------------------------------------------
# gram_dists against the loop kernel


def assert_close_to_loop(x):
    got = _kernels.gram_dists(x)
    want = _kernels.pairwise_dists(x)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    return got


@pytest.mark.parametrize("shape", GRAM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("sort", [False, True], ids=["random", "sorted-rows"])
def test_gram_dists_match_the_loop_kernel(shape, sort):
    x = np.random.default_rng(shape[0] * shape[1]).lognormal(1.0, 1.5, size=shape)
    if sort:
        x.sort(axis=1)  # curves sharing one trend, as the surrogates are
    assert_close_to_loop(x)


def test_gram_dists_of_rows_differing_by_a_constant_offset():
    # a common trend far larger than the gaps: the centring removes it exactly
    rng = np.random.default_rng(9)
    trend = 1e6 + 1e3 * np.sort(rng.standard_normal(5000))
    offsets = rng.permutation(24) * 0.75
    d = assert_close_to_loop(trend + offsets[:, None])
    gaps = np.abs(offsets[:, None] - offsets[None, :]) * np.sqrt(trend.size)
    np.testing.assert_allclose(d, gaps, rtol=1e-9)


@pytest.mark.parametrize("shape", GRAM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_gram_dists_are_symmetric_with_a_zero_diagonal(shape):
    d = _kernels.gram_dists(np.random.default_rng(3).standard_normal(shape))
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(shape[0]))


def test_gram_dists_of_identical_rows_are_zero():
    x = np.random.default_rng(5).standard_normal((24, 50_000))
    x[[3, 17, 23]] = x[0]
    d = _kernels.gram_dists(x)
    for i, j in [(0, 3), (0, 17), (0, 23), (3, 17), (17, 23)]:
        assert d[i, j] == d[j, i] == 0.0
    assert (d[1:3, 4:17] > 0).all()


def test_gram_dists_of_rows_apart_by_round_off_are_finite():
    # d² of such a pair can round below 0; it must come back as a small distance
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 1000))
        x[1] = x[0] + 1e-12 * rng.standard_normal(1000)
        d = _kernels.gram_dists(x)
        assert 0.0 <= d[0, 1] < 1e-6, seed
