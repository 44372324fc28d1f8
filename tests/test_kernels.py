"""The batched numpy kernels agree block by block with the oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depthnorm import DomainError, _kernels
from depthnorm.outlier import _mix_rows
from depthnorm.pipeline import ProbeMatrix, biweight_location, median_polish, summarize_genes
from depthnorm.simulate import SimulationConfig, generate_dataset
from oracles import biweight_oracle, medpolish_oracle, pairwise_dists_oracle, sequential_sum

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


def ragged_layout(rng, genes):
    """Block starts of ``genes`` blocks of 1 to 5 probes in random order."""
    return np.concatenate(([0], np.cumsum(rng.integers(1, 6, size=genes)))).astype(np.int64)


def summaries_in_chunks(monkeypatch, chunk_values, values, starts):
    monkeypatch.setattr(_kernels, "_CHUNK_VALUES", chunk_values)
    return (_kernels.polish_summaries(values, starts, 20, 0.01),
            _kernels.biweight_summaries(values, starts, 5.0, 1e-4, 50, 1e-9))


def uneven_bound(starts, n):
    """A batch bound that splits the blocks of some size into batches of unequal length."""
    sizes, counts = np.unique(np.diff(starts), return_counts=True)
    for size, count in zip(sizes, counts):
        for per_batch in range(2, count):
            if count % -(-count // per_batch):
                return int(per_batch * size * n)
    raise AssertionError("no bound splits this layout unevenly")


@pytest.mark.parametrize("seed", range(10))
def test_summaries_keep_their_bits_at_every_chunk_size(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    starts = ragged_layout(rng, 60)  # about 12 blocks of each size
    values = rng.standard_t(3, size=(starts[-1], 6))
    values[::3] = np.round(values[::3], 1)  # ties, zero MADs, early convergence
    whole = summaries_in_chunks(monkeypatch, 10**9, values, starts)  # one batch per size
    # one block per batch, a few, batches of unequal length, the old and the new default
    for chunk_values in (1, 50, uneven_bound(starts, 6), 32_768, 131_072):
        got = summaries_in_chunks(monkeypatch, chunk_values, values, starts)
        for kernel, a, b in zip(("polish", "biweight"), got, whole):
            assert a.tobytes() == b.tobytes(), (kernel, chunk_values)
    # and each block alone, through the batch-of-one paths
    polish, biweight = whole
    for g, block in enumerate(blocks_of(values, starts)):
        overall, _, col, _ = _kernels.polish_blocks(block.copy()[None], 20, 0.01)
        assert (overall[:, None] + col)[0].tobytes() == polish[g].tobytes(), g
        for j in range(values.shape[1]):
            series = np.ascontiguousarray(block[:, j])[None]
            alone = _kernels.biweight_series(series, 5.0, 1e-4, 50, 1e-9)
            assert alone.tobytes() == biweight[g, j:j + 1].tobytes(), (g, j)


@settings(max_examples=200, deadline=None)
@given(genes=st.integers(1, 40), max_size=st.integers(1, 12), n=st.integers(1, 12),
       bound=st.integers(1, 2_000) | st.sampled_from([32_768, 131_072]),
       seed=st.integers(0, 2**32 - 1))
def test_size_groups_split_each_size_into_near_equal_batches(genes, max_size, n, bound, seed):
    starts = np.concatenate(([0], np.cumsum(np.random.default_rng(seed).integers(
        1, max_size + 1, size=genes)))).astype(np.int64)
    sizes = np.diff(starts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_CHUNK_VALUES", bound)
        batches = list(_kernels._size_groups(starts, n))
    seen = np.concatenate([chunk for chunk, _ in batches])
    assert np.array_equal(np.sort(seen), np.arange(genes))  # every gene in exactly one batch
    for size in np.unique(sizes):
        lengths = [chunk.size for chunk, _ in batches if sizes[chunk[0]] == size]
        assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1, (size, lengths)
        # within the bound unless one block alone exceeds it, and in as few batches as that allows
        per_batch = max(1, bound // (size * n))
        assert max(lengths) <= per_batch, (size, lengths, bound)
        assert len(lengths) == -(-sum(lengths) // per_batch), (size, lengths, bound)
    for chunk, rows in batches:
        assert (sizes[chunk] == sizes[chunk[0]]).all()
        assert np.array_equal(rows, starts[chunk][:, None] + np.arange(sizes[chunk[0]]))


def test_the_default_dataset_takes_two_equal_batches():
    sizes = np.full(1000, 11)
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    assert [chunk.size for chunk, _ in _kernels._size_groups(starts, 12)] == [500, 500]


# values drawn from a small pool, so blocks hold ties, zero-MAD columns and constant rows
TIE_POOL = [-2.0, -0.5, 0.0, 0.0, 1.0, 1.0, 1.0, 2.5, 3.0, 7.25]


@st.composite
def ragged_cases(draw):
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=24))
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    values = draw(hnp.arrays(np.float64, (int(starts[-1]), n),
                             elements=st.sampled_from(TIE_POOL) | st.floats(-50, 50, width=64)))
    for g in draw(st.lists(st.integers(0, len(sizes) - 1), max_size=3)):
        values[starts[g]:starts[g + 1]] = draw(st.sampled_from(TIE_POOL))  # a constant block
    return values, starts


@settings(max_examples=150, deadline=None)
@given(case=ragged_cases(), bound=st.integers(1, 600), polish_iter=st.sampled_from([1, 2, 3, 20]),
       biweight_iter=st.sampled_from([1, 2, 3, 50]))
def test_any_bound_gives_the_bits_of_one_batch_and_of_each_block_alone(
        case, bound, polish_iter, biweight_iter):
    values, starts = case
    before = values.copy()
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        for chunk_values in (bound, 10**9):
            mp.setattr(_kernels, "_CHUNK_VALUES", chunk_values)
            results[chunk_values] = (
                _kernels.polish_summaries(values, starts, polish_iter, 0.01),
                _kernels.biweight_summaries(values, starts, 5.0, 1e-4, biweight_iter, 1e-9))
    assert np.array_equal(values, before)
    polish, biweight = results[10**9]
    assert results[bound][0].tobytes() == polish.tobytes()
    assert results[bound][1].tobytes() == biweight.tobytes()
    for g, block in enumerate(blocks_of(values, starts)):
        overall, _, col, _ = _kernels.polish_blocks(block.copy()[None], polish_iter, 0.01)
        assert (overall[:, None] + col)[0].tobytes() == polish[g].tobytes(), g
        alone = _kernels.biweight_series(block.T, 5.0, 1e-4, biweight_iter, 1e-9)
        assert alone.tobytes() == biweight[g].tobytes(), g


@settings(max_examples=100, deadline=None)
@given(case=ragged_cases(), max_iter=st.sampled_from([0, 1, 2, 3, 20]))
def test_polish_blocks_of_a_batch_have_the_bits_of_each_block_alone(case, max_iter):
    # blocks converge at different sweeps, so the batch's residuals come back in block order
    values, starts = case
    size = np.diff(starts)[0]
    genes = np.flatnonzero(np.diff(starts) == size)
    batch = _kernels.polish_blocks(values[starts[genes][:, None] + np.arange(size)], max_iter, 0.01)
    for i, g in enumerate(genes):
        alone = _kernels.polish_blocks(values[starts[g]:starts[g + 1]].copy()[None], max_iter, 0.01)
        for got, want in zip(batch, alone):
            assert got[i].tobytes() == want[0].tobytes(), (g, max_iter)


# ---------------------------------------------------------------------------
# the biweight's sums in probe order


def test_add_reduce_down_the_rows_adds_them_one_after_another():
    # the biweight kernel's sums rest on this: numpy adds the rows of a C-ordered
    # p x k array (k >= 2) into the k sums in order, from +0.0
    rng = np.random.default_rng(7)
    for p in range(1, 25):
        for k in [*range(2, 12), 100, 1_000, 5_000]:
            a = rng.standard_normal((p, k)) * 10.0 ** rng.integers(-8, 9, size=(p, k))
            want = np.zeros(k)
            for row in a:
                want = want + row
            assert np.add.reduce(a, axis=0).tobytes() == want.tobytes(), (p, k)
    # but one column of 8 or more values is summed pairwise, so the kernel never sweeps one
    for p in [*range(8, 25), 100, 1_000]:
        a = np.array([1.0] + [2.0**-53] * (p - 1))[:, None]
        assert sequential_sum(a) == 1.0
        assert np.add.reduce(a, axis=0)[0] > 1.0, p


def sequential_biweight(x, max_iter):
    return biweight_oracle(x, 5.0, 1e-4, max_iter, 1e-9, total=sequential_sum)


def assert_series_have_sequential_bits(series, max_iter):
    want = np.array([sequential_biweight(x, max_iter) for x in series])
    got = _kernels.biweight_series(series, 5.0, 1e-4, max_iter, 1e-9)
    assert got.tobytes() == want.tobytes()
    return want


@settings(max_examples=200, deadline=None)
@given(series=st.integers(1, 12).flatmap(lambda p: hnp.arrays(
           np.float64, st.tuples(st.integers(1, 8), st.just(p)),
           elements=st.sampled_from(TIE_POOL) | st.floats(-50, 50, width=64))),
       max_iter=st.sampled_from([1, 2, 3, 50]))
def test_biweight_series_have_the_bits_of_sequential_sums(series, max_iter):
    # in one batch, each alone and each paired with the first
    want = assert_series_have_sequential_bits(series, max_iter)
    for i, x in enumerate(series):
        assert_series_have_sequential_bits(x[None], max_iter)
        paired = _kernels.biweight_series(np.stack([x, series[0]]), 5.0, 1e-4, max_iter, 1e-9)
        assert paired.tobytes() == want[[i, 0]].tobytes(), i


@settings(max_examples=100, deadline=None)
@given(case=ragged_cases(), bound=st.integers(1, 600), max_iter=st.sampled_from([1, 2, 3, 50]))
def test_biweight_summaries_have_the_bits_of_sequential_sums(case, bound, max_iter):
    values, starts = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_CHUNK_VALUES", bound)
        got = _kernels.biweight_summaries(values, starts, 5.0, 1e-4, max_iter, 1e-9)
    want = np.array([[sequential_biweight(x, max_iter) for x in block.T]
                     for block in blocks_of(values, starts)])
    assert got.tobytes() == want.tobytes()


# eleven probes, as in the study: alone, numpy would sum them pairwise, in other bits
SKEWED = [1.13, 0.88, 1.9, 1.11, 0.59, 1.44, 3.68, 2.58, 0.49, 0.28, 0.54]


@pytest.mark.parametrize("series", [
    [[1.0] * 10 + [2.0], [3.0] * 6 + [0.0] * 5, [-0.5] * 11],  # every MAD zero
    [[1.0] * 10 + [2.0], SKEWED, [-0.5] * 11],  # one MAD not zero
    [[5.0], [-1.0]],  # one probe
    [SKEWED],  # a lone series
], ids=["all-zero-mad", "one-nonzero-mad", "one-probe", "alone"])
@pytest.mark.parametrize("max_iter", [1, 2, 3, 50])
def test_biweight_series_of_degenerate_batches(series, max_iter):
    assert_series_have_sequential_bits(np.array(series), max_iter)


def test_biweight_sweeps_the_last_active_series_beside_a_copy(monkeypatch):
    # the symmetric series converges at its first step and the skewed one iterates on
    # alone, as one column taken twice
    taken, never_one = [], _kernels._never_one

    def spy(cols):
        taken.append(cols.size)
        return never_one(cols)

    monkeypatch.setattr(_kernels, "_never_one", spy)
    assert_series_have_sequential_bits(np.array([np.arange(-5.0, 6.0), SKEWED]), 50)
    assert taken == [1, 0]  # the skewed series left alone, then none


# ---------------------------------------------------------------------------
# the summarizers' bits, pinned


def pin_case(name):
    """The values and block starts of one pinned case."""
    if name == "default":  # the study's 1,000 x 11 x 12 dataset, logged
        pm, _ = generate_dataset(SimulationConfig(), 0)
        return np.log2(pm.values), pm.block_starts()
    seed, n = {"ragged-5": (101, 5), "ragged-12": (202, 12), "ragged-7": (303, 7)}[name]
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.cumsum(rng.integers(1, 12, size=200)))).astype(np.int64)
    values = rng.standard_t(3, size=(starts[-1], n))
    values[::3] = np.round(values[::3], 1)  # ties
    values[starts[7]:starts[9]] = 2.5  # two constant blocks
    values[starts[20]:starts[21], 0] = -1.0  # a zero-MAD column
    return values, starts


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def summarizer_digests(values, starts):
    sizes = np.diff(starts)
    fits = []
    for size in np.unique(sizes):  # every block of a size as one batch, residuals included
        rows = starts[np.flatnonzero(sizes == size)][:, None] + np.arange(size)
        fits.extend(_kernels.polish_blocks(values[rows], 20, 0.01))
    fit = median_polish(values[starts[0]:starts[1] + 10])
    return {
        "polish_summaries": digest(_kernels.polish_summaries(values, starts, 20, 0.01)),
        "biweight_summaries": digest(
            _kernels.biweight_summaries(values, starts, 5.0, 1e-4, 50, 1e-9)),
        "polish_blocks": digest(*fits),
        "median_polish": digest(np.array([fit.overall]), fit.row_effects, fit.col_effects,
                                fit.residuals),
    }


# sha256 of each summarizer's output, computed with the kernels of sweeps over gathered copies;
# the biweight's sums run in probe order
SUMMARIZER_PINS = {
    "ragged-5": {
        "polish_summaries": "9a1c92d8d58fbef7692de2f82556a5af0aa85451db44bec13f15a4d2050ca4d4",
        "biweight_summaries": "1bf6204693d049eb271992e344f722b88af8a0be88fd99386a9b08fae0817398",
        "polish_blocks": "52c96853e1f3aa67770b28c2fb001baa1e4e3770597f1fa47b758159e8dd587f",
        "median_polish": "519a92a938a9bdc2f6a2dd166bf636c5811c3d218fdf71f020723d03a20a31e7",
    },
    "ragged-12": {
        "polish_summaries": "053e6d9e8ee2568c634b665c49d6846cb6d789158e622422acb49e5b4bd81898",
        "biweight_summaries": "8247515634b9ac8fb536e0ef1fa9279ba15576a7778a6ff49d4bc058df4ee965",
        "polish_blocks": "f48bb91cd890b08f1d5e7bd4f4dcf49dfa990e7105fe97289f6db414ff711d81",
        "median_polish": "b0d49f4c05a9dac82535b7cba36534d7463cb1d56d82952068e11c9124d0b404",
    },
    "ragged-7": {
        "polish_summaries": "5742feb767d3cd898db5708811549c8dbd5574f1bdb8ab598d838daef5b7dca6",
        "biweight_summaries": "21f9428ea85e55ea92626e60facce5d992869e621b122634ca4782eb15892368",
        "polish_blocks": "d629147f167b123740eb2a6f557ac193c3efd774bbb4d13868f2168f37f2528a",
        "median_polish": "b00aec43675464d01e15468dbf795d249d8f4bb7abf25c083b2d5e25bbbc0282",
    },
    "default": {
        "polish_summaries": "b3d802fc82d7b3a9f3be09f29558cd573cf54d2c6a135cae39e82f9ae80c183c",
        "biweight_summaries": "806f1786b8fb75cebe21d125d5b1663d8ae9fd4e12a9efc4d0525aba21f581d5",
        "polish_blocks": "623d95eda7f533c27d7d8f15347a385413cfefec510da930c39e90fedcbb33e6",
        "median_polish": "efe3b81757313126332b3f82ff2f8f19a571e459b1cb44ec9d4c4ee598cf6574",
    },
}


@pytest.mark.parametrize("name", list(SUMMARIZER_PINS))
def test_summarizers_keep_their_pinned_bits(name):
    assert summarizer_digests(*pin_case(name)) == SUMMARIZER_PINS[name]


def test_summarizers_leave_their_inputs_unchanged():
    values, starts = pin_case("ragged-7")
    block = values[starts[3]:starts[4] + 6]
    series = np.asfortranarray(values[:40, :5].T)  # rows the kernel copies, whatever their layout
    pm = ProbeMatrix(values, np.repeat(np.arange(starts.shape[0] - 1), np.diff(starts)))
    assert pm.values is values  # the probe matrix reads the caller's array in place
    before = values.copy()
    calls = [
        lambda: _kernels.biweight_series(series, 5.0, 1e-4, 50, 1e-9),
        lambda: biweight_location(values[:, 2]),
        lambda: median_polish(block),
        lambda: summarize_genes(pm, "median_polish"),
        lambda: summarize_genes(pm, "biweight"),
    ]
    for call in calls:
        call()
        assert np.array_equal(values, before)
        assert np.array_equal(series, before[:40, :5].T)


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
# the blocked distance loop against the whole-tail loop

# einsum sums a one-row operand of more than 8,192 values in another order than
# the same row inside a larger block, so the distance tests need wider rows
WIDE = 8_193


def _leaves_a_one_row_remainder(n):
    """Whether some row's tail of later rows (2 or more) splits into blocks with one row left."""
    return any(t % _kernels._DIST_ROWS == 1 for t in range(2, n))


def _rows(seed, n, g, sort, duplicates):
    rng = np.random.default_rng(seed)
    x = rng.lognormal(1.0, 1.5, size=(n, g))
    if duplicates and n > 2:
        x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n)]
    if sort:
        x.sort(axis=1)  # curves, as the data path compares them
    return x


def _assert_dists_keep_the_bits_of_the_oracle(x):
    assert _kernels.pairwise_dists(x).tobytes() == pairwise_dists_oracle(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    g=st.sampled_from([1, 7, WIDE, 20_000]) | st.integers(1, 20_000),
    seed=st.integers(0, 2**32 - 1),
    sort=st.booleans(),
    duplicates=st.booleans(),
)
def test_blocked_distances_have_the_bits_of_the_whole_tail_loop(n, g, seed, sort, duplicates):
    _assert_dists_keep_the_bits_of_the_oracle(_rows(seed, n, g, sort, duplicates))


@pytest.mark.parametrize("n", [n for n in range(2, 41) if _leaves_a_one_row_remainder(n)])
def test_no_block_is_one_row_unless_the_tail_is(n):
    # every n whose tails would end in a one-row block, sorted and unsorted, at a width
    # where a one-row einsum rounds differently
    for sort in (False, True):
        _assert_dists_keep_the_bits_of_the_oracle(_rows(n, n, WIDE + n, sort, duplicates=n % 2))


def test_row_blocks_cover_the_tail_without_one_row_blocks():
    for start in range(0, 12):
        for stop in range(start + 1, 40):
            edges = list(_kernels._row_blocks(start, stop))
            assert edges[0][0] == start and edges[-1][1] == stop
            assert all(b == a2 for (_, b), (a2, _) in zip(edges, edges[1:]))
            sizes = [b - a for a, b in edges]
            assert max(sizes) <= _kernels._DIST_ROWS + 1
            assert min(sizes) > 1 or stop - start == 1, (start, stop, sizes)


# ---------------------------------------------------------------------------
# centred_gram_dists against the loop kernel


def gram_dists(x):
    return _kernels.centred_gram_dists(x - x.mean(axis=0))


def assert_close_to_loop(x):
    got = gram_dists(x)
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
    d = gram_dists(np.random.default_rng(3).standard_normal(shape))
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(shape[0]))


def test_gram_dists_of_identical_rows_are_zero():
    x = np.random.default_rng(5).standard_normal((24, 50_000))
    x[[3, 17, 23]] = x[0]
    d = gram_dists(x)
    for i, j in [(0, 3), (0, 17), (0, 23), (3, 17), (17, 23)]:
        assert d[i, j] == d[j, i] == 0.0
    assert (d[1:3, 4:17] > 0).all()


def test_gram_dists_of_rows_apart_by_round_off_are_finite():
    # d² of such a pair can round below 0; it must come back as a small distance
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 1000))
        x[1] = x[0] + 1e-12 * rng.standard_normal(1000)
        d = gram_dists(x)
        assert 0.0 <= d[0, 1] < 1e-6, seed
