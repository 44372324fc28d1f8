"""The batched numpy kernels agree block by block with the oracles."""

import numpy as np
import pytest

from depthnorm import _kernels
from oracles import biweight_oracle, medpolish_oracle

LAYOUTS = {
    "uniform": np.array([0, 11, 22, 33, 44, 55], dtype=np.int64),
    "ragged": np.array([0, 1, 4, 15, 22, 33, 38, 55], dtype=np.int64),
}


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

