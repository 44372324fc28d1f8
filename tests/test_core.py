import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depthnorm import (
    ClassPartition,
    DataError,
    DegenerateScaleError,
    DimensionError,
    DomainError,
    EmptyResultError,
    ExpressionMatrix,
    ParseError,
    PartitionError,
    TukeyCalibration,
    column_sort,
    component_wise_median,
    detect_outliers,
    filter_zero_rows,
    linear_prenormalize,
    load_class_labels,
    load_matrix,
    log1_transform,
    normalize_pipeline,
    peel_borders,
    robust_covariance,
    save_matrix,
)
from depthnorm import core
from depthnorm.plots import boxplot_svg, five_number_summaries

from oracles import load_matrix_oracle, save_matrix_one_shot_oracle, save_matrix_oracle


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

    def test_quoted_first_row_is_a_verbatim_header(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text('\n"20","10"\n1,2\n')
        assert load_matrix(f).sample_ids == ("20", "10")
        assert load_matrix(f, has_header=False).n_features == 2
        f.write_text('"a"," b "\n1,2\n')
        assert load_matrix(f).sample_ids == ("a", " b ")

    def test_unquoted_header_is_stripped(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a , b\n1,2\n")
        assert load_matrix(f).sample_ids == ("a", "b")


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestSaveMatrix:
    @pytest.mark.parametrize("ids, header", [
        (("20", "10"), '"20","10"'),
        ((" a", "b"), '" a","b"'),
        (("nan", "inf"), '"nan","inf"'),
        (("S01", "S02"), "S01,S02"),
    ])
    def test_ids_that_read_as_numbers_or_padded_are_quoted(self, tmp_path, ids, header):
        m = ExpressionMatrix(np.array([[0.5, 1.5], [2.0, 3.0], [4.0, 5.0]]), ids)
        f = tmp_path / "m.csv"
        save_matrix(m, f)
        assert f.read_bytes().split(b"\r\n")[0] == header.encode()
        back = load_matrix(f)
        assert back.sample_ids == ids and _bits(back.values) == _bits(m.values)

    def test_default_ids_write_no_header(self, tmp_path):
        f = tmp_path / "m.csv"
        save_matrix(ExpressionMatrix(np.array([[0.5, -0.0]])), f)
        assert f.read_bytes() == b"0.5,-0.0\r\n"

    def test_txt_is_tab_separated_both_ways(self, tmp_path):
        m = ExpressionMatrix(np.array([[0.5, 1.5]]), ("a", "b"))
        f = tmp_path / "m.txt"
        save_matrix(m, f)
        assert f.read_bytes() == b"a\tb\r\n0.5\t1.5\r\n"
        assert _bits(load_matrix(f).values) == _bits(m.values)

    def test_id_beyond_the_csv_field_limit_is_a_data_error(self, tmp_path):
        m = ExpressionMatrix(np.zeros((1, 2)), ("x" * 200_000, "b"))
        with pytest.raises(DataError, match="longer than a CSV field"):
            save_matrix(m, tmp_path / "m.csv")

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        g=st.integers(1, 4),
        n=st.integers(2, 4),
        suffix=st.sampled_from([".csv", ".tsv", ".txt"]),
    )
    def test_save_then_load_is_exact(self, tmp_path, data, g, n, suffix):
        # finite floats include -0.0 and the subnormals
        values = data.draw(hnp.arrays(
            np.float64, (g, n), elements=st.floats(allow_nan=False, allow_infinity=False)
        ))
        ids = data.draw(st.none() | st.lists(st.text(), min_size=n, max_size=n).map(tuple))
        m = ExpressionMatrix(values, ids or ())
        f = tmp_path / f"m{suffix}"
        save_matrix(m, f)
        back = load_matrix(f)
        assert back.sample_ids == m.sample_ids
        assert back.values.shape == m.values.shape
        assert _bits(back.values) == _bits(m.values)


def _delimiter_of(suffix: str) -> str:
    return "," if suffix == ".csv" else "\t"


def _assert_loads_like_oracle(f, has_header=None):
    """load_matrix gives the oracle's ids and bits, or a DataError with its message."""
    try:
        values, ids = load_matrix_oracle(f, _delimiter_of(f.suffix), has_header)
    except ValueError as e:
        with pytest.raises(DataError) as got:
            load_matrix(f, has_header=has_header)
        assert str(got.value) == str(e)
        return None
    m = load_matrix(f, has_header=has_header)
    assert m.sample_ids == ids
    assert m.values.shape == values.shape and _bits(m.values) == _bits(values)
    return m


NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# read by float() and not by loadtxt, or the other way round ("1\x1c")
SPELLING = st.sampled_from([" 2 ", "+.5", "1e5", "-0", "1_0", "\u0661", "\xa01", "1\x1c", "\x1f2"])
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _cells(delimiter, noisy):
    """Numbers, odd spellings and, in a noisy file, junk and quoted cells."""
    if not noisy:
        return NUMBER | NUMBER | NUMBER | SPELLING
    junk = st.text(alphabet="0123456789+-.e_ \"\r\n\x1c\u0661" + delimiter, max_size=5)
    plain = NUMBER | SPELLING | NON_FINITE | junk
    return plain | plain.map(lambda c: f'"{c}"')


@st.composite
def matrix_files(draw):
    """Text of a small matrix file; half are noisy, with ragged rows and odd cells."""
    suffix = draw(st.sampled_from([".csv", ".tsv"]))
    delimiter = _delimiter_of(suffix)
    noisy = draw(st.booleans())
    width = draw(st.integers(1 if noisy else 2, 4))
    widths = st.sampled_from([width, width, width, width + 1, max(width - 1, 1)])
    rows = []
    if draw(st.booleans()):
        ids = st.text(alphabet="ab12 \"\n" + delimiter, max_size=3) | NUMBER
        header = draw(st.lists(ids, min_size=width, max_size=width))
        rows.append(draw(st.sampled_from([
            delimiter.join(header), delimiter.join(f'"{i}"' for i in header)
        ])))
    for _ in range(draw(st.integers(0 if noisy else 1, 4))):
        w = draw(widths) if noisy else width
        cells = draw(st.lists(_cells(delimiter, noisy), min_size=w, max_size=w))
        rows.append(delimiter.join(cells))
    text = ""
    for row in rows:
        blank = st.sampled_from(["", "", "\n", "\r\n"] + ([" \n"] if noisy else []))
        text += draw(blank) + row + draw(LINE_ENDS)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return suffix, text


class TestLoadMatrixParity:
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=matrix_files(), has_header=st.sampled_from([None, None, True, False]))
    def test_matches_the_per_row_oracle(self, tmp_path, drawn, has_header):
        suffix, text = drawn
        f = tmp_path / f"m{suffix}"
        with open(f, "w", newline="") as fh:
            fh.write(text)
        _assert_loads_like_oracle(f, has_header)

    @pytest.mark.parametrize("text, values", [
        ("1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
        ("\u0661,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n3\x1c,4\n", None),  # loadtxt strips \x1c as whitespace; float() refuses it
        ('1,"2"\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
        ('1,"2\n",3\n', [[1.0, 2.0, 3.0]]),  # a quoted line break
        ("1,2\n", [[1.0, 2.0]]),  # a 1 x 2 headerless file
        ("a,b\n\n\r\n", None),  # header but no data rows
        ("a,b,c\n1,2\n", None),
    ])
    def test_spellings_and_edge_files(self, tmp_path, text, values):
        f = tmp_path / "m.csv"
        with open(f, "w", newline="") as fh:
            fh.write(text)
        m = _assert_loads_like_oracle(f)
        assert (m is None) == (values is None)
        if values is not None:
            assert _bits(m.values) == _bits(np.array(values))

    def test_numeric_field_over_the_csv_limit_names_the_file(self, tmp_path):
        f = tmp_path / "long.csv"
        f.write_text("a,b\n" + "1" * 200_000 + ",2\n")
        with pytest.raises(ParseError, match="field larger than field limit") as got:
            load_matrix(f)
        assert str(got.value).startswith(f"{f}:")
        _assert_loads_like_oracle(f)

    def test_a_plain_file_needs_no_per_row_parse(self, tmp_path, monkeypatch):
        m = ExpressionMatrix(np.arange(12.0).reshape(4, 3) / 7, ("20", " b", "c"))
        f = tmp_path / "m.csv"
        save_matrix(m, f)

        def per_row(*args):
            raise AssertionError("fell back to the per-row parse")

        monkeypatch.setattr(core, "_parse_rows", per_row)
        back = load_matrix(f)
        assert back.sample_ids == m.sample_ids and _bits(back.values) == _bits(m.values)


SUFFIXES = [".csv", ".tsv", ".txt"]
REPEATED = np.repeat(np.arange(1.0, 51.0) / 3, 4).reshape(50, 4)


def _assert_saves_like_oracle(m, directory, suffix, oracle=save_matrix_oracle):
    f, want = directory / f"m{suffix}", directory / f"want{suffix}"
    save_matrix(m, f)
    oracle(m.values, m.sample_ids, want, _delimiter_of(suffix))
    assert f.read_bytes() == want.read_bytes()
    return f


class TestSaveMatrixBytes:
    @pytest.mark.parametrize("suffix", SUFFIXES)
    @pytest.mark.parametrize("values, ids", [
        (np.sort(REPEATED[::-1], axis=0), ("S1", "S2", "S3", "S4")),
        (np.array([[-0.0, 0.0], [0.0, -0.0], [1.0, -1.0]]), ()),
        (np.array([[5e-324, -5e-324], [2.2250738585072e-310, 1e-320]]), ("a", "b")),
        (np.array([[1.5, 2.5], [1.5, 1.5]]), ()),
        (np.array([[1.5, 2.5], [1.5, 1.5]]), ("20", "10")),
        (np.array([[1.5, 2.5], [1.5, 1.5]]), (" a", 'b"c')),
    ], ids=["repeated", "signed-zeros", "subnormals", "default-ids", "numeric-ids", "padded-ids"])
    def test_same_bytes_as_csv_writer(self, tmp_path, suffix, values, ids):
        _assert_saves_like_oracle(ExpressionMatrix(values, ids), tmp_path, suffix)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), suffix=st.sampled_from(SUFFIXES))
    def test_drawn_matrices_match_csv_writer(self, tmp_path, data, suffix):
        pool = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=1, max_size=4))
        g, n = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 4))
        values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=g * n,
                                             max_size=g * n))).reshape(g, n)
        ids = data.draw(st.none() | st.lists(st.text(), min_size=n, max_size=n).map(tuple))
        _assert_saves_like_oracle(ExpressionMatrix(values, ids or ()), tmp_path, suffix)


# values whose reprs are the corner cases: signed zeros, subnormals, the largest finite
CORNER_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.1, 1e16, 1.0]
FINITE = st.sampled_from(CORNER_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "transposed": lambda v: np.ascontiguousarray(v.T).T,
}


def _assert_saves_like_one_shot(m, directory, suffix):
    back = load_matrix(_assert_saves_like_oracle(m, directory, suffix, save_matrix_one_shot_oracle))
    assert back.sample_ids == m.sample_ids and _bits(back.values) == _bits(m.values)


class TestBlockedSaveMatrix:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        suffix=st.sampled_from(SUFFIXES),
        block_cells=st.integers(1, 12),
        repeated=st.booleans(),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )
    def test_blocks_write_the_bytes_of_the_one_shot_table(
        self, tmp_path, monkeypatch, data, suffix, block_cells, repeated, layout
    ):
        monkeypatch.setattr(core, "_WRITE_CELLS", block_cells)
        n = data.draw(st.integers(2, 5))
        if repeated:  # few distinct values: the table branch
            g = data.draw(st.integers(2, 9))
            pool = data.draw(st.lists(FINITE, min_size=1,
                                      max_size=g * n // 2))
            cells = data.draw(st.lists(st.sampled_from(pool), min_size=g * n, max_size=g * n))
        else:  # every value distinct: each block formats its own cells
            g = data.draw(st.integers(1, 9))
            cells = data.draw(st.lists(FINITE, min_size=g * n, max_size=g * n,
                                       unique_by=lambda v: struct.pack("<d", v)))
        values = LAYOUTS[layout](np.array(cells, dtype=np.float64).reshape(g, n))
        ids = data.draw(st.none() | st.lists(st.text(), min_size=n, max_size=n).map(tuple))
        m = ExpressionMatrix(values, ids or ())
        assert (core._text_table(m.values)[0] is None) == (not repeated)
        _assert_saves_like_one_shot(m, tmp_path, suffix)

    @pytest.mark.parametrize("suffix", SUFFIXES)
    @pytest.mark.parametrize("g", [1, 2, 7, 50])
    @pytest.mark.parametrize("repeated", [True, False], ids=["table", "direct"])
    def test_row_counts_off_the_block_size(self, tmp_path, monkeypatch, suffix, g, repeated):
        monkeypatch.setattr(core, "_WRITE_CELLS", 9)  # two rows of 4 per block
        rng = np.random.default_rng(g)
        values = rng.standard_normal((g, 4))
        if repeated:  # at most one distinct value per row of 4
            values = np.sort(rng.choice([-0.0, 0.0, 1.5, -2.25][:g], size=(g, 4)), axis=0)
        ids = ("a", "b", "c", "d") if g % 2 else ()
        m = ExpressionMatrix(values, ids)
        assert (core._text_table(m.values)[0] is None) == (not repeated)
        _assert_saves_like_one_shot(m, tmp_path, suffix)


    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(sorted(LAYOUTS)))
    def test_distinct_bits_are_the_unique_bits_up_to_half_the_cells(self, data, layout):
        g, n = data.draw(st.integers(1, 12)), data.draw(st.integers(2, 6))
        pool = data.draw(st.lists(FINITE, min_size=1, max_size=g * n))
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=g * n, max_size=g * n))
        values = LAYOUTS[layout](np.array(cells, dtype=np.float64).reshape(g, n))
        unique = np.unique(values.view(np.int64))
        distinct = core._distinct_bits(values)
        if 2 * unique.size > g * n:
            assert distinct is None
        else:
            assert distinct.tolist() == unique.tolist()

    @pytest.mark.parametrize("suffix", SUFFIXES)
    @pytest.mark.parametrize("block_cells", [3, 30])
    def test_table_of_the_widest_reprs_signed_zeros_and_subnormals(
        self, tmp_path, monkeypatch, suffix, block_cells
    ):
        # 24-character reprs fill a table row to its end; -0.0 and 0.0 are two entries
        monkeypatch.setattr(core, "_WRITE_CELLS", block_cells)
        pool = [-2.2250738585072014e-308, -1.7976931348623157e308, -0.0, 0.0, 5e-324,
                -5e-324, 2.2250738585072e-310, -1e-320, 0.1, 1.5]
        assert max(len(repr(v)) for v in pool) == core._TEXT_WIDTH
        rng = np.random.default_rng(24)
        m = ExpressionMatrix(rng.permutation(np.resize(pool, 120)).reshape(40, 3), ("a", "b", "c"))
        assert core._text_table(m.values)[0] is not None
        _assert_saves_like_one_shot(m, tmp_path, suffix)

    def test_values_recurring_across_blocks_between_both_branches(self, tmp_path, monkeypatch):
        # every block of two rows looks up the same few table entries; an all-distinct
        # save between two table saves formats its own cells and leaves nothing behind
        monkeypatch.setattr(core, "_WRITE_CELLS", 8)
        rng = np.random.default_rng(5)
        pool = np.array([-0.0, 0.0, 5e-324, 0.1, -2.5, 1.7976931348623157e308])
        repeated = ExpressionMatrix(rng.choice(pool, size=(60, 4)), ("a", "b", "c", "d"))
        distinct = ExpressionMatrix(rng.standard_normal((30, 4)))
        for m, table in ((repeated, True), (distinct, False), (repeated, True)):
            assert (core._text_table(m.values)[0] is None) == (not table)
            _assert_saves_like_one_shot(m, tmp_path, ".csv")

    @pytest.mark.parametrize("n", [2, 3, 24])
    def test_quantile_output_formats_each_distinct_value_once(self, tmp_path, monkeypatch, n):
        # at most one distinct value per row: even two columns take the table
        values = np.random.default_rng(n).lognormal(6.0, 1.2, size=(300, n))
        out = normalize_pipeline(linear_prenormalize(ExpressionMatrix(values), "median")).matrix
        formatted = []
        monkeypatch.setattr(core, "repr", lambda v: formatted.append(v) or float.__repr__(v),
                            raising=False)
        _assert_saves_like_one_shot(out, tmp_path, ".csv")
        assert len(formatted) == np.unique(out.values).size


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

    @pytest.mark.parametrize("layout", ["F", "transposed", "strided"])
    def test_library_calls_leave_a_callers_non_contiguous_array_alone(self, tmp_path, layout):
        # such an array is wrapped, not copied: no call may write through the view
        base = np.random.default_rng(8).lognormal(1.0, 1.0, size=(40, 6))
        arr = {"F": np.asfortranarray(base),
               "transposed": np.ascontiguousarray(base.T).T,
               "strided": np.repeat(base, 2, axis=0)[::2]}[layout]
        before = arr.copy()
        m = ExpressionMatrix(arr, ("a", "b", "c", "d", "e", "f"))
        column_sort(m)
        linear_prenormalize(m)
        log1_transform(m)
        filter_zero_rows(m, 6)
        component_wise_median(m)
        normalize_pipeline(m)
        normalize_pipeline(m, reference="component_median", knots=5)
        peel_borders(m)
        robust_covariance(m)
        detect_outliers(m, TukeyCalibration.fixed(1.5), ClassPartition((1, 1, 1, 2, 2, 2)))
        save_matrix(m, tmp_path / "m.csv")
        assert arr.flags.writeable
        assert _bits(arr) == _bits(before)


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

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        m = ExpressionMatrix(rng.normal(size=(25, 3)))
        once = column_sort(m)
        assert np.array_equal(column_sort(once).values, once.values)

    def test_ties_preserved(self):
        m = ExpressionMatrix(np.array([[2.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(column_sort(m).values[:, 0], [1, 2, 2])

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(2, 6)),
                      elements=st.sampled_from([-0.0, 0.0, 1.0, -1.0, 5e-324]) | FINITE))
    def test_values_are_np_sort_bit_for_bit(self, values):
        # -0.0 and 0.0 tie: each lands where np.sort puts it
        got = column_sort(ExpressionMatrix(values)).values
        assert _bits(got) == _bits(np.sort(values, axis=0))

    def test_curves_are_the_rows_of_one_c_contiguous_array(self):
        m = ExpressionMatrix(np.random.default_rng(3).normal(size=(25, 4)))
        curves = column_sort(m).values.T
        assert curves.flags.c_contiguous
        assert np.shares_memory(np.ascontiguousarray(curves), curves)


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

    def test_mean_anchor_factors(self):
        m = ExpressionMatrix(np.array([[1.0, 10.0], [3.0, 30.0]]))
        out = linear_prenormalize(m, "mean")
        # column means 2 and 20, grand anchor 11, factors 5.5 and 0.55
        assert np.allclose(out.values[:, 0], [5.5, 16.5])
        assert np.allclose(out.values[:, 1], [5.5, 16.5])

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

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(0, 20),
        parity=st.sampled_from([0, 1]),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )
    def test_anchors_by_column_keep_the_bits_along_axis_0(self, data, rows, parity, layout):
        # odd and even row counts, ties, and -0.0 beside 0.0
        g, n = 2 * rows + parity or 2, data.draw(st.integers(1, 5))
        moderate = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.0, 1.0 + 2**-52]) | st.floats(
            -1e300, 1e300, allow_nan=False)
        pool = data.draw(st.lists(moderate, min_size=1, max_size=g * n))
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=g * n, max_size=g * n))
        values = LAYOUTS[layout](np.array(cells, dtype=np.float64).reshape(g, n))
        assert core._anchor_stat(values, "median").tobytes() == np.median(values, axis=0).tobytes()
        assert (core._anchor_stat(values, "q75").tobytes()
                == np.quantile(values, 0.75, axis=0).tobytes())



@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=st.integers(1, 41), layout=st.sampled_from(sorted(LAYOUTS)))
def test_boxplot_summaries_by_column_keep_the_bits_along_axis_0(data, g, layout):
    # log(x + 1) of non-negative values with ties, zeros and subnormals
    n = data.draw(st.integers(2, 5))
    pool = data.draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.0 + 2**-52])
                              | st.floats(0.0, 1e300), min_size=1, max_size=g * n))
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=g * n, max_size=g * n))
    m = ExpressionMatrix(LAYOUTS[layout](np.array(cells, dtype=np.float64).reshape(g, n)))
    want = np.quantile(np.log1p(m.values), [0.0, 0.25, 0.5, 0.75, 1.0], axis=0)
    assert five_number_summaries(m).tobytes() == want.tobytes()

def test_boxplot_of_a_constant_matrix_spans_one_unit():
    # every summary is log(5): the axis runs from log(5) to log(5) + 1, padded by 5 %
    svg = boxplot_svg(ExpressionMatrix(np.full((3, 2), 4.0)))
    ticks = re.findall(r'font-size="10">([^<]*)</text>', svg)[:5]
    assert ticks == ["1.56", "1.83", "2.11", "2.38", "2.66"]
    assert "nan" not in svg and "inf" not in svg


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
            ClassPartition((0, 1, 1))

    def test_load_from_file_and_inline(self, tmp_path):
        f = tmp_path / "labels.txt"
        f.write_text("1\n1\n2\n2\n")
        assert load_class_labels(str(f), 4).labels == (1, 1, 2, 2)
        assert load_class_labels("1,1,2,2", 4).labels == (1, 1, 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(PartitionError):
            load_class_labels("1,1,2", 4)

    def test_non_integer_label_in_a_file(self, tmp_path):
        f = tmp_path / "labels.txt"
        f.write_text("1\n1.5\n2\n2\n")
        with pytest.raises(ParseError, match="^class labels must be integers: .*'1.5'"):
            load_class_labels(str(f), 4)
