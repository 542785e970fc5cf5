"""Text readers/writers for dense and coordinate matrix files."""

from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monobound import (
    MatrixParseError,
    format_dense,
    matrixio,
    parse_matrix,
    read_matrix,
    write_dense,
)

DENSE_SAMPLE = """\
# three by three
3
1.6 0 -0.6
-0.4 1.4 0
-0.2 -0.4 1.6
"""

COORD_SAMPLE = """\
3 4
1 1 2.0
1 3 -0.5
2 2 1.0
3 3 4.0
"""


def test_parse_dense():
    a = parse_matrix(DENSE_SAMPLE)
    assert a.shape == (3, 3)
    assert a[0, 2] == -0.6
    assert a[2, 1] == -0.4


def test_parse_coord():
    a = parse_matrix(COORD_SAMPLE)
    expected = np.array([[2.0, 0.0, -0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 4.0]])
    assert np.array_equal(a, expected)


def test_autodetect():
    assert parse_matrix(DENSE_SAMPLE).shape == (3, 3)
    assert parse_matrix(COORD_SAMPLE)[0, 2] == -0.5


def test_blank_lines_and_comments_ignored():
    text = "\n# header comment\n\n2\n1 0\n\n# middle\n0 1\n\n"
    assert np.array_equal(parse_matrix(text), np.eye(2))


def test_dense_row_count_mismatch():
    with pytest.raises(MatrixParseError, match="expected 3"):
        parse_matrix("3\n1 0 0\n0 1 0\n")
    with pytest.raises(MatrixParseError, match="unexpected content"):
        parse_matrix("2\n1 0\n0 1\n0 0\n")


def test_dense_row_width_mismatch():
    with pytest.raises(MatrixParseError, match="expected 3"):
        parse_matrix("3\n1 0\n0 1 0\n0 0 1\n")


def test_bad_tokens_report_line_numbers():
    with pytest.raises(MatrixParseError, match=":2:"):
        parse_matrix("2\n1 oops\n0 1\n")
    with pytest.raises(MatrixParseError, match=":1:"):
        parse_matrix("x\n1 0\n0 1\n")


def test_nonfinite_rejected():
    with pytest.raises(MatrixParseError, match="finite"):
        parse_matrix("2\n1 nan\n0 1\n")


def test_coord_errors():
    with pytest.raises(MatrixParseError, match="duplicate"):
        parse_matrix("2 2\n1 1 1.0\n1 1 2.0\n")
    with pytest.raises(MatrixParseError, match="outside"):
        parse_matrix("2 1\n3 1 1.0\n")
    with pytest.raises(MatrixParseError, match="'i j value'"):
        parse_matrix("2 1\n1 1\n")
    with pytest.raises(MatrixParseError, match="expected 2 entry lines"):
        parse_matrix("2 2\n1 1 1.0\n")


def test_empty_input():
    with pytest.raises(MatrixParseError, match="no content"):
        parse_matrix("# nothing here\n")


def test_header_shape_detection():
    with pytest.raises(MatrixParseError, match="header"):
        parse_matrix("2 3 4\n")


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(97)
    a = rng.standard_normal((5, 5))
    path = tmp_path / "roundtrip.txt"
    write_dense(a, path)
    assert np.array_equal(read_matrix(path), a)


def test_format_dense_layout():
    text = format_dense(np.array([[1.0, -0.5], [0.25, 2.0]]))
    lines = text.splitlines()
    assert lines[0] == "2"
    assert lines[1].split() == ["1", "-0.5"]
    assert text.endswith("\n")


def _format_coord(a):
    """Coordinate text listing every entry of ``a`` other than +0.0."""
    rows, cols = np.nonzero((a != 0.0) | np.signbit(a))
    lines = [f"{a.shape[0]} {len(rows)}"]
    lines += [f"{i + 1} {j + 1} {a[i, j]:.17g}" for i, j in zip(rows, cols)]
    return "\n".join(lines) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: hnp.arrays(np.float64, (n, n), elements=FINITE)))
def test_header_decides_format_and_round_trips_bit_exactly(a):
    for text in (format_dense(a), _format_coord(a)):
        b = parse_matrix(text)
        assert b.shape == a.shape
        assert np.array_equal(b.view(np.uint64), a.view(np.uint64))


def _numpy_rows(text):
    """The numpy path's result on dense ``text``: None means fallback."""
    lines = matrixio._content_lines(text)
    return matrixio._dense_rows_numpy(int(lines[0][1]), lines[1:])


def _outcome(text):
    """The parsed matrix's bits, or the error message."""
    try:
        return parse_matrix(text).view(np.uint64).tolist()
    except MatrixParseError as err:
        return str(err)


def _per_token_outcome(text):
    """:func:`_outcome` with the numpy path switched off: the reference."""
    with mock.patch.object(matrixio, "_dense_rows_numpy", return_value=None):
        return _outcome(text)


def test_numpy_path_reads_format_dense_output():
    a = np.random.default_rng(5).standard_normal((6, 6))
    fast = _numpy_rows(format_dense(a))
    assert fast is not None
    assert np.array_equal(fast.view(np.uint64), a.view(np.uint64))


def test_fallback_on_row_width():
    text = "3\n1 0 0\n0 1\n0 0 1\n"
    assert _numpy_rows(text) is None
    with pytest.raises(MatrixParseError) as err:
        parse_matrix(text)
    assert str(err.value) == "<input>:3: row 2 has 2 entries, expected 3"


def test_fallback_on_non_finite_value():
    text = "2\n1 0\n1e400 1\n"
    assert _numpy_rows(text) is None
    with pytest.raises(MatrixParseError) as err:
        parse_matrix(text)
    assert str(err.value) == "<input>:3: entries must be finite, got '1e400'"


def test_fallback_on_token_only_float_accepts():
    # numpy stops at the underscore, the Arabic-Indic digit and the em space.
    text = "2\n1_000 0\n0\u2003\u0661\n"
    assert _numpy_rows(text) is None
    assert np.array_equal(parse_matrix(text), np.diag([1000.0, 1.0]))


def test_fallback_on_token_only_numpy_accepts():
    # numpy reads nan(123) as a NaN; float() rejects it, and so does the file.
    text = "2\n1 nan(123)\n0 1\n"
    assert _numpy_rows(text) is None
    with pytest.raises(MatrixParseError) as err:
        parse_matrix(text)
    assert str(err.value) == "<input>:2: expected a real number, got 'nan(123)'"


SPLICED_TOKENS = [
    "1_000", "\u0661", "infinity", "1e400", "nan(123)", "1e-400", "4.9e-324", "-0",
    "1-2", "0x10", "1,5", "1e", ".",
]
SEPARATORS = [" ", "\t", "\x0b", "\u2003", "\xa0"]


def _rare(draw, common, rare, one_in):
    """``common``, or a draw from ``rare`` one time in ``one_in``."""
    return draw(st.sampled_from(rare)) if draw(st.integers(1, one_in)) == 1 else common


@st.composite
def dense_texts(draw):
    """Dense text of finite floats in repr or .17g form, with a few tokens
    replaced by SPLICED_TOKENS, a few separators other than one space, a few
    rows one token short or long, and a few trailing comments."""
    n = draw(st.integers(1, 5))
    lines = [str(n)]
    for _ in range(n):
        width = n + _rare(draw, 0, [-1, 1], 12)
        tokens = [
            _rare(draw, draw(st.sampled_from([repr, "{:.17g}".format]))(draw(FINITE)),
                  SPLICED_TOKENS, 25)
            for _ in range(width)
        ]
        line = "".join(_rare(draw, " ", SEPARATORS, 25) + token for token in tokens)
        lines.append(line + _rare(draw, "", [" # c"], 10))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(dense_texts())
def test_numpy_path_agrees_with_per_token_parser(text):
    assert _outcome(text) == _per_token_outcome(text)
