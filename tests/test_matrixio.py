"""Text readers/writers for dense and coordinate matrix files."""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monobound import MatrixParseError, format_dense, parse_matrix, read_matrix, write_dense

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
