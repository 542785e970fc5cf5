"""Text readers/writers for dense and coordinate matrix files."""

from decimal import Decimal
from unittest import mock

import time

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
    rows = "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in a)
    assert format_dense(a) == f"{a.shape[0]}\n{rows}"
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
    """:func:`_outcome` with every numpy path switched off: the reference."""
    with (
        mock.patch.object(matrixio, "_dense_rows_numpy", return_value=None),
        mock.patch.object(matrixio, "_coord_numpy", return_value=None),
        mock.patch.object(matrixio, "_plain_dense_numpy", return_value=None),
    ):
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


def test_numpy_path_reads_plain_coordinate_text():
    # Tabs, a leading zero, and values in every form the plain grammar takes.
    text = "3\t5\n1 1 -0\n01 2 .5\n2\t3 5.\n3 1 +.5e-3\n3 3 1E-400\n"
    fast = matrixio._coord_numpy(text.encode())
    assert fast is not None
    assert fast.view(np.uint64).tolist() == _per_token_outcome(text)
    assert np.signbit(fast[0, 0]) and fast[0, 1] == 0.5 and fast[2, 0] == 5e-4
    assert np.array_equal(matrixio._coord_numpy(b"2 0\n"), np.zeros((2, 2)))


PLAIN = np.array([[1.5, 0.0], [-2.0, 0.0]])

# One text per way plain coordinate text can be left: each goes to the
# per-token parser, which returns PLAIN or raises the message given.
COORD_FALLBACKS = {
    "comment": ("# c\n2 2\n1 1 1.5\n2 1 -2\n", PLAIN),
    "blank_line": ("2 2\n\n1 1 1.5\n2 1 -2\n", PLAIN),
    "crlf": ("2 2\r\n1 1 1.5\r\n2 1 -2\r\n", PLAIN),
    "leading_blank": ("2 2\n 1 1 1.5\n2 1 -2\n", PLAIN),
    "trailing_blank": ("2 2\n1 1 1.5 \n2 1 -2\n", PLAIN),
    "no_final_newline": ("2 2\n1 1 1.5\n2 1 -2", PLAIN),
    "unicode_space": ("2 2\n1\xa01 1.5\n2 1 -2\n", PLAIN),
    "signed_index": ("2 2\n+1 1 1.5\n2 1 -2\n", PLAIN),
    "underscore_index": ("2 2\n0_1 1 1.5\n2 1 -2\n", PLAIN),
    "non_ascii_index": ("2 2\n١ 1 1.5\n2 1 -2\n", PLAIN),
    "sixteen_digit_index": ("2 2\n0000000000000001 1 1.5\n2 1 -2\n", PLAIN),
    "underscore_value": ("2 2\n1 1 1_5e-1\n2 1 -2\n", PLAIN),
    "real_index": (
        "2 2\n1.0 1 1.5\n2 1 -2\n",
        "<input>:2: row index must be an integer, got '1.0'",
    ),
    "duplicate": (
        "2 2\n1 1 1.5\n1 1 -2\n",
        "<input>:3: duplicate entry for position (1, 1)",
    ),
    "zero_index": ("2 2\n1 1 1.5\n0 1 -2\n", "<input>:3: row index 0 outside 1..2"),
    "index_past_n": ("2 2\n1 3 1.5\n2 1 -2\n", "<input>:2: column index 3 outside 1..2"),
    "too_few_lines": ("2 3\n1 1 1.5\n2 1 -2\n", "<input>: expected 3 entry lines, found 2"),
    "too_many_lines": (
        "2 1\n1 1 1.5\n2 1 -2\n",
        "<input>:3: unexpected content after 1 entry lines",
    ),
    "zero_dimension": ("0 0\n", "<input>:1: dimension must be positive, got 0"),
    "overflowing_value": (
        "2 2\n1 1 1e400\n2 1 -2\n",
        "<input>:2: entries must be finite, got '1e400'",
    ),
    "infinite_value": (
        "2 2\n1 1 1.5\n2 1 -inf\n",
        "<input>:3: entries must be finite, got '-inf'",
    ),
    "hexadecimal_value": (
        "2 2\n1 1 0x10\n2 1 -2\n",
        "<input>:2: expected a real number, got '0x10'",
    ),
    "value_with_inner_sign": (
        "2 2\n1 1 1-2\n2 1 -2\n",
        "<input>:2: expected a real number, got '1-2'",
    ),
}


@pytest.mark.parametrize("text, expected", COORD_FALLBACKS.values(), ids=COORD_FALLBACKS.keys())
def test_coordinate_fallback(text, expected):
    assert matrixio._coord_numpy(text.encode()) is None
    if isinstance(expected, str):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(text)
        assert str(err.value) == expected
    else:
        assert np.array_equal(parse_matrix(text), expected)


# Long enough that a quadratic match takes seconds, short enough that it
# fails the test instead of hanging it (about 4 s against 0.1 ms on a
# 2-vCPU 2.1 GHz VM; ten times longer would take minutes per case).
LONG = 10_000


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n" + "1" * LONG + " 1 1.0\n",
        "2 1\n1 1 " + "1" * LONG + "x\n",
        "2 1\n1 1 1." + "0" * LONG + "e5x\n",
        "2 1\n1 1 -." + "0" * LONG + "1\n",
        "2 1\n1 1 " + "1" * LONG + "\n",
        f"2 {LONG // 8}\n" + "1 1 1.0\n" * (LONG // 8) + "x",
    ],
    ids=["index", "value_digits", "value_fraction", "small_value", "huge_value", "many_lines"],
)
def test_plain_form_check_is_linear_in_token_length(text):
    # A grammar with two ways to split a run of digits would backtrack
    # quadratically in the failing cases here.
    start = time.perf_counter()
    matrixio._coord_numpy(text.encode())
    assert time.perf_counter() - start < 0.5
    assert _outcome(text) == _per_token_outcome(text)


COORD_INDEX_SPLICES = ["+{}", "0{}", "{}.0", "{}_0", "0_{}", "١", "0", "{n1}", "0" * 15 + "{}"]
COORD_VALUE_SPLICES = [
    "-0", ".5", "5.", "+.5e-3", "1e-400", "4.9e-324", "1e400", "1-2", "0x10", "inf", "nan",
    "1_0", "1e", ".",
]


@st.composite
def coord_texts(draw):
    """Coordinate text of finite floats in repr or .17g form, then up to three
    changes, each of which may leave the plain form: an awkward index or
    value token, a tab or Unicode separator, a CRLF, blank, comment or
    leading-blank line, a duplicated position, a wrong header count or
    dimension, or no final newline."""
    n = draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), unique=True))
    fmt = draw(st.sampled_from([repr, "{:.17g}".format]))
    lines = [[str(n), str(len(cells))]]
    lines += [[str(i), str(j), fmt(draw(FINITE))] for i, j in cells]
    seps = [" "] * len(lines)
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        change = draw(st.sampled_from(
            ["index", "value", "sep", "end", "lead", "dup", "count", "dim", "final"]
        ))
        entry = row > 0
        if change == "index" and entry:
            col = draw(st.integers(0, 1))
            splice = draw(st.sampled_from(COORD_INDEX_SPLICES))
            lines[row][col] = splice.format(lines[row][col], n1=n + 1)
        elif change == "value" and entry:
            lines[row][2] = draw(st.sampled_from(COORD_VALUE_SPLICES))
        elif change == "sep":
            seps[row] = draw(st.sampled_from(["\t", "\xa0", "  ", " \t"]))
        elif change == "end":
            ends[row] = draw(st.sampled_from(["\r\n", " \n", "\n\n", "\n# c\n"]))
        elif change == "lead":
            lines[row][0] = " " + lines[row][0]
        elif change == "dup" and row > 1:
            lines[row][:2] = lines[row - 1][:2]
        elif change == "count":
            lines[0][1] = str(len(cells) + draw(st.sampled_from([-1, 1])))
        elif change == "dim":
            lines[0][0] = "0"
        elif change == "final":
            ends[-1] = ""
    return "".join(sep.join(tokens) + end for tokens, sep, end in zip(lines, seps, ends))


@settings(max_examples=300, deadline=None)
@given(coord_texts())
def test_coordinate_numpy_path_agrees_with_per_token_parser(text):
    assert _outcome(text) == _per_token_outcome(text)


# Plain dense text: the exact integer path.

GATE = matrixio._PLAIN_DENSE_MIN_CHARS


def _plain_text(tokens, n):
    """Dense text of the n*n ``tokens`` in the plain form."""
    rows = (" ".join(tokens[r * n : (r + 1) * n]) for r in range(n))
    return f"{n}\n" + "".join(row + "\n" for row in rows)


def _integer_path(text, gate=GATE, block=matrixio._PLAIN_DENSE_BLOCK_CHARS):
    """The integer path's result on ``text``: None means it declined."""
    with (
        mock.patch.object(matrixio, "_PLAIN_DENSE_MIN_CHARS", gate),
        mock.patch.object(matrixio, "_PLAIN_DENSE_BLOCK_CHARS", block),
    ):
        return matrixio._plain_dense_numpy(text.encode())


def _assert_exact(text, **sizes):
    """The integer path takes ``text`` and matches the per-token parser bit
    for bit."""
    fast = _integer_path(text, **sizes)
    assert fast is not None
    assert fast.view(np.uint64).tolist() == _per_token_outcome(text)


def _fixed(x):
    """``repr`` of x when it is in fixed notation, else a fixed rendering."""
    text = repr(x)
    return text if "e" not in text else f"{x:.20f}"


# Tokens whose w / 10^k rounds exactly half way or next to it, or whose
# digits reach the int64 limits, or that have no digit of value at all.
EDGE_TOKENS = [
    "9007199254740993.0",  # 2^53 + 1: a tie, rounds to even (2^53)
    "9007199254740995.0",  # a tie that rounds up
    "9007199254740993.00000000000000001",  # just above the tie, 33 digits: float()
    "0.000000000000000001",
    "0.0000000000000000001",  # 19 fraction digits: float()
    "0.0",
    "-0.0",
    "000.5",
    "-007.25",
    "123456789012345678.0",  # 19 digits, w >= 10^18
    "999999999999999999.9",
    "0.99999999999999999",  # 17 digits below 1, rounds to 1.0
    "9223372036854775.808",  # digits read as 2^63: saturates
    "-9223372036854775.808",  # digits read as -2^63
    "18446744073709551.631",  # digits are 2^64 + 15: must saturate, not wrap
    "1234567890123456789012345.0",  # 25 digits
]


@st.composite
def plain_tokens(draw):
    """One fixed-notation token: repr of a double, a midpoint between two
    neighbouring doubles cut at some digit or in full, or an edge token."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from(EDGE_TOKENS))
    x = draw(st.floats(1e-4, 1e16, exclude_max=True))
    sign = draw(st.sampled_from(["", "-"]))
    if kind == 1:
        return sign + _fixed(x)
    mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
    digits = format(mid, "f")
    if "." not in digits:
        digits += ".0"
    cut = digits.index(".") + 1 + draw(st.integers(1, 40))
    return sign + (digits if kind == 3 else digits[:cut])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    plain_tokens(), min_size=n * n, max_size=n * n))))
def test_integer_path_is_bit_exact(case):
    n, tokens = case
    _assert_exact(_plain_text(tokens, n), gate=0)


def test_integer_path_reads_edge_tokens():
    # Every edge token, in the middle of a row and at its ends.
    tokens = EDGE_TOKENS + ["1.5"] * (25 - len(EDGE_TOKENS))
    _assert_exact(_plain_text(tokens, 5), gate=0)
    _assert_exact(_plain_text(tokens[::-1], 5), gate=0)


def test_integer_path_matches_float_on_random_doubles():
    rng = np.random.default_rng(14)
    x = rng.random(40_000) * 10.0 ** rng.integers(-4, 16, 40_000)
    x[::2] *= -1
    tokens = [_fixed(v) for v in x.tolist()]
    text = _plain_text(tokens, 200)
    assert len(text) > 8 * matrixio._PLAIN_DENSE_BLOCK_CHARS
    fast = _integer_path(text)
    expected = np.array([float(t) for t in tokens]).reshape(200, 200)
    assert np.array_equal(fast.view(np.uint64), expected.view(np.uint64))


def _base_tokens(n=32):
    rng = np.random.default_rng(n)
    return [repr(float(v)) for v in rng.uniform(-1.0, 10.0, n * n)]


BASE = _plain_text(_base_tokens(), 32)


def _splice(old, new, count=1):
    assert old in BASE
    return BASE.replace(old, new, count)


_FIRST = BASE.split()[1]

# One text per way out of the plain form; each must leave the integer path
# and give the per-token parser's matrix or message.
DENSE_DECLINES = {
    "exponent": _splice(_FIRST, "1.5e-3"),
    "unsigned_exponent": _splice(_FIRST, "1.5e3"),
    "underscore": _splice(_FIRST, "1.5_0"),
    "integer_token": _splice(_FIRST, "2"),
    "leading_dot": _splice(_FIRST, ".5"),
    "trailing_dot": _splice(_FIRST, "5."),
    "plus_sign": _splice(_FIRST, "+" + _FIRST),
    "two_minus_signs": _splice(_FIRST, "--1.5"),
    "inner_minus": _splice(_FIRST, "1.-5"),
    "two_dots": _splice(_FIRST, "1.2.5"),
    "lone_minus": _splice(_FIRST, "-"),
    "tab": _splice(" ", "\t"),
    "run_of_spaces": _splice(" ", "  "),
    "leading_space": BASE.replace("\n", "\n ", 2).replace("\n ", "\n", 1),
    "trailing_space": _splice("\n", " \n", 2).replace(" \n", "\n", 1),
    "crlf": BASE.replace("\n", "\r\n"),
    "comment": "# c\n" + BASE,
    "blank_line": _splice("\n", "\n\n", 2),
    "non_ascii_space": _splice(" ", "\u2003"),
    "non_ascii_digit": _splice(_FIRST, "\u0661.5"),
    "no_final_newline": BASE[:-1],
    "header_sign": "+" + BASE,
    "header_comment": BASE.replace("\n", " # c\n", 1),
    "infinite_value": _splice(_FIRST, "1" * 400 + ".0"),
    "nan": _splice(_FIRST, "nan"),
    "short_row": _splice(" " + BASE.split()[2], ""),
    "long_row": _splice(" ", " 1.5 "),
    "missing_row": BASE[: BASE.rindex("\n", 0, -1) + 1],
    "extra_row": BASE + BASE.splitlines()[1] + "\n",
}


@pytest.mark.parametrize("text", DENSE_DECLINES.values(), ids=DENSE_DECLINES.keys())
def test_integer_path_declines(text):
    assert len(text) >= GATE
    assert _integer_path(text) is None
    assert _outcome(text) == _per_token_outcome(text)


def test_integer_path_messages_are_unchanged():
    infinite = "1" * 400 + ".0"
    assert _outcome(DENSE_DECLINES["infinite_value"]) == (
        f"<input>:2: entries must be finite, got '{infinite}'"
    )
    assert _outcome(DENSE_DECLINES["short_row"]) == "<input>:2: row 1 has 31 entries, expected 32"
    assert _outcome(DENSE_DECLINES["two_dots"]) == "<input>:2: expected a real number, got '1.2.5'"


def test_integer_path_rows_longer_than_a_block():
    tokens = _base_tokens(30)
    text = _plain_text(tokens, 30)
    for block in (1, 64, 700, 10_000):  # one row per block, or many
        _assert_exact(text, gate=0, block=block)


def test_integer_path_gate():
    # Leading zeros pad the first token to put the text one character below
    # the gate, and then exactly at it.
    tokens = ["1.5"] * (40 * 40)
    pad = GATE - 1 - len(_plain_text(tokens, 40))
    assert pad > 0
    below = _plain_text(["0" * pad + "1.5"] + tokens[1:], 40)
    at = _plain_text(["0" * (pad + 1) + "1.5"] + tokens[1:], 40)
    assert (len(below), len(at)) == (GATE - 1, GATE)
    assert _integer_path(below) is None
    assert _integer_path(at) is not None
    assert _outcome(below) == _outcome(at) == _per_token_outcome(at)


def test_integer_path_allocates_only_for_text_that_can_hold_n_squared_tokens():
    # A header of 10^7 would ask for 800 TB; the text holds 4 characters
    # per token for only a few tokens.
    text = "10000000\n" + "1.5 " * (GATE // 4) + "1.5\n"
    assert _integer_path(text) is None
    assert _outcome(text) == "<input>: expected 10000000 matrix rows, found 1"


# Reading files as bytes: read_matrix gives what reading the file as UTF-8
# text (universal newlines, as Path.read_text does) and parsing it gives.

DENSE_LINES = ["3", "1.6 0 -0.6", "-0.4 1.4 0", "-0.2 -0.4 1.6"]
COORD_LINES = ["3 4", "1 1 2.0", "1 3 -0.5", "2 2 1.0", "3 3 4.0"]
# Large enough for the integer path (dense) and a long regex match (coord).
_RNG = np.random.default_rng(19)
LARGE_DENSE_LINES = ["40"] + [
    " ".join(repr(float(x)) for x in row) for row in _RNG.uniform(-1.0, 10.0, (40, 40))
]
LARGE_COORD_LINES = ["40 1600"] + [
    f"{i + 1} {j + 1} {float(x)!r}"
    for (i, j), x in np.ndenumerate(_RNG.uniform(-1.0, 10.0, (40, 40)))
]


def _join(lines, end="\n", final=True):
    return (end.join(lines) + (end if final else "")).encode()


def _on_line(lines, k, old, new):
    """``lines`` with the first ``old`` in line k (1-based) replaced by ``new``."""
    assert old in lines[k - 1]
    return lines[: k - 1] + [lines[k - 1].replace(old, new, 1)] + lines[k:]


def _file_variants(lines):
    """Raw bytes of ``lines`` in every form the corpus covers."""
    return {
        "lf": _join(lines),
        "crlf": _join(lines, "\r\n"),
        "cr": _join(lines, "\r"),
        "cr_cr_lf": _join(lines, "\r\r\n"),
        "bom": b"\xef\xbb\xbf" + _join(lines),
        "non_ascii_digit": _join(_on_line(lines, 2, "1", "\u0661")),
        "unicode_space": _join(_on_line(lines, 2, " ", "\u2003")),
        "tab": _join(_on_line(lines, 2, " ", "\t")),
        "no_final_newline": _join(lines, final=False),
        "crlf_bad_token": _join(_on_line(lines, 3, " ", " oops "), "\r\n"),
        "cr_bad_token": _join(_on_line(lines, 3, " ", " oops "), "\r"),
    }


FILE_CORPUS = {"empty": b""}
for _kind, _lines in [
    ("dense", DENSE_LINES),
    ("coord", COORD_LINES),
    ("large_dense", LARGE_DENSE_LINES),
    ("large_coord", LARGE_COORD_LINES),
]:
    FILE_CORPUS.update({f"{_kind}_{v}": data for v, data in _file_variants(_lines).items()})

# Files that are not UTF-8 text, with the line of the first bad byte.
BAD_UTF8_FILES = {
    "dense_bad_byte": (_join(DENSE_LINES).replace(b"1.4", b"1.\xff4"), 3),
    "dense_crlf_bad_byte": (_join(DENSE_LINES, "\r\n").replace(b"-0.2", b"-0.\xc32"), 4),
    "dense_cr_bad_byte": (_join(DENSE_LINES, "\r").replace(b"1.4", b"1.\xff4"), 3),
    "coord_bad_byte": (_join(COORD_LINES).replace(b"2 2", b"2 \xff2"), 4),
    "coord_truncated_sequence": (_join(COORD_LINES) + b"\xe2\x82", 6),
    "large_dense_bad_byte": (_join(LARGE_DENSE_LINES)[:-2] + b"\x80\n", 41),
}


def _text_outcome(path):
    """What reading ``path`` as UTF-8 text and parsing it gives."""
    text = path.read_text(encoding="utf-8")
    try:
        return parse_matrix(text, name=str(path)).view(np.uint64).tolist()
    except MatrixParseError as err:
        return str(err)


def _file_outcome(path):
    """:func:`_text_outcome` of :func:`read_matrix`."""
    try:
        return read_matrix(path).view(np.uint64).tolist()
    except MatrixParseError as err:
        return str(err)


@pytest.mark.parametrize("data", FILE_CORPUS.values(), ids=FILE_CORPUS.keys())
def test_read_matrix_matches_reading_text(tmp_path, data):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    assert _file_outcome(path) == _text_outcome(path)


def test_file_corpus_reaches_values_and_errors():
    # Line ends of every kind give the LF file's matrix, and the bad tokens
    # are named on the same line whatever ends the lines.
    for kind, lines in [("dense", DENSE_LINES), ("large_coord", LARGE_COORD_LINES)]:
        want = parse_matrix(_join(lines).decode())
        for variant in ("crlf", "cr", "cr_cr_lf", "no_final_newline"):
            text = FILE_CORPUS[f"{kind}_{variant}"].decode()
            assert np.array_equal(parse_matrix(text).view(np.uint64), want.view(np.uint64))
    assert _outcome(FILE_CORPUS["dense_crlf_bad_token"].decode()) == (
        "<input>:3: row 2 has 4 entries, expected 3"
    )
    assert _outcome(FILE_CORPUS["coord_cr_bad_token"].decode()) == (
        "<input>:3: entry line must be 'i j value'"
    )


@pytest.mark.parametrize("data, line", BAD_UTF8_FILES.values(), ids=BAD_UTF8_FILES.keys())
def test_read_matrix_names_the_line_of_a_bad_byte(tmp_path, data, line):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        path.read_text(encoding="utf-8")
    assert _file_outcome(path) == f"{path}:{line}: not UTF-8 text ({exc.value.reason})"


def test_crlf_file_takes_the_per_row_path_with_the_same_values(tmp_path):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(_join(LARGE_DENSE_LINES))
    crlf.write_bytes(_join(LARGE_DENSE_LINES, "\r\n"))
    with mock.patch.object(
        matrixio, "_dense_rows_numpy", wraps=matrixio._dense_rows_numpy
    ) as per_row:
        fast = read_matrix(lf)
        assert per_row.call_count == 0
        slow = read_matrix(crlf)
        assert per_row.call_count == 1
    assert np.array_equal(slow.view(np.uint64), fast.view(np.uint64))


def test_parse_matrix_keeps_a_lone_surrogate_for_the_per_token_parser():
    assert np.array_equal(parse_matrix("# \ud800\n1\n2\n"), [[2.0]])
    assert _outcome("1\n\ud800\n") == "<input>:2: expected a real number, got '\\ud800'"


# The decimal fast path: w < 2^53 takes one division, larger w the exact
# integer rounding.

FAST_PATH_W = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 10**18 - 1]


def _decimal(w, k, sign=""):
    """The fixed-notation token of w / 10^k."""
    digits = str(w).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _assert_matches_float(w, k):
    got = matrixio._decimal_to_double(np.array(w, dtype=np.int64), np.array(k))
    want = np.array([float(_decimal(int(a), int(b))) for a, b in zip(w, k)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k", [1, 16, 17, 18])
def test_decimal_fast_path_boundaries(k):
    _assert_matches_float(FAST_PATH_W, [k] * len(FAST_PATH_W))
    # Both signs, through a whole plain block.
    tokens = [_decimal(w, k, sign) for w in FAST_PATH_W for sign in ("", "-")]
    tokens += ["1.5"] * (16 - len(tokens))
    _assert_exact(_plain_text(tokens, 4), gate=0)


def test_decimal_block_takes_both_paths():
    rng = np.random.default_rng(53)
    w = np.concatenate([rng.integers(0, 2**53, 32), rng.integers(2**53, 10**18, 32)])
    k = rng.integers(1, 19, 64)
    rng.shuffle(w)
    tokens = [_decimal(int(a), int(b), sign) for a, b, sign in zip(w, k, ["", "-"] * 32)]
    _assert_exact(_plain_text(tokens, 8), gate=0)


def test_decimal_to_double_matches_float_on_a_sweep():
    # About 10^5 (w, k) pairs, w log-uniform over [1, 10^18).
    rng = np.random.default_rng(1990)
    size = 100_000
    w = (10.0 ** rng.uniform(0.0, 18.0, size)).astype(np.int64)
    w = np.minimum(w, 10**18 - 1)
    k = rng.integers(1, 19, size)
    assert 0.2 < np.mean(w < 2**53) < 0.98
    _assert_matches_float(w, k)
