"""Line-oriented matrix file formats.

Dense text: a header line holding n, then n rows of n whitespace-separated
reals.  Coordinate text: a header line holding "n nnz", then nnz lines
"i j value" with 1-based indices; unlisted entries are zero and duplicated
positions are an error.  Blank lines and lines whose first non-blank
character is '#' are ignored everywhere.  A real is any token that Python's
``float()`` accepts and that is finite.

Both formats have numpy paths, and the per-token parser is kept as the
fallback that produces every error message: wherever numpy's result is not
kept, the text goes through the per-token parser, which returns the same
matrix or raises the error that names the first bad line.

- Dense rows are converted by one ``np.fromstring(row, sep=" ")`` call each.
  The result is kept only if no call raised or warned, every row gave
  exactly n values and every value is finite.  The fallback is needed both
  ways: numpy rejects some tokens that ``float()`` accepts (``1_000``,
  non-ASCII digits, Unicode spaces) and accepts some that it rejects
  (``nan(123)``, which is not finite and so never kept).  Where both accept
  a token they give the same double.
- Coordinate text in its plain form is recognised by one regular-expression
  match over the whole text and converted by one ``np.fromstring`` call over
  all entry lines.  The plain form is the header "n nnz" and then lines
  "i j value", each line ended by a newline, tokens separated by spaces or
  tabs, with no comment, blank line, carriage return or leading blank;
  indices are ASCII digit strings of at most 15 digits and values finite
  decimals in ``float()``'s syntax (optional sign, fraction and exponent,
  no ``inf``, ``nan`` or ``_``).  The result is kept only if the entry
  count, the index ranges and the absence of duplicates check out and every
  value is finite.  Any other coordinate text goes through the per-token
  parser alone.
- Dense text of at least ``_PLAIN_DENSE_MIN_CHARS`` characters in its plain
  form is converted exactly through integers, in blocks of whole rows.  The
  plain form is the header "n" in ASCII digits and then n lines of n tokens,
  each an optional "-", digits, "." and digits, separated by one space and
  each line ended by a newline, with nothing else in the text: what ``repr``
  writes for ``abs(x)`` in [1e-4, 1e16).  Each token's digits are read as
  one integer w by ``np.fromstring(..., dtype=np.int64)``, and w / 10^k, k
  the number of fraction digits, is rounded to the nearest double by integer
  arithmetic, so the value is ``float(token)`` bit for bit.  A token whose w
  reaches 10^18, or with more than 18 fraction digits, is converted by
  ``float()``.  Any other dense text (shorter text, an exponent, an integer
  token, ".5", "5.", "+", a tab, a run of spaces, a carriage return, a
  comment, a blank line, non-ASCII text, no final newline) takes the
  per-row path above.
"""

from __future__ import annotations

import math
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import MatrixParseError


#: The plain form of coordinate text (see the module docstring): the header,
#: then the entry lines as group 3.  Every token is delimited by a class its
#: neighbours exclude, so a run of digits splits only one way and matching is
#: linear in the text's length.  An index of at most 15 digits is an integer
#: below 2^53, so numpy reads it exactly and ``int()`` accepts it.  Python's
#: re engine keeps a backtracking record per token until the match ends,
#: about 1.4 MB for a 1,065-line file.  Freeing that block raises glibc's
#: mmap and trim thresholds, so a long-running process stops returning and
#: re-faulting the heap that its n-by-n arrays reuse: on the vstar_grid
#: benchmark that is most of the saving (1,091 minor faults per op to 0).
_PLAIN_COORD = re.compile(
    r"([0-9]{1,15})[ \t]+([0-9]{1,15})\n"
    r"((?:[0-9]{1,15}[ \t]+[0-9]{1,15}[ \t]+"
    r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\n)*)"
)

#: Plain dense text shorter than this keeps the per-row path, whose fixed
#: cost is lower.  Measured on a 2-vCPU x86-64 VM with BLAS on one thread:
#: in a loop of parses alone the two paths broke even near n = 16 (5 KB),
#: but inside whole small_mixed ops (alternating in-process, 300 ops each)
#: ops whose files held 8-16 KB of plain text took the same time either way
#: (148/300 faster with the integer path), and those above 16 KB were 7%
#: faster with it (193/300).
_PLAIN_DENSE_MIN_CHARS = 2**14

#: Plain dense text is converted in blocks of whole rows of about this many
#: characters.  Temporaries that span the whole text (several MB at
#: n = 200) make glibc return the heap to the OS and fault it back in on
#: every op.  In a steady loop of bounds_dense ops on a 2-vCPU VM, blocks of
#: 2^16 kept the parent's 325-480 minor faults per op; 2^18 took 530-870,
#: 2^19 620-1,540 and the whole text 1,600-1,700 with the op 3 ms slower,
#: while 2^15 paid 2 ms more in per-block overhead.
_PLAIN_DENSE_BLOCK_CHARS = 2**16


def read_matrix(path) -> np.ndarray:
    """Parse a matrix file; the header line decides the format."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_matrix(text, name=str(path))


def parse_matrix(text: str, name: str = "<input>") -> np.ndarray:
    """Parse dense or coordinate text into a float64 square matrix.

    A one-token header ("n") means dense text, a two-token header
    ("n nnz") coordinate text.  Errors raise :class:`MatrixParseError`
    with a "name:line:" prefix.
    """
    out = _coord_numpy(text, name)
    if out is None:
        out = _plain_dense_numpy(text)
    if out is not None:
        return out
    lines = _content_lines(text)
    if not lines:
        raise MatrixParseError(f"{name}: no content lines")
    lineno, header = lines[0][0], lines[0][1].split()
    if len(header) not in (1, 2):
        raise MatrixParseError(
            f"{name}:{lineno}: header must be 'n' (dense) or 'n nnz' "
            f"(coordinate), got {len(header)} tokens"
        )
    n = _parse_int(header[0], lineno, name, "matrix dimension")
    if n < 1:
        raise MatrixParseError(f"{name}:{lineno}: dimension must be positive, got {n}")
    if len(header) == 1:
        return _parse_dense(n, lines[1:], name)
    return _parse_coord(n, header, lines, name)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) of each non-blank, non-comment line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped))
    return out


def _parse_int(token: str, lineno: int, name: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MatrixParseError(
            f"{name}:{lineno}: {what} must be an integer, got {token!r}"
        ) from None


def _parse_real(token: str, lineno: int, name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixParseError(
            f"{name}:{lineno}: expected a real number, got {token!r}"
        ) from None
    if not math.isfinite(value):
        raise MatrixParseError(f"{name}:{lineno}: entries must be finite, got {token!r}")
    return value


def _parse_dense(n: int, rows, name: str) -> np.ndarray:
    if len(rows) < n:
        raise MatrixParseError(f"{name}: expected {n} matrix rows, found {len(rows)}")
    if len(rows) > n:
        raise MatrixParseError(
            f"{name}:{rows[n][0]}: unexpected content after {n} matrix rows"
        )
    out = _dense_rows_numpy(n, rows)
    if out is not None:
        return out
    out = np.empty((n, n))
    for r, (lno, line) in enumerate(rows):
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixParseError(
                f"{name}:{lno}: row {r + 1} has {len(tokens)} entries, expected {n}"
            )
        out[r] = [_parse_real(tok, lno, name) for tok in tokens]
    return out


def _fromstring_each(strings, dtype=float) -> list[np.ndarray] | None:
    """``np.fromstring(s, dtype, sep=" ")`` for each string, or None when a
    call rejected a token.  numpy 2 raises ValueError on a bad token; numpy 1
    warns with DeprecationWarning and returns the values read so far, so the
    warning is made an error here."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return [np.fromstring(s, dtype, sep=" ") for s in strings]
    except (ValueError, DeprecationWarning):
        return None


def _dense_rows_numpy(n: int, rows) -> np.ndarray | None:
    """The n rows converted by numpy, or None when the per-token parser must
    decide."""
    values = _fromstring_each(line for _, line in rows)
    if values is None or any(row.size != n for row in values):
        return None
    out = np.array(values)
    return out if np.isfinite(out).all() else None


def _plain_dense_numpy(text: str) -> np.ndarray | None:
    """Plain dense text (see the module docstring) of at least
    ``_PLAIN_DENSE_MIN_CHARS`` characters converted by exact integer
    arithmetic, or None when the other dense paths must decide."""
    if len(text) < _PLAIN_DENSE_MIN_CHARS or text[-1] != "\n":
        return None
    start = text.find("\n") + 1
    header = text[: start - 1]
    if not (0 < len(header) <= 15 and header.isascii() and header.isdigit()):
        return None
    n = int(header)
    # A token and its separator take at least 4 characters ("0.0 "), so the
    # n^2 floats are allocated only for text that can hold n^2 tokens.
    if n < 1 or len(text) - start < 4 * n * n:
        return None
    out = np.empty(n * n)
    done = 0
    while start < len(text):
        end = text.find("\n", start + _PLAIN_DENSE_BLOCK_CHARS - 1) + 1 or len(text)
        values = _plain_dense_block(text[start:end], n)
        if values is None or done + values.size > out.size:
            return None
        out[done : done + values.size] = values
        done += values.size
        start = end
    return out.reshape(n, n) if done == out.size else None


def _plain_dense_block(block: str, n: int) -> np.ndarray | None:
    """The values of ``block``, whole plain rows of n tokens, or None when it
    is not plain."""
    try:
        raw = block.encode("ascii")
    except UnicodeEncodeError:
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    pos = np.flatnonzero(b < 48)
    kind = b[pos]
    # A token's bytes below "0" are an optional leading "-", one "." and its
    # separator: " ", or "\n" after every n-th token and as the last byte.
    # The one before each separator must be the dot (for a block that opens
    # with a separator it is the final "\n", so that fails too).  A byte
    # above "9" makes the integer read below fail.
    at = np.flatnonzero(kind <= 32)
    tokens = at.size
    row = np.full(n, 32, dtype=np.uint8)
    row[-1] = 10
    if (
        tokens == 0
        or tokens % n
        or pos[at[-1]] != b.size - 1
        or not (kind[at].reshape(-1, n) == row).all()
        or not (kind[at - 1] == 46).all()
    ):
        return None
    seps, dots = pos[at], pos[at - 1]
    starts = np.empty_like(seps)
    starts[0] = 0
    starts[1:] = seps[:-1] + 1
    # The bytes below "0" left over must all be minus signs opening a token,
    # and digits must stand on both sides of each dot.
    negative = b[starts] == 45
    if (
        np.count_nonzero(negative) != kind.size - 2 * tokens
        or (dots - starts - negative < 1).any()
        or (seps - dots < 2).any()
    ):
        return None
    digits = _fromstring_each([raw.replace(b".", b"")], dtype=np.int64)
    if digits is None or digits[0].size != tokens:
        return None
    # A token of more than 18 digits may have saturated at 2^63 - 1 or read
    # -2^63, whose absolute value is 2^63 as unsigned; both are past 10^18.
    w = np.abs(digits[0])
    k = seps - dots - 1
    exact = (w.view(np.uint64) < 10**18) & (k <= 18)
    if exact.all():
        values = _decimal_to_double(w, k)
    else:
        values = np.empty(tokens)
        values[exact] = _decimal_to_double(w[exact], k[exact])
        for i in np.flatnonzero(~exact):
            values[i] = float(block[starts[i] + negative[i] : seps[i]])
        if not np.isfinite(values).all():
            return None
    np.negative(values, out=values, where=negative)
    return values


#: For k = 0..18: 5^k; two steps of at most 21 bits that add up to t, where
#: 2^t <= 5^k < 2^(t+1); and -(t + k).
_POW5 = np.array([5**k for k in range(19)], dtype=np.int64)
_POW5_BITS = [(5**k).bit_length() - 1 for k in range(19)]
_STEPS = np.array([[min(t, 21) for t in _POW5_BITS], [max(t - 21, 0) for t in _POW5_BITS]])
_EXPONENT = np.array([-(t + k) for k, t in enumerate(_POW5_BITS)], dtype=np.intc)


def _decimal_to_double(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """w / 10^k correctly rounded, for int64 w in [0, 10^18) and k in 1..18
    (w = 0 gives 0.0).

    w / 10^k = (w / 5^k) 2^-k.  w is shifted to W in [2^61, 2^63), and
    W 2^t / 5^k = Q + r / 5^k (2^t <= 5^k) is formed by one division and two
    extension steps: r < 5^18 < 2^42, so r shifted by at most 21 bits fits,
    and Q lies in [2^60, 2^63).  Setting Q's lowest bit when r > 0 keeps
    the side of every rounding boundary (at least 8 bits are dropped), so
    the int-to-float conversion rounds Q half to even as it would Q + r/5^k.
    The result lies in [1e-18, 1e18), a normal double, so ``ldexp`` scales
    it exactly.
    """
    shift = 63 - np.frexp(w.astype(np.float64))[1]
    divisor = _POW5[k]
    q, r = np.divmod(w << shift, divisor)
    for step in _STEPS[:, k]:
        more, r = np.divmod(r << step, divisor)
        q = (q << step) | more
    return np.ldexp((q | (r != 0)).astype(np.float64), _EXPONENT[k] - shift)


def _coord_numpy(text: str, name: str = "<input>") -> np.ndarray | None:
    """Plain coordinate text converted by numpy, or None when the per-token
    parser must decide (also for any text that is not plain coordinate
    text).  The checks mirror :func:`_parse_coord`'s, so a matrix is
    returned exactly when that parser would return the same one."""
    match = _PLAIN_COORD.fullmatch(text)
    if match is None:
        return None
    n, nnz = int(match[1]), int(match[2])
    fields = _fromstring_each([match[3]])
    if n < 1 or fields is None or fields[0].size != 3 * nnz:
        return None
    # Allocated where _parse_coord allocates it, so a dimension too large
    # for memory fails the same way on both paths.
    out = _zeros(n, 1, name)
    rows, cols, values = fields[0].reshape(nnz, 3).T
    in_range = (rows >= 1) & (rows <= n) & (cols >= 1) & (cols <= n)
    if not (in_range.all() and np.isfinite(values).all()):
        return None
    flat = ((rows - 1) * n + (cols - 1)).astype(np.intp)
    # Entry k writes k to its position; a repeated position keeps only one
    # of its writes, so some entry reads back another's number.  (Sorting
    # would find repeats too, but numpy's sort pages in 384 KB of code that
    # nothing else here uses.)
    order = np.arange(nnz, dtype=float)
    out.flat[flat] = order
    if (out.flat[flat] != order).any():
        return None
    out.flat[flat] = values
    return out


def _zeros(n: int, lineno: int, name: str) -> np.ndarray:
    """An n-by-n zero matrix; a dimension too large to allocate is an error
    of the header line ``lineno``."""
    try:
        return np.zeros((n, n))
    except (ValueError, MemoryError):
        raise MatrixParseError(
            f"{name}:{lineno}: dimension {n} is too large to allocate"
        ) from None


def _parse_coord(n: int, header: list[str], lines, name: str) -> np.ndarray:
    lineno = lines[0][0]
    nnz = _parse_int(header[1], lineno, name, "entry count")
    if nnz < 0:
        raise MatrixParseError(f"{name}:{lineno}: entry count must be nonnegative, got {nnz}")
    entries = lines[1:]
    if len(entries) < nnz:
        raise MatrixParseError(f"{name}: expected {nnz} entry lines, found {len(entries)}")
    if len(entries) > nnz:
        raise MatrixParseError(
            f"{name}:{entries[nnz][0]}: unexpected content after {nnz} entry lines"
        )
    out = _zeros(n, lineno, name)
    seen: set[tuple[int, int]] = set()
    for lno, line in entries:
        tokens = line.split()
        if len(tokens) != 3:
            raise MatrixParseError(f"{name}:{lno}: entry line must be 'i j value'")
        i = _parse_int(tokens[0], lno, name, "row index")
        j = _parse_int(tokens[1], lno, name, "column index")
        if not 1 <= i <= n:
            raise MatrixParseError(f"{name}:{lno}: row index {i} outside 1..{n}")
        if not 1 <= j <= n:
            raise MatrixParseError(f"{name}:{lno}: column index {j} outside 1..{n}")
        if (i, j) in seen:
            raise MatrixParseError(f"{name}:{lno}: duplicate entry for position ({i}, {j})")
        seen.add((i, j))
        out[i - 1, j - 1] = _parse_real(tokens[2], lno, name)
    return out


def format_dense(matrix) -> str:
    """Dense-text serialization at 17 significant digits, so a write/read
    round trip reproduces the exact float64 values."""
    m = np.asarray(matrix, dtype=float)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def write_dense(matrix, path) -> None:
    """Write a matrix to ``path`` in dense-text format."""
    Path(path).write_text(format_dense(matrix), encoding="utf-8")
