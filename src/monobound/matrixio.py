"""Line-oriented matrix file formats.

Dense text: a header line holding n, then n rows of n whitespace-separated
reals.  Coordinate text: a header line holding "n nnz", then nnz lines
"i j value" with 1-based indices; unlisted entries are zero and duplicated
positions are an error.  Blank lines and lines whose first non-blank
character is '#' are ignored everywhere.  A real is any token that Python's
``float()`` accepts and that is finite.

Both formats have a numpy path, and the per-token parser is kept as the
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
    out = _coord_numpy(text)
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


def _fromstring_each(strings) -> list[np.ndarray] | None:
    """``np.fromstring(s, sep=" ")`` for each string, or None when a call
    rejected a token.  numpy 2 raises ValueError on a bad token; numpy 1
    warns with DeprecationWarning and returns the values read so far, so the
    warning is made an error here."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return [np.fromstring(s, sep=" ") for s in strings]
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


def _coord_numpy(text: str) -> np.ndarray | None:
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
    out = np.zeros((n, n))
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
    out = np.zeros((n, n))
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
