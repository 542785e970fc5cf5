"""Agreement sweep: the ratio iteration (buffoni_vstar) and the bracketing
oracle (bisection_vstar) must report the same threshold on a fixed, seeded
set of pairs shaped like the soundness test's strategy, and on the fixed
pairs that once split them.  Where they differ by more than 1e-6 of v, a
50-digit inverse of A + v E judges each against its own definition
(conftest.threshold_mismatch), and the message names the search that is
wrong."""

import numpy as np
import pytest
from conftest import INFINITE_THRESHOLD_PAIRS, threshold_mismatch

from monobound import bisection_vstar, buffoni_vstar

PAIRS_PER_KIND = 400


def _dominant(rng, n):
    """Strictly diagonally dominant M-matrix with sparse off-diagonal
    entries, irreducible when it draws a ring (as in test_soundness.py)."""
    off = rng.choice([0.0, 0.0, 0.0, 0.2, 0.5, 1.0], size=(n, n))
    if rng.random() < 0.5:
        off[np.arange(n), (np.arange(n) + 1) % n] = rng.choice([0.3, 1.0])
    np.fill_diagonal(off, 0.0)
    margin = rng.uniform(0.01, 1.0, n)
    a = -off
    np.fill_diagonal(a, off.sum(axis=1) * (1.0 + margin) + margin)
    return a


def _nonzero(rng, shape, values):
    x = rng.choice(values, size=shape)
    if not x.any():
        x.flat[rng.integers(x.size)] = values[-1]
    return x


PERTURBATIONS = {
    "rank-one": lambda rng, n: np.outer(
        _nonzero(rng, n, [0.0, 0.0, 0.5, 1.0, 2.0]), _nonzero(rng, n, [0.0, 0.0, 0.5, 1.0, 2.0])
    ),
    "general": lambda rng, n: _nonzero(rng, (n, n), [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0]),
    "diagonal": lambda rng, n: np.diag(_nonzero(rng, n, [0.0, 0.0, 0.5, 1.0, 2.0])),
}


def _assert_agree(a, e):
    mismatch = threshold_mismatch(a, e, buffoni_vstar(a, e).vstar, bisection_vstar(a, e))
    assert mismatch is None, mismatch


@pytest.mark.parametrize("kind", PERTURBATIONS)
def test_searches_agree_on_a_seeded_sweep(kind):
    rng = np.random.default_rng([2021, list(PERTURBATIONS).index(kind)])
    for _ in range(PAIRS_PER_KIND):
        n = int(rng.integers(3, 16))
        _assert_agree(_dominant(rng, n), PERTURBATIONS[kind](rng, n))


def _structural_zero_pair():
    """The 11x11 pair where an exactly zero entry of (A + v E)^-1 meets a
    roundoff-level W entry just above W_FLOOR (1-based entries below)."""
    a = np.diag([1.02, 0.01, 0.01, 1.02, 0.515, 0.01, 0.01, 0.01, 0.01, 1.222, 0.01])
    for (i, j), x in {(1, 5): -1.0, (4, 6): -0.5, (4, 7): -0.5, (5, 4): -0.5,
                      (10, 1): -0.2, (10, 2): -0.5, (10, 6): -0.5}.items():
        a[i - 1, j - 1] = x
    e = np.zeros_like(a)
    for i, j in [(1, 1), (4, 6), (10, 2), (10, 6)]:
        e[i - 1, j - 1] = 0.5
    return a, e


def _structural_zero_pair_13():
    """A 13x13 pair with the same defect, drawn by the soundness test's
    strategy: A = 0.01 I outside rows 5, 7 and 9 (1-based entries below)."""
    a = 0.01 * np.eye(13)
    for (i, j), x in {(5, 5): 1.222, (7, 7): 1.222, (5, 7): -1.0, (7, 6): -1.0, (5, 2): -0.2,
                      (7, 5): -0.2, (9, 5): -0.2, (9, 6): -0.5, (9, 9): 0.717}.items():
        a[i - 1, j - 1] = x
    e = np.zeros_like(a)
    e[0, 0], e[6, 5] = 0.5, 1.0
    return a, e


def _ring_pair():
    """A 15x15 ring, a_ii = 1.31 and a_i,i+1 = -0.3 cyclically, with E = 0.5
    at (2, 9) and (10, 3) (1-based).  Buffoni gives 1.61267e-5 and the
    bisection 1.76044e-5: the entry that crosses zero is small against
    max|Z|, so the slack moves the tolerant threshold 9% past the exact one,
    and both answers are right."""
    n = 15
    a = 1.31 * np.eye(n)
    a[np.arange(n), (np.arange(n) + 1) % n] = -0.3
    e = np.zeros_like(a)
    e[1, 8] = e[9, 2] = 0.5
    return a, e


FIXED_PAIRS = [pytest.param(*pair, id=name) for name, pair in INFINITE_THRESHOLD_PAIRS.items()]
FIXED_PAIRS += [
    pytest.param(*_ring_pair(), id="ring-15x15"),
    pytest.param(
        *_structural_zero_pair(),
        id="structural-zero-11x11",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="CHANGES.md FOUND (issue 15): buffoni_vstar stops at 0.96792 on a "
            "structurally zero entry of Z, where the threshold is about 1.0",
        ),
    ),
    pytest.param(
        *_structural_zero_pair_13(),
        id="structural-zero-13x13",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="buffoni_vstar reports converged at 0.62 after 6 steps on a structurally "
            "zero entry of Z, where the bisection gives 1.0000000001",
        ),
    ),
]


@pytest.mark.parametrize("a, e", FIXED_PAIRS)
def test_searches_agree_on_fixed_pairs(a, e):
    # INFINITE_THRESHOLD_PAIRS holds the seed-52 pair ("dominant-5x5").
    _assert_agree(a, e)
