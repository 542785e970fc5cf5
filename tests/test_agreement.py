"""Agreement sweep: the ratio iteration (buffoni_vstar) and the bracketing
oracle (bisection_vstar) must report the same threshold on a fixed, seeded
set of pairs shaped like the soundness test's strategy, and on the fixed
pairs that once split them.  When they differ, a 50-digit inverse of
A + v E, at a v between the two answers, names the search that is wrong;
the test fails either way."""

import numpy as np
import pytest
from conftest import INFINITE_THRESHOLD_PAIRS
from mpmath import mp

from monobound import bisection_vstar, buffoni_vstar
from monobound.classify import DEFAULT_MONOTONE_TOL

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


def _judge(a, e, exact, oracle):
    """Which search the 50-digit inverse of A + v E contradicts, for v
    between the two answers (twice the finite one when the other is
    infinite)."""
    lo, hi = sorted((exact, oracle))
    v = 0.5 * (lo + hi) if np.isfinite(hi) else 2.0 * lo
    with mp.workdps(50):
        inv = mp.inverse(mp.matrix((a + v * e).tolist()))
        entries = [inv[i, j] for i in range(inv.rows) for j in range(inv.cols)]
        smallest, largest = min(entries), max(abs(x) for x in entries)
        if smallest >= 0:
            wrong, why = lo, "monotone there, so the threshold lies above it"
        elif smallest < -DEFAULT_MONOTONE_TOL * largest:
            wrong, why = hi, "not monotone there, even within tol, so the threshold lies below it"
        else:
            return f"at v={v!r} A + v E is monotone only within tol: the gap is the tol slack"
    name = "buffoni_vstar" if wrong == exact else "bisection_vstar"
    return f"{name} is wrong: at v={v!r} A + v E is {why}"


def _assert_agree(a, e):
    exact = buffoni_vstar(a, e).vstar
    oracle = bisection_vstar(a, e)
    if np.isinf(exact) or np.isinf(oracle):
        agree = exact == oracle
    else:
        agree = abs(exact - oracle) <= max(1e-6, 1e-6 * exact)
    assert agree, (
        f"buffoni_vstar {exact!r} and bisection_vstar {oracle!r} differ; "
        + _judge(a, e, exact, oracle)
    )


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


FIXED_PAIRS = [pytest.param(*pair, id=name) for name, pair in INFINITE_THRESHOLD_PAIRS.items()]
FIXED_PAIRS.append(
    pytest.param(
        *_structural_zero_pair(),
        id="structural-zero-11x11",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="CHANGES.md FOUND (issue 15): buffoni_vstar stops at 0.96792 on a "
            "structurally zero entry of Z, where the threshold is about 1.0",
        ),
    )
)


@pytest.mark.parametrize("a, e", FIXED_PAIRS)
def test_searches_agree_on_fixed_pairs(a, e):
    # INFINITE_THRESHOLD_PAIRS holds the seed-52 pair ("dominant-5x5").
    _assert_agree(a, e)
