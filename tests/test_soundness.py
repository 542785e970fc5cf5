"""Soundness audit: a bound whose preconditions hold never exceeds the exact
threshold it promises to stay below, and both threshold searches are right
by the 50-digit judge they share with the agreement sweep
(conftest.threshold_mismatch)."""

import hypothesis.extra.numpy as hnp
import numpy as np
from conftest import threshold_mismatch
from hypothesis import given, settings
from hypothesis import strategies as st

from monobound import (
    EmptyPerturbation,
    UnreachablePair,
    bisection_vstar,
    bouchon_bound,
    buffoni_vstar,
    main_bound,
)
from monobound.buffoni import BISECT_ABS_TOL


def _entries(n, values):
    return hnp.arrays(np.float64, (n, n), elements=st.sampled_from(values))


@st.composite
def strictly_dominant_pairs(draw):
    """(A, E): A a strictly diagonally dominant M-matrix with sparse
    off-diagonal entries (irreducible when it has a ring), E sparse and
    nonnegative, never zero."""
    n = draw(st.integers(3, 15))
    off = draw(_entries(n, [0.0, 0.0, 0.0, 0.2, 0.5, 1.0]))
    if draw(st.booleans()):
        off[np.arange(n), (np.arange(n) + 1) % n] = draw(st.sampled_from([0.3, 1.0]))
    np.fill_diagonal(off, 0.0)
    margin = draw(hnp.arrays(np.float64, n, elements=st.floats(0.01, 1.0)))
    a = -off
    np.fill_diagonal(a, off.sum(axis=1) * (1.0 + margin) + margin)
    e = draw(_entries(n, [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0]))
    if not e.any():
        e[0, n - 1] = 1.0
    return a, e


@settings(max_examples=150, deadline=None)
@given(strictly_dominant_pairs())
def test_bounds_never_exceed_the_threshold(pair):
    a, e = pair
    vstar = bisection_vstar(a, e)
    mismatch = threshold_mismatch(a, e, buffoni_vstar(a, e).vstar, vstar)
    assert mismatch is None, mismatch
    # The oracle's bracket is abs_tol wide; its lower end was monotone.
    reach = vstar + BISECT_ABS_TOL
    main = main_bound(a)
    if main.preconditions_ok:
        assert reach * e.max() >= main.value
    try:
        bouchon = bouchon_bound(a, e)
    except (EmptyPerturbation, UnreachablePair):
        return  # no off-diagonal entry of E, or one A's graph cannot reach
    if bouchon.preconditions_ok:
        assert reach * np.abs(e).sum(axis=1).max() >= bouchon.value
