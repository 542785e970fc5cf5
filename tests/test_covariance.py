"""Permutation covariance audit: relabelling the unknowns of A by a
permutation P (A -> P A P^T, and E -> P E P^T for vstar) permutes sigma,
strict_set and every reported location the same way, and leaves every other
number in the classify, bounds and Buffoni vstar reports unchanged.

Locations are compared only where the minimum they witness is unique: ties
go to the first entry in row-major order, which a permutation need not keep
first.  Numbers are compared to 1e-12 relative, since LAPACK eliminates the
permuted matrix in another order.
"""

import json
import re

import numpy as np
import pytest
from conftest import (
    random_nonneg_perturbation,
    random_sdd_m_matrix,
    random_well_conditioned,
)

from monobound import inverse_stats, write_dense
from monobound.cli import main

RTOL = 1e-12


def _sparse_dominant(rng, n):
    """Strictly diagonally dominant M-matrix with about half its off-diagonal
    entries zero, so often reducible, with exact zeros in its inverse."""
    a = random_sdd_m_matrix(rng, n)
    a[(rng.random((n, n)) < 0.5) & ~np.eye(n, dtype=bool)] = 0.0
    return a


def _rank_one(rng, n):
    """Sparse nonnegative outer product, never zero."""
    u, w = (rng.random(n) * (rng.random(n) < 0.5) for _ in range(2))
    u[0] = w[-1] = 1.0
    return np.outer(u, w)


def _cases():
    rng = np.random.default_rng(20131)
    cases = []
    for index in range(24):
        n = int(rng.integers(3, 13))
        make_a = (random_sdd_m_matrix, _sparse_dominant, random_well_conditioned)[index % 3]
        make_e = (random_nonneg_perturbation, _rank_one)[index // 3 % 2]
        cases.append((make_a(rng, n), make_e(rng, n), rng.permutation(n)))
    return cases


def _reports(capsys, tmp_path, a, e):
    """(exit code, parsed stdout or None, stderr) of classify, bounds with E
    as the pattern, and vstar --method buffoni on files holding a and e."""
    a_path, e_path = str(tmp_path / "a.txt"), str(tmp_path / "e.txt")
    write_dense(a, a_path)
    write_dense(e, e_path)
    out = []
    for argv in (
        ["classify", a_path],
        ["bounds", a_path, "--which", "all", "--pattern", e_path],
        ["vstar", a_path, e_path, "--method", "buffoni"],
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        out.append((rc, json.loads(captured.out) if rc == 0 else None, captured.err))
    return out


def _unique_min(values):
    """True when the smallest entry is clear of the next by more than the
    rounding a different elimination order can cause."""
    low = np.sort(values, axis=None)[:2]
    return low[1] - low[0] > 1e-9 * np.abs(values).max()


def _assert_permuted(got, want, p, unique_min, path=""):
    """``got`` (report of P A P^T) against ``want`` (report of A); p[i] is the
    old index of new index i, and unique_min says whether locations witness
    a unique minimum of the inverse."""
    new_index = np.argsort(p)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_permuted(got[key], want[key], p, unique_min, f"{path}.{key}")
    elif path.endswith(".sigma"):
        np.testing.assert_allclose(got, np.asarray(want)[p], rtol=RTOL, err_msg=path)
    elif path.endswith(".strict_set"):
        assert got == sorted(int(new_index[i - 1]) + 1 for i in want), path
    elif path.endswith(".location"):
        if unique_min and want is not None:
            assert got == [int(new_index[i - 1]) + 1 for i in want], path
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_permuted(g, w, p, unique_min, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= RTOL * max(abs(got), abs(want)), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("case", range(24))
def test_reports_are_permutation_covariant(capsys, tmp_path, case):
    a, e, p = _cases()[case]
    want = _reports(capsys, tmp_path, a, e)
    got = _reports(capsys, tmp_path, a[np.ix_(p, p)], e[np.ix_(p, p)])
    unique_min = _unique_min(np.linalg.inv(a))
    for (rc, doc, err), (want_rc, want_doc, want_err) in zip(got, want):
        # An error names the first offending pair it meets, which the
        # permutation need not keep first; its indices are left out.
        assert (rc, re.sub("[0-9]+", "#", err)) == (want_rc, re.sub("[0-9]+", "#", want_err))
        if doc is not None:
            _assert_permuted(doc, want_doc, p, unique_min)


def test_cases_reach_every_route():
    # Monotone and non-monotone A (so vstar also exits with an error), E of
    # rank one (Buffoni's closed form) and of full rank (the iteration), and
    # inverses whose minimum is unique and tied.
    monotone, rank_one, unique = set(), set(), set()
    for a, e, _ in _cases():
        inv = np.linalg.inv(a)
        monotone.add(bool((inv >= 0).all()))
        rank_one.add(bool(np.linalg.matrix_rank(e) == 1))
        unique.add(bool(_unique_min(inv)))
    assert monotone == rank_one == unique == {False, True}


@pytest.mark.parametrize("case", range(24))
def test_ratio_argmin_is_permutation_covariant(case):
    a, _, p = _cases()[case]
    want, got = inverse_stats(a), inverse_stats(a[np.ix_(p, p)])
    new_index = np.argsort(p)
    assert abs(got.buffoni_number - want.buffoni_number) <= RTOL * abs(want.buffoni_number)
    assert abs(got.total - want.total) <= RTOL * abs(want.total)
    np.testing.assert_allclose(got.row_sums, want.row_sums[p], rtol=RTOL)
    np.testing.assert_allclose(got.col_sums, want.col_sums[p], rtol=RTOL)
    ratios = want.inv / np.outer(want.row_sums, want.col_sums)
    if _unique_min(ratios):
        r, c = want.ratio_argmin
        assert got.ratio_argmin == (new_index[r], new_index[c])
