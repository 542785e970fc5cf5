"""End-to-end command line checks via main() with captured stdout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    INFINITE_THRESHOLD_PAIRS,
    NOT_MONOTONE_WITHIN_SLACK,
    SAMPLE_A,
    SAMPLE_A_VSTAR_UNIFORM,
    random_nonneg_perturbation,
    random_sdd_m_matrix,
)

from monobound import bisection_vstar, buffoni, classify, cli, format_dense, graphdist, linalg
from monobound.buffoni import BISECT_ABS_TOL
from monobound.cli import main

DENSE_SAMPLE = """\
3
1.6 0 -0.6
-0.4 1.4 0
-0.2 -0.4 1.6
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(DENSE_SAMPLE)
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


def test_classify(capsys, sample_file):
    report = run_json(capsys, ["classify", sample_file])
    assert report["schema"] == "monobound.report/1"
    assert report["command"] == "classify"
    cls = report["classification"]
    assert cls["is_monotone"] and cls["is_m_matrix"] and cls["is_quasi_doubly_stochastic"]
    assert cls["strict_set"] == [1, 2, 3]
    assert cls["monotone_witness"]["location"] == [1, 2]
    assert cls["monotone_witness"]["value"] == pytest.approx(0.24 / 3.32, rel=1e-9)


def test_classify_identity(capsys, tmp_path):
    path = tmp_path / "eye.txt"
    path.write_text(format_dense(np.eye(3)))
    cls = run_json(capsys, ["classify", str(path)])["classification"]
    assert cls["is_monotone"] and cls["is_m_matrix"]
    assert not cls["is_irreducible"]
    assert not cls["is_irreducibly_diag_dominant"]


def test_bounds_all(capsys, sample_file):
    report = run_json(capsys, ["bounds", sample_file])
    stats = report["stats"]
    assert stats["sigma_total"] == pytest.approx(3.0, rel=1e-9)
    assert stats["buffoni_number"] == pytest.approx(6.0 / 83.0, rel=1e-9)
    assert stats["min_entry"]["value"] == pytest.approx(6.0 / 83.0, rel=1e-9)
    by_method = {b["method"]: b for b in report["bounds"]}
    assert set(by_method) == {"main", "corollary", "bouchon"}
    assert by_method["main"]["value"] == pytest.approx(6.0 / 65.0, rel=1e-9)
    assert by_method["bouchon"]["value"] == pytest.approx(0.0160947255512506, rel=1e-9)
    assert report["bouchon_quantities"]["eta"] == pytest.approx(4.0)
    assert report["bouchon_quantities"]["distance_max"] == 2


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` at every monobound module that binds it; return
    the list that collects one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "monobound" or mod_name.startswith("monobound.")) and getattr(
            mod, name, None
        ) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


# `bounds` report of SAMPLE_A (dense file above, full pattern).
SAMPLE_BOUNDS_REPORT = {
    "schema": "monobound.report/1",
    "command": "bounds",
    "stats": {
        "sigma_total": 3.0,
        "buffoni_number": 0.07228915662650603,
        "min_entry": {"location": [1, 2], "value": 0.07228915662650602},
    },
    "bouchon_quantities": {
        "min_diag": 1.4,
        "eta": 4.0,
        "distance_max": 2,
        "coefficient": 0.011496232536607573,
    },
    "bounds": [
        {
            "method": "main",
            "value": 0.09230769230769233,
            "bound_kind": "componentwise",
            "preconditions_ok": True,
            "preconditions": "strictly diagonally dominant M-matrix",
        },
        {
            "method": "corollary",
            "value": 0.09230769230769231,
            "bound_kind": "componentwise",
            "preconditions_ok": True,
            "preconditions": "quasi-doubly-stochastic M-matrix",
        },
        {
            "method": "bouchon",
            "value": 0.0160947255512506,
            "bound_kind": "inf-norm",
            "preconditions_ok": True,
            "preconditions": "irreducibly diagonally dominant M-matrix, "
            "pattern row sums nonnegative",
        },
    ],
}


def _assert_same_report(got, want):
    if isinstance(want, dict):
        assert set(got) == set(want)
        for key in want:
            _assert_same_report(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_report(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12)
    else:
        assert got == want


def test_bounds_all_factors_once(capsys, monkeypatch, sample_file):
    factorizations = _count_calls(monkeypatch, linalg, "inverse")
    distance_scans = _count_calls(monkeypatch, graphdist, "bouchon_M")
    report = run_json(capsys, ["bounds", sample_file, "--which", "all"])
    assert len(factorizations) == 1
    assert len(distance_scans) == 1
    _assert_same_report(report, SAMPLE_BOUNDS_REPORT)


@pytest.mark.parametrize(
    "which, counts",
    [
        # Bouchon's rule reads irreducibility: one closure there and one in
        # bouchon_M, which works on the pattern's support.
        ("all", {"inverse": 1, "sigma_vector": 1, "is_z_matrix": 1, "_reach_powers": 2}),
        ("main", {"inverse": 1, "sigma_vector": 1, "_reach_powers": 0, "is_irreducible": 0}),
        ("corollary", {"inverse": 1, "is_z_matrix": 1, "_reach_powers": 0, "is_irreducible": 0}),
    ],
)
def test_bounds_decides_each_hypothesis_once(capsys, monkeypatch, sample_file, which, counts):
    calls = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in [
            (linalg, "inverse"),
            (classify, "sigma_vector"),
            (classify, "is_z_matrix"),
            (classify, "is_irreducible"),
            (graphdist, "_reach_powers"),
        ]
    }
    run_json(capsys, ["bounds", sample_file, "--which", which])
    assert {name: len(calls[name]) for name in counts} == counts


def test_classify_tests_the_z_pattern_once(capsys, monkeypatch, sample_file):
    calls = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in [(linalg, "inverse"), (classify, "is_z_matrix")]
    }
    report = run_json(capsys, ["classify", sample_file])
    assert {name: len(calls[name]) for name in calls} == {"inverse": 1, "is_z_matrix": 1}
    assert report["classification"]["is_z_matrix"] and report["classification"]["is_m_matrix"]


def test_vstar_buffoni_factors_once_per_iteration(capsys, monkeypatch, sample_file, tmp_path):
    pert = tmp_path / "ones.txt"
    pert.write_text(format_dense(np.ones((3, 3))))
    factorizations = _count_calls(monkeypatch, linalg, "inverse")
    report = run_json(capsys, ["vstar", sample_file, str(pert), "--method", "buffoni"])
    assert len(factorizations) == report["vstar"]["buffoni"]["iterations"]


def test_vstar_both_inverts_once_for_a_rank_one_pair(capsys, monkeypatch, sample_file, tmp_path):
    # E = J is rank one: Buffoni takes one closed-form step from the inverse
    # that validates A, the bisection is seeded at its value, and both probes
    # are decided by the Sherman-Morrison candidate's certificate, so the
    # inverse of A is the only one.
    pert = tmp_path / "ones.txt"
    pert.write_text(format_dense(np.ones((3, 3))))
    factorizations = _count_calls(monkeypatch, linalg, "inverse")
    probes = _count_calls(monkeypatch, buffoni, "_checked_inverse")
    report = run_json(capsys, ["vstar", sample_file, str(pert), "--method", "both"])
    iterations = report["vstar"]["buffoni"]["iterations"]
    assert (iterations, len(probes), len(factorizations)) == (1, 2, 1)


def test_vstar_forms_one_residual_per_threshold_search(capsys, monkeypatch, tmp_path):
    # A rank-one search bounds the residual of every probe's candidate from
    # one matrix product, however many probes it takes; the closed form of
    # `--method buffoni` forms none.
    rng = np.random.default_rng(79)
    a_path, e_path = tmp_path / "rank-one-a.txt", tmp_path / "rank-one-e.txt"
    a_path.write_text(format_dense(random_sdd_m_matrix(rng, 7)))
    e_path.write_text(format_dense(np.outer(rng.uniform(0, 1, 7), rng.uniform(0, 1, 7))))
    products = _count_calls(monkeypatch, buffoni, "_residual_bound")
    probes = _count_calls(monkeypatch, buffoni, "_checked_inverse")
    counts = {}
    for method in ("buffoni", "both", "bisect"):
        products.clear()
        probes.clear()
        run_json(capsys, ["vstar", str(a_path), str(e_path), "--method", method])
        counts[method] = (len(products), len(probes))
    assert counts["buffoni"] == (0, 0)
    assert counts["both"][0] == counts["bisect"][0] == 1
    assert 2 <= counts["both"][1] < counts["bisect"][1]


def test_vstar_probes_invert_when_the_certificate_declines(
    capsys, monkeypatch, sample_file, tmp_path
):
    # With every certificate declined each probe falls back to its own
    # inverse.  The seeded search of `--method both` keeps every byte; the
    # unseeded one interpolates between other matrices, so its value may
    # move inside the abs_tol bracket.
    rng = np.random.default_rng(79)
    a_path, e_path = tmp_path / "rank-one-a.txt", tmp_path / "rank-one-e.txt"
    a_path.write_text(format_dense(random_sdd_m_matrix(rng, 7)))
    e_path.write_text(format_dense(np.outer(rng.uniform(0, 1, 7), rng.uniform(0, 1, 7))))
    ones = tmp_path / "ones.txt"
    ones.write_text(format_dense(np.ones((3, 3))))
    cases = [(sample_file, ones, "both"), (a_path, e_path, "both"), (a_path, e_path, "bisect")]
    for a_file, e_file, method in cases:
        argv = ["vstar", str(a_file), str(e_file), "--method", method]
        certified = run(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr(buffoni, "_certified_verdict", lambda *args: None)
            factorizations = _count_calls(patch, linalg, "inverse")
            probes = _count_calls(patch, buffoni, "_checked_inverse")
            inverted = run(capsys, argv)
        assert len(probes) >= 2
        assert len(factorizations) == 1 + len(probes)
        if method == "both":
            assert inverted == certified
        else:
            first, second = (json.loads(out)["vstar"]["bisection"]["value"]
                             for _, out, _ in (certified, inverted))
            assert abs(first - second) <= BISECT_ABS_TOL


def test_vstar_both_finds_the_rank_one_terms_once(capsys, monkeypatch, sample_file, tmp_path):
    pert = tmp_path / "ones.txt"
    pert.write_text(format_dense(np.ones((3, 3))))
    factors = _count_calls(monkeypatch, buffoni, "_rank_one_factors")
    terms = _count_calls(monkeypatch, buffoni, "_rank_one_terms")
    for method in ("buffoni", "bisect", "both"):
        factors.clear()
        terms.clear()
        run_json(capsys, ["vstar", sample_file, str(pert), "--method", method])
        assert (len(factors), len(terms)) == (1, 1)


@pytest.mark.parametrize("method", ["bisect", "both"])
def test_vstar_bisect_on_a_huge_scale(capsys, tmp_path, method):
    # In the caller's units the brackets are about 1e180 wide and W = Z E Z
    # is about 1e-362; on the unit-scaled pair neither is far from 1, so both
    # searches find the finite threshold.
    big, ones = tmp_path / "big.txt", tmp_path / "ones.txt"
    big.write_text(format_dense(1e181 * SAMPLE_A))
    ones.write_text(format_dense(np.ones((3, 3))))
    rc, out, err = run(capsys, ["vstar", str(big), str(ones), "--method", method])
    assert (rc, err) == (0, "")
    report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
    section = report["vstar"]
    value = section["bisection"]["value"]
    assert section["bisection"]["status"] == "finite"
    assert value == pytest.approx(1e181 * SAMPLE_A_VSTAR_UNIFORM, rel=1e-8)
    if method == "both":
        assert section["buffoni"]["status"] == "converged"
        assert section["discrepancy"] <= 1e-8 * value


# Z = A^-1 holds an exact -2, but its largest entry, 1e12, puts -2 inside the
# slack MONOTONE_RTOL * max|Z| = 100, so the one verdict calls A monotone.
SLACK_HIDES_A_NEGATIVE_ENTRY = np.array([[1e-12, 0.0, 0.0], [-1e-12, 1.0, -2.0], [0.0, -1.0, 1.0]])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the slack is relative to max|Z|, so an exact -2 beside a 1e12 "
    "entry passes the verdict; classify reports is_m_matrix and is_monotone true",
)
def test_classify_rejects_a_negative_entry_hidden_by_the_slack(capsys, tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(format_dense(SLACK_HIDES_A_NEGATIVE_ENTRY))
    flags = run_json(capsys, ["classify", str(path)])["classification"]
    assert not flags["is_m_matrix"] and not flags["is_monotone"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="A passes validation inside the slack, so vstar --method both "
    "exits 0 with Buffoni converged at 0.2",
)
def test_vstar_refuses_a_negative_entry_hidden_by_the_slack(capsys, tmp_path):
    a, ones = tmp_path / "a.txt", tmp_path / "ones.txt"
    a.write_text(format_dense(SLACK_HIDES_A_NEGATIVE_ENTRY))
    ones.write_text(format_dense(np.ones((3, 3))))
    rc, out, _ = run(capsys, ["vstar", str(a), str(ones), "--method", "both"])
    assert (rc, out) == (3, "")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the CLI's bisection stops at the absolute width BISECT_ABS_TOL, "
    "so it reports 5.0009e-10 where Buffoni finds v* = 9.2308e-14",
)
def test_vstar_searches_agree_below_the_absolute_tolerance(capsys, tmp_path):
    a, ones = tmp_path / "a.txt", tmp_path / "ones.txt"
    a.write_text(format_dense(1e-12 * SAMPLE_A))
    ones.write_text(format_dense(np.ones((3, 3))))
    section = run_json(capsys, ["vstar", str(a), str(ones), "--method", "both"])["vstar"]
    bisection, ratio = section["bisection"]["value"], section["buffoni"]["value"]
    assert abs(bisection - ratio) <= 1e-6 * ratio


def test_bounds_zero_diagonal_bouchon(capsys, tmp_path):
    path = tmp_path / "swap.txt"
    path.write_text("2\n0 1\n1 0\n")
    rc, out, err = run(capsys, ["bounds", str(path), "--which", "bouchon"])
    assert rc == 0, err
    report = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-strict {token}"))
    assert report["bouchon_quantities"]["eta"] == 0.0
    assert report["bouchon_quantities"]["coefficient"] == "inf"
    (bound,) = report["bounds"]
    assert bound["value"] == 0.0
    assert not bound["preconditions_ok"]
    assert "zero diagonal" in bound["preconditions"]


def test_bounds_single_method(capsys, sample_file):
    report = run_json(capsys, ["bounds", sample_file, "--which", "corollary"])
    assert [b["method"] for b in report["bounds"]] == ["corollary"]
    assert "bouchon_quantities" not in report


def test_bounds_custom_pattern(capsys, sample_file, tmp_path):
    pattern = tmp_path / "e13.txt"
    pattern.write_text("3 1\n1 3 1.0\n")
    report = run_json(
        capsys, ["bounds", sample_file, "--which", "bouchon", "--pattern", str(pattern)]
    )
    assert report["bouchon_quantities"]["distance_max"] == 1


def test_vstar_single_entry(capsys, sample_file, tmp_path):
    pert = tmp_path / "e12.txt"
    pert.write_text("3 1\n1 2 1.0\n")
    report = run_json(capsys, ["vstar", sample_file, str(pert)])
    section = report["vstar"]["buffoni"]
    assert section["status"] == "converged"
    assert section["value"] == pytest.approx(0.15, abs=1e-9)
    assert section["iterations"] <= 10


def test_vstar_both_methods(capsys, sample_file, tmp_path):
    pert = tmp_path / "ones.txt"
    pert.write_text(format_dense(np.ones((3, 3))))
    report = run_json(capsys, ["vstar", sample_file, str(pert), "--method", "both"])
    assert report["vstar"]["buffoni"]["value"] == pytest.approx(6.0 / 65.0, rel=1e-9)
    assert report["vstar"]["bisection"]["value"] == pytest.approx(6.0 / 65.0, abs=1e-6)
    assert report["vstar"]["discrepancy"] < 1e-6


def test_vstar_both_seeded_bisection_matches_library(capsys, tmp_path):
    # The seeded bisection of `vstar --method both` against the library's
    # unseeded one, on rank-one and full-rank perturbations.
    rng = np.random.default_rng(71)
    a_path, e_path = tmp_path / "a.txt", tmp_path / "e.txt"
    for i in range(50):
        n = int(rng.integers(3, 13))
        a = random_sdd_m_matrix(rng, n)
        if i % 2:
            e = random_nonneg_perturbation(rng, n)
        else:
            u = rng.uniform(0, 1, n) * (rng.uniform(size=n) < 0.5)
            u[rng.integers(n)] = rng.uniform(0.5, 1.0)
            e = np.outer(u, rng.uniform(0, 1, n))
        a_path.write_text(format_dense(a))
        e_path.write_text(format_dense(e))
        report = run_json(capsys, ["vstar", str(a_path), str(e_path), "--method", "both"])
        got = report["vstar"]["bisection"]["value"]
        oracle = bisection_vstar(a, e)
        if np.isinf(oracle):
            assert got == "inf"
        else:
            assert abs(got - oracle) <= 1e-9


def test_vstar_both_seeds_only_from_a_converged_value(capsys, monkeypatch, tmp_path):
    # One iterate stops short of v*.  Growing the bracket from a far seed
    # doubles out to v* and halves back, which costs more than no seed.
    monkeypatch.setattr(buffoni, "MAX_ITER", 1)
    rng = np.random.default_rng(73)
    a, e = random_sdd_m_matrix(rng, 6), random_nonneg_perturbation(rng, 6)
    a_path, e_path = tmp_path / "a.txt", tmp_path / "e.txt"
    a_path.write_text(format_dense(a))
    e_path.write_text(format_dense(e))
    probes = _count_calls(monkeypatch, buffoni, "_checked_inverse")
    bisection_vstar(a, e)
    unseeded = len(probes)
    probes.clear()
    report = run_json(capsys, ["vstar", str(a_path), str(e_path), "--method", "both"])
    assert report["vstar"]["buffoni"]["status"] == "max_iterations"
    assert len(probes) <= unseeded


@pytest.mark.parametrize("pair", INFINITE_THRESHOLD_PAIRS.values(), ids=INFINITE_THRESHOLD_PAIRS)
def test_vstar_both_infinite_threshold(capsys, tmp_path, pair):
    a_path, e_path = tmp_path / "a.txt", tmp_path / "e.txt"
    a_path.write_text(format_dense(pair[0]))
    e_path.write_text(format_dense(pair[1]))
    section = run_json(capsys, ["vstar", str(a_path), str(e_path), "--method", "both"])["vstar"]
    assert section["buffoni"]["value"] == section["bisection"]["value"] == "inf"
    assert section["discrepancy"] == 0.0


def test_vstar_validates_once_for_every_method(capsys, monkeypatch, sample_file, tmp_path):
    pert = tmp_path / "ones.txt"
    pert.write_text(format_dense(np.ones((3, 3))))
    validations = _count_calls(monkeypatch, buffoni, "_validated_pair")
    for method in ("buffoni", "bisect", "both"):
        validations.clear()
        run_json(capsys, ["vstar", sample_file, str(pert), "--method", method])
        assert len(validations) == 1


def test_vstar_negative_perturbation(capsys, sample_file, tmp_path):
    pert = tmp_path / "neg.txt"
    pert.write_text("3 1\n1 2 -1.0\n")
    rc, out, err = run(capsys, ["vstar", sample_file, str(pert)])
    assert rc == 3
    assert out == ""
    assert "nonnegative" in err


def test_vstar_loose_tol_non_monotone(capsys, tmp_path):
    # The slack lets this non-monotone A through validation; the ratio
    # iteration's check on W = Z E Z then stops it.
    a = tmp_path / "a.txt"
    a.write_text(format_dense(NOT_MONOTONE_WITHIN_SLACK))
    e = tmp_path / "e.txt"
    e.write_text("2 1\n2 2 1.0\n")
    rc, out, err = run(capsys, ["vstar", str(a), str(e)])
    assert rc == 3
    assert out == ""
    assert "not monotone" in err


def test_vstar_loose_tol_non_monotone_scaled(capsys, tmp_path):
    a = tmp_path / "a.txt"
    e = tmp_path / "e.txt"
    e.write_text("2 1\n2 2 1.0\n")
    for scale in (2.0**20, 2.0**-20):
        a.write_text(format_dense(scale * NOT_MONOTONE_WITHIN_SLACK))
        rc, out, err = run(capsys, ["vstar", str(a), str(e)])
        assert rc == 3
        assert out == ""
        assert "not monotone" in err


def test_tridiag(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(format_dense(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])))
    report = run_json(capsys, ["tridiag", str(path), "1", "3"])
    assert report["bounds"][0]["value"] == pytest.approx(0.5, rel=1e-9)
    assert report["bounds"][0]["bound_kind"] == "single-entry"
    assert report["entry"] == {"row": 1, "col": 3}


def test_tridiag_bandwidth_error(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(format_dense(2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)))
    rc, out, err = run(capsys, ["tridiag", str(path), "1", "2"])
    assert rc == 3
    assert "|l - k| >= 2" in err


def test_tridiag_rejects_full_matrix(capsys, sample_file):
    rc, out, err = run(capsys, ["tridiag", sample_file, "1", "3"])
    assert rc == 3
    assert "sub/superdiagonal" in err


def test_laplacian(capsys):
    report = run_json(capsys, ["laplacian", "--s", "10", "--t", "20", "--d", "5"])
    by_method = {b["method"]: b for b in report["bounds"]}
    assert by_method["main"]["value"] == pytest.approx(10.0 / 45.0, rel=1e-9)
    assert by_method["bouchon"]["value"] == pytest.approx(0.004414553294057308, rel=1e-9)
    assert report["stats"]["sigma_total"] == pytest.approx(6.0, rel=1e-9)
    assert report["params"] == {"s": 10, "t": 20, "d": 5.0}


def test_laplacian_emit_matrix(capsys, tmp_path):
    out_path = tmp_path / "lap.txt"
    report = run_json(
        capsys,
        ["laplacian", "--s", "2", "--t", "3", "--d", "2", "--emit-matrix", str(out_path)],
    )
    assert report["matrix_file"] == str(out_path)
    m = np.loadtxt(str(out_path), skiprows=1)
    assert m.shape == (5, 5)
    assert m[0, 0] == 5.0
    assert m[0, 4] == -1.0


def test_laplacian_invalid_params(capsys):
    rc, out, err = run(capsys, ["laplacian", "--s", "3", "--t", "2", "--d", "1"])
    assert rc == 3
    assert "s <= t" in err


def test_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 0\n")
    rc, out, err = run(capsys, ["classify", str(path)])
    assert rc == 2
    assert "expected" in err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, newline):
    path = tmp_path / "latin1.txt"
    path.write_bytes(newline.join(["2", "1 \xff", "0 1", ""]).encode("latin-1"))
    rc, out, err = run(capsys, ["classify", str(path)])
    assert (rc, out) == (2, "")
    assert err == f"error: {path}:2: not UTF-8 text (invalid start byte)\n"


def test_missing_file(capsys):
    rc, out, err = run(capsys, ["classify", "/nonexistent/path.txt"])
    assert rc == 2


def test_singular_matrix(capsys, tmp_path):
    path = tmp_path / "sing.txt"
    path.write_text("2\n1 1\n1 1\n")
    rc, out, err = run(capsys, ["bounds", str(path)])
    assert rc == 3
    assert "singular" in err.lower()


def test_tridiag_singular_block(capsys, tmp_path):
    # The principal block strictly between entry (1, 4) is [[1, 1], [1, 1]].
    path = tmp_path / "t.txt"
    path.write_text("4\n2 -1 0 0\n-1 1 1 0\n0 1 1 -1\n0 0 -1 2\n")
    rc, out, err = run(capsys, ["tridiag", str(path), "1", "4"])
    assert rc == 3
    assert out == ""
    assert "principal block 1..2" in err and "singular" in err


NO_SCIPY_SCRIPT = """
import sys
from monobound.cli import main

a, e = sys.argv[1:]
for argv in (
    ["classify", a],
    ["bounds", a, "--which", "all"],
    ["vstar", a, e, "--method", "both"],
    ["tridiag", a, "1", "3"],
    ["laplacian", "--s", "2", "--t", "3", "--d", "1"],
):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
if "scipy" in sys.modules:
    sys.exit("scipy was imported")
"""


def test_no_command_imports_scipy(tmp_path):
    # scipy may be installed where the tests run; the package must not use it.
    a, e = tmp_path / "a.txt", tmp_path / "e.txt"
    a.write_text("3\n2 -1 0\n-1 2 -1\n0 -1 2\n")
    e.write_text("3 1\n1 3 1.0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(a), str(e)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_module_entry_point(tmp_path):
    # python -m monobound.cli runs console_main, the installed script's target.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def entry(*argv):
        command = [sys.executable, "-m", "monobound.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True, cwd=tmp_path)

    result = entry("laplacian", "--s", "1", "--t", "2", "--d", "0.5")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout, parse_constant=lambda token: pytest.fail(token))
    assert report["command"] == "laplacian"
    result = entry("classify", "missing.txt")
    assert (result.returncode, result.stdout) == (2, "")
    assert "missing.txt" in result.stderr


@pytest.mark.parametrize("comment, line", [("", 1), ("# c\n", 2)])
def test_dimension_too_large_to_allocate_is_a_parse_error(capsys, tmp_path, comment, line):
    # n^2 float64 entries overflow the largest array size, so numpy refuses
    # before allocating; with the comment the per-token parser allocates.
    path = tmp_path / "big.txt"
    path.write_text(comment + "99999999999999 0\n")
    rc, out, err = run(capsys, ["classify", str(path)])
    assert rc == 2 and out == ""
    assert err == f"error: {path}:{line}: dimension 99999999999999 is too large to allocate\n"


PLAIN_FILES = {
    "a.txt": DENSE_SAMPLE,
    "ones.txt": "3\n1 1 1\n1 1 1\n1 1 1\n",
    "path.txt": "3\n2 -1 0\n-1 2 -1\n0 -1 2\n",
    "p2.txt": "2\n2 -1\n-1 2\n",
    "e11.txt": "2 1\n1 1 1.0\n",
    "sing.txt": "2\n1 1\n1 1\n",
    "not_z.txt": "2\n1 0.3\n0.2 1\n",
}

PLAIN_REPORTS = [
    (
        ["bounds", "a.txt"],
        """\
bounds report
  stats:
    sigma_total     3
    buffoni_number  0.07228915663
    min inverse entry 0.07228915663 at (1, 2)
  graph-bound ingredients: min_diag=1.4 eta=4 distance_max=2 coefficient=0.01149623254
  bounds:
    method       value                  kind           preconditions
    main         0.09230769231          componentwise  ok
    corollary    0.09230769231          componentwise  ok
    bouchon      0.01609472555          inf-norm       ok
""",
    ),
    (
        ["bounds", "not_z.txt", "--which", "main"],
        """\
bounds report
  stats:
    sigma_total     1.595744681
    buffoni_number  -0.5755102041
    min inverse entry -0.3191489362 at (1, 2)
  bounds:
    method       value                  kind           preconditions
    main         0                      componentwise  NOT MET (not a (nonsingular) M-matrix)
""",
    ),
    (
        ["vstar", "a.txt", "ones.txt", "--method", "bisect"],
        """\
vstar report
  threshold search (bisect):
    bisection:       v* = 0.09230769242
""",
    ),
    (
        # E = e1 e1^T keeps the M-matrix monotone for every v: both searches
        # are infinite and their discrepancy is 0, not inf - inf.
        ["vstar", "p2.txt", "e11.txt", "--method", "both"],
        """\
vstar report
  threshold search (both):
    ratio iteration: v* = inf (diverged_infinite, 0 iterations)
    bisection:       v* = inf
    discrepancy:     0
""",
    ),
    (
        ["tridiag", "path.txt", "1", "3"],
        """\
tridiag report
  perturbed entry: (1, 3)
  bounds:
    method       value                  kind           preconditions
    tridiagonal  0.5                    single-entry   ok
""",
    ),
    (
        ["laplacian", "--s", "1", "--t", "2", "--d", "0.5", "--emit-matrix", "lap.txt"],
        """\
laplacian report
  params: s=1 t=2 d=0.5
  stats:
    sigma_total     6
    buffoni_number  0.09523809524
  bounds:
    method       value                  kind           preconditions
    main         0.2222222222           componentwise  ok
    bouchon      0.04414553294          inf-norm       ok
  matrix written to lap.txt
""",
    ),
    (
        ["classify", "sing.txt"],
        """\
classify report
  classification:
    is_z_matrix                      no
    is_m_matrix                      no
    is_monotone                      no
    is_strictly_diag_dominant        no
    is_irreducibly_diag_dominant     no
    is_irreducible                   yes
    is_quasi_doubly_stochastic       no
    sigma: 1 1
    strict rows: none
    witness: singular matrix
""",
    ),
    (
        # The flags take their order from the report; "yes" and "no" are
        # mixed, and the witness of a nonsingular matrix is its smallest
        # inverse entry.
        ["classify", "not_z.txt"],
        """\
classify report
  classification:
    is_z_matrix                      no
    is_m_matrix                      no
    is_monotone                      no
    is_strictly_diag_dominant        yes
    is_irreducibly_diag_dominant     yes
    is_irreducible                   yes
    is_quasi_doubly_stochastic       no
    sigma: 0.3 0.2
    strict rows: 1 2
    min inverse entry -0.3191489362 at (1, 2)
""",
    ),
]


@pytest.mark.parametrize(
    "argv, text",
    PLAIN_REPORTS,
    ids=[
        "bounds",
        "bounds-not-met",
        "vstar-bisect",
        "vstar-both-infinite",
        "tridiag",
        "laplacian",
        "classify-singular",
        "classify-nonsingular",
    ],
)
def test_plain_rendering(capsys, monkeypatch, tmp_path, argv, text):
    monkeypatch.chdir(tmp_path)
    for name, content in PLAIN_FILES.items():
        (tmp_path / name).write_text(content)
    assert run(capsys, argv + ["--plain"]) == (0, text, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "m.txt", "--format", "dense"],
        ["laplacian", "--s", "1", "--t", "2", "--d", "0.5", "--tol", "1e-8"],
        ["classify", "m.txt", "--tol", "1e-8"],
    ],
)
def test_flags_that_change_no_result_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch, tmp_path):
    # --which and --plain on the first call must not carry over to the later
    # ones.
    path = tmp_path / "a.txt"
    path.write_text(DENSE_SAMPLE)
    cli._parser.cache_clear()
    builds = _count_calls(monkeypatch, cli, "build_parser")
    rc, out, _ = run(capsys, ["bounds", str(path), "--which", "main", "--plain"])
    assert rc == 0
    assert out.startswith("bounds report\n")
    assert "main" in out and "corollary" not in out
    report = run_json(capsys, ["bounds", str(path)])
    assert [b["method"] for b in report["bounds"]] == ["main", "corollary", "bouchon"]
    report = run_json(capsys, ["classify", str(path)])
    assert report["command"] == "classify"
    assert len(builds) == 1
