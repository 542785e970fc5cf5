"""Acceptance gate for the package contract.

One test per criterion.  Each test prints a single ``criterion NN <name>:
PASS``/``FAIL`` line (run pytest with ``-s`` to see them live) and then
asserts, so a red criterion fails the suite with a summary of what broke.
"""

import json
import math

import numpy as np
from conftest import (
    SAMPLE_A,
    SAMPLE_A_INV_4DP,
    random_nonneg_perturbation,
    random_qds_m_matrix,
    random_sdd_m_matrix,
    random_symmetric_sdd_m_matrix,
    random_tridiagonal_m_matrix,
    random_well_conditioned,
    threshold_mismatch,
)

from monobound import (
    BlockLaplacianParams,
    bisection_vstar,
    block_laplacian_bounds,
    block_laplacian_inverse,
    bouchon_bound,
    bouchon_quantities,
    buffoni_vstar,
    build_block_laplacian,
    corollary_bound,
    gavrilov_check,
    inverse,
    is_monotone,
    is_quasi_doubly_stochastic,
    main_bound,
    sigma_via_determinant,
    tridiagonal_bound,
    verify_kuttler,
)
from monobound.cli import main as cli_main


def _verdict(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num:2d} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def _unit(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def test_criterion_01_reference_inverse():
    failures = []
    dev = np.max(np.abs(inverse(SAMPLE_A) - SAMPLE_A_INV_4DP))
    if dev > 5e-5:
        failures.append(f"inverse deviates from 4-decimal reference by {dev:.2e}")
    _verdict(1, "reference inverse", failures)


def test_criterion_02_breaking_thresholds():
    failures = []
    cases = [
        ("single entry (1,2)", _unit(3, 0, 1), 0.15),
        ("single entry (1,3)", _unit(3, 0, 2), 0.6),
        ("uniform", np.ones((3, 3)), 0.0923),
    ]
    for label, e, expected in cases:
        trace = buffoni_vstar(SAMPLE_A, e)
        if trace.status != "converged":
            failures.append(f"{label}: status {trace.status}")
        elif abs(trace.vstar - expected) > 5e-5:
            failures.append(f"{label}: got {trace.vstar!r}, expected {expected}")
        if trace.iteration_count > 10:
            failures.append(f"{label}: took {trace.iteration_count} iterations")
    _verdict(2, "breaking thresholds", failures)


def test_criterion_03_main_bound_coincides():
    failures = []
    value = main_bound(SAMPLE_A).value
    if abs(value - 0.0923) > 5e-5:
        failures.append(f"main bound {value!r} not within 5e-5 of 0.0923")
    exact = buffoni_vstar(SAMPLE_A, np.ones((3, 3))).vstar
    if abs(value - exact) > 1e-6 * exact:
        failures.append(f"main bound {value!r} disagrees with iterated threshold {exact!r}")
    _verdict(3, "main bound coincides with iteration", failures)


def test_criterion_04_graph_distance_bound():
    failures = []
    q = bouchon_quantities(SAMPLE_A, np.ones((3, 3)))
    if abs(q.min_diag - 1.4) > 5e-5:
        failures.append(f"smallest diagonal {q.min_diag!r} != 1.4")
    if abs(q.eta - 4.0) > 5e-5:
        failures.append(f"dominance ratio {q.eta!r} != 4")
    if q.distance_max != 2:
        failures.append(f"largest graph distance {q.distance_max} != 2")
    value = bouchon_bound(SAMPLE_A, np.ones((3, 3))).value
    for ref in (1.4 / (32.0 * math.e), 0.0161):
        if abs(value - ref) > 5e-5:
            failures.append(f"bound {value!r} not within 5e-5 of {ref!r}")
    _verdict(4, "graph distance bound", failures)


def test_criterion_05_block_laplacian():
    failures = []
    p = BlockLaplacianParams(10, 20, 5.0)
    main_res, bouchon_res = block_laplacian_bounds(p)
    if abs(main_res.value - 0.2222) > 5e-5:
        failures.append(f"main {main_res.value!r} not within 5e-5 of 0.2222")
    if abs(bouchon_res.value - 0.0044) > 5e-5:
        failures.append(f"bouchon {bouchon_res.value!r} not within 5e-5 of 0.0044")
    worst = 0.0
    for s in range(1, 11):
        for t in range(s, 11):
            for d in [0.5] + list(range(1, s + 1)):
                params = BlockLaplacianParams(s, t, float(d))
                closed = block_laplacian_inverse(params)
                numeric = np.linalg.inv(build_block_laplacian(params))
                worst = max(worst, float(np.max(np.abs(closed - numeric))))
    if worst > 1e-10:
        failures.append(f"closed-form inverse off by {worst:.2e} somewhere on the grid")
    _verdict(5, "two-block grounded Laplacian", failures)


def test_criterion_06_main_bound_tightness():
    rng = np.random.default_rng(106)
    not_monotone_at_v = 0
    min_entry_off = 0
    survives_past_v = 0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        a = random_sdd_m_matrix(rng, n)
        v = main_bound(a).value
        ones = np.ones((n, n))
        at_v = inverse(a + v * ones)
        if not is_monotone(a + v * ones):
            not_monotone_at_v += 1
        if abs(at_v.min()) > 1e-8 * at_v.max():
            min_entry_off += 1
        if is_monotone(a + 1.01 * v * ones):
            survives_past_v += 1
    failures = []
    if not_monotone_at_v:
        failures.append(f"{not_monotone_at_v}/200 not monotone at the bound")
    if min_entry_off:
        failures.append(f"{min_entry_off}/200 min inverse entry not pinned to zero")
    if survives_past_v:
        failures.append(f"{survives_past_v}/200 still monotone 1% past the bound")
    _verdict(6, "main bound tightness", failures)


def test_criterion_07_iteration_matches_bisection():
    rng = np.random.default_rng(107)
    disagreements = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = random_sdd_m_matrix(rng, n)
        e = random_nonneg_perturbation(rng, n)
        vstar = buffoni_vstar(a, e).vstar
        oracle = bisection_vstar(a, e)
        if math.isinf(vstar) or math.isinf(oracle):
            if vstar != oracle:
                disagreements += 1
            continue
        gap = abs(vstar - oracle)
        worst = max(worst, gap)
        if gap > max(1e-6, 1e-6 * vstar):
            disagreements += 1
    failures = []
    if disagreements:
        failures.append(f"{disagreements}/100 pairs disagree (worst finite gap {worst:.2e})")
    _verdict(7, "iteration agrees with bisection oracle", failures)


def test_criterion_08_tridiagonal_sharpness():
    rng = np.random.default_rng(108)
    mismatches = 0
    boundary_breaks = 0
    pairs = 0
    for _ in range(100):
        n = int(rng.integers(4, 9))
        a = random_tridiagonal_m_matrix(rng, n)
        for l in range(n):
            for k in range(n):
                if abs(l - k) < 2:
                    continue
                pairs += 1
                h = tridiagonal_bound(a, l, k).value
                e = _unit(n, l, k)
                if not is_monotone(a + h * e) or is_monotone(a + 1.001 * h * e):
                    boundary_breaks += 1
                # Where the slack moves the oracle's tolerant threshold more
                # than 1e-8 h past h, a 50-digit inverse judges each, to 1e-8,
                # against its own definition.
                oracle = bisection_vstar(a, e, abs_tol=1e-9 * h)
                if threshold_mismatch(a, e, h, oracle, eps=1e-8, floor=0.0):
                    mismatches += 1
    failures = []
    if mismatches:
        failures.append(f"{mismatches}/{pairs} bounds disagree with the bisection oracle")
    if boundary_breaks:
        failures.append(f"{boundary_breaks}/{pairs} boundary (h vs 1.001h) checks broke")
    _verdict(8, "tridiagonal single-entry sharpness", failures)


def test_criterion_09_sigma_consistency():
    rng = np.random.default_rng(109)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        a = random_well_conditioned(rng, n)
        direct = float(inverse(a).sum())
        if abs(sigma_via_determinant(a) - direct) > 1e-8 * abs(direct):
            bad += 1
    failures = []
    if bad:
        failures.append(f"{bad}/100 determinant-ratio sums disagree with the direct sum")
    _verdict(9, "entry-sum via determinant ratio", failures)


def test_criterion_10_certificate_soundness():
    rng = np.random.default_rng(110)
    failures = []

    kuttler_fired = 0
    kuttler_unsound = 0
    for _ in range(60):
        n = int(rng.integers(2, 8))
        a = random_sdd_m_matrix(rng, n)
        # self-certificate: the matrix dominates itself and maps 1 to a
        # strictly positive vector
        if verify_kuttler(a, a, np.ones(n)):
            kuttler_fired += 1
            if not is_monotone(a):
                kuttler_unsound += 1
        # adversarial instance: arbitrary sign pattern, certificate built
        # from a random dominating matrix and weight vector
        b = rng.normal(size=(n, n))
        m_cert = b + np.abs(rng.normal(size=(n, n)))
        w = np.abs(rng.normal(size=n))
        if verify_kuttler(b, m_cert, w) and not is_monotone(b):
            kuttler_unsound += 1
    if kuttler_unsound:
        failures.append(f"{kuttler_unsound} dominance certificates accepted a non-monotone matrix")
    if kuttler_fired == 0:
        failures.append("dominance certificate never fired, suite is vacuous")

    gavrilov_fired = 0
    gavrilov_unsound = 0
    for _ in range(25):
        n = int(rng.integers(3, 7))
        a = random_symmetric_sdd_m_matrix(rng, n)
        for order in range(2, n):
            if gavrilov_check(a, order):
                gavrilov_fired += 1
                if not is_monotone(a):
                    gavrilov_unsound += 1
        # adversarial symmetric instance with mixed off-diagonal signs
        g = rng.normal(size=(n, n))
        sym = (g + g.T) / 2.0 + n * np.eye(n)
        if gavrilov_check(sym, 2) and not is_monotone(sym):
            gavrilov_unsound += 1
    if gavrilov_unsound:
        failures.append(f"{gavrilov_unsound} submatrix certificates accepted a non-monotone matrix")
    if gavrilov_fired == 0:
        failures.append("submatrix certificate never fired, suite is vacuous")

    _verdict(10, "certificates never overclaim", failures)


def test_criterion_11_qds_closure():
    rng = np.random.default_rng(111)
    inv_not_qds = 0
    bound_mismatch = 0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        a = random_qds_m_matrix(rng, n)
        if not is_quasi_doubly_stochastic(inverse(a)):
            inv_not_qds += 1
        c = corollary_bound(a)
        m = main_bound(a)
        if not c.preconditions_ok:
            bound_mismatch += 1
        elif abs(c.value - m.value) > 1e-12 * m.value:
            bound_mismatch += 1
    failures = []
    if inv_not_qds:
        failures.append(f"{inv_not_qds}/50 inverses lost the unit row/column sums")
    if bound_mismatch:
        failures.append(f"{bound_mismatch}/50 corollary values disagree with the main bound")
    _verdict(11, "quasi-doubly-stochastic closure", failures)


def test_criterion_12_cli_contract(capsys, tmp_path):
    failures = []

    sample = tmp_path / "sample.txt"
    sample.write_text("3\n1.6 0 -0.6\n-0.4 1.4 0\n-0.2 -0.4 1.6\n")

    def run(argv):
        rc = cli_main(argv)
        captured = capsys.readouterr()
        return rc, captured.out

    def run_json(argv, label):
        rc, out = run(argv)
        if rc != 0:
            failures.append(f"{label}: exit code {rc}")
            return None
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            failures.append(f"{label}: output is not JSON")
            return None
        if report.get("schema") != "monobound.report/1":
            failures.append(f"{label}: missing schema tag")
        return report

    # inverse-derived statistics (smallest entry and marginal sums)
    report = run_json(["classify", str(sample)], "classify")
    if report is not None:
        witness = report["classification"]["monotone_witness"]["value"]
        if abs(witness - SAMPLE_A_INV_4DP.min()) > 5e-5:
            failures.append(f"classify: witness {witness!r} != smallest inverse entry")

    report = run_json(["bounds", str(sample)], "bounds")
    if report is not None:
        stats = report["stats"]
        if abs(stats["min_entry"]["value"] - SAMPLE_A_INV_4DP.min()) > 5e-5:
            failures.append("bounds: min inverse entry off")
        if abs(stats["sigma_total"] - SAMPLE_A_INV_4DP.sum()) > 9 * 5e-5:
            failures.append("bounds: entry sum off")
        by_method = {b["method"]: b["value"] for b in report["bounds"]}
        if abs(by_method["main"] - 0.0923) > 5e-5:
            failures.append(f"bounds: main {by_method['main']!r} != 0.0923")
        if abs(by_method["bouchon"] - 0.0161) > 5e-5:
            failures.append(f"bounds: bouchon {by_method['bouchon']!r} != 0.0161")
        q = report["bouchon_quantities"]
        quantities_ok = (
            abs(q["min_diag"] - 1.4) <= 5e-5
            and abs(q["eta"] - 4.0) <= 5e-5
            and q["distance_max"] == 2
        )
        if not quantities_ok:
            failures.append(f"bounds: graph-distance quantities {q!r}")

    # breaking thresholds for the three worked perturbations
    e12 = tmp_path / "e12.txt"
    e12.write_text("3 1\n1 2 1.0\n")
    e13 = tmp_path / "e13.txt"
    e13.write_text("3 1\n1 3 1.0\n")
    ones = tmp_path / "ones.txt"
    ones.write_text("3\n1 1 1\n1 1 1\n1 1 1\n")
    for label, pert, expected in [
        ("vstar e12", e12, 0.15),
        ("vstar e13", e13, 0.6),
        ("vstar uniform", ones, 0.0923),
    ]:
        report = run_json(["vstar", str(sample), str(pert)], label)
        if report is None:
            continue
        section = report["vstar"]["buffoni"]
        if section["status"] != "converged" or abs(section["value"] - expected) > 5e-5:
            failures.append(f"{label}: got {section['value']!r}, expected {expected}")

    report = run_json(["laplacian", "--s", "10", "--t", "20", "--d", "5"], "laplacian")
    if report is not None:
        by_method = {b["method"]: b["value"] for b in report["bounds"]}
        if abs(by_method["main"] - 0.2222) > 5e-5:
            failures.append(f"laplacian: main {by_method['main']!r} != 0.2222")
        if abs(by_method["bouchon"] - 0.0044) > 5e-5:
            failures.append(f"laplacian: bouchon {by_method['bouchon']!r} != 0.0044")

    # malformed input must exit 2
    broken = tmp_path / "broken.txt"
    broken.write_text("3\n1 0\n")
    rc, _ = run(["classify", str(broken)])
    if rc != 2:
        failures.append(f"malformed input exited {rc}, expected 2")

    # precondition failures must exit 3
    singular = tmp_path / "singular.txt"
    singular.write_text("2\n1 1\n1 1\n")
    for label, argv in [
        ("singular bounds", ["bounds", str(singular)]),
        ("invalid family params", ["laplacian", "--s", "3", "--t", "2", "--d", "1"]),
        ("wrong bandwidth", ["tridiag", str(sample), "1", "2"]),
    ]:
        rc, _ = run(argv)
        if rc != 3:
            failures.append(f"{label} exited {rc}, expected 3")

    _verdict(12, "command line contract", failures)
