"""Independent checks of every report the CLI prints.

The expected values come from ``numpy.linalg`` (LAPACK) and
``scipy.sparse.csgraph``, never from monobound itself.  ``check`` returns a
list of mismatch messages; an empty list means the op is correct.  Plain
(``--plain``) reports are parsed back into the JSON layout first, so both
renderings are held to the same oracle (plain prints 10 significant digits,
well inside ``RTOL``).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

SCHEMA = "monobound.report/1"
RTOL = 1e-8
#: The CLI's default --tol: inverse entries down to -MONO_TOL * max|entry| count as >= 0.
MONO_TOL = 1e-10
#: The width to which bisection_vstar narrows its bracket by default.
BISECT_ABS_TOL = 1e-9
DENOMINATOR_FLOOR = 1e-12


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def parse_report(text: str, plain: bool) -> dict:
    if plain:
        return parse_plain(text)
    return json.loads(text, parse_constant=_reject_constant)


def parse_plain(text: str) -> dict:
    """Rebuild the checkable fields of a report from its plain rendering."""
    lines = text.rstrip("\n").split("\n")
    doc: dict = {"schema": SCHEMA, "command": lines[0].split()[0]}
    section = None
    for line in lines[1:]:
        body = line.strip()
        if m := re.fullmatch(r"params: s=(\d+) t=(\d+) d=(\S+)", body):
            doc["params"] = {"s": int(m[1]), "t": int(m[2]), "d": float(m[3])}
        elif m := re.fullmatch(r"perturbed entry: \((\d+), (\d+)\)", body):
            doc["entry"] = {"row": int(m[1]), "col": int(m[2])}
        elif body in ("classification:", "stats:", "bounds:"):
            section = body[:-1]
            doc.setdefault(section, [] if section == "bounds" else {})
        elif m := re.fullmatch(r"threshold search \((\w+)\):", body):
            section = "vstar"
            doc["vstar"] = {"method": m[1]}
        elif m := re.fullmatch(
            r"graph-bound ingredients: min_diag=(\S+) eta=(\S+) distance_max=(\d+) "
            r"coefficient=(\S+)",
            body,
        ):
            doc["bouchon_quantities"] = {
                "min_diag": float(m[1]),
                "eta": float(m[2]),
                "distance_max": int(m[3]),
                "coefficient": float(m[4]),
            }
        elif m := re.fullmatch(r"matrix written to (.+)", body):
            doc["matrix_file"] = m[1]
        elif section == "classification":
            c = doc["classification"]
            if m := re.fullmatch(r"(is_\w+)\s+(yes|no)", body):
                c[m[1]] = m[2] == "yes"
            elif body.startswith("sigma:"):
                c["sigma"] = [float(x) for x in body.split()[1:]]
            elif body.startswith("strict rows:"):
                rest = body.split(":", 1)[1].split()
                c["strict_set"] = [] if rest == ["none"] else [int(x) for x in rest]
            elif body == "witness: singular matrix":
                c["monotone_witness"] = {"location": None, "value": None, "singular": True}
            elif m := re.fullmatch(r"min inverse entry (\S+) at \((\d+), (\d+)\)", body):
                c["monotone_witness"] = {
                    "location": [int(m[2]), int(m[3])],
                    "value": float(m[1]),
                    "singular": False,
                }
        elif section == "stats":
            s = doc["stats"]
            if m := re.fullmatch(r"(sigma_total|buffoni_number)\s+(\S+)", body):
                s[m[1]] = float(m[2])
            elif m := re.fullmatch(r"min inverse entry (\S+) at \((\d+), (\d+)\)", body):
                s["min_entry"] = {"location": [int(m[2]), int(m[3])], "value": float(m[1])}
        elif section == "bounds" and not body.startswith("method"):
            method, value, kind, note = body.split(None, 3)
            doc["bounds"].append(
                {"method": method, "value": float(value), "bound_kind": kind,
                 "preconditions_ok": note == "ok"}
            )
        elif section == "vstar":
            v = doc["vstar"]
            if m := re.fullmatch(r"ratio iteration: v\* = (\S+) \((\w+), (\d+) iterations\)", body):
                v["buffoni"] = {"value": float(m[1]), "status": m[2], "iterations": int(m[3])}
            elif m := re.fullmatch(r"bisection:\s+v\* = (\S+)", body):
                value = float(m[1])
                v["bisection"] = {
                    "value": value,
                    "status": "infinite" if math.isinf(value) else "finite",
                }
            elif m := re.fullmatch(r"discrepancy:\s+(\S+)", body):
                v["discrepancy"] = float(m[1])
    return doc


# ---------------------------------------------------------------- reference math


def _close(got, want: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    got = float(got)  # the JSON encodes infinities as "inf"/"-inf"
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= atol + rtol * abs(want)


def formula(numerator: float, denominator: float) -> float:
    if denominator <= DENOMINATOR_FLOOR:
        return math.inf
    return max(numerator / denominator, 0.0)


def monotone(z: np.ndarray) -> bool:
    return float(z.min()) >= -MONO_TOL * float(np.abs(z).max())


def offdiag_graph(a: np.ndarray) -> csr_matrix:
    adj = a != 0.0
    np.fill_diagonal(adj, False)
    return csr_matrix(adj.astype(float))


def irreducible(a: np.ndarray) -> bool:
    if a.shape[0] == 1:
        return True
    count, _ = connected_components(offdiag_graph(a), directed=True, connection="strong")
    return count == 1


def bouchon_reference(a: np.ndarray, pattern: np.ndarray) -> dict:
    """min|a_ii| / (eta^M * M * e) with M the largest graph distance over the
    off-diagonal support of the pattern (BFS distances from csgraph)."""
    off = np.abs(a - np.diag(np.diagonal(a)))
    supported = off.max(axis=1) > 0.0
    eta = float(np.max(np.abs(np.diagonal(a))[supported] / off.max(axis=1)[supported]))
    dist = shortest_path(offdiag_graph(a), directed=True, unweighted=True)
    support = pattern != 0.0
    np.fill_diagonal(support, False)
    distance_max = int(dist[support].max())
    coefficient = 1.0 / (eta**distance_max * distance_max * math.e)
    min_diag = float(np.min(np.abs(np.diagonal(a))))
    return {
        "min_diag": min_diag,
        "eta": eta,
        "distance_max": distance_max,
        "coefficient": coefficient,
        "value": coefficient * min_diag,
    }


def rank_one_vstar(a: np.ndarray, u: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Exact threshold for E = u w^T by Sherman-Morrison, and the point where
    the CLI's tolerant predicate (entries down to -MONO_TOL * max|entry|
    count as nonnegative) turns false, which bisection converges to.

    Entry ij of (A + vE)^-1 is z_ij - v p_i q_j / (1 + v s), with p = Zu,
    q = Z^T w, s = w^T Z u; it stays >= -slack up to
    (z_ij + slack) / (p_i q_j - s (z_ij + slack)).
    """
    z = np.linalg.inv(a)
    p, q = z @ u, w @ z
    s = float(w @ p)
    pq = np.outer(p, q)

    def first_crossing(slack: float) -> float:
        excess = pq - s * (z + slack)
        mask = excess > 0.0
        return float(np.min((z + slack)[mask] / excess[mask])) if mask.any() else math.inf

    exact = first_crossing(0.0)
    if math.isinf(exact):
        return exact, exact
    at_threshold = z - (exact / (1.0 + exact * s)) * pq
    return exact, first_crossing(MONO_TOL * float(np.abs(at_threshold).max()))


# ---------------------------------------------------------------- per-command checks


class Mismatches(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def close(self, got, want: float, what: str, **kw) -> None:
        self.expect(_close(got, want, **kw), f"{what}: got {got!r}, oracle {want!r}")


def _check_min_entry(out: Mismatches, reported: dict, z: np.ndarray, what: str) -> None:
    """The reported location must hold a smallest entry of the reference
    inverse (ties within roundoff are accepted) and the value must match."""
    scale = float(np.abs(z).max())
    zmin = float(z.min())
    out.close(reported["value"], zmin, f"{what} value", atol=RTOL * scale)
    i, j = reported["location"]
    out.expect(
        float(z[i - 1, j - 1]) - zmin <= RTOL * scale,
        f"{what} location {reported['location']} does not hold the smallest entry",
    )


def _structure(a: np.ndarray, z: np.ndarray) -> dict:
    diag = np.abs(np.diagonal(a))
    sigma = (np.abs(a).sum(axis=1) - diag) / diag
    off = a - np.diag(np.diagonal(a))
    is_z = bool(np.all(off <= 0.0))
    mono = monotone(z)
    irr = irreducible(a)
    return {
        "sigma": sigma,
        "is_z_matrix": is_z,
        "is_monotone": mono,
        "is_m_matrix": is_z and mono,
        "is_strictly_diag_dominant": bool(np.all(sigma < 1.0)),
        "is_irreducible": irr,
        "is_irreducibly_diag_dominant": bool(
            np.all(sigma <= 1.0) and np.any(sigma < 1.0) and irr
        ),
        "is_quasi_doubly_stochastic": bool(
            np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-8)
            and np.all(np.abs(a.sum(axis=0) - 1.0) <= 1e-8)
        ),
    }


def check_classify(out: Mismatches, doc: dict, data: dict) -> None:
    a = data["a"]
    z = np.linalg.inv(a)
    ref = _structure(a, z)
    c = doc["classification"]
    for key, want in ref.items():
        if key != "sigma":
            out.expect(c[key] == want, f"{key}: got {c[key]}, oracle {want}")
    got_sigma = np.asarray(c["sigma"], dtype=float)
    out.expect(
        got_sigma.shape == ref["sigma"].shape
        and np.allclose(got_sigma, ref["sigma"], rtol=RTOL, atol=0.0),
        "sigma vector differs",
    )
    want_strict = [int(i) + 1 for i in np.flatnonzero(ref["sigma"] < 1.0)]
    out.expect(c["strict_set"] == want_strict, "strict_set differs")
    witness = c["monotone_witness"]
    out.expect(not witness["singular"], "witness reports a singular matrix")
    if not witness["singular"]:
        _check_min_entry(out, witness, z, "monotone_witness")


def check_bounds(out: Mismatches, doc: dict, data: dict) -> None:
    a, which = data["a"], data["which"]
    n = a.shape[0]
    z = np.linalg.inv(a)
    rows, cols, total = z.sum(axis=1), z.sum(axis=0), float(z.sum())
    b = float(np.min(z / np.outer(rows, cols)))
    stats = doc["stats"]
    out.close(stats["sigma_total"], total, "sigma_total")
    out.close(stats["buffoni_number"], b, "buffoni_number")
    _check_min_entry(out, stats["min_entry"], z, "min_entry")
    ref = _structure(a, z)
    m_matrix = ref["is_m_matrix"]
    expected = []
    if which in ("main", "all"):
        expected.append(("main", formula(b, 1.0 - b * total),
                         m_matrix and ref["is_strictly_diag_dominant"]))
    if which in ("corollary", "all"):
        zmin = float(z.min())
        expected.append(("corollary", formula(zmin, 1.0 - zmin * n),
                         m_matrix and ref["is_quasi_doubly_stochastic"]))
    if which in ("bouchon", "all"):
        pattern = data.get("pattern")
        pattern = np.ones_like(a) if pattern is None else pattern
        bq = bouchon_reference(a, pattern)
        q = doc["bouchon_quantities"]
        for key in ("min_diag", "eta", "coefficient"):
            out.close(q[key], bq[key], f"bouchon {key}")
        out.expect(q["distance_max"] == bq["distance_max"],
                   f"distance_max: got {q['distance_max']}, oracle {bq['distance_max']}")
        ok = m_matrix and ref["is_irreducibly_diag_dominant"] and bool(
            np.all(pattern.sum(axis=1) >= 0.0))
        expected.append(("bouchon", bq["value"], ok))
    _check_bound_list(out, doc["bounds"], expected)


def _check_bound_list(out: Mismatches, got: list, expected: list) -> None:
    out.expect([g["method"] for g in got] == [e[0] for e in expected], "bound methods differ")
    for g, (method, value, ok) in zip(got, expected):
        out.close(g["value"], value, f"{method} bound")
        out.expect(g["preconditions_ok"] == ok,
                   f"{method} preconditions_ok: got {g['preconditions_ok']}, oracle {ok}")


def _bracket_ok(a: np.ndarray, e: np.ndarray, v: float) -> bool:
    """A + vE changes from monotone to not monotone at ``v``: (A + tE)^-1 is
    nonnegative within the CLI's tolerance just below ``v`` and has a
    negative entry just above it, by LAPACK inverses."""
    if math.isinf(v):
        return all(monotone(np.linalg.inv(a + t * e)) for t in (1.0, 1e3, 1e6))
    width = max(1e-6 * v, 2.0 * BISECT_ABS_TOL)
    below = max(v - width, 0.0)
    return (
        monotone(np.linalg.inv(a + below * e))
        and float(np.linalg.inv(a + (v + width) * e).min()) < 0.0
    )


def check_vstar(out: Mismatches, doc: dict, data: dict) -> None:
    a, e, method = data["a"], data["e"], data["method"]
    v = doc["vstar"]
    out.expect(v["method"] == method, "method echo differs")
    exact, tolerant = rank_one_vstar(a, data["u"], data["w"]) if "u" in data else (None, None)
    values = {}
    if method in ("buffoni", "both"):
        got = float(v["buffoni"]["value"])
        values["buffoni"] = got
        status = "diverged_infinite" if math.isinf(got) else "converged"
        out.expect(v["buffoni"]["status"] == status, f"buffoni status {v['buffoni']['status']}")
        if exact is not None:
            out.close(got, exact, "buffoni v* against the rank-one formula")
        else:
            out.expect(_bracket_ok(a, e, got), f"buffoni v*={got!r} is not the threshold")
    if method in ("bisect", "both"):
        got = float(v["bisection"]["value"])
        values["bisection"] = got
        if exact is not None:
            out.expect(
                exact - BISECT_ABS_TOL <= got <= tolerant + BISECT_ABS_TOL,
                f"bisection v*={got!r} is more than abs_tol outside "
                f"[{exact!r}, {tolerant!r}] (rank-one formula, exact and at --tol)",
            )
        else:
            out.expect(_bracket_ok(a, e, got), f"bisection v*={got!r} is not the threshold")
    if method == "both":
        b, s = values["buffoni"], values["bisection"]
        want = 0.0 if math.isinf(b) and math.isinf(s) else abs(b - s)
        # Plain reports round both values to 10 digits before we subtract them.
        rounding = 0.0 if math.isinf(want) else 1e-9 * max(abs(b), abs(s))
        out.close(v["discrepancy"], want, "discrepancy", rtol=0.0, atol=rounding)


def check_tridiag(out: Mismatches, doc: dict, data: dict) -> None:
    a, l, k = data["a"], data["l"], data["k"]
    if l < k:
        chain = -a[np.arange(l, k), np.arange(l, k) + 1]
        lo, hi = l + 1, k - 1
    else:
        chain = -a[np.arange(k, l) + 1, np.arange(k, l)]
        lo, hi = k + 1, l - 1
    sign, logdet = np.linalg.slogdet(a[lo : hi + 1, lo : hi + 1])
    want = math.exp(float(np.sum(np.log(chain))) - logdet) if sign > 0 else math.nan
    out.expect(doc["entry"] == {"row": l + 1, "col": k + 1}, "entry echo differs")
    _check_bound_list(out, doc["bounds"], [("tridiagonal", want, True)])


def read_dense(text: str) -> np.ndarray:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = int(rows[0][0])
    return np.array([[float(x) for x in row] for row in rows[1 : n + 1]])


def check_laplacian(out: Mismatches, doc: dict, data: dict, emitted: str) -> None:
    s, t, d = data["s"], data["t"], data["d"]
    m = read_dense(emitted)
    want_m = np.block([
        [(t + d) * np.eye(s), -np.ones((s, t))],
        [-np.ones((t, s)), (s + d) * np.eye(t)],
    ])
    out.expect(m.shape == want_m.shape and np.allclose(m, want_m, rtol=1e-15, atol=0.0),
               "emitted matrix is not the two-block Laplacian")
    z = np.linalg.inv(m)
    total = float(z.sum())
    b = float(np.min(z / np.outer(z.sum(axis=1), z.sum(axis=0))))
    p = doc["params"]
    out.expect((p["s"], p["t"]) == (s, t), "params echo differs")
    out.close(p["d"], d, "params d")
    out.close(doc["stats"]["sigma_total"], total, "sigma_total")
    out.close(doc["stats"]["buffoni_number"], b, "buffoni_number")
    expected = [
        ("main", formula(b, 1.0 - b * total), True),
        ("bouchon", bouchon_reference(m, np.ones_like(m))["value"], True),
    ]
    _check_bound_list(out, doc["bounds"], expected)


def _has_nan(node) -> bool:
    if isinstance(node, float):
        return math.isnan(node)
    if isinstance(node, dict):
        return any(_has_nan(x) for x in node.values())
    if isinstance(node, list):
        return any(_has_nan(x) for x in node)
    return False


CHECKS = {
    "classify": check_classify,
    "bounds": check_bounds,
    "vstar": check_vstar,
    "tridiag": check_tridiag,
}


def check(op, rc: int, stdout: str, emitted: str | None) -> list[str]:
    """Mismatch messages for one op: nonzero exit, NaN, or oracle mismatch."""
    out = Mismatches()
    if rc != 0:
        out.append(f"exit code {rc}")
        return out
    try:
        doc = parse_report(stdout, op.plain)
    except ValueError as exc:
        out.append(f"unparseable report: {exc}")
        return out
    out.expect(not _has_nan(doc), "NaN in report")
    out.expect(doc.get("schema") == SCHEMA, "schema differs")
    out.expect(doc.get("command") == op.kind, "command differs")
    try:
        if op.kind == "laplacian":
            check_laplacian(out, doc, op.data, emitted or "")
            out.expect(doc.get("matrix_file") == str(op.emit), "matrix_file differs")
        else:
            CHECKS[op.kind](out, doc, op.data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        out.append(f"report is missing or malforms a field: {exc!r}")
    return out
