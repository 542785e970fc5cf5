"""Command-line front end: parse matrix files, run the requested analysis,
and print exactly one structured report to stdout.

Reports are JSON by default (``--plain`` switches to human-readable text);
infinite values are serialized as the string "inf" to keep the JSON strict.
All indices in files, flags, and reports are 1-based.  Exit codes: 0 on
success, 2 on unreadable/unparseable input, 3 when a hard mathematical
precondition blocks the computation (singular matrix, non-monotone base,
bad entry position, invalid family parameters).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bounds import (
    BoundResult,
    InverseStats,
    _bouchon_bound,
    _hypotheses,
    _main_bound,
    bouchon_quantities,
    corollary_bound,
    inverse_stats,
    tridiagonal_bound,
)
from .buffoni import (
    BISECT_ABS_TOL,
    _bisect_from,
    _buffoni_from,
    _validated_pair,
)
from .classify import (
    ClassificationReport,
    MonotoneCheck,
    classify_matrix,
)
from .errors import MatrixParseError, MonoboundError
from .laplacian import (
    BlockLaplacianParams,
    block_laplacian_bounds,
    block_laplacian_stats,
    build_block_laplacian,
)
from .linalg import _analyse
from .matrixio import read_matrix, write_dense

SCHEMA = "monobound.report/1"


def _num(x: float) -> float | str:
    """JSON-safe number: +/-inf become the strings "inf" / "-inf"."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _loc(pair: tuple[int, int] | None) -> list[int] | None:
    """0-based (row, col) to 1-based [row, col]."""
    if pair is None:
        return None
    return [pair[0] + 1, pair[1] + 1]


def _classification_dict(report: ClassificationReport) -> dict:
    witness = report.monotone_witness
    return {
        "is_z_matrix": report.is_z_matrix,
        "is_m_matrix": report.is_m_matrix,
        "is_monotone": report.is_monotone,
        "is_strictly_diag_dominant": report.is_strictly_diag_dominant,
        "is_irreducibly_diag_dominant": report.is_irreducibly_diag_dominant,
        "is_irreducible": report.is_irreducible,
        "is_quasi_doubly_stochastic": report.is_quasi_doubly_stochastic,
        "sigma": [float(x) for x in report.sigma],
        "strict_set": [i + 1 for i in report.strict_set],
        "monotone_witness": {
            "location": _loc(witness.location),
            "value": None if witness.value is None else float(witness.value),
            "singular": witness.singular,
        },
    }


def _stats_dict(stats: InverseStats, witness: MonotoneCheck) -> dict:
    return {
        "sigma_total": float(stats.total),
        "buffoni_number": float(stats.buffoni_number),
        "min_entry": {"location": _loc(witness.location), "value": witness.value},
    }


def _bound_dict(result: BoundResult) -> dict:
    return {
        "method": result.method,
        "value": _num(result.value),
        "bound_kind": result.bound_kind,
        "preconditions_ok": result.preconditions_ok,
        "preconditions": result.precondition_detail,
    }


def _cmd_classify(args) -> dict:
    matrix = read_matrix(args.matrix)
    report = classify_matrix(matrix)
    return {
        "schema": SCHEMA,
        "command": "classify",
        "classification": _classification_dict(report),
    }


def _cmd_bounds(args) -> dict:
    # One record of the matrix (its inverse, verdict, Z flag and closure) and
    # one set of hypotheses serve the statistics and every bound.
    record = _analyse(read_matrix(args.matrix))
    stats = inverse_stats(record)
    hypotheses = _hypotheses(record)
    results = []
    doc = {"schema": SCHEMA, "command": "bounds", "stats": _stats_dict(stats, record.check)}
    if args.which in ("main", "all"):
        results.append(_main_bound(stats, hypotheses))
    if args.which in ("corollary", "all"):
        results.append(corollary_bound(record))
    if args.which in ("bouchon", "all"):
        pattern = np.ones_like(record.m) if args.pattern == "full" else read_matrix(args.pattern)
        quantities = bouchon_quantities(record, pattern)
        results.append(_bouchon_bound(record, pattern, quantities, hypotheses))
        doc["bouchon_quantities"] = {
            "min_diag": float(quantities.min_diag),
            "eta": float(quantities.eta),
            "distance_max": int(quantities.distance_max),
            "coefficient": _num(quantities.coefficient),
        }
    doc["bounds"] = [_bound_dict(r) for r in results]
    return doc


def _cmd_vstar(args) -> dict:
    # One validated pair, with its inverse of A, cap and rank-one terms,
    # serves every method.
    pair = _validated_pair(read_matrix(args.matrix), read_matrix(args.perturbation))
    section: dict = {"method": args.method}
    seed = 0.0
    if args.method in ("buffoni", "both"):
        trace = _buffoni_from(pair)
        section["buffoni"] = {
            "value": _num(trace.vstar),
            "status": trace.status,
            "iterations": trace.iteration_count,
        }
        # Only a converged value seeds the bracket: growing it from a far
        # seed costs more than no seed.
        if trace.status == "converged":
            seed = trace.vstar
    if args.method in ("bisect", "both"):
        bisect_value = _bisect_from(pair, seed, BISECT_ABS_TOL)
        section["bisection"] = {
            "value": _num(bisect_value),
            "status": "infinite" if math.isinf(bisect_value) else "finite",
        }
    if args.method == "both":
        if math.isinf(trace.vstar) and math.isinf(bisect_value):
            section["discrepancy"] = 0.0
        else:
            section["discrepancy"] = _num(abs(trace.vstar - bisect_value))
    return {"schema": SCHEMA, "command": "vstar", "vstar": section}


def _cmd_tridiag(args) -> dict:
    matrix = read_matrix(args.matrix)
    result = tridiagonal_bound(matrix, args.l - 1, args.k - 1)
    return {
        "schema": SCHEMA,
        "command": "tridiag",
        "entry": {"row": args.l, "col": args.k},
        "bounds": [_bound_dict(result)],
    }


def _cmd_laplacian(args) -> dict:
    params = BlockLaplacianParams(s=args.s, t=args.t, d=args.d)
    main, bouchon = block_laplacian_bounds(params)
    buffoni_number, total = block_laplacian_stats(params)
    doc = {
        "schema": SCHEMA,
        "command": "laplacian",
        "params": {"s": params.s, "t": params.t, "d": float(params.d)},
        "stats": {"sigma_total": float(total), "buffoni_number": float(buffoni_number)},
        "bounds": [_bound_dict(main), _bound_dict(bouchon)],
    }
    if args.emit_matrix:
        write_dense(build_block_laplacian(params), args.emit_matrix)
        doc["matrix_file"] = args.emit_matrix
    return doc


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def render_plain(report: dict) -> str:
    """Human-readable rendering of a report dict."""
    lines = [f"{report['command']} report"]
    if "params" in report:
        p = report["params"]
        lines.append(f"  params: s={p['s']} t={p['t']} d={_fmt(p['d'])}")
    if "entry" in report:
        e = report["entry"]
        lines.append(f"  perturbed entry: ({e['row']}, {e['col']})")
    if "classification" in report:
        c = report["classification"]
        lines.append("  classification:")
        # The flags are the report's boolean entries, in its order.
        lines.extend(f"    {key:<32} {_fmt(v)}" for key, v in c.items() if isinstance(v, bool))
        lines.append("    sigma: " + " ".join(_fmt(x) for x in c["sigma"]))
        lines.append("    strict rows: " + (" ".join(str(i) for i in c["strict_set"]) or "none"))
        w = c["monotone_witness"]
        if w["singular"]:
            lines.append("    witness: singular matrix")
        else:
            lines.append(f"    min inverse entry {_fmt(w['value'])} at {tuple(w['location'])}")
    if "stats" in report:
        s = report["stats"]
        lines.append("  stats:")
        lines.append(f"    sigma_total     {_fmt(s['sigma_total'])}")
        lines.append(f"    buffoni_number  {_fmt(s['buffoni_number'])}")
        if "min_entry" in s:
            me = s["min_entry"]
            lines.append(f"    min inverse entry {_fmt(me['value'])} at {tuple(me['location'])}")
    if "bouchon_quantities" in report:
        q = report["bouchon_quantities"]
        lines.append(
            f"  graph-bound ingredients: min_diag={_fmt(q['min_diag'])} "
            f"eta={_fmt(q['eta'])} distance_max={q['distance_max']} "
            f"coefficient={_fmt(q['coefficient'])}"
        )
    if "bounds" in report:
        lines.append("  bounds:")
        lines.append(f"    {'method':<12} {'value':<22} {'kind':<14} preconditions")
        for b in report["bounds"]:
            note = "ok" if b["preconditions_ok"] else f"NOT MET ({b['preconditions']})"
            lines.append(
                f"    {b['method']:<12} {_fmt(b['value']):<22} {b['bound_kind']:<14} {note}"
            )
    if "vstar" in report:
        v = report["vstar"]
        lines.append(f"  threshold search ({v['method']}):")
        if "buffoni" in v:
            b = v["buffoni"]
            lines.append(
                f"    ratio iteration: v* = {_fmt(b['value'])} "
                f"({b['status']}, {b['iterations']} iterations)"
            )
        if "bisection" in v:
            lines.append(f"    bisection:       v* = {_fmt(v['bisection']['value'])}")
        if "discrepancy" in v:
            lines.append(f"    discrepancy:     {_fmt(v['discrepancy'])}")
    if "matrix_file" in report:
        lines.append(f"  matrix written to {report['matrix_file']}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--plain", action="store_true", help="human-readable output instead of JSON"
    )

    parser = argparse.ArgumentParser(
        prog="monobound",
        description="Monotonicity-preserving perturbation bounds for M-matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="structure flags and dominance ratios")
    p.add_argument("matrix", help="matrix file (dense or coordinate text)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("bounds", parents=[common], help="closed-form perturbation bounds")
    p.add_argument("matrix", help="matrix file")
    p.add_argument(
        "--pattern",
        default="full",
        help="perturbation pattern file for the graph-distance bound, "
        "or 'full' for the all-ones pattern (default)",
    )
    p.add_argument(
        "--which", choices=("main", "corollary", "bouchon", "all"), default="all"
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("vstar", parents=[common], help="exact threshold for a fixed perturbation")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("perturbation", help="perturbation matrix file (entrywise nonnegative)")
    p.add_argument("--method", choices=("buffoni", "bisect", "both"), default="buffoni")
    p.set_defaults(handler=_cmd_vstar)

    p = sub.add_parser(
        "tridiag", parents=[common], help="sharp single-entry bound for tridiagonal M-matrices"
    )
    p.add_argument("matrix", help="tridiagonal matrix file")
    p.add_argument("l", type=int, help="row of the perturbed entry (1-based)")
    p.add_argument("k", type=int, help="column of the perturbed entry (1-based, |l-k| >= 2)")
    p.set_defaults(handler=_cmd_tridiag)

    p = sub.add_parser(
        "laplacian", parents=[common], help="closed-form analysis of the two-block family"
    )
    p.add_argument("--s", type=int, required=True, help="first block size")
    p.add_argument("--t", type=int, required=True, help="second block size (s <= t)")
    p.add_argument("--d", type=float, required=True, help="diagonal shift (0 < d <= s)")
    p.add_argument(
        "--emit-matrix",
        metavar="PATH",
        help="also write the assembled matrix to PATH in dense-text format",
    )
    p.set_defaults(handler=_cmd_laplacian)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
    except (MatrixParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MonoboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.plain:
        print(render_plain(report))
    else:
        print(json.dumps(report, indent=2))
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
