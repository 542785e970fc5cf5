"""monobound benchmark: one closed-loop client driving ``monobound.cli.main``
in-process on seeded inputs, every output checked by an independent oracle.

    python3 benchmarks/run.py --workload bounds_dense --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
untraced and traced, checks the two outputs are byte-identical, and prints
the per-layer metrics.  The last stdout line is the result object; the line
before it holds the environment and the details behind the metrics, which
are also written to ``.bench_out/`` at the repository root.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy loads; probes inherit it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from speed import Kernel  # noqa: E402
from tracer import Tracer, profile_counts  # noqa: E402
from workloads import (  # noqa: E402
    WHY,
    Workload,
    grid_laplacian,
    sdd_m_matrix,
    sparse_nonneg_vector,
    write_matrix,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters per run that each time import + warm-up op (setup_s)
#: and report their peak RSS (peak_rss_mb); the medians are reported.
SETUP_PROBES = 5
#: Ops each probe runs; small_mixed needs several to touch every subcommand.
PROBE_OPS = {"bounds_dense": 1, "vstar_grid": 1, "small_mixed": 20}
#: Speed-kernel matrix size: the size of the matrices each workload eliminates.
KERNEL_SIZE = {"bounds_dense": 200, "vstar_grid": 200, "small_mixed": 120}
#: Failures listed in the detail line (all are counted).
FAILURES_SHOWN = 5

NO_WAIT = (
    "not measured: one closed-loop client and no queue, so no layer has a wait time"
)


@dataclass
class Outcome:
    """What one run measured: metrics as name -> (value, unit), plus the
    details printed and saved next to them."""

    attempted: int
    failed: int
    metrics: dict
    detail: dict
    checks_ok: bool = True
    spans: list | None = field(default=None, repr=False)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bounds_dense", "vstar_grid", "small_mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed(kernel: Kernel) -> tuple[float, float]:
    """(start, seconds) of one run of the speed kernel."""
    return perf_counter(), kernel.seconds()


def invoke(cli, argv: list[str]) -> tuple[object, str, float, float]:
    """Run one CLI command in-process; return (exit code, stdout, start, seconds).

    ``cli.main`` is looked up at call time so an installed tracer is used.
    An exception escaping ``main`` is reported as the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        rc = f"exception {exc!r}"
    return rc, out.getvalue(), start, perf_counter() - start


def read_emitted(op) -> str | None:
    if op.emit is None or not op.emit.exists():
        return None
    return op.emit.read_text(encoding="utf-8")


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
        "client": "one closed-loop client, one process, one thread, in-process cli.main(argv)",
    }


def probe_setup(workload, kernel: Kernel, work: Path) -> dict:
    """Median set-up time and peak RSS over SETUP_PROBES fresh interpreters.

    Each probe's set-up time is scaled by the mean of the speed kernel timed
    just before and just after it."""
    count = PROBE_OPS[workload.name]
    argvs = [workload.op(i, work / f"probe{i}").argv for i in range(count)]
    samples = []
    for _ in range(SETUP_PROBES):
        before = kernel.seconds()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(argvs)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        after = kernel.seconds()
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        sample["scaled_setup_s"] = kernel.scaled(sample["setup_s"], (before + after) / 2)
        samples.append(sample)
    for i in range(count):
        shutil.rmtree(work / f"probe{i}", ignore_errors=True)
    return {
        "setup_s": statistics.median(s["scaled_setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "samples": samples,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it: the (N-10)-th smallest latency, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_loop(workload, work: Path, seconds: float, step) -> dict:
    """Closed loop: generate op i, let ``step`` run it, check the output,
    repeat until ``seconds`` of wall time have passed.  Input generation and
    oracle work happen between ops and are excluded from every op time."""
    attempted = 0
    failures = []
    started = perf_counter()
    index = 1  # op 0 is the warm-up op
    while perf_counter() - started < seconds:
        directory = work / f"op{index}"
        op = workload.op(index, directory)
        rc, stdout, emitted, problems = step(index, op)
        problems = oracle.check(op, rc, stdout, emitted) + problems
        attempted += 1
        if problems:
            failures.append({"op": index, "argv": op.argv[:1] + op.argv[2:], "problems": problems[:3]})
        shutil.rmtree(directory, ignore_errors=True)
        index += 1
    return {"attempted": attempted, "failures": failures}


def end_to_end(args, workload, cli, work: Path) -> Outcome:
    kernel = Kernel(KERNEL_SIZE[workload.name])
    setup = probe_setup(workload, kernel, work)
    ops: list[tuple[float, float]] = []
    kernels = [timed(kernel)]

    def step(index, op):
        rc, stdout, start, seconds = invoke(cli, op.argv)
        ops.append((start, seconds))
        kernels.append(timed(kernel))
        return rc, stdout, read_emitted(op), []

    loop = run_loop(workload, work, args.seconds, step)
    raw = [seconds for _, seconds in ops]
    latencies = [s * f for s, f in zip(raw, kernel.factors(ops, kernels))]
    tail_s, tail_pct = tail(latencies)
    attempted = loop["attempted"]
    failed = len(loop["failures"])
    metrics = {
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "ok_ops_frac": ((attempted - failed) / attempted, "frac"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (setup["peak_rss_mb"], "MiB"),
    }
    detail = {
        "ops": attempted,
        "failed_ops_frac": failed / attempted,
        "op_tail_percentile": tail_pct,
        "unscaled": {
            "op_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[0],
            "ops_per_s": attempted / sum(raw),
            "setup_s": statistics.median(s["setup_s"] for s in setup["samples"]),
        },
        "setup_samples": setup["samples"],
        "failures": loop["failures"][:FAILURES_SHOWN],
    }
    return Outcome(attempted, failed, metrics, detail)


def self_checks(cli, workload_seed: int, work: Path) -> dict:
    """Tracer completeness: on one ``bounds --which all`` op and one
    ``vstar --method both`` op, the wrapper call counts must equal the
    code-object counts of an independent profiler, for every function.

    The elimination count of the bounds op and the graphdist call count of
    the vstar op are reported next to the values the present code gives;
    they are observations, not pass/fail, so a change that removes
    redundant factorizations still passes.
    """
    rng = np.random.default_rng([workload_seed, 0])
    work.mkdir(parents=True, exist_ok=True)
    a = write_matrix(work / "check_a.txt", sdd_m_matrix(rng, 12), coord=False)
    g = grid_laplacian(4, 0.3)
    e = np.outer(sparse_nonneg_vector(rng, 16, 2, 3), sparse_nonneg_vector(rng, 16, 2, 3))
    ops = {
        "bounds": ["bounds", a, "--which", "all"],
        "vstar": ["vstar", write_matrix(work / "check_g.txt", g, True),
                  write_matrix(work / "check_e.txt", e, True), "--method", "both"],
    }
    report = {"profiler_match": True, "mismatched": []}
    for name, argv in ops.items():
        tracer = Tracer()
        tracer.install()
        report["binding_sites"] = tracer.binding_sites()
        tracer.begin_op(0)
        try:
            profiled = profile_counts(tracer.functions, lambda: invoke(cli, argv))
        finally:
            tracer.remove()
        tracer.end_op()
        for key in tracer.functions:
            got = tracer.stats[key].calls
            want = profiled.get(key, 0)
            if got != want:
                report["profiler_match"] = False
                report["mismatched"].append(f"{name}: {key[0]}.{key[1]} wrapped {got}, profiled {want}")
        graphdist = sum(s.calls for (lay, _), s in tracer.stats.items() if lay == "graphdist")
        if name == "bounds":
            report["bounds_all_eliminations"] = int(tracer.counts["eliminations"])
        else:
            report["vstar_graphdist_calls"] = graphdist
    report["reference_values"] = {"bounds_all_eliminations": 6, "vstar_graphdist_calls": 0}
    return report


def per_layer(args, workload, cli, work: Path) -> Outcome:
    checks = self_checks(cli, args.seed, work / "selfcheck")
    kernel = Kernel(KERNEL_SIZE[workload.name])
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    op_self: list[dict] = []
    pairs: list[tuple[float, float]] = []
    kernels = [timed(kernel)]
    identical = 0

    def step(index, op):
        nonlocal identical
        # Alternate which run goes first, so neither side always finds warm caches.
        runs = {}
        for mode in ("untraced", "traced") if index % 2 else ("traced", "untraced"):
            if mode == "traced":
                tracer.install()
                tracer.begin_op(index)
                try:
                    runs[mode] = invoke(cli, op.argv) + (read_emitted(op),)
                finally:
                    tracer.remove()
                op_self.append(tracer.end_op())
            else:
                runs[mode] = invoke(cli, op.argv) + (read_emitted(op),)
        kernels.append(timed(kernel))
        rc, stdout, start, seconds, emitted = runs["untraced"]
        untraced.append(seconds)
        traced.append(runs["traced"][3])
        pairs.append((min(start, runs["traced"][2]), seconds + runs["traced"][3]))
        same = runs["traced"][:2] == (rc, stdout) and runs["traced"][4] == emitted
        identical += same
        return rc, stdout, emitted, [] if same else ["traced output differs from untraced"]

    loop = run_loop(workload, work, args.seconds, step)
    # Self seconds at reference speed, op by op, as for the end-to-end times.
    self_s: dict = defaultdict(float)
    for seconds, factor in zip(op_self, kernel.factors(pairs, kernels)):
        for key, value in seconds.items():
            self_s[key] += value * factor
    ops = tracer.counts["ops"]
    op_time = tracer.stats[("cli", "main")].total_s

    def fn(layer, name):
        return tracer.stats[(layer, name)]

    def per_op(value, unit):
        return (value / ops, unit)

    def self_per_op(layer, name=None):
        total = sum(v for (lay, nm), v in self_s.items() if lay == layer and name in (None, nm))
        return (total / ops, "s")

    def share(seconds):
        return (seconds / op_time, "frac")

    eliminations = tracer.counts["eliminations"]
    metrics = {
        "linalg.eliminations_per_op": per_op(eliminations, "count/op"),
        "linalg.factor_reuse_ratio": (
            tracer.counts["distinct_matrices_eliminated"] / eliminations if eliminations else 1.0,
            "ratio",
        ),
        "linalg.lu_factor.self_s": self_per_op("linalg", "lu_factor"),
        "linalg.lu_solve.self_s": self_per_op("linalg", "lu_solve"),
        "linalg.lu_solve.rhs_cols": per_op(tracer.counts["lu_solve_rhs_cols"], "count/op"),
        "linalg.determinant.calls": per_op(fn("linalg", "determinant").calls, "count/op"),
        "linalg.flops_computed_per_op": per_op(tracer.counts["flops_computed"], "flop/op"),
        "graphdist.bouchon_M.calls": per_op(fn("graphdist", "bouchon_M").calls, "count/op"),
        "graphdist.bouchon_M.self_share": share(fn("graphdist", "bouchon_M").self_s),
        "graphdist.distances_from.calls": per_op(fn("graphdist", "distances_from").calls, "count/op"),
        "graphdist.distances_from.self_share": share(fn("graphdist", "distances_from").self_s),
        "graphdist.build_digraph.self_share": share(fn("graphdist", "build_digraph").self_s),
        "buffoni.iterations_per_op": per_op(tracer.counts["buffoni_iterations"], "count/op"),
        "buffoni.bisection_probes_per_op": per_op(tracer.counts["bisection_probes"], "count/op"),
        "buffoni.buffoni_vstar.self_share": share(fn("buffoni", "buffoni_vstar").self_s),
        "buffoni.bisection_vstar.self_share": share(fn("buffoni", "bisection_vstar").self_s),
        "classify.is_monotone.calls": per_op(fn("classify", "is_monotone").calls, "count/op"),
        "classify.is_monotone.self_s": self_per_op("classify", "is_monotone"),
        "classify.is_irreducible.self_share": share(fn("classify", "is_irreducible").self_s),
        "classify.classify_matrix.self_share": share(fn("classify", "classify_matrix").self_s),
        "bounds.inverse_stats.calls": per_op(fn("bounds", "inverse_stats").calls, "count/op"),
        "bounds.bouchon_quantities.calls": per_op(fn("bounds", "bouchon_quantities").calls, "count/op"),
        "bounds.self_share": share(tracer.layer_self_s("bounds")),
        "matrixio.read_matrix.self_s": self_per_op("matrixio", "read_matrix"),
        "matrixio.bytes_read": per_op(tracer.counts["bytes_read"], "B/op"),
        "matrixio.write_dense.self_share": share(fn("matrixio", "write_dense").self_s),
        "matrixio.bytes_written": per_op(tracer.counts["bytes_written"], "B/op"),
        "cli.main.self_s": self_per_op("cli"),
        "laplacian.self_share": share(tracer.layer_self_s("laplacian")),
        "trace.overhead_frac": (sum(traced) / sum(untraced) - 1.0, "frac"),
    }
    attempted = loop["attempted"]
    failed = len(loop["failures"])
    detail = {
        "ops": attempted,
        "traced_stdout_identical": f"{identical}/{attempted}",
        "self_checks": checks,
        "wait_time": NO_WAIT,
        "layer_self_s_per_op": {
            layer: self_per_op(layer)[0] for layer in sorted({lay for lay, _ in tracer.functions})
        },
        "functions": tracer.table(),
        "counts": dict(tracer.counts),
        "failures": loop["failures"][:FAILURES_SHOWN],
    }
    return Outcome(attempted, failed, metrics, detail, checks["profiler_match"], tracer.spans)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monobound" / "__init__.py").is_file():
        print(f"error: no monobound sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = Workload(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        sys.path.insert(0, str(SRC))
        from monobound import cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: monobound imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        env = environment(args)
        invoke(cli, workload.op(0, work / "op0").argv)  # warm-up op, untimed
        measure = per_layer if args.trace else end_to_end
        outcome = measure(args, workload, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    line = {
        "correct": outcome.failed == 0 and outcome.checks_ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    detail = {"benchmark": "monobound", "why": WHY[args.workload], "environment": env}
    detail |= outcome.detail
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail | {"result": line}, indent=1) + "\n")
    if outcome.spans is not None:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["op", "span", "parent", "name", "start_s", "end_s"],
             "spans": outcome.spans}))
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
