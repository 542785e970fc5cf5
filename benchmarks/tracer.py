"""Outside-in tracing of monobound: wrap every public function of every
layer at every name it is bound to, record spans and counts, restore on exit.

The modules import by name (``from .linalg import inverse``), so patching
``monobound.linalg.inverse`` alone would miss the copies in ``classify``,
``bounds`` and ``buffoni``.  ``Tracer.install`` therefore rebinds each
wrapped function in every ``monobound`` module namespace that holds it, and
``profile_counts`` offers an independent count (by code object, through
``sys.setprofile``) to prove no binding site was missed.

Self time of a span is its duration minus the wall time of its child
wrappers; the wrappers' own bookkeeping (hashing matrices, stat-ing files)
is kept out of every span and shows up only in ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "matrixio", "linalg", "classify", "graphdist", "bounds", "buffoni", "laplacian")
ELIMINATING = {("linalg", "lu_factor"), ("linalg", "determinant")}
#: Functions whose arguments or result feed a count (see _before/_after).
COUNTED = ELIMINATING | {
    ("linalg", "lu_solve"),
    ("classify", "is_monotone"),
    ("buffoni", "bisection_vstar"),
    ("buffoni", "buffoni_vstar"),
    ("matrixio", "read_matrix"),
    ("matrixio", "write_dense"),
}


def layer_functions() -> dict[tuple[str, str], object]:
    """(layer, name) -> function for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"monobound.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == module.__name__
            ):
                found[(layer, name)] = obj
    return found


def binding_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "monobound" or name.startswith("monobound.")]


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span recorder.  ``install``/``remove`` patch and restore the program;
    ``begin_op``/``end_op`` bracket one CLI invocation."""

    def __init__(self, span_ops: int = 200) -> None:
        #: Spans are kept for the first ``span_ops`` ops only; stats and counts cover all.
        self.span_ops = span_ops
        self.functions = layer_functions()
        self.stats: dict[tuple[str, str], FunctionStats] = defaultdict(FunctionStats)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span_id, child_wall_s] per open span
        self._patched: list[tuple] = []
        self._next_id = 0
        self._op = -1
        self._op_matrices: set[bytes] = set()
        self._op_self: dict[tuple[str, str], float] = {}
        self._bisection_depth = 0

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.functions.items()}
        for module in binding_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def binding_sites(self) -> int:
        return len(self._patched)

    # ------------------------------------------------------------ op brackets

    def begin_op(self, op_index: int) -> None:
        self._op = op_index
        self._op_matrices = set()
        self._op_self = {}

    def end_op(self) -> dict[tuple[str, str], float]:
        """Close the op; return its self seconds per function."""
        self.counts["distinct_matrices_eliminated"] += len(self._op_matrices)
        self.counts["ops"] += 1
        return self._op_self

    # ------------------------------------------------------------ wrapper

    def _before(self, key, args: list) -> None:
        """Counts taken on entry; ``args`` are the bound argument values in
        signature order, however the caller passed them."""
        if key in ELIMINATING:
            m = np.ascontiguousarray(np.asarray(args[0], dtype=float))
            self._op_matrices.add(hashlib.blake2b(m.tobytes() + repr(m.shape).encode()).digest())
            self.counts["eliminations"] += 1
            self.counts["flops_computed"] += 2.0 * m.shape[0] ** 3 / 3.0
        elif key == ("linalg", "lu_solve"):
            n = args[0].n
            cols = 1 if np.ndim(args[1]) == 1 else np.shape(args[1])[1]
            self.counts["lu_solve_rhs_cols"] += cols
            self.counts["flops_computed"] += 2.0 * n * n * cols
        elif key == ("classify", "is_monotone") and self._bisection_depth:
            self.counts["bisection_probes"] += 1
        elif key == ("buffoni", "bisection_vstar"):
            self._bisection_depth += 1

    def _after(self, key, args: list, result) -> None:
        """Counts that need the call to have succeeded."""
        if key == ("matrixio", "read_matrix"):
            self.counts["bytes_read"] += os.path.getsize(args[0])
        elif key == ("matrixio", "write_dense"):
            self.counts["bytes_written"] += os.path.getsize(args[1])
        elif key == ("buffoni", "buffoni_vstar"):
            self.counts["buffoni_iterations"] += result.iteration_count

    def _wrap(self, key, fn):
        stack, spans, stats = self._stack, self.spans, self.stats[key]
        name = f"{key[0]}.{key[1]}"
        bisection = key == ("buffoni", "bisection_vstar")
        signature = inspect.signature(fn) if key in COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            values = None
            if signature is not None:
                values = list(signature.bind(*args, **kwargs).arguments.values())
                self._before(key, values)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                own = end - start - frame[1]
                stats.calls += 1
                stats.total_s += end - start
                stats.self_s += own
                self._op_self[key] = self._op_self.get(key, 0.0) + own
                if self._op < self.span_ops:
                    spans.append((self._op, span_id, parent, name, start, end))
                if bisection:
                    self._bisection_depth -= 1
                if ok and values is not None:
                    self._after(key, values, result)
                if stack:
                    stack[-1][1] += perf_counter() - entered
            return result

        return wrapper

    # ------------------------------------------------------------ summaries

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for (lay, _), s in self.stats.items() if lay == layer)

    def table(self) -> dict:
        return {
            f"{lay}.{name}": {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for (lay, name), s in sorted(self.stats.items())
            if s.calls
        }


def profile_counts(functions: dict, run) -> dict:
    """Call ``run()`` under ``sys.setprofile`` and count entries into each
    function's code object, whatever name it was called through."""
    codes = {fn.__code__: key for key, fn in functions.items()}
    counts: dict = defaultdict(int)

    def hook(frame, event, arg):
        if event == "call":
            key = codes.get(frame.f_code)
            if key is not None:
                counts[key] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return dict(counts)
