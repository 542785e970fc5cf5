"""Seeded inputs for the three benchmark workloads.

Op ``i`` of a run draws everything from ``numpy.random.default_rng([seed,
workload_id, i])``, so the same seed always gives the same op sequence and
no two ops of a run share an input (a cache keyed on the input cannot help
across ops).  Each op writes its input files into its own directory and
keeps the arrays it wrote, so the oracle can check the output against the
exact float64 values the program parsed (``repr`` round-trips a float64).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Reasons for each workload; the same text is in BENCHMARK.json and README.md.
WHY = {
    "bounds_dense": (
        "bounds --which all on dense n=200 M-matrices: pure-Python graph BFS twice per op "
        "and 6 eliminations of one matrix, so it rewards factoring once; never calls buffoni"
    ),
    "vstar_grid": (
        "vstar --method both on a 15x15 grid Laplacian with rank-one E: Buffoni iterates and "
        "~31 bisection probes eliminate distinct matrices, so caching cannot help"
    ),
    "small_mixed": (
        "all five subcommands on n=4..48, coordinate and --plain shares, file writes: "
        "per-call overhead in cli, matrixio and small linalg paths, not O(n^3) work"
    ),
}

WORKLOAD_IDS = {"bounds_dense": 1, "vstar_grid": 2, "small_mixed": 3}

# small_mixed fixes its mix instead of drawing it, so that two seeds differ
# in input values, not in how many expensive ops they happen to contain.
# Op i runs MIX[i % 20] (weights 4:5:4:4:3), vstar ops cycle through the
# three methods and bounds ops through the four --which choices; the sizes
# n = 4..48 follow a golden-ratio sequence with a seeded offset.
MIX = (
    "bounds", "classify", "vstar", "tridiag", "laplacian",
    "bounds", "classify", "vstar", "tridiag", "bounds",
    "laplacian", "classify", "vstar", "tridiag", "bounds",
    "classify", "vstar", "tridiag", "laplacian", "bounds",
)
VSTAR_METHODS = ("buffoni", "bisect", "both")
BOUNDS_WHICH = ("main", "corollary", "bouchon", "all")
GOLDEN = 0.6180339887498949


@dataclass
class Op:
    """One CLI invocation plus the data its oracle needs.

    ``data`` holds the arrays and parameters the inputs were made from;
    ``emit`` is the file the op writes (laplacian --emit-matrix), if any.
    """

    kind: str
    argv: list[str]
    data: dict = field(default_factory=dict)
    plain: bool = False
    emit: Path | None = None


def format_dense(m: np.ndarray) -> str:
    rows = (" ".join(map(repr, row)) for row in m.tolist())
    return f"{m.shape[0]}\n" + "\n".join(rows) + "\n"


def format_coord(m: np.ndarray) -> str:
    rows, cols = np.nonzero(m)
    lines = [f"{m.shape[0]} {len(rows)}"]
    values = m[rows, cols].tolist()
    lines += [f"{i + 1} {j + 1} {v!r}" for i, j, v in zip(rows.tolist(), cols.tolist(), values)]
    return "\n".join(lines) + "\n"


def write_matrix(path: Path, m: np.ndarray, coord: bool) -> str:
    path.write_text(format_coord(m) if coord else format_dense(m), encoding="utf-8")
    return str(path)


def sdd_m_matrix(rng, n: int, density: float = 1.0, cycle: bool = True) -> np.ndarray:
    """Strictly diagonally dominant M-matrix (nonpositive off-diagonal,
    diagonal 5-50% above the off-diagonal row sum).  ``cycle`` adds the
    edges i -> i+1 mod n, which makes the sparsity graph strongly connected."""
    off = -rng.uniform(0.1, 1.0, (n, n))
    if density < 1.0:
        off *= rng.random((n, n)) < density
    if cycle:
        off[np.arange(n), (np.arange(n) + 1) % n] = -rng.uniform(0.1, 1.0, n)
    np.fill_diagonal(off, 0.0)
    row = -off.sum(axis=1)
    diag = np.where(row > 0.0, row, 1.0) * (1.0 + rng.uniform(0.05, 0.5, n))
    return off + np.diag(diag)


def sdd_mixed_sign(rng, n: int) -> np.ndarray:
    """Strictly diagonally dominant matrix with off-diagonal entries of both
    signs: nonsingular and well conditioned, but usually not monotone."""
    off = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(off, 0.0)
    diag = np.abs(off).sum(axis=1) * (1.0 + rng.uniform(0.05, 0.5, n)) + 0.1
    return off + np.diag(diag * rng.choice([-1.0, 1.0], n, p=[0.2, 0.8]))


def grid_laplacian(side: int, shift: float) -> np.ndarray:
    """Five-point Laplacian on a side x side grid plus ``shift`` * I."""
    t = 2.0 * np.eye(side) - np.eye(side, k=1) - np.eye(side, k=-1)
    eye = np.eye(side)
    return np.kron(eye, t) + np.kron(t, eye) + shift * np.eye(side * side)


def sparse_nonneg_vector(rng, n: int, lo: int, hi: int) -> np.ndarray:
    v = np.zeros(n)
    idx = rng.choice(n, int(rng.integers(lo, hi + 1)), replace=False)
    v[idx] = rng.uniform(0.5, 2.0, len(idx))
    return v


def full_rank_sparse_perturbation(rng, n: int) -> np.ndarray:
    """Nonnegative E = (positive weights on a fixed-point-free permutation)
    plus a few extra entries: full rank, off-diagonal, never rank one."""
    # Relabelling a cyclic shift keeps it free of fixed points.
    relabel = rng.permutation(n)
    perm = np.empty(n, dtype=int)
    perm[relabel] = relabel[(np.arange(n) + int(rng.integers(1, n))) % n]
    e = np.zeros((n, n))
    e[np.arange(n), perm] = rng.uniform(0.5, 2.0, n)
    extra = rng.integers(0, n, (n // 4 + 1, 2))
    e[extra[:, 0], extra[:, 1]] += rng.uniform(0.1, 1.0, len(extra))
    return e


def tridiagonal_m_matrix(rng, n: int) -> np.ndarray:
    sub = -rng.uniform(0.2, 1.0, n - 1)
    sup = -rng.uniform(0.2, 1.0, n - 1)
    m = np.diag(sub, -1) + np.diag(sup, 1)
    m += np.diag(-m.sum(axis=1) * rng.uniform(1.05, 2.0, n))
    return m


class Workload:
    """Op factory for one named workload and seed."""

    def __init__(self, name: str, seed: int):
        if name not in WHY:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self._make = getattr(self, f"_{name}")
        self._size_offset = float(np.random.default_rng([seed, WORKLOAD_IDS[name]]).random())

    def op(self, index: int, directory: Path) -> Op:
        """Write the inputs of op ``index`` into ``directory`` and return it."""
        directory.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, WORKLOAD_IDS[self.name], index])
        return self._make(rng, directory, index)

    @staticmethod
    def _bounds_dense(rng, d: Path, index: int) -> Op:
        a = sdd_m_matrix(rng, 200)
        path = write_matrix(d / "a.txt", a, coord=False)
        return Op("bounds", ["bounds", path, "--which", "all"], {"a": a, "which": "all"})

    @staticmethod
    def _vstar_grid(rng, d: Path, index: int) -> Op:
        a = grid_laplacian(15, float(rng.uniform(0.05, 0.5)))
        u = sparse_nonneg_vector(rng, a.shape[0], 2, 5)
        w = sparse_nonneg_vector(rng, a.shape[0], 2, 5)
        e = np.outer(u, w)
        argv = [
            "vstar",
            write_matrix(d / "a.txt", a, coord=True),
            write_matrix(d / "e.txt", e, coord=True),
            "--method",
            "both",
        ]
        return Op("vstar", argv, {"a": a, "e": e, "u": u, "w": w, "method": "both"})

    def _small_mixed(self, rng, d: Path, index: int) -> Op:
        kind = MIX[index % len(MIX)]
        n = 4 + int(45 * ((self._size_offset + index * GOLDEN) % 1.0))
        coord = bool(rng.random() < 0.3)
        plain = bool(rng.random() < 0.25)
        data: dict = {}
        emit = None
        if kind == "classify":
            shape = int(rng.integers(3))
            if shape == 0:
                a = sdd_m_matrix(rng, n, density=0.3, cycle=True)
            elif shape == 1:
                a = sdd_m_matrix(rng, n, density=0.1, cycle=False)
            else:
                a = sdd_mixed_sign(rng, n)
            argv = ["classify", write_matrix(d / "a.txt", a, coord)]
            data = {"a": a}
        elif kind == "bounds":
            a = sdd_m_matrix(rng, n, density=float(rng.uniform(0.1, 1.0)), cycle=True)
            which = BOUNDS_WHICH[index // len(MIX) % len(BOUNDS_WHICH)]
            argv = ["bounds", write_matrix(d / "a.txt", a, coord), "--which", which]
            pattern = None
            if which in ("bouchon", "all") and rng.random() < 0.3:
                pattern = (rng.random((n, n)) < 0.2).astype(float)
                pattern[0, n - 1] = 1.0
                argv += ["--pattern", write_matrix(d / "p.txt", pattern, coord)]
            data = {"a": a, "which": which, "pattern": pattern}
        elif kind == "vstar":
            a = sdd_m_matrix(rng, n, density=float(rng.uniform(0.1, 1.0)), cycle=True)
            e = full_rank_sparse_perturbation(rng, n)
            method = VSTAR_METHODS[index % len(VSTAR_METHODS)]
            argv = [
                "vstar",
                write_matrix(d / "a.txt", a, coord),
                write_matrix(d / "e.txt", e, coord),
                "--method",
                method,
            ]
            data = {"a": a, "e": e, "method": method}
        elif kind == "tridiag":
            a = tridiagonal_m_matrix(rng, n)
            l, k = (int(x) for x in rng.choice(n, 2, replace=False))
            while abs(l - k) < 2:
                l, k = (int(x) for x in rng.choice(n, 2, replace=False))
            argv = ["tridiag", write_matrix(d / "a.txt", a, coord), str(l + 1), str(k + 1)]
            data = {"a": a, "l": l, "k": k}
        else:
            s = int(rng.integers(1, n // 2 + 1))
            t = n - s
            dshift = float(rng.uniform(0.05, 1.0)) * s
            emit = d / "emit.txt"
            argv = ["laplacian", "--s", str(s), "--t", str(t), "--d", repr(dshift),
                    "--emit-matrix", str(emit)]
            data = {"s": s, "t": t, "d": dshift}
        if plain:
            argv.append("--plain")
        return Op(kind, argv, data, plain=plain, emit=emit)
