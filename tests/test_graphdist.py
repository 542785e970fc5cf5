"""Sparsity-graph distances and the max-distance statistic.

``build_digraph`` and ``distances_from`` below are a per-source BFS over an
adjacency list, kept here as the reference that the reachability products
of ``bouchon_M`` and ``is_irreducible`` are compared against."""

import math
from collections import deque
from dataclasses import dataclass

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from conftest import SAMPLE_A
from hypothesis import given, settings
from hypothesis import strategies as st

from monobound import (
    DimensionMismatch,
    EmptyPerturbation,
    IndexOutOfRange,
    UnreachablePair,
    bouchon_M,
    is_irreducible,
)


@dataclass(frozen=True)
class MatrixDigraph:
    """Edge i -> j for every off-diagonal nonzero entry a_ij.

    ``adjacency[i]`` lists out-neighbors of i in ascending order, never
    including i itself.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]


def build_digraph(a) -> MatrixDigraph:
    """Sparsity digraph of a square matrix; self-loops are dropped."""
    mask = np.asarray(a, dtype=float) != 0.0
    np.fill_diagonal(mask, False)
    adjacency = tuple(tuple(np.flatnonzero(row).tolist()) for row in mask)
    return MatrixDigraph(n=mask.shape[0], adjacency=adjacency)


def _check_node(g: MatrixDigraph, node: int) -> None:
    if not 0 <= node < g.n:
        raise IndexOutOfRange(f"node {node} outside 0..{g.n - 1}")


def distances_from(g: MatrixDigraph, source: int) -> list[int | float]:
    """BFS distances from ``source`` to every node; math.inf if unreachable."""
    _check_node(g, source)
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        i = queue.popleft()
        for j in g.adjacency[i]:
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    return [d if d >= 0 else math.inf for d in dist]


def distance(g: MatrixDigraph, i: int, j: int) -> int | float:
    """Shortest directed path length from i to j (0 on the diagonal,
    math.inf when j is unreachable)."""
    _check_node(g, i)
    _check_node(g, j)
    return distances_from(g, i)[j]


def test_adjacency_of_sample():
    g = build_digraph(SAMPLE_A)
    assert g.n == 3
    assert g.adjacency == ((2,), (0,), (0, 1))


def test_diagonal_matrix_has_no_edges():
    assert build_digraph(np.diag([1.0, 2.0, 3.0])).adjacency == ((), (), ())


def test_small_entries_are_edges():
    a = np.array([[1.0, 1e-12], [0.5, 1.0]])
    assert build_digraph(a).adjacency == ((1,), (0,))


def test_distances_in_sample():
    g = build_digraph(SAMPLE_A)
    assert distance(g, 0, 2) == 1
    assert distance(g, 0, 1) == 2  # only path is 0 -> 2 -> 1
    assert distance(g, 1, 2) == 2
    assert distance(g, 0, 0) == 0


def test_unreachable_distance_is_inf():
    g = build_digraph(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert distance(g, 0, 1) == 1
    assert math.isinf(distance(g, 1, 0))


def test_distance_node_out_of_range():
    g = build_digraph(np.eye(2))
    with pytest.raises(IndexOutOfRange):
        distance(g, 0, 2)
    with pytest.raises(IndexOutOfRange):
        distances_from(g, -1)


def test_strong_connectivity():
    assert is_irreducible(SAMPLE_A)
    assert is_irreducible(np.ones((1, 1)))
    assert not is_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_max_distance_examples(sample_a):
    assert bouchon_M(sample_a, np.ones((3, 3))) == 2
    e13 = np.zeros((3, 3))
    e13[0, 2] = 1.0
    assert bouchon_M(sample_a, e13) == 1
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    assert bouchon_M(sample_a, e12) == 2


def test_max_distance_rejects_diagonal_only_pattern(sample_a):
    with pytest.raises(EmptyPerturbation):
        bouchon_M(sample_a, np.eye(3))
    with pytest.raises(EmptyPerturbation):
        bouchon_M(sample_a, np.zeros((3, 3)))


def test_max_distance_unreachable_pair():
    a = np.array([[1.0, -0.5], [0.0, 1.0]])
    e = np.zeros((2, 2))
    e[1, 0] = 1.0
    with pytest.raises(UnreachablePair):
        bouchon_M(a, e)


def test_max_distance_shape_mismatch(sample_a):
    with pytest.raises(DimensionMismatch):
        bouchon_M(sample_a, np.ones((2, 2)))


def test_distance_one_exactly_for_direct_edges():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = (rng.uniform(size=(6, 6)) < 0.4).astype(float)
        np.fill_diagonal(m, 1.0)
        g = build_digraph(m)
        for i in range(6):
            d = distances_from(g, i)
            for j in range(6):
                if i == j:
                    continue
                if m[i, j] != 0.0:
                    assert d[j] == 1
                elif d[j] == 1:
                    raise AssertionError("distance 1 without a direct edge")


def test_triangle_inequality():
    rng = np.random.default_rng(29)
    m = (rng.uniform(size=(7, 7)) < 0.35).astype(float)
    g = build_digraph(m)
    dist = [distances_from(g, i) for i in range(7)]
    for i in range(7):
        for j in range(7):
            for k in range(7):
                assert dist[i][k] <= dist[i][j] + dist[j][k]


def test_irreducibility_matches_finite_distances():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = (rng.uniform(size=(5, 5)) < 0.3).astype(float)
        g = build_digraph(m)
        all_finite = all(
            not math.isinf(d) for i in range(5) for d in distances_from(g, i)
        )
        assert is_irreducible(m) == all_finite


def _bfs_bouchon_M(a, e):
    """The per-row BFS formulation of bouchon_M, used as the reference:
    returns M, or raises the same errors naming the first row-major pair."""
    g = build_digraph(a)
    support = [(i, j) for i in range(g.n) for j in range(g.n) if i != j and e[i, j] != 0.0]
    if not support:
        raise EmptyPerturbation("perturbation pattern has no off-diagonal nonzero entry")
    worst = 0
    dist = {}
    for i, j in support:
        if i not in dist:
            dist[i] = distances_from(g, i)
        if math.isinf(dist[i][j]):
            raise UnreachablePair(
                f"no directed path from node {i} to node {j} in the sparsity graph"
            )
        worst = max(worst, dist[i][j])
    return worst


def _outcome(fn, *args):
    try:
        return ("M", fn(*args))
    except (EmptyPerturbation, UnreachablePair) as exc:
        return (type(exc).__name__, str(exc))


def _sparse(n, values):
    return hnp.arrays(np.float64, (n, n), elements=st.sampled_from(values), fill=st.just(0.0))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 30), ring=st.booleans(), data=st.data())
def test_reachability_products_match_bfs(n, ring, data):
    a = data.draw(_sparse(n, [0.5, -1.0, 1e-12]))
    if ring:
        # A directed ring makes the graph strongly connected with long distances.
        a[np.arange(n), (np.arange(n) + 1) % n] = -1.0
    e = data.draw(_sparse(n, [1.0, 1e-12]))
    assert _outcome(bouchon_M, a, e) == _outcome(_bfs_bouchon_M, a, e)
    g = build_digraph(a)
    all_finite = all(not math.isinf(d) for i in range(n) for d in distances_from(g, i))
    assert is_irreducible(a) == all_finite


def test_max_distance_of_long_path():
    n = 200
    path = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    assert bouchon_M(path, np.ones((n, n))) == n - 1
