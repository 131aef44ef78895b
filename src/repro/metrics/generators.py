"""Random host-graph generators for all model variants of the paper.

Every random generator requires an explicit ``rng``
(:class:`numpy.random.Generator`) keyword, so no instance is ever drawn
from unseeded OS entropy; each returns a
:class:`~repro.core.host_graph.HostGraph`.
"""

from __future__ import annotations

import numpy as np

from ..core.host_graph import HostGraph

__all__ = [
    "unit_host",
    "random_one_two_host",
    "random_one_infinity_host",
    "random_tree_host",
    "random_euclidean_host",
    "random_metric_host",
    "random_general_host",
]


def unit_host(n: int) -> HostGraph:
    """The classical NCG host graph: a complete graph with unit weights."""
    return HostGraph.unit(n)


def random_one_two_host(
    n: int, *, one_probability: float = 0.5, rng: np.random.Generator
) -> HostGraph:
    """A random 1-2 host graph: each pair independently gets weight 1 with probability ``one_probability``."""
    if not 0.0 <= one_probability <= 1.0:
        raise ValueError("one_probability must be in [0, 1]")
    draws = rng.random((n, n)) < one_probability
    draws = np.triu(draws, k=1)
    one_edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(draws))]
    return HostGraph.one_two(one_edges, n)


def random_one_infinity_host(
    n: int, *, edge_probability: float = 0.6, rng: np.random.Generator
) -> HostGraph:
    """A random 1-∞ host graph over a connected Erdős–Rényi support.

    A random spanning tree is always included so every pair of agents can in
    principle be connected (the paper's 1-∞ model assumes connectivity is
    achievable).
    """
    allowed = set()
    # random spanning tree via random permutation attachment
    order = rng.permutation(n)
    for i in range(1, n):
        parent = order[rng.integers(0, i)]
        allowed.add((int(min(order[i], parent)), int(max(order[i], parent))))
    extra = np.triu(rng.random((n, n)) < edge_probability, k=1)
    for u, v in zip(*np.nonzero(extra)):
        allowed.add((int(u), int(v)))
    return HostGraph.one_infinity(sorted(allowed), n)


def random_tree_host(
    n: int,
    *,
    weight_low: float = 0.5,
    weight_high: float = 3.0,
    rng: np.random.Generator,
) -> HostGraph:
    """A random tree metric: a uniform random recursive tree with i.i.d. edge weights."""
    edges = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        weight = float(rng.uniform(weight_low, weight_high))
        edges.append((parent, v, weight))
    if n == 1:
        return HostGraph(np.zeros((1, 1)))
    return HostGraph.from_tree(edges, n)


def random_euclidean_host(
    n: int,
    *,
    dimension: int = 2,
    p: float = 2.0,
    scale: float = 1.0,
    rng: np.random.Generator,
) -> HostGraph:
    """Random points in ``[0, scale]^dimension`` with p-norm distances (Rd–GNCG)."""
    points = rng.random((n, dimension)) * scale
    return HostGraph.from_points(points, p=p)


def random_metric_host(
    n: int,
    *,
    weight_low: float = 0.5,
    weight_high: float = 2.0,
    rng: np.random.Generator,
) -> HostGraph:
    """A random general metric: i.i.d. weights pushed through the shortest-path closure.

    The metric closure of any non-negative weight matrix satisfies the
    triangle inequality, so the result is a valid M–GNCG host that is not (in
    general) Euclidean or tree-like.
    """
    w = rng.uniform(weight_low, weight_high, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return HostGraph(w, validate=False).metric_closure()


def random_general_host(
    n: int,
    *,
    weight_low: float = 0.1,
    weight_high: float = 5.0,
    rng: np.random.Generator,
) -> HostGraph:
    """Arbitrary non-negative symmetric weights (the unrestricted GNCG).

    The result need not satisfy the triangle inequality.
    """
    w = rng.uniform(weight_low, weight_high, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return HostGraph(w, validate=False)
