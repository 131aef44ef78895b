"""Frozen instance generators of the performance benchmark.

These are the benchmark's own copies of the host constructions in
``benchmarks/bench_batched_dynamics.py`` (``gateway_host``),
``benchmarks/bench_parallel_dynamics.py`` (``mesh_host``) and
``benchmarks/bench_large_n.py`` (``localized_instance``).  The originals read
module globals and live in pytest modules that may change; these take every
parameter explicitly and draw all randomness from the generator handed in, so
a benchmark input depends only on the benchmark's seed.

A scaffold that cannot carry the workload (a disconnected kNN graph, too few
sibling-leaf hubs) is rejected by returning ``None``; :func:`draw` then moves
on to the next sub-seed, deterministically, and records which sub-seeds it
used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

import numpy as np

from repro.core import NetworkCreationGame, StrategyProfile
from repro.core.host_graph import HostGraph

T = TypeVar("T")

MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class Drawn(Generic[T]):
    """A generated input plus the sub-seeds that produced (or were skipped for) it."""

    value: T
    sub_seed: int
    skipped: tuple[int, ...]


def draw(seed: int, index: int, build: Callable[[np.random.Generator], T | None]) -> Drawn[T]:
    """The first valid ``build`` output over sub-seeds ``(seed, index, attempt)``.

    ``attempt`` counts up from 0; rejected attempts are recorded in
    ``skipped`` so a report can say exactly which scaffolds were used.
    """
    skipped: list[int] = []
    for attempt in range(MAX_ATTEMPTS):
        value = build(np.random.default_rng([seed, index, attempt]))
        if value is not None:
            return Drawn(value, attempt, tuple(skipped))
        skipped.append(attempt)
    raise RuntimeError(
        f"no valid scaffold for seed={seed} index={index} in {MAX_ATTEMPTS} attempts"
    )


def _distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(-1))


def _knn_support(d: np.ndarray, degree: int) -> np.ndarray:
    """Symmetrized ``degree``-nearest-neighbour adjacency of a distance matrix."""
    n = d.shape[0]
    order = np.argsort(d, axis=1, kind="stable")
    allowed = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), degree)
    allowed[rows, order[:, 1 : degree + 1].ravel()] = True
    return allowed | allowed.T


def spanning_tree_profile(host: HostGraph, root: int = 0) -> StrategyProfile | None:
    """A BFS spanning tree from ``root`` over the finite host edges, owned by the parents.

    ``None`` when the host support is disconnected.
    """
    n = host.n
    finite = np.isfinite(host.weights) & ~np.eye(n, dtype=bool)
    owns = np.zeros((n, n), dtype=bool)
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in np.nonzero(finite[u])[0]:
            if int(v) not in seen:
                seen.add(int(v))
                owns[u, v] = True
                queue.append(int(v))
    if len(seen) != n:
        return None
    return StrategyProfile(owns, copy=False, validate=False)


def mesh_start(
    rng: np.random.Generator, side: int, degree: int, jitter: float, alpha: float
) -> tuple[NetworkCreationGame, StrategyProfile] | None:
    """A ``degree``-NN geometric mesh and a BFS spanning tree from a random root.

    The ``side * side`` points sit on a unit lattice, each moved by up to
    ``jitter / 2`` per axis.  Uniform points (the original ``mesh_host``)
    give a host whose largest degree, and so the ``2^degree`` cost of an
    exact best response, varies several-fold from seed to seed; the
    jittered lattice keeps degrees in a narrow band.
    """
    n = side * side
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    pts = grid + (rng.random((n, 2)) - 0.5) * jitter
    d = _distances(pts)
    w = np.where(_knn_support(d, degree), d, np.inf)
    np.fill_diagonal(w, 0.0)
    host = HostGraph(w)
    start = spanning_tree_profile(host, int(rng.integers(n)))
    if start is None:
        return None
    return NetworkCreationGame(host, alpha), start


def gateway_start(
    rng: np.random.Generator,
    n: int,
    degree: int,
    alpha: float,
    gateway_weight: float,
) -> tuple[NetworkCreationGame, StrategyProfile] | None:
    """A geometric mesh plus a district reachable only through one gateway.

    Agents ``0..n_mesh-1`` are mesh nodes, agent ``n_mesh`` is the gateway
    (a mesh node with extra weight-``gateway_weight`` links to every
    district node) and the remaining agents form the district with internal
    weights in ``[1, 2]``.  Returns the game and the BFS spanning tree of
    its host.
    """
    n_cluster = max(6, n // 12)
    n_mesh = n - 1 - n_cluster
    gw = n_mesh
    pts = rng.random((n_mesh + 1, 2)) * np.sqrt(n_mesh)
    d = _distances(pts)
    w = np.full((n, n), np.inf)
    w[: n_mesh + 1, : n_mesh + 1] = np.where(_knn_support(d, degree), d, np.inf)
    w[gw, n_mesh + 1 :] = gateway_weight
    w[n_mesh + 1 :, gw] = gateway_weight
    wc = rng.uniform(1.0, 2.0, (n_cluster, n_cluster))
    w[n_mesh + 1 :, n_mesh + 1 :] = (wc + wc.T) / 2
    np.fill_diagonal(w, 0.0)
    host = HostGraph(w)
    start = spanning_tree_profile(host)
    if start is None:
        return None
    return NetworkCreationGame(host, alpha), start


def localized_start(
    rng: np.random.Generator, n: int, degree: int, hubs: int
) -> tuple[NetworkCreationGame, StrategyProfile] | None:
    """A doubly-owned geometric spanning tree plus solely-owned leaf shortcuts.

    The host support equals the created network and ``alpha = 0``, so the
    profile is single-move stable: a run is one batched prefill with no
    moves.  Every tree edge is bought by both endpoints, so non-hub agents
    share one residual (the distance snapshot).  Each hub is a tree leaf
    buying a shortcut to a sibling leaf that is strictly shorter than the
    two-hop path through their parent, so its residual differs from the
    snapshot in the two leaves' rows and columns only.  ``None`` when the
    kNN scaffold is disconnected or yields fewer than ``hubs`` hubs.
    """
    pts = rng.random((n, 2)) * np.sqrt(n)
    d = _distances(pts)
    allowed = _knn_support(d, degree)
    owns = np.zeros((n, n), dtype=bool)
    support = np.zeros((n, n), dtype=bool)
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {u: [] for u in range(n)}
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.nonzero(allowed[u])[0]:
            v = int(v)
            if v not in seen:
                seen.add(v)
                parent[v] = u
                children[u].append(v)
                owns[u, v] = owns[v, u] = True
                support[u, v] = support[v, u] = True
                queue.append(v)
    if len(seen) != n:
        return None
    leaves = sorted(u for u in range(n) if u in parent and not children[u])
    chosen: list[int] = []
    used: set[int] = set()
    for u in leaves:
        if len(chosen) >= hubs:
            break
        if u in used:
            continue
        p = parent[u]
        for v in leaves:
            if v == u or v in used or parent[v] != p or not allowed[u, v]:
                continue
            if d[u, v] >= d[u, p] + d[p, v]:
                continue
            owns[u, v] = True
            support[u, v] = support[v, u] = True
            used.update((u, v))
            chosen.append(u)
            break
    if len(chosen) < hubs:
        return None
    w = np.where(support, d, np.inf)
    np.fill_diagonal(w, 0.0)
    game = NetworkCreationGame(HostGraph(w), 0.0)
    return game, StrategyProfile(owns, copy=False, validate=False)
