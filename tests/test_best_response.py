"""Tests for exact and greedy best-response computation."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import (
    _BATCH_BITS,
    _scan_candidate_subsets,
    _subset_cost_batches,
    best_response,
    best_response_exact,
    best_single_move,
    enumerate_single_moves,
    greedy_response,
    residual_distances,
    score_response,
    strategy_cost_given_residual,
)
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.residual_delta import DeltaResidual, encode_delta
from repro.core.shortest_paths import CandidateEvaluator, all_pairs_shortest_paths
from repro.core.strategy import StrategyProfile


def brute_force_best_response(game, profile, u):
    """Reference implementation: try every subset by rebuilding the profile."""
    others = [v for v in range(game.n) if v != u and np.isfinite(game.host.weights[u, v])]
    best_cost = np.inf
    best_set = frozenset()
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            candidate = profile.with_strategy(u, combo)
            cost = game.agent_cost(candidate, u)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_set = frozenset(combo)
    return best_set, best_cost


class TestResidualDistances:
    def test_residual_removes_only_owned_edges(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1, 2], [3], [], [], []])
        d_rest = residual_distances(game, profile, 0)
        # edges (0,1),(0,2) removed but (1,3) stays
        w13 = game.host.weight(1, 3)
        assert d_rest[1, 3] == pytest.approx(w13)
        assert np.isinf(d_rest[0, 1]) or d_rest[0, 1] > game.host.weight(0, 1)

    def test_residual_keeps_edges_bought_towards_agent(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1], [], [0], [], []])
        d_rest = residual_distances(game, profile, 0)
        # (2,0) is owned by 2 and must remain
        assert d_rest[0, 2] == pytest.approx(game.host.weight(0, 2))

    def test_strategy_cost_given_residual_matches_game(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1], [2], [3], [4], []])
        for u in range(5):
            d_rest = residual_distances(game, profile, u)
            current = set(profile.strategy(u))
            cost = strategy_cost_given_residual(game, d_rest, u, current)
            assert cost == pytest.approx(game.agent_cost(profile, u))

    def test_strategy_cost_rejects_self(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.empty(5)
        d_rest = residual_distances(game, profile, 0)
        with pytest.raises(ValueError):
            strategy_cost_given_residual(game, d_rest, 0, {0})


class TestExactBestResponse:
    @pytest.mark.parametrize("agent", [0, 2, 4])
    def test_matches_brute_force_euclidean(self, small_euclidean_game, agent):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[1], [2], [3], [], [0]])
        expected_set, expected_cost = brute_force_best_response(game, profile, agent)
        result = best_response_exact(game, profile, agent)
        assert result.cost == pytest.approx(expected_cost)
        # Tie-broken strategies may differ; the cost achieved must be identical.
        realized = game.agent_cost(profile.with_strategy(agent, result.strategy), agent)
        assert realized == pytest.approx(expected_cost)

    @pytest.mark.parametrize("agent", [0, 1, 3])
    def test_matches_brute_force_tree(self, small_tree_game, agent):
        game = small_tree_game
        profile = StrategyProfile.from_sets(5, [[], [0, 2], [], [4], []])
        expected_set, expected_cost = brute_force_best_response(game, profile, agent)
        result = best_response_exact(game, profile, agent)
        assert result.cost == pytest.approx(expected_cost)

    def test_improvement_non_negative(self, small_euclidean_game, rng):
        game = small_euclidean_game
        owns = np.triu(rng.random((5, 5)) < 0.5, k=1)
        profile = StrategyProfile(owns)
        for u in range(5):
            result = best_response_exact(game, profile, u)
            assert result.improvement >= -1e-9

    def test_disconnected_agent_buys_something(self):
        game = NetworkCreationGame(HostGraph.unit(4), alpha=1.0)
        profile = StrategyProfile.from_sets(4, [[], [2], [3], []])
        result = best_response_exact(game, profile, 0)
        assert result.strategy  # must buy at least one edge to connect
        assert np.isfinite(result.cost)

    def test_infinite_host_edges_excluded(self):
        host = HostGraph.one_infinity([(0, 1), (1, 2), (2, 3)], 4)
        game = NetworkCreationGame(host, alpha=1.0)
        profile = StrategyProfile.empty(4)
        result = best_response_exact(game, profile, 0)
        assert all(game.host.weight(0, v) < np.inf for v in result.strategy)

    def test_candidate_restriction(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.empty(5)
        result = best_response_exact(game, profile, 0, candidates=[1, 2])
        assert result.strategy <= {1, 2}

    def test_max_candidates_guard(self):
        game = NetworkCreationGame(HostGraph.unit(6), alpha=1.0)
        with pytest.raises(ValueError):
            best_response_exact(game, StrategyProfile.empty(6), 0, max_candidates=3)

    def test_empty_candidate_list(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.from_sets(5, [[], [0, 2, 3, 4], [], [], []])
        result = best_response_exact(game, profile, 0, candidates=[])
        assert result.strategy == frozenset()


class TestSingleMovesAndGreedy:
    def test_enumerate_single_moves_gains(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.star(5, center=0)
        moves = enumerate_single_moves(game, profile, 0)
        current_cost = game.agent_cost(profile, 0)
        for mv in moves:
            applied = mv.apply(profile, 0)
            assert game.agent_cost(applied, 0) == pytest.approx(current_cost - mv.gain)

    def test_best_single_move_none_at_equilibrium(self, small_tree_game):
        game = small_tree_game
        from repro.core.equilibria import tree_profile_from_host

        tree = tree_profile_from_host(game)
        for u in range(game.n):
            assert best_single_move(game, tree, u).kind == "none"

    def test_best_single_move_add_when_disconnected(self):
        game = NetworkCreationGame(HostGraph.unit(3), alpha=1.0)
        profile = StrategyProfile.from_sets(3, [[], [2], []])
        move = best_single_move(game, profile, 0)
        assert move.kind == "add"

    def test_greedy_never_worse_than_current(self, small_euclidean_game, rng):
        game = small_euclidean_game
        owns = np.triu(rng.random((5, 5)) < 0.5, k=1)
        profile = StrategyProfile(owns)
        for u in range(5):
            result = greedy_response(game, profile, u)
            assert result.cost <= game.agent_cost(profile, u) + 1e-9

    def test_greedy_upper_bounds_exact(self, small_euclidean_game, rng):
        game = small_euclidean_game
        owns = np.triu(rng.random((5, 5)) < 0.4, k=1)
        profile = StrategyProfile(owns)
        for u in range(5):
            exact = best_response_exact(game, profile, u)
            greedy = greedy_response(game, profile, u)
            assert greedy.cost >= exact.cost - 1e-9

    def test_single_move_dataclass_apply_none(self, small_euclidean_game):
        from repro.core.best_response import SingleMove

        profile = StrategyProfile.empty(5)
        assert SingleMove("none").apply(profile, 0) is profile


class TestDispatch:
    def test_method_auto_small_uses_exact(self, small_euclidean_game):
        game = small_euclidean_game
        profile = StrategyProfile.empty(5)
        result = best_response(game, profile, 0, method="auto")
        assert result.method == "exact"

    def test_method_greedy(self, small_euclidean_game):
        result = best_response(
            small_euclidean_game, StrategyProfile.empty(5), 0, method="greedy"
        )
        assert result.method == "greedy"

    def test_unknown_method(self, small_euclidean_game):
        with pytest.raises(ValueError):
            best_response(small_euclidean_game, StrategyProfile.empty(5), 0, method="bogus")


class TestBestResponseProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(min_value=0.2, max_value=4.0))
    def test_exact_best_response_is_optimal(self, seed, alpha):
        """Property: the exact subset scan equals naive re-evaluation."""
        rng = np.random.default_rng(seed)
        host = HostGraph.from_points(rng.random((5, 2)))
        game = NetworkCreationGame(host, alpha)
        owns = np.triu(rng.random((5, 5)) < 0.5, k=1)
        profile = StrategyProfile(owns)
        agent = int(rng.integers(0, 5))
        _, expected_cost = brute_force_best_response(game, profile, agent)
        result = best_response_exact(game, profile, agent)
        assert result.cost == pytest.approx(expected_cost)


# ----------------------------------------------------------------------
# The subset-doubling scan against plain enumeration through batch_costs
# ----------------------------------------------------------------------
def enumerated_scan(evaluator):
    """Reference scan: every batch of subsets scored by ``batch_costs``.

    Cuts batches at the same ``2**_BATCH_BITS`` boundaries and keeps the
    first minimum, so it returns the optimum and the per-batch cost vectors
    the scan must reproduce bit for bit.
    """
    m = evaluator.num_candidates
    best_cost, best_mask = evaluator.empty_cost, np.zeros(m, dtype=bool)
    batch_costs = []
    if m:
        batch = 1 << min(_BATCH_BITS, m)
        for start in range(0, 1 << m, batch):
            index = start + np.arange(batch)
            masks = ((index[:, None] >> np.arange(m)) & 1).astype(bool)
            costs = evaluator.batch_costs(masks)
            batch_costs.append(costs)
            idx = int(np.argmin(costs))
            if costs[idx] < best_cost - 1e-15:
                best_cost, best_mask = float(costs[idx]), masks[idx].copy()
    chosen = frozenset(int(v) for v in evaluator.candidates[best_mask])
    return chosen, float(best_cost), batch_costs


def random_scan_instance(rng, m, kind):
    """A candidate evaluator over a random residual with exactly ``m`` candidates.

    ``kind`` picks the stress: ``"plain"`` weights, a ``"disconnected"``
    residual (the agent isolated, ``inf`` entries), ``"free"`` edges
    (alpha = 0), or tie-heavy ``"half"``-integer weights.  Some instances
    also offer an infinite-weight candidate, whose subsets cost ``inf``.
    """
    n = m + 1 + int(rng.integers(0, 6))
    half = kind == "half"

    def weights(shape):
        if half:
            return rng.integers(1, 7, size=shape) / 2.0
        return rng.uniform(0.5, 3.0, size=shape)

    density = 0.15 if kind == "disconnected" else 0.5
    graph = np.where(rng.random((n, n)) < density, weights((n, n)), np.inf)
    graph = np.minimum(graph, graph.T)
    np.fill_diagonal(graph, 0.0)
    u = int(rng.integers(0, n))
    if kind == "disconnected":
        graph[u, :] = graph[:, u] = np.inf
        graph[u, u] = 0.0
    d_rest = all_pairs_shortest_paths(graph)
    edge_weights = weights(n)
    candidates = [int(v) for v in rng.permutation([v for v in range(n) if v != u])[:m]]
    alpha = 0.0 if kind == "free" else float(rng.choice([0.5, 1.0, 2.5]))
    if m and alpha > 0 and rng.random() < 0.25:
        edge_weights[candidates[int(rng.integers(0, m))]] = np.inf
    return CandidateEvaluator(d_rest, u, edge_weights, alpha, candidates=candidates)


class TestSubsetDoublingScan:
    KINDS = ("plain", "disconnected", "free", "half")

    @pytest.mark.parametrize("m", range(17))
    def test_scan_is_bit_identical_to_enumeration(self, m, property_budget):
        rng = np.random.default_rng(1000 + m)
        for trial in range(property_budget):
            kind = self.KINDS[trial % len(self.KINDS)]
            evaluator = random_scan_instance(rng, m, kind)
            chosen, cost = _scan_candidate_subsets(evaluator, 22)
            want_chosen, want_cost, _ = enumerated_scan(evaluator)
            assert chosen == want_chosen, (m, trial, kind)
            assert float.hex(cost) == float.hex(want_cost), (m, trial, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_subset_cost_is_bit_identical(self, kind):
        rng = np.random.default_rng(14)
        evaluator = random_scan_instance(rng, 14, kind)
        _, _, want = enumerated_scan(evaluator)
        got = list(_subset_cost_batches(evaluator))
        assert len(got) == len(want) == 1 << (14 - _BATCH_BITS)
        for (masks, costs), reference in zip(got, want):
            assert np.array_equal(evaluator.batch_costs(masks), costs)
            assert costs.tobytes() == reference.tobytes()

    def test_tie_across_batches_keeps_the_earlier_subset(self):
        """Twin candidates 0 and 12 tie bitwise; subset {c0} (index 1) wins."""
        m = 13
        n = m + 1
        u, twin_a, twin_b = 0, 1, 13
        d_rest = np.full((n, n), 2.0)
        d_rest[twin_a, :] = d_rest[:, twin_a] = 1.0
        d_rest[twin_b, :] = d_rest[:, twin_b] = 1.0
        d_rest[twin_a, twin_b] = d_rest[twin_b, twin_a] = 0.0
        d_rest[u, :] = d_rest[:, u] = np.inf
        np.fill_diagonal(d_rest, 0.0)
        edge_weights = np.full(n, 10.0)
        edge_weights[[twin_a, twin_b]] = 1.0
        evaluator = CandidateEvaluator(d_rest, u, edge_weights, 1.0)
        assert list(evaluator.candidates[[0, 12]]) == [twin_a, twin_b]
        singles = np.zeros((2, m), dtype=bool)
        singles[0, 0] = singles[1, 12] = True
        tie = evaluator.batch_costs(singles)
        assert float.hex(tie[0]) == float.hex(tie[1])
        chosen, cost = _scan_candidate_subsets(evaluator, 22)
        assert (chosen, cost) == enumerated_scan(evaluator)[:2]
        assert chosen == frozenset({twin_a})
        assert float.hex(cost) == float.hex(tie[0])

    def test_scan_peak_memory_is_bounded(self):
        rng = np.random.default_rng(200)
        n, m = 200, 16
        d_rest = rng.uniform(1.0, 5.0, size=(n, n))
        d_rest = np.minimum(d_rest, d_rest.T)
        np.fill_diagonal(d_rest, 0.0)
        evaluator = CandidateEvaluator(
            d_rest, 0, rng.uniform(1.0, 2.0, size=n), 1.0, candidates=range(1, m + 1)
        )
        tracemalloc.start()
        try:
            _scan_candidate_subsets(evaluator, 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    def test_best_response_on_delta_residual_matches_dense(self):
        rng = np.random.default_rng(77)
        n = 15
        game = NetworkCreationGame(HostGraph.from_points(rng.random((n, 2))), 0.8)
        profile = StrategyProfile(np.triu(rng.random((n, n)) < 0.2, k=1))
        u = 3
        dense = np.ascontiguousarray(residual_distances(game, profile, u))
        base = dense.copy()
        base[5, :] += 1.0
        base[:, 5] = base[5, :]
        base[5, 5] = 0.0
        view = DeltaResidual(base, encode_delta(base, dense))
        args = (u, game.host.weights[u], game.alpha, profile.strategy(u), "best")
        got, want = score_response(view, *args), score_response(dense, *args)
        assert got == want
        assert float.hex(got.cost) == float.hex(want.cost)
        assert got.strategy == best_response_exact(game, profile, u).strategy
