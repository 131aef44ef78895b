"""Tests for Price-of-Anarchy estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import metric_poa_upper
from repro.core.equilibria import is_nash_equilibrium
from repro.core.game import NetworkCreationGame
from repro.core.host_graph import HostGraph
from repro.core.poa import enumerate_nash_equilibria, estimate_poa, ratio, sample_equilibria
from repro.core.strategy import StrategyProfile


class TestRatio:
    def test_ratio_of_equal_profiles_is_one(self, small_euclidean_game):
        star = StrategyProfile.star(5, center=0)
        assert ratio(small_euclidean_game, star, star) == pytest.approx(1.0)

    def test_ratio_orders_costs(self, small_euclidean_game):
        star = StrategyProfile.star(5, center=0)
        complete = StrategyProfile.complete(5)
        r = ratio(small_euclidean_game, star, complete)
        assert r == pytest.approx(
            small_euclidean_game.social_cost(star) / small_euclidean_game.social_cost(complete)
        )


class TestSampling:
    def test_sampled_profiles_are_nash(self, small_euclidean_game, rng):
        equilibria = sample_equilibria(small_euclidean_game, num_samples=3, rng=rng)
        assert equilibria
        for profile in equilibria:
            assert is_nash_equilibrium(small_euclidean_game, profile)

    def test_greedy_verification_mode(self, small_euclidean_game, rng):
        equilibria = sample_equilibria(
            small_euclidean_game, num_samples=2, verify="greedy", rng=rng
        )
        assert equilibria

    def test_none_verification_mode(self, small_euclidean_game, rng):
        equilibria = sample_equilibria(
            small_euclidean_game, num_samples=2, verify="none", rng=rng
        )
        assert equilibria

    def test_unknown_verification_mode(self, small_euclidean_game, rng):
        with pytest.raises(ValueError):
            sample_equilibria(small_euclidean_game, num_samples=1, verify="bogus", rng=rng)

    def test_deduplicates_profiles(self, small_tree_game, rng):
        equilibria = sample_equilibria(small_tree_game, num_samples=5, rng=rng)
        keys = [p.canonical_key() for p in equilibria]
        assert len(keys) == len(set(keys))


class TestEnumeration:
    def test_small_unit_instance(self):
        game = NetworkCreationGame(HostGraph.unit(3), alpha=2.0)
        equilibria = enumerate_nash_equilibria(game, max_nodes=3)
        assert equilibria
        for profile in equilibria:
            assert is_nash_equilibrium(game, profile)
        # every enumerated NE must be connected (disconnected profiles have infinite cost)
        for profile in equilibria:
            assert game.is_connected(profile)

    def test_enumeration_guard(self):
        game = NetworkCreationGame(HostGraph.unit(6), alpha=1.0)
        with pytest.raises(ValueError):
            enumerate_nash_equilibria(game, max_nodes=4)

    def test_sampling_finds_subset_of_enumeration_costs(self):
        """Sampled equilibrium costs must be realisable by enumerated equilibria."""
        game = NetworkCreationGame(HostGraph.unit(3), alpha=2.0)
        enumerated = enumerate_nash_equilibria(game, max_nodes=3)
        enum_costs = {round(game.social_cost(p), 6) for p in enumerated}
        sampled = sample_equilibria(game, num_samples=3, rng=np.random.default_rng(0))
        for profile in sampled:
            assert round(game.social_cost(profile), 6) in enum_costs


class TestEstimatePoA:
    def test_estimate_respects_metric_upper_bound(self, small_euclidean_game, rng):
        estimate = estimate_poa(small_euclidean_game, num_samples=4, rng=rng)
        assert estimate.equilibria_found > 0
        assert estimate.optimum.exact
        poa = estimate.price_of_anarchy
        assert 1.0 - 1e-9 <= poa <= metric_poa_upper(small_euclidean_game.alpha) + 1e-6

    def test_price_of_stability_at_most_poa(self, small_euclidean_game, rng):
        estimate = estimate_poa(small_euclidean_game, num_samples=4, rng=rng)
        assert estimate.price_of_stability <= estimate.price_of_anarchy + 1e-9

    def test_extra_equilibria_raise_estimate(self, small_tree_game):
        from repro.core.equilibria import tree_profile_from_host

        tree = tree_profile_from_host(small_tree_game)
        expensive_star = StrategyProfile.star(5, center=2)
        estimate = estimate_poa(
            small_tree_game,
            num_samples=0,
            extra_equilibria=[tree, expensive_star],
        )
        assert estimate.worst_equilibrium_cost >= small_tree_game.social_cost(tree)

    @pytest.mark.parametrize("verify", ("greedy", "none"))
    def test_infinite_cost_plateaus_are_not_equilibria(self, verify):
        """The empty start "converges" under the inf -> inf no-gain rule.

        Every agent of a disconnected profile may stay put, so the run stops
        at infinite social cost; counting it as an equilibrium made the
        estimate infinite.
        """
        from repro.metrics.generators import random_euclidean_host

        game = NetworkCreationGame(
            random_euclidean_host(8, rng=np.random.default_rng(0)), alpha=1.0
        )
        estimate = estimate_poa(game, num_samples=2, response="greedy", verify=verify)
        assert np.isfinite(estimate.price_of_anarchy)
        assert np.isfinite(estimate.worst_equilibrium_cost)
        if verify == "greedy":
            assert estimate.equilibria_found == 2
            assert estimate.price_of_anarchy == pytest.approx(1.0117309359555675)
        sampled = sample_equilibria(
            game, num_samples=2, response="greedy", verify=verify
        )
        assert all(np.isfinite(game.social_cost(p)) for p in sampled)
        assert StrategyProfile.empty(8).canonical_key() not in {
            p.canonical_key() for p in sampled
        }

    def test_tree_instance_price_of_stability_is_one(self, small_tree_game, rng):
        """Cor. 3 consequence: the best equilibrium of a T-GNCG costs exactly OPT."""
        from repro.core.equilibria import tree_profile_from_host

        tree = tree_profile_from_host(small_tree_game)
        estimate = estimate_poa(
            small_tree_game, num_samples=3, rng=rng, extra_equilibria=[tree]
        )
        assert estimate.price_of_stability == pytest.approx(1.0)
