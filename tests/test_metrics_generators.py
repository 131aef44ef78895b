"""Tests for random host-graph generators and metric validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.host_graph import ModelVariant
from repro.metrics import (
    is_metric_matrix,
    nearest_metric_repair,
    random_euclidean_host,
    random_general_host,
    random_metric_host,
    random_one_infinity_host,
    random_one_two_host,
    random_tree_host,
    triangle_violations,
    unit_host,
)


class TestGenerators:
    def test_unit_host_is_ncg(self):
        assert unit_host(5).classify() is ModelVariant.NCG

    def test_one_two_host_weights(self, rng):
        host = random_one_two_host(8, one_probability=0.5, rng=rng)
        off_diag = host.weights[~np.eye(8, dtype=bool)]
        assert set(np.unique(off_diag)) <= {1.0, 2.0}
        assert host.classify() in (ModelVariant.ONE_TWO, ModelVariant.NCG)

    def test_one_two_probability_extremes(self, rng):
        all_ones = random_one_two_host(6, one_probability=1.0, rng=rng)
        assert all_ones.classify() is ModelVariant.NCG
        all_twos = random_one_two_host(6, one_probability=0.0, rng=rng)
        off_diag = all_twos.weights[~np.eye(6, dtype=bool)]
        assert np.all(off_diag == 2.0)

    def test_one_two_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            random_one_two_host(5, one_probability=1.5, rng=rng)

    def test_one_infinity_host_is_connected_support(self, rng):
        host = random_one_infinity_host(8, edge_probability=0.1, rng=rng)
        assert host.classify() is ModelVariant.ONE_INFINITY
        # the finite support must connect all nodes (a spanning tree is embedded)
        assert np.all(np.isfinite(host.host_distances()))

    def test_tree_host(self, rng):
        host = random_tree_host(7, rng=rng)
        assert host.tree_edges is not None
        assert len(host.tree_edges) == 6
        assert host.is_metric()
        assert host.is_tree_metric()

    def test_tree_host_single_node(self, rng):
        host = random_tree_host(1, rng=rng)
        assert host.n == 1

    def test_euclidean_host(self, rng):
        host = random_euclidean_host(6, dimension=3, p=2, rng=rng)
        assert host.is_metric()
        assert host.points.shape == (6, 3)

    def test_metric_host(self, rng):
        host = random_metric_host(7, rng=rng)
        assert host.is_metric()

    def test_general_host_may_violate_triangle_inequality(self):
        rng = np.random.default_rng(0)
        violations_seen = False
        for _ in range(5):
            host = random_general_host(6, weight_low=0.1, weight_high=5.0, rng=rng)
            if not host.is_metric():
                violations_seen = True
                break
        assert violations_seen

    def test_generators_are_reproducible(self):
        a = random_euclidean_host(5, rng=np.random.default_rng(7))
        b = random_euclidean_host(5, rng=np.random.default_rng(7))
        assert a == b

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=2, max_value=10), seed=st.integers(0, 10_000))
    def test_all_generators_produce_valid_hosts(self, n, seed):
        rng = np.random.default_rng(seed)
        for generator in (
            lambda: random_one_two_host(n, rng=rng),
            lambda: random_tree_host(n, rng=rng),
            lambda: random_euclidean_host(n, rng=rng),
            lambda: random_metric_host(n, rng=rng),
            lambda: random_general_host(n, rng=rng),
        ):
            host = generator()
            assert host.n == n
            assert np.all(np.diag(host.weights) == 0.0)
            finite = host.weights[np.isfinite(host.weights)]
            assert np.all(finite >= 0.0)


    @pytest.mark.parametrize(
        "generator",
        [
            random_one_two_host,
            random_one_infinity_host,
            random_tree_host,
            random_euclidean_host,
            random_metric_host,
            random_general_host,
        ],
    )
    def test_rng_is_required(self, generator):
        # Unseeded entropy is never a default: omitting rng is a call error.
        with pytest.raises(TypeError, match="rng"):
            generator(5)


class TestValidation:
    def test_is_metric_matrix(self):
        good = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.2], [1.5, 1.2, 0.0]])
        assert is_metric_matrix(good)
        bad = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert not is_metric_matrix(bad)

    def test_is_metric_matrix_rejects_asymmetric_and_nonsquare(self):
        assert not is_metric_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert not is_metric_matrix(np.zeros((2, 3)))
        assert not is_metric_matrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    def test_triangle_violations_reported(self):
        bad = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        violations = triangle_violations(bad)
        assert len(violations) == 1

    def test_nearest_metric_repair(self):
        bad = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        repaired = nearest_metric_repair(bad)
        assert is_metric_matrix(repaired)
        assert np.all(repaired <= bad + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=8), seed=st.integers(0, 10_000))
    def test_repair_is_idempotent(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 5.0, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        once = nearest_metric_repair(w)
        twice = nearest_metric_repair(once)
        assert np.allclose(once, twice)
