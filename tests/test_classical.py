import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_amplitude_oracle, random_chain
from qpathnet import (
    ClassicalConnector,
    ClassicalNetwork,
    build_difference_meter,
    chain_comparator,
    classical_mean,
    classical_paths,
    classical_sample,
    comparator_path_key,
    strong_mean,
    two_layer_network,
    uniform_two_layer_network,
)
from qpathnet.classical import to_connector, to_receptacle


def simple_network(weights, blocked=frozenset()):
    conn = ClassicalConnector("in", weights, blocked)
    wiring = {("in", 0): to_receptacle("f0"), ("in", 1): to_receptacle("f1")}
    return ClassicalNetwork({"in": conn}, wiring, ("in", 0))


class TestConnector:
    def test_columns_must_be_stochastic(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassicalConnector("x", np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ClassicalConnector("x", np.array([[1.5, 0.5], [-0.5, 0.5]]))

    def test_blocked_outlet_diverts_everything(self):
        conn = ClassicalConnector("x", np.full((2, 2), 0.5), blocked=frozenset({0}))
        w = conn.effective_weights()
        assert w[0].tolist() == [0.0, 0.0]
        assert w[1].tolist() == [1.0, 1.0]

    def test_cannot_block_both(self):
        with pytest.raises(ValueError, match="both"):
            ClassicalConnector("x", np.full((2, 2), 0.5), blocked=frozenset({0, 1}))


class TestNetworkValidation:
    def test_unwired_outlet(self):
        conn = ClassicalConnector("in", np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="not wired"):
            ClassicalNetwork({"in": conn}, {("in", 0): to_receptacle("f0")}, ("in", 0))

    def test_double_wired_inlet(self):
        a = ClassicalConnector("a", np.full((2, 2), 0.5))
        b = ClassicalConnector("b", np.full((2, 2), 0.5))
        wiring = {
            ("a", 0): to_connector("b", 0),
            ("a", 1): to_connector("b", 0),
            ("b", 0): to_receptacle("f0"),
            ("b", 1): to_receptacle("f1"),
        }
        with pytest.raises(ValueError, match="more than once"):
            ClassicalNetwork({"a": a, "b": b}, wiring, ("a", 0))

    def test_cycle_detected(self):
        a = ClassicalConnector("a", np.full((2, 2), 0.5))
        b = ClassicalConnector("b", np.full((2, 2), 0.5))
        wiring = {
            ("a", 0): to_connector("b", 0),
            ("a", 1): to_receptacle("f0"),
            ("b", 0): to_connector("a", 0),
            ("b", 1): to_receptacle("f1"),
        }
        with pytest.raises(ValueError, match="cycle"):
            ClassicalNetwork({"a": a, "b": b}, wiring, ("a", 0))


class TestClassicalPaths:
    def test_deterministic_connectors_single_path(self):
        net = simple_network(np.eye(2))
        paths = classical_paths(net)
        assert len(paths) == 1
        assert paths[0].probability == 1.0
        assert paths[0].receptacle == "f0"

    def test_uniform_reference_topology(self):
        paths = classical_paths(uniform_two_layer_network())
        assert len(paths) == 8
        assert all(p.probability == pytest.approx(0.125, abs=1e-15) for p in paths)
        # enumeration oracle: manual DFS over the crossed wiring
        expected = [
            ((("in", 0, 0), ("a0", 0, 0), ("b0", 0, 0)), "f0"),
            ((("in", 0, 0), ("a0", 0, 0), ("b0", 0, 1)), "f1"),
            ((("in", 0, 0), ("a0", 0, 1), ("b1", 1, 0)), "f1"),
            ((("in", 0, 0), ("a0", 0, 1), ("b1", 1, 1)), "f0"),
            ((("in", 0, 1), ("a1", 0, 0), ("b1", 0, 0)), "f1"),
            ((("in", 0, 1), ("a1", 0, 0), ("b1", 0, 1)), "f0"),
            ((("in", 0, 1), ("a1", 0, 1), ("b0", 1, 0)), "f0"),
            ((("in", 0, 1), ("a1", 0, 1), ("b0", 1, 1)), "f1"),
        ]
        assert [(p.hops, p.receptacle) for p in paths] == expected

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)

        def random_column():
            p = rng.uniform(0.05, 0.95, size=2)
            return np.vstack([p, 1 - p])

        net = two_layer_network(
            random_column(),
            {"a0": random_column(), "a1": random_column()},
            {"b0": random_column(), "b1": random_column()},
        )
        total = sum(p.probability for p in classical_paths(net))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_blocked_outlet_in_network(self):
        net = simple_network(np.full((2, 2), 0.5), blocked=frozenset({1}))
        paths = classical_paths(net)
        assert len(paths) == 1
        assert paths[0].receptacle == "f0"
        assert paths[0].probability == 1.0

    def test_post_selected_sub_network(self):
        # keep only the runs reaching the first second-layer junction by
        # treating it as a terminal: two paths remain, with the products
        # of the entry and first-layer weights
        rng = np.random.default_rng(8)
        w_in = np.array([[0.3, 0.3], [0.7, 0.7]])
        w_a0 = np.array([[0.6, 0.6], [0.4, 0.4]])
        w_a1 = np.array([[0.2, 0.2], [0.8, 0.8]])
        connectors = {
            "in": ClassicalConnector("in", w_in),
            "a0": ClassicalConnector("a0", w_a0),
            "a1": ClassicalConnector("a1", w_a1),
        }
        wiring = {
            ("in", 0): to_connector("a0", 0),
            ("in", 1): to_connector("a1", 0),
            ("a0", 0): to_receptacle("b0"),
            ("a0", 1): to_receptacle("b1"),
            ("a1", 0): to_receptacle("b1"),
            ("a1", 1): to_receptacle("b0"),
        }
        net = ClassicalNetwork(connectors, wiring, ("in", 0))
        kept = [p for p in classical_paths(net) if p.receptacle == "b0"]
        assert len(kept) == 2
        probs = sorted(p.probability for p in kept)
        assert probs == sorted([0.3 * 0.6, 0.7 * 0.8])
        # conditional mean of the first-layer label over the kept runs
        values = {"a0": -1.0, "a1": 1.0}
        per_path = [values[p.hops[1][0]] for p in classical_paths(net)]
        expected = (0.18 * -1.0 + 0.56 * 1.0) / (0.18 + 0.56)
        assert classical_mean(classical_paths(net), per_path, condition={"b0"}) == pytest.approx(
            expected, abs=1e-14
        )


class TestClassicalMean:
    def test_constant_values(self):
        net = uniform_two_layer_network()
        n = len(classical_paths(net))
        assert classical_mean(classical_paths(net), [2.5] * n) == pytest.approx(2.5, abs=1e-14)

    def test_antisymmetric_values_cancel(self):
        net = uniform_two_layer_network()
        values = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        assert classical_mean(classical_paths(net), values) == pytest.approx(0.0, abs=1e-14)

    def test_conditioning(self):
        net = uniform_two_layer_network()
        paths = classical_paths(net)
        values = [1.0 if p.receptacle == "f0" else -7.0 for p in paths]
        assert classical_mean(paths, values, condition={"f0"}) == pytest.approx(1.0, abs=1e-14)

    def test_zero_probability_condition(self):
        net = simple_network(np.eye(2))
        with pytest.raises(ValueError, match="zero probability"):
            classical_mean(classical_paths(net), [1.0], condition={"f1"})

    def test_value_count_checked(self):
        net = uniform_two_layer_network()
        with pytest.raises(ValueError, match="one value per path"):
            classical_mean(classical_paths(net), [1.0, 2.0])


class TestComparator:
    def test_path_probabilities_match_squared_amplitudes(self):
        chain = build_difference_meter().chain.with_completion()
        branches = chain.branches()
        for path in chain_comparator(chain):
            indices, success = comparator_path_key(path)
            branch = branches[0] if success else branches[1]
            expected = abs(path_amplitude_oracle(branch, indices)) ** 2
            assert path.probability == pytest.approx(expected, abs=1e-12)

    def test_single_step_comparator(self):
        from qpathnet import build_projector_postselected

        chain = build_projector_postselected().chain.with_completion()
        paths = chain_comparator(chain)
        assert sum(p.probability for p in paths) == pytest.approx(1.0, abs=1e-12)
        for path in paths:
            indices, success = comparator_path_key(path)
            branch = chain.branches()[0 if success else 1]
            assert path.probability == pytest.approx(
                abs(path_amplitude_oracle(branch, indices)) ** 2, abs=1e-12
            )

    def test_conditional_mean_reduction_formula(self):
        # classical difference mean, conditioned on arriving in f0:
        # (sum F p) / (sum p) with per-path probabilities, no interference
        preset = build_difference_meter()
        chain = preset.chain
        values = preset.meters[0].functional.values(chain)
        paths = chain_comparator(chain)
        per_path = [
            float(values[np.ravel_multi_index(comparator_path_key(p)[0], (2, 2))]) for p in paths
        ]
        computed = classical_mean(paths, per_path, condition={"f0"})
        p = {
            comparator_path_key(path)[0]: path.probability
            for path in paths
            if path.receptacle == "f0"
        }
        expected = (
            0.0 * (p[(0, 0)] + p[(1, 1)]) + 2.0 * p[(0, 1)] + (-2.0) * p[(1, 0)]
        ) / sum(p.values())
        assert computed == pytest.approx(expected, abs=1e-12)
        # and it differs from the interference-grouped quantum mean
        assert abs(computed - strong_mean(chain, preset.meters[0].functional)) > 0.05


    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_distinguishable_path_law_on_random_chains(self, seed, dim, n_steps):
        chain = random_chain(np.random.default_rng(seed), dim, n_steps)
        branches = chain.branches()
        paths = chain_comparator(chain)
        assert len(paths) == len(branches) * chain.n_paths
        for path in paths:
            indices, success = comparator_path_key(path)
            b = int(path.receptacle.removeprefix("f"))
            assert success == (b == 0)
            assert path.probability == pytest.approx(
                abs(path_amplitude_oracle(branches[b], indices)) ** 2, abs=1e-12
            )
        assert sum(p.probability for p in paths) == pytest.approx(1.0, abs=1e-12)


class TestClassicalSampling:
    def test_deterministic_network(self):
        net = simple_network(np.eye(2))
        counts = classical_sample(classical_paths(net), 500, seed=1)
        assert counts.tolist() == [500]

    def test_uniform_frequencies(self):
        net = uniform_two_layer_network()
        n = 100_000
        counts = classical_sample(classical_paths(net), n, seed=12)
        sigma = math.sqrt(n * 0.125 * 0.875)
        assert all(abs(c - n * 0.125) <= 3 * sigma for c in counts)

    def test_reproducible_and_worker_independent(self):
        paths = classical_paths(uniform_two_layer_network())
        a = classical_sample(paths, 50_000, seed=5, max_workers=1)
        b = classical_sample(paths, 50_000, seed=5, max_workers=4)
        assert np.array_equal(a, b)

    def test_sampled_conditional_mean_matches_exact(self):
        preset = build_difference_meter()
        paths = chain_comparator(preset.chain)
        values = preset.meters[0].functional.values(preset.chain)
        per_path = np.array(
            [values[np.ravel_multi_index(comparator_path_key(p)[0], (2, 2))] for p in paths]
        )
        keep = np.array([p.receptacle == "f0" for p in paths])
        counts = classical_sample(paths, 200_000, seed=23)
        n_kept = counts[keep].sum()
        empirical = float((counts[keep] * per_path[keep]).sum() / n_kept)
        exact = classical_mean(paths, per_path.tolist(), condition={"f0"})
        second_moment = float((counts[keep] * per_path[keep] ** 2).sum() / n_kept)
        se = math.sqrt(max(second_moment - empirical**2, 0.0) / n_kept)
        assert abs(empirical - exact) <= 3 * se
