import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_amplitude_oracle, random_chain, random_state_vector
from qpathnet import (
    ForbiddenTransitionError,
    MeasurementChain,
    MeasurementStep,
    Observable,
    PathBundle,
    PathFunctional,
    Propagator,
    StateVector,
    amplitude_distribution,
    build_difference_meter,
    build_minus_hundred,
    build_three_box,
    chain_comparator,
    combine_paths,
    enumerate_paths,
    path_amplitude,
    path_amplitudes,
    relative_amplitudes,
    strong_mean,
    weak_value,
)
from qpathnet.paths import FUNCTIONAL_RULES

IDENTITY_PROJECTOR = Observable.from_eigensystem([1.0, 0.0], np.eye(2, dtype=complex))
SPIN = Observable.from_eigensystem([1.0, -1.0], np.eye(2, dtype=complex))


def single_step_chain(psi, phi, observable=IDENTITY_PROJECTOR):
    return MeasurementChain(
        StateVector.from_components(psi).normalized(),
        (MeasurementStep(0.5, observable),),
        Propagator.free(len(psi)),
        StateVector.from_components(phi).normalized(),
        1.0,
    )


class TestEnumeration:
    def test_two_level_single_step(self):
        chain = single_step_chain([1, 0], [1, 0])
        assert enumerate_paths(chain) == [(0,), (1,)]

    def test_two_level_two_steps_order(self):
        chain = build_difference_meter().chain
        assert enumerate_paths(chain) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_three_level(self):
        assert len(enumerate_paths(build_three_box().chain)) == 3

    def test_zero_steps(self):
        chain = MeasurementChain(
            StateVector.from_components([1, 0]),
            (),
            Propagator.free(2),
            StateVector.from_components([0, 1]),
            1.0,
        )
        assert enumerate_paths(chain) == [()]
        assert path_amplitudes(chain).tolist() == [chain.transition_amplitude()]

    def test_path_count_cap(self):
        # 4^10 paths: the chain exists, but every operation that lists its
        # paths refuses before allocating them
        obs = Observable.from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        steps = tuple(MeasurementStep(0.05 * (k + 1), obs) for k in range(10))
        chain = MeasurementChain(
            StateVector.from_components([1, 0, 0, 0]),
            steps,
            Propagator.free(4),
            StateVector.from_components([0, 1, 0, 0]),
            1.0,
        )
        dense = (
            path_amplitudes,
            enumerate_paths,
            PathFunctional.step_eigenvalue(0).values,
            chain_comparator,
        )
        for operation in dense:
            with pytest.raises(ValueError, match="cap"):
                operation(chain)
        # grouping lists no path: the indicator walks at most 4 x 11 rows
        dist = amplitude_distribution(chain, PathFunctional.path_indicator((0,) * 10))
        assert dist.support.tolist() == [0.0, 1.0]

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            MeasurementChain(
                StateVector.from_components([1, 0]),
                (MeasurementStep(0.6, IDENTITY_PROJECTOR), MeasurementStep(0.4, IDENTITY_PROJECTOR)),
                Propagator.free(2),
                StateVector.from_components([0, 1]),
                1.0,
            )


class TestAmplitudes:
    def test_orthogonality_kills_other_path(self):
        chain = single_step_chain([1, 0], [1, 0])
        assert path_amplitude(chain, (0,)) == pytest.approx(1.0)
        assert path_amplitude(chain, (1,)) == pytest.approx(0.0)

    def test_product_values(self):
        # <phi|i><i|psi> for psi = (sqrt(.8), sqrt(.2)), phi = (1,1)/sqrt(2)
        chain = single_step_chain([math.sqrt(0.8), math.sqrt(0.2)], [1, 1])
        amps = path_amplitudes(chain)
        assert amps[0] == pytest.approx(math.sqrt(0.4), abs=1e-12)
        assert amps[1] == pytest.approx(math.sqrt(0.1), abs=1e-12)

    def test_single_matches_vectorized(self):
        rng = np.random.default_rng(3)
        chain = random_chain(rng, 3, 2)
        amps = path_amplitudes(chain)
        for i, path in enumerate(enumerate_paths(chain)):
            assert path_amplitude(chain, path) == pytest.approx(amps[i], abs=1e-12)
            assert path_amplitude_oracle(chain, path) == pytest.approx(amps[i], abs=1e-12)

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_sum_rule(self, seed, dim, n_steps):
        chain = random_chain(np.random.default_rng(seed), dim, n_steps)
        total = path_amplitudes(chain).sum()
        assert abs(total - chain.transition_amplitude()) < 1e-10

    def test_completeness_over_final_states(self):
        rng = np.random.default_rng(11)
        chain = random_chain(rng, 3, 1).with_completion()
        total = sum(
            float(np.sum(np.abs(path_amplitudes(branch)) ** 2)) for branch in chain.branches()
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_path(self):
        chain = single_step_chain([1, 0], [0, 1])
        with pytest.raises(ValueError):
            path_amplitude(chain, (0, 1))
        with pytest.raises(ValueError):
            path_amplitude(chain, (2,))


class TestAmplitudeDistribution:
    def test_difference_grouping(self):
        preset = build_difference_meter()
        dist = amplitude_distribution(preset.chain, preset.meters[0].functional)
        assert dist.support.tolist() == [-2.0, 0.0, 2.0]
        amps = path_amplitudes(preset.chain)
        # enumeration (iA, iB): value 0 groups (0,0) and (1,1)
        assert dist.amplitudes[1] == pytest.approx(amps[0] + amps[3], abs=1e-12)
        assert dist.amplitudes[0] == pytest.approx(amps[2], abs=1e-12)
        assert dist.amplitudes[2] == pytest.approx(amps[1], abs=1e-12)

    def test_projector_relabeling(self):
        chain = single_step_chain([math.sqrt(0.8), math.sqrt(0.2)], [1, 1])
        dist = amplitude_distribution(chain, PathFunctional.step_eigenvalue(0))
        assert dist.support.tolist() == [0.0, 1.0]
        assert dist.amplitudes[0] == pytest.approx(math.sqrt(0.1), abs=1e-12)
        assert dist.amplitudes[1] == pytest.approx(math.sqrt(0.4), abs=1e-12)

    def test_constant_functional_groups_everything(self):
        chain = build_difference_meter().chain
        dist = amplitude_distribution(chain, PathFunctional.constant(3.5))
        assert dist.support.tolist() == [3.5]
        assert dist.total() == pytest.approx(chain.transition_amplitude(), abs=1e-12)


class TestPathBundles:
    def test_identity_weights(self):
        chain = build_difference_meter().chain
        f = PathFunctional.step_difference()
        p = PathBundle.from_path(chain, (0, 0))
        q = PathBundle.from_path(chain, (1, 1))
        combined = combine_paths(1.0, p, 0.0, q)
        assert combined.amplitude == pytest.approx(path_amplitude(chain, (0, 0)), abs=1e-14)
        value, determinate = combined.value(f)
        assert determinate and value == 0.0

    def test_grouped_pair_stays_determinate(self):
        chain = build_difference_meter().chain
        f = PathFunctional.step_difference()
        bundle = combine_paths(
            1.0, PathBundle.from_path(chain, (0, 0)), 1.0, PathBundle.from_path(chain, (1, 1))
        )
        assert bundle.amplitude == pytest.approx(
            path_amplitude(chain, (0, 0)) + path_amplitude(chain, (1, 1)), abs=1e-14
        )
        value, determinate = bundle.value(f)
        assert determinate and value == 0.0

    def test_mixed_values_become_indeterminate(self):
        chain = build_difference_meter().chain
        f = PathFunctional.step_difference()
        bundle = combine_paths(
            1.0, PathBundle.from_path(chain, (0, 0)), 1.0, PathBundle.from_path(chain, (0, 1))
        )
        value, determinate = bundle.value(f)
        assert not determinate and value is None
        assert bundle.amplitude == pytest.approx(
            path_amplitude(chain, (0, 0)) + path_amplitude(chain, (0, 1)), abs=1e-14
        )

    def test_rejects_chain_mixing(self):
        a = build_difference_meter().chain
        b = build_difference_meter().chain
        with pytest.raises(ValueError, match="different chains"):
            combine_paths(1.0, PathBundle.from_path(a, (0, 0)), 1.0, PathBundle.from_path(b, (0, 0)))


class TestRelativeAmplitudes:
    def test_three_box_values(self):
        chain = build_three_box().chain
        rel = relative_amplitudes(chain, PathFunctional.step_eigenvalue(0))
        values = [rel[k] for k in sorted(rel)]
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(-1.0, abs=1e-12)
        assert values[2] == pytest.approx(1.0, abs=1e-12)

    def test_near_cancellation_amplifies(self):
        chain = build_minus_hundred().chain
        rel = relative_amplitudes(chain, PathFunctional.step_eigenvalue(0))
        assert rel[1.0] == pytest.approx(-100.0, abs=1e-9)
        assert rel[0.0] == pytest.approx(101.0, abs=1e-9)

    def test_single_path(self):
        chain = single_step_chain([1, 0], [1, 0])
        rel = relative_amplitudes(chain, PathFunctional.step_eigenvalue(0))
        assert rel[1.0] == pytest.approx(1.0, abs=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            chain = random_chain(rng, 2, 2)
            if abs(chain.transition_amplitude()) < 1e-3:
                continue
            rel = relative_amplitudes(chain, PathFunctional.step_eigenvalue(0))
            total = sum(rel.values())
            assert total.real == pytest.approx(1.0, abs=1e-10)
            assert total.imag == pytest.approx(0.0, abs=1e-10)

    def test_forbidden_transition_raises(self):
        chain = single_step_chain([1, 0], [0, 1])
        with pytest.raises(ForbiddenTransitionError):
            relative_amplitudes(chain, PathFunctional.step_eigenvalue(0))
        with pytest.raises(ForbiddenTransitionError):
            weak_value(chain, PathFunctional.step_eigenvalue(0))


class TestMeans:
    def test_weak_value_minus_hundred(self):
        chain = build_minus_hundred().chain
        wv = weak_value(chain, PathFunctional.step_eigenvalue(0))
        assert wv.real == pytest.approx(-100.0, abs=1e-9)
        assert wv.imag == pytest.approx(0.0, abs=1e-12)

    def test_single_real_path(self):
        chain = single_step_chain([1, 0], [1, 0])
        f = PathFunctional.step_eigenvalue(0)
        assert weak_value(chain, f) == pytest.approx(1.0, abs=1e-14)
        assert strong_mean(chain, f) == pytest.approx(1.0, abs=1e-14)

    def test_spin_weak_value_derived(self):
        # amplitudes sqrt(0.4), sqrt(0.1): (A1 - A2)/(A1 + A2) = 1/3
        chain = single_step_chain([math.sqrt(0.8), math.sqrt(0.2)], [1, 1], SPIN)
        assert weak_value(chain, PathFunctional.step_eigenvalue(0)) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_spin_strong_mean_derived(self):
        # (0.4 - 0.1) / 0.5
        chain = single_step_chain([math.sqrt(0.8), math.sqrt(0.2)], [1, 1], SPIN)
        assert strong_mean(chain, PathFunctional.step_eigenvalue(0)) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_probability_weighted_form(self):
        # the strong mean is sum f p(f) / sum p(f) with p = |grouped amplitude|^2
        rng = np.random.default_rng(9)
        for _ in range(10):
            chain = random_chain(rng, 2, 2, eigenvalues=[-1.0, 1.0])
            f = PathFunctional.step_difference()
            dist = amplitude_distribution(chain, f)
            p = np.abs(dist.amplitudes) ** 2
            if p.sum() < 1e-12:
                continue
            expected = float(np.sum(dist.support * p) / p.sum())
            assert strong_mean(chain, f) == pytest.approx(expected, abs=1e-12)

    def test_grouping_invariance_of_weak_value(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            chain = random_chain(rng, 2, 2, eigenvalues=[-1.0, 1.0])
            if abs(chain.transition_amplitude()) < 1e-3:
                continue
            f = PathFunctional.step_difference()
            grouped = weak_value(chain, f)
            amps = path_amplitudes(chain)
            values = f.values(chain)
            raw = np.sum(values * amps) / np.sum(amps)
            assert abs(grouped - raw) < 1e-12

    def test_strong_equals_weak_on_single_path(self):
        chain = single_step_chain([1, 0], [1, 0], SPIN)
        f = PathFunctional.step_eigenvalue(0)
        assert strong_mean(chain, f) == weak_value(chain, f).real == 1.0


class TestFunctionalRules:
    def test_weighted_steps(self):
        chain = build_difference_meter().chain
        diff = PathFunctional.step_difference()
        weighted = PathFunctional.weighted_steps([-1.0, 1.0])
        assert np.allclose(diff.values(chain), weighted.values(chain))

    def test_indicator(self):
        chain = build_three_box().chain
        values = PathFunctional.path_indicator((1,)).values(chain)
        assert values.tolist() == [0.0, 1.0, 0.0]

    def test_table_length_checked(self):
        chain = build_three_box().chain
        with pytest.raises(ValueError, match="paths"):
            PathFunctional.from_table([1.0, 2.0]).values(chain)

    @pytest.mark.parametrize("seed", range(6))
    def test_value_on_one_path_is_its_entry_of_values(self, seed):
        rng = np.random.default_rng(seed)
        dim, n_steps = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        chain = random_chain(rng, dim, n_steps)
        paths = enumerate_paths(chain)
        functionals = [
            PathFunctional.step_eigenvalue(int(rng.integers(n_steps))),
            PathFunctional.weighted_steps(rng.normal(size=n_steps)),
            PathFunctional.step_difference(int(rng.integers(n_steps)), int(rng.integers(n_steps))),
            PathFunctional.path_indicator(paths[int(rng.integers(len(paths)))]),
            PathFunctional.from_table(rng.normal(size=len(paths))),
            PathFunctional.constant(float(rng.normal())),
        ]
        assert [f.rule for f in functionals] == list(FUNCTIONAL_RULES)
        for f in functionals:
            values = f.values(chain)
            for idx, path in enumerate(paths):
                assert f.value(chain, path) == values[idx]

    def test_value_rejects_a_foreign_path(self):
        chain = build_difference_meter().chain
        for path in ((0,), (0, 2), (0, -1)):
            with pytest.raises(ValueError, match="not valid"):
                PathFunctional.step_difference().value(chain, path)

    def test_step_out_of_range(self):
        chain = build_three_box().chain
        with pytest.raises(ValueError, match="out of range"):
            PathFunctional.step_eigenvalue(1).values(chain)
