import copy
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpathnet.paths
from helpers import (
    count_grouped_amplitudes,
    path_amplitude_oracle,
    random_chain,
    random_hermitian,
    random_observable,
    random_spin_chain,
    random_state_vector,
)
from qpathnet import (
    ForbiddenTransitionError,
    MeasurementChain,
    MeasurementStep,
    MeterSpec,
    Observable,
    PathFunctional,
    PathCapError,
    PointerProfile,
    Propagator,
    StateVector,
    amplitude_distribution,
    build_difference_meter,
    build_minus_hundred,
    build_three_box,
    chain_comparator,
    enumerate_paths,
    grouped_amplitudes,
    mean_reading,
    path_amplitudes,
    reading_distribution,
    relative_amplitudes,
    strong_limit_bins,
    strong_mean,
    weak_limit_report,
    weak_value,
)
from qpathnet.paths import FUNCTIONAL_RULES, WALK_CACHE_SIZE, _branch_amplitudes

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

    def test_a_count_beyond_the_integer_string_limit_is_refused_as_a_cap(self):
        # 2^15000 has 4516 digits, past str()'s limit of 4300: the message
        # raised a plain ValueError instead of PathCapError
        obs = Observable.from_matrix(np.diag([1.0, -1.0]))
        steps = tuple(MeasurementStep((k + 1) / 15001, obs) for k in range(15000))
        psi = StateVector.from_components([1, 1]).normalized()
        chain = MeasurementChain(psi, steps, Propagator.free(2), psi, 1.0)
        for operation in (enumerate_paths, path_amplitudes):
            with pytest.raises(PathCapError, match=r"lists all 2\^15000 = 2\.818e\+4515 virtual paths"):
                operation(chain)

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            MeasurementChain(
                StateVector.from_components([1, 0]),
                (MeasurementStep(0.6, IDENTITY_PROJECTOR), MeasurementStep(0.4, IDENTITY_PROJECTOR)),
                Propagator.free(2),
                StateVector.from_components([0, 1]),
                1.0,
            )

    @pytest.mark.parametrize("complement", [(), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0), (0, 1))])
    def test_completion_holds_dim_minus_one_states_of_the_dimension(self, complement):
        chain = build_three_box().chain
        with pytest.raises(ValueError, match="post_complement must hold dim - 1 = 2 states of dimension 3"):
            MeasurementChain(
                chain.pre_state,
                chain.steps,
                chain.propagator,
                chain.post_state,
                chain.total_time,
                tuple(StateVector.from_components(c) for c in complement),
            )


class TestAmplitudes:
    def test_orthogonality_kills_other_path(self):
        chain = single_step_chain([1, 0], [1, 0])
        amps = path_amplitudes(chain)
        assert amps[0] == pytest.approx(1.0)
        assert amps[1] == pytest.approx(0.0)

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
            dist = amplitude_distribution(chain, PathFunctional.path_indicator(path))
            assert dist.amplitudes[dist.support.tolist().index(1.0)] == pytest.approx(amps[i], abs=1e-12)
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


class TestWalkMemo:
    """A chain keeps its A(f) walks, keyed by value: a repeated call is a
    lookup that returns the first walk's own read-only arrays."""

    def test_a_new_functional_of_the_same_value_is_a_hit(self, monkeypatch):
        chain = random_chain(np.random.default_rng(1), 3, 2)
        calls = count_grouped_amplitudes(monkeypatch)
        first = _branch_amplitudes(chain, [PathFunctional.weighted_steps([1.0, 2.0])], chain.branches())
        again = _branch_amplitudes(chain, [PathFunctional.weighted_steps([1.0, 2.0])], chain.branches())
        assert calls == [1]
        assert all(a is b for a, b in zip(first, again))

    @pytest.mark.parametrize(
        "first, second",
        [
            (PathFunctional.weighted_steps([1.0, 2.0]), PathFunctional.weighted_steps([1.0, 3.0])),
            (PathFunctional.constant(-0.0), PathFunctional.constant(0.0)),
            # equal to 8 digits, the precision of an array's repr
            (PathFunctional("table", values=np.full(9, 0.1)), PathFunctional("table", values=np.full(9, 0.1 + 1e-10))),
        ],
    )
    def test_different_parameters_miss(self, monkeypatch, first, second):
        chain = random_chain(np.random.default_rng(2), 3, 2)
        calls = count_grouped_amplitudes(monkeypatch)
        keys = [grouped_amplitudes(chain, [f])[0] for f in (first, second)]
        assert calls == [2]
        assert keys[0].tobytes() != keys[1].tobytes()

    def test_list_parameters_of_a_functional_built_directly(self, monkeypatch):
        chain = random_chain(np.random.default_rng(3), 2, 3)
        listed = PathFunctional("weighted_steps", weights=[1.0, -1.0, 0.5])
        calls = count_grouped_amplitudes(monkeypatch)
        keys, amps = grouped_amplitudes(chain, [listed])
        assert grouped_amplitudes(chain, [PathFunctional("weighted_steps", weights=[1.0, -1.0, 0.5])])[0] is keys
        assert calls == [1]
        want = grouped_amplitudes(chain, [PathFunctional.weighted_steps([1.0, -1.0, 0.5])])
        assert keys.tobytes() == want[0].tobytes() and amps.tobytes() == want[1].tobytes()

    def test_returned_arrays_are_read_only(self):
        chain = random_chain(np.random.default_rng(4), 3, 2)
        f = PathFunctional.step_eigenvalue(1)
        keys, amps = _branch_amplitudes(chain, [f], chain.branches())
        dist = amplitude_distribution(chain, f)
        # a deep copy would copy the kept arrays as writable ones
        again = amplitude_distribution(copy.deepcopy(chain), f)
        for a in (keys, amps, dist.support, dist.amplitudes, again.support, again.amplitudes):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_a_refused_walk_is_not_kept(self, monkeypatch):
        chain = random_chain(np.random.default_rng(5), 3, 2)
        calls = count_grouped_amplitudes(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                grouped_amplitudes(chain, [PathFunctional.step_eigenvalue(2)])
        f = PathFunctional.step_eigenvalue(1)
        with monkeypatch.context() as capped:
            capped.setattr(qpathnet.paths, "MAX_PATHS", 4)
            with pytest.raises(PathCapError):
                grouped_amplitudes(chain, [f])
        grouped_amplitudes(chain, [f])
        assert calls == [4]

    def test_one_walk_above_the_bound_walks_the_oldest_again(self, monkeypatch):
        chain = random_chain(np.random.default_rng(6), 2, 2)
        functionals = [PathFunctional.weighted_steps([1.0, w]) for w in range(WALK_CACHE_SIZE + 1)]
        calls = count_grouped_amplitudes(monkeypatch)
        for f in functionals:
            grouped_amplitudes(chain, [f])
        grouped_amplitudes(chain, [functionals[-1]])
        assert calls == [WALK_CACHE_SIZE + 1]
        grouped_amplitudes(chain, [functionals[0]])
        assert calls == [WALK_CACHE_SIZE + 2]

    def test_a_walk_exponentiates_each_distinct_interval_once(self, monkeypatch):
        # seven steps 1/8 apart: all eight hops span one interval
        rng = np.random.default_rng(9)
        steps = tuple(MeasurementStep(k / 8, random_observable(rng, 2)) for k in range(1, 8))
        prop = Propagator(random_hermitian(rng, 2))
        chain = MeasurementChain(random_state_vector(rng, 2), steps, prop, random_state_vector(rng, 2), 1.0)
        times, unitary = [], Propagator.unitary

        def counted(self, t):
            times.append(t)
            return unitary(self, t)

        monkeypatch.setattr(Propagator, "unitary", counted)
        grouped_amplitudes(chain, [PathFunctional.weighted_steps([1.0] * 7)])
        assert times == [0.125]

    def test_every_statistic_of_one_functional_takes_one_walk(self, monkeypatch):
        chain = random_spin_chain(np.random.default_rng(7), 6)
        f = PathFunctional.weighted_steps([1.0] * 6)
        calls = count_grouped_amplitudes(monkeypatch)
        weak_value(chain, f)
        strong_mean(chain, f)
        strong_limit_bins(chain, f)
        relative_amplitudes(chain, f)
        mean_reading(reading_distribution(chain, MeterSpec(f, PointerProfile.rectangular(0.5))))
        weak_limit_report(chain, f, (0.1, 1.0, 10.0))
        assert calls == [1]

    def test_threads_sharing_a_chain_get_the_walks_of_a_chain_alone(self):
        chain, alone = (random_chain(np.random.default_rng(8), 2, 3) for _ in range(2))
        functionals = [PathFunctional.weighted_steps([1.0, w, 0.5]) for w in range(WALK_CACHE_SIZE + 2)]
        want = [grouped_amplitudes(alone, [f])[1].tobytes() for f in functionals]
        errors = []

        def worker(seed):
            order = np.random.default_rng(seed).integers(len(functionals), size=300)
            try:
                for i in order:
                    assert grouped_amplitudes(chain, [functionals[i]])[1].tobytes() == want[i]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(chain._walks) <= WALK_CACHE_SIZE
