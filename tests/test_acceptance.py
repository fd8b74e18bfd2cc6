"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from helpers import (
    gaussian_overlap_mean,
    random_chain,
    random_hermitian,
    random_observable,
    random_state_vector,
    random_unitary,
)
from qpathnet import (
    AmplitudeDistribution,
    Grid,
    MeterSpec,
    Observable,
    PathFunctional,
    PointerDistribution,
    PointerProfile,
    Propagator,
    amplitude_distribution,
    build_difference_meter,
    build_minus_hundred,
    build_projector_postselected,
    build_three_box,
    chain_comparator,
    classical_mean,
    comparator_path_key,
    disturbance_gap,
    final_pointer_state,
    joint_reading_distribution,
    mean_reading,
    path_amplitudes,
    reading_distribution,
    relative_amplitudes,
    robertson_check,
    sample_trials,
    strong_limit_bins,
    strong_limit_probabilities,
    strong_mean,
    total_reading_distribution,
    weak_limit_report,
    weak_value,
    window_masses,
)


def _report(number, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_1_anomalous_weak_value():
    t0 = time.perf_counter()
    preset = build_minus_hundred()
    functional = preset.meters[0].functional
    wv = weak_value(preset.chain, functional)
    analytic_ok = abs(wv.real + 100.0) <= 1e-9 and abs(wv.imag) <= 1e-9

    sweep = weak_limit_report(preset.chain, functional, (10.0, 100.0, 1000.0, 10000.0))
    errors = sweep.errors
    decreasing = all(later < earlier for earlier, later in zip(errors, errors[1:]))
    final_ok = errors[-1] / 100.0 <= 0.05
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "weak mean -100, analytic and via width sweep",
        analytic_ok and decreasing and final_ok and elapsed < 10.0,
        f"weak={wv.real:.10f}, sweep errors={[f'{e:.3g}' for e in errors]}, {elapsed:.2f}s",
    )


def test_criterion_2_three_box():
    t0 = time.perf_counter()
    preset = build_three_box()
    joint = joint_reading_distribution(preset.chain, list(preset.meters))
    m0, m1 = joint.marginal_mean(0), joint.marginal_mean(1)
    marginals_ok = abs(m0 - 1.0) <= 1e-3 and abs(m1 - 1.0) <= 1e-3

    rel = relative_amplitudes(preset.chain, PathFunctional.step_eigenvalue(0))
    middle_ok = abs(rel[2.0].real + 1.0) <= 1e-9

    first = strong_limit_probabilities(preset.chain, PathFunctional.path_indicator((0,)))
    third = strong_limit_probabilities(preset.chain, PathFunctional.path_indicator((2,)))
    strong_ok = abs(first[1.0] - 1.0) <= 1e-10 and abs(third[1.0] - 1.0) <= 1e-10
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "three-box joint weak marginals, middle relative amplitude, strong indicators",
        marginals_ok and middle_ok and strong_ok and elapsed < 30.0,
        f"marginals=({m0:.6f}, {m1:.6f}), Re mid={rel[2.0].real:.12f}, {elapsed:.2f}s",
    )


def test_criterion_3_strong_limit_exactness():
    preset = build_difference_meter()
    chain, functional = preset.chain, preset.meters[0].functional
    meter = MeterSpec(functional, PointerProfile.rectangular(0.5))
    dist = reading_distribution(chain, meter)
    bins = strong_limit_bins(chain, functional)
    masses = window_masses(dist, list(bins))
    mass_err = max(abs(masses[f] - b) for f, b in bins.items())

    total = sum(masses.values())
    numeric_mean = sum(f * m for f, m in masses.items()) / total
    mean_err = abs(numeric_mean - strong_mean(chain, functional))
    _report(
        3,
        "rectangular window masses and difference mean exact to 1e-10",
        mass_err <= 1e-10 and mean_err <= 1e-10,
        f"max mass err={mass_err:.2e}, mean err={mean_err:.2e}",
    )


def test_criterion_4_sum_rule_and_conservation():
    rng = np.random.default_rng(404)
    worst_sum = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        n_steps = int(rng.integers(1, 4))
        chain = random_chain(rng, dim, n_steps)
        gap = abs(path_amplitudes(chain).sum() - chain.transition_amplitude())
        worst_sum = max(worst_sum, gap)
    sum_ok = worst_sum <= 1e-10

    worst_norm = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        n_steps = int(rng.integers(1, 3))
        chain = random_chain(rng, dim, n_steps)
        meter = MeterSpec(
            PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(float(rng.uniform(0.5, 2.0)))
        )
        total = total_reading_distribution(chain, meter)
        worst_norm = max(worst_norm, abs(total.norm - 1.0))
    norm_ok = worst_norm <= 1e-6
    _report(
        4,
        "path-amplitude sum rule (1000 chains) and quadrature conservation",
        sum_ok and norm_ok,
        f"max sum gap={worst_sum:.2e}, max norm gap={worst_norm:.2e}",
    )


def test_criterion_5_weak_non_disturbance():
    rng = np.random.default_rng(505)
    worst_weak = 0.0
    worst_strong = 0.0
    for _ in range(20):
        chain = random_chain(rng, 2, 1, eigenvalues=[-1.0, 1.0])
        functional = PathFunctional.step_eigenvalue(0)
        free = abs(chain.transition_amplitude()) ** 2
        strong_amount = float(np.sum(np.abs(path_amplitudes(chain)) ** 2))

        wide = reading_distribution(chain, MeterSpec(functional, PointerProfile.gaussian(1e4)))
        worst_weak = max(worst_weak, abs(wide.norm - free) / max(free, 1e-12))

        narrow = reading_distribution(chain, MeterSpec(functional, PointerProfile.gaussian(1e-2)))
        worst_strong = max(worst_strong, abs(narrow.norm - strong_amount) / strong_amount)
    _report(
        5,
        "wide meters leave the transition probability intact; narrow ones move it to sum p[i]",
        worst_weak <= 1e-3 and worst_strong <= 1e-6,
        f"max weak gap={worst_weak:.2e} (tol 0.1%), max strong gap={worst_strong:.2e}",
    )


def test_criterion_6_quantum_classical_contrast():
    preset = build_difference_meter()
    chain, functional = preset.chain, preset.meters[0].functional
    amps = path_amplitudes(chain)
    overlap = float(np.real(amps[0] * np.conj(amps[3])))
    precondition = overlap >= 0.05

    quantum_bin = strong_limit_bins(chain, functional)[0.0]
    classical_bin = abs(amps[0]) ** 2 + abs(amps[3]) ** 2
    contrast_ok = abs(quantum_bin - classical_bin) >= 1e-3

    values = functional.values(chain)
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
        0.0 * (p[(0, 0)] + p[(1, 1)]) + 2.0 * p[(0, 1)] - 2.0 * p[(1, 0)]
    ) / sum(p.values())
    network_ok = abs(computed - expected) <= 1e-12
    _report(
        6,
        "interference bin differs from classical sum; comparator reproduces the classical mean",
        precondition and contrast_ok and network_ok,
        f"quantum={quantum_bin:.6f} vs classical={classical_bin:.6f}, "
        f"network mean gap={abs(computed - expected):.2e}",
    )


def test_criterion_7_monte_carlo_fidelity():
    preset = build_projector_postselected()
    trials = sample_trials(preset.chain, list(preset.meters), 100_000, seed=777, max_workers=1)
    success = trials.branches == 0
    near_one = np.abs(trials.readings[success, 0] - 1.0) <= 0.25
    p = 0.8
    sigma = math.sqrt(p * (1 - p) / success.sum())
    binomial_ok = abs(near_one.mean() - p) <= 3 * sigma

    meter_summary = trials.summary().meters[0]
    mean_ok = (
        abs(meter_summary.conditional_mean - meter_summary.exact_mean)
        <= 3 * meter_summary.standard_error
    )

    again = sample_trials(preset.chain, list(preset.meters), 100_000, seed=777, max_workers=4)
    identical = np.array_equal(trials.readings, again.readings) and np.array_equal(
        trials.branches, again.branches
    )
    _report(
        7,
        "sampled frequencies, conditional means, and bit-identical reruns",
        binomial_ok and mean_ok and identical,
        f"freq={near_one.mean():.4f} (exp {p}), z={meter_summary.z_score:.2f}, "
        f"workers 1 vs 4 identical={identical}",
    )


def test_criterion_8_uncertainty_suite():
    rng = np.random.default_rng(808)
    robertson_ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        lhs, rhs = robertson_check(
            random_state_vector(rng, dim), random_observable(rng, dim), random_observable(rng, dim)
        )
        if lhs < rhs - 1e-10:
            robertson_ok = False
            break

    prop = Propagator.free(2)
    commuting_ok = True
    for _ in range(100):
        basis = random_unitary(rng, 2)
        a = Observable.from_eigensystem(rng.normal(size=2), basis)
        b = Observable.from_eigensystem(rng.normal(size=2), basis)
        table = disturbance_gap(random_state_vector(rng, 2), a, b, prop, 0.5, 1.0)
        if max(abs(d - u) for d, u in table.values()) > 1e-10:
            commuting_ok = False
            break

    non_commuting_ok = True
    for _ in range(100):
        a = random_observable(rng, 2)
        b = random_observable(rng, 2)
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        if np.linalg.norm(comm) < 0.1:
            continue
        table = disturbance_gap(random_state_vector(rng, 2), a, b, prop, 0.5, 1.0)
        if max(abs(d - u) for d, u in table.values()) <= 1e-10:
            non_commuting_ok = False
            break
    _report(
        8,
        "uncertainty bound on 1000 triples; intermediate measurement disturbs iff non-commuting",
        robertson_ok and commuting_ok and non_commuting_ok,
        f"robertson={robertson_ok}, commuting equal={commuting_ok}, "
        f"non-commuting unequal={non_commuting_ok}",
    )


def test_criterion_9_gaussian_quadrature_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    count = 0
    while count < 100:
        n = 2 + count % 2  # alternate two- and three-point distributions
        support = np.sort(rng.uniform(-3.0, 3.0, n))
        if n > 1 and np.min(np.diff(support)) < 0.2:
            continue
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        width = float(rng.uniform(0.4, 4.0))
        dist = AmplitudeDistribution(support, amps)
        profile = PointerProfile.gaussian(width)
        grid = Grid.cover(support, width)
        density = np.abs(final_pointer_state(dist, profile, grid)) ** 2
        norm = float(density @ grid.weights())
        if norm < 1e-3 * float(np.sum(np.abs(amps) ** 2)):
            continue  # nearly forbidden: the mean is ill-conditioned by design
        grid_mean = mean_reading(PointerDistribution((grid,), density))
        worst = max(worst, abs(grid_mean - gaussian_overlap_mean(support, amps, width)))
        count += 1
    _report(
        9,
        "grid mean readings match the Gaussian overlap closed form on 100 random distributions",
        worst <= 1e-6,
        f"max |grid - closed form| = {worst:.2e}",
    )
