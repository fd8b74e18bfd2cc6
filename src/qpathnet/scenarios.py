"""Preset chains reproducing the headline cases, with their expected numbers.

Each preset bundles a measurement chain, its meters, and a table of expected
constants labelled by tolerance class:

    analytic   - closed-form path arithmetic, checked to 1e-9
    quadrature - grid integrals, checked to 1e-6
    marginal   - wide meters' closed-form mean readings, checked to 1e-3
    sweep      - wide-width limit, final relative error below 5 percent
    mc         - sampled statistics, checked to 3 standard errors
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Observable, Propagator, StateVector
from .meter import MeterSpec, PointerProfile, _moments, weak_limit_report
from .paths import (
    ForbiddenTransitionError,
    MeasurementChain,
    MeasurementStep,
    PathFunctional,
    amplitude_distribution,
    grouped_amplitudes,
)
from .sampling import sample_trials

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

DEFAULT_TOLERANCES = {"analytic": 1e-9, "quadrature": 1e-6, "marginal": 1e-3, "sweep": 0.05}


@dataclass(frozen=True)
class Expected:
    value: float
    kind: str  # analytic | quadrature | marginal | sweep | mc


@dataclass(frozen=True, eq=False)
class ScenarioPreset:
    name: str
    chain: MeasurementChain
    meters: tuple[MeterSpec, ...]
    expected: dict[str, Expected]
    sweep_widths: tuple[float, ...] = ()


def _chain(pre, steps, post, total_time=1.0, hamiltonian=None) -> MeasurementChain:
    dim = len(pre)
    prop = Propagator.free(dim) if hamiltonian is None else Propagator(hamiltonian)
    return MeasurementChain(
        StateVector.from_components(pre),
        tuple(MeasurementStep(t, obs) for t, obs in steps),
        prop,
        StateVector.from_components(post),
        total_time,
    )


def build_projector_postselected(
    psi=(math.sqrt(0.8), math.sqrt(0.2)),
    phi=(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
) -> ScenarioPreset:
    """Single measurement of the projector on the first basis state, between
    preparation and final selection.  Eigenvalues are (1, 0), so the mean
    reading estimates how often the first path is travelled."""
    projector = Observable.from_eigensystem([1.0, 0.0], np.eye(2, dtype=complex))
    chain = _chain(psi, [(0.5, projector)], phi)
    functional = PathFunctional.step_eigenvalue(0)
    # accurate configuration; wide (weak) meters are built per width in sweeps
    meters = (MeterSpec(functional, PointerProfile.rectangular(0.5)),)
    amps = [
        complex(np.conj(phi[i]) * psi[i]) for i in range(2)
    ]
    total = amps[0] + amps[1]
    expected: dict[str, Expected] = {}
    p = [abs(a) ** 2 for a in amps]
    expected["strong_mean"] = Expected(p[0] / (p[0] + p[1]), "analytic")
    if abs(total) > 1e-14:
        wv = amps[0] / total
        expected["weak_value_re"] = Expected(wv.real, "analytic")
        expected["weak_value_im"] = Expected(wv.imag, "analytic")
        expected["sweep_limit"] = Expected(wv.real, "sweep")
    else:
        expected["forbidden_transition"] = Expected(1.0, "analytic")
    expected["strong_bin_1"] = Expected(p[0] / (p[0] + p[1]), "analytic")
    expected["strong_bin_0"] = Expected(p[1] / (p[0] + p[1]), "analytic")
    # the 0.5-wide windows are disjoint: selection succeeds with mass p0 + p1
    expected["mc_success_fraction"] = Expected(p[0] + p[1], "mc")
    return ScenarioPreset("projector", chain, meters, expected, sweep_widths=(10.0, 100.0, 1000.0, 10000.0))


def build_minus_hundred() -> ScenarioPreset:
    """Selection tuned so the two path amplitudes nearly cancel (ratio
    -1.01): the weak mean of the first-path indicator is -100, far outside
    the [0, 1] range an accurate measurement would report."""
    norm = math.sqrt(1.0 + 1.01**2)
    preset = build_projector_postselected(
        psi=(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        phi=(1.0 / norm, -1.01 / norm),
    )
    expected = dict(preset.expected)
    expected["weak_value_re"] = Expected(-100.0, "analytic")
    expected["weak_value_im"] = Expected(0.0, "analytic")
    expected["sweep_limit"] = Expected(-100.0, "sweep")
    return ScenarioPreset("minus-hundred", preset.chain, preset.meters, expected, sweep_widths=preset.sweep_widths)


def build_difference_meter(
    psi=(math.sqrt(0.8), -math.sqrt(0.2)),
    phi=(1.0, 0.0),
    a_matrix=SIGMA_Z,
    b_matrix=SIGMA_X,
) -> ScenarioPreset:
    """One pointer kicked by the second observable and kicked back by the
    first: its net shift is the difference of the two eigenvalues, while the
    individual values stay indeterminate.

    With spin components (eigenvalues -1, 1) on both steps the difference
    takes the three values -2, 0, 2, and the two zero-difference paths merge
    into a single interfering alternative.
    """
    a_obs = Observable.from_matrix(a_matrix)
    b_obs = Observable.from_matrix(b_matrix)
    chain = _chain(psi, [(1.0 / 3.0, a_obs), (2.0 / 3.0, b_obs)], phi)
    functional = PathFunctional.step_difference(later=1, earlier=0)
    meters = (MeterSpec(functional, PointerProfile.rectangular(0.5)),)
    # path amplitudes <phi|b_j><b_j|a_i><a_i|psi> by hand, summed over paths
    # sharing the difference b_j - a_i (rounded: diagonalised eigenvalues
    # carry a few ulps)
    pre, post = chain.pre_state.amplitudes, chain.post_state.amplitudes
    a_vecs, b_vecs = a_obs.eigenvectors, b_obs.eigenvectors
    amps: dict[float, complex] = {}
    for i, j in itertools.product(range(chain.dim), repeat=2):
        f = round(float(b_obs.eigenvalues[j] - a_obs.eigenvalues[i]), 9)
        amp = np.vdot(post, b_vecs[:, j]) * np.vdot(b_vecs[:, j], a_vecs[:, i]) * np.vdot(a_vecs[:, i], pre)
        amps[f] = amps.get(f, 0j) + complex(amp)
    total = sum(amps.values())
    p = {f: abs(a) ** 2 for f, a in amps.items()}
    expected: dict[str, Expected] = {}
    expected["strong_mean"] = Expected(sum(f * w for f, w in p.items()) / sum(p.values()), "analytic")
    if abs(total) > 1e-14:
        wv = sum(f * a for f, a in amps.items()) / total
        expected["weak_value_re"] = Expected(wv.real, "analytic")
        expected["weak_value_im"] = Expected(wv.imag, "analytic")
        expected["sweep_limit"] = Expected(wv.real, "sweep")
        # same number from the relative-amplitude route: 2 Re(alpha(+2) - alpha(-2))
        expected["weak_from_relative"] = Expected(
            2.0 * ((amps.get(2.0, 0j) - amps.get(-2.0, 0j)) / total).real, "analytic"
        )
    else:
        expected["forbidden_transition"] = Expected(1.0, "analytic")
    return ScenarioPreset("difference", chain, meters, expected, sweep_widths=(10.0, 100.0, 1000.0))


def build_three_box(c: complex = 1.0 / 3.0) -> ScenarioPreset:
    """Three-path transition with amplitudes proportional to (1, -1, 1).

    An accurate measurement of the first-path indicator always finds the
    first path (the other two amplitudes cancel); an accurate measurement of
    the third-path indicator always finds the third.  Two simultaneous wide
    meters read mean shifts (1, 1): the real parts of the relative
    amplitudes, which also fix the second one to -1.

    Only the phase of c matters; the realization uses pure states, which pin
    |c| to 1/3.
    """
    c = complex(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    phase = c / abs(c)
    psi = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
    phi = np.conj(phase) * np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0)
    box_observable = Observable.from_eigensystem([1.0, 2.0, 3.0], np.eye(3, dtype=complex))
    chain = _chain(psi, [(0.5, box_observable)], phi)
    width = 1000.0
    meters = (
        MeterSpec(PathFunctional.path_indicator((0,)), PointerProfile.gaussian(width)),
        MeterSpec(PathFunctional.path_indicator((2,)), PointerProfile.gaussian(width)),
    )
    expected = {
        "weak_marginal_0": Expected(1.0, "marginal"),
        "weak_marginal_1": Expected(1.0, "marginal"),
        "relative_amplitude_0": Expected(1.0, "analytic"),
        "relative_amplitude_1": Expected(-1.0, "analytic"),
        "relative_amplitude_2": Expected(1.0, "analytic"),
        "strong_first_indicator_at_1": Expected(1.0, "analytic"),
        "strong_third_indicator_at_1": Expected(1.0, "analytic"),
        "sweep_limit": Expected(1.0, "sweep"),
    }
    widths = (10.0, 100.0, 1000.0, 10000.0)
    return ScenarioPreset("three-box", chain, meters, expected, widths)


def states_for_target_weak_value(target: float) -> tuple[StateVector, StateVector]:
    """Two-level preparation and selection giving any chosen weak mean for a
    spin component with eigenvalues (1, -1).

    The weak mean (A1 - A2) / (A1 + A2) hits `target` when A2/A1 equals
    (1 - target) / (1 + target); the returned states realize that ratio.
    """
    if abs(target + 1.0) < 1e-12:
        ratio = None  # pole: put everything on the second path
    else:
        ratio = (1.0 - target) / (1.0 + target)
    psi = StateVector.from_components([1.0, 1.0]).normalized()
    if ratio is None:
        phi = StateVector.from_components([0.0, 1.0])
    else:
        phi = StateVector.from_components([1.0, np.conj(ratio)]).normalized()
    return psi, phi


PRESETS = {
    "projector": build_projector_postselected,
    "minus-hundred": build_minus_hundred,
    "difference": build_difference_meter,
    "three-box": build_three_box,
}


def build_preset(name: str) -> ScenarioPreset:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return builder()


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: float
    computed: float
    delta: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    preset: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            out.append(
                f"{status}  {c.name}: computed {c.computed:.12g}, "
                f"expected {c.expected:.12g} (delta {c.delta:.3g}, tol {c.tolerance:.3g})"
            )
        return out


def _compute_check(preset: ScenarioPreset, name: str, mc_trials: int) -> float:
    """One expected constant recomputed."""
    chain = preset.chain
    functional = preset.meters[0].functional
    if name == "forbidden_transition":
        try:
            amplitude_distribution(chain, functional).weak_value()
        except ForbiddenTransitionError:
            return 1.0
        return 0.0
    if name == "strong_mean":
        return amplitude_distribution(chain, functional).strong_mean()
    if name == "weak_value_re":
        return amplitude_distribution(chain, functional).weak_value().real
    if name == "weak_from_relative":
        # 2 Re(alpha(+2) - alpha(-2)) from relative(), at the values the
        # expected constant rounds to
        rel = {round(f, 9): a for f, a in amplitude_distribution(chain, functional).relative().items()}
        return 2.0 * (rel.get(2.0, 0j) - rel.get(-2.0, 0j)).real
    if name == "weak_value_im":
        return amplitude_distribution(chain, functional).weak_value().imag
    if name.startswith("strong_bin_"):
        target = float(name.removeprefix("strong_bin_"))
        probs = amplitude_distribution(chain, functional).strong_probabilities()
        return min(probs.items(), key=lambda kv: abs(kv[0] - target))[1]
    if name.startswith("relative_amplitude_"):
        index = int(name.removeprefix("relative_amplitude_"))
        rel = amplitude_distribution(chain, PathFunctional.step_eigenvalue(0)).relative()
        return sorted(rel.items())[index][1].real
    if name.startswith("weak_marginal_"):
        keys, amps = grouped_amplitudes(chain, [m.functional for m in preset.meters])
        return _moments(keys, amps, [m.profile for m in preset.meters])[1][int(name.removeprefix("weak_marginal_"))]
    if name == "strong_first_indicator_at_1":
        return amplitude_distribution(chain, PathFunctional.path_indicator((0,))).strong_probabilities().get(1.0, 0.0)
    if name == "strong_third_indicator_at_1":
        return amplitude_distribution(chain, PathFunctional.path_indicator((2,))).strong_probabilities().get(1.0, 0.0)
    if name == "sweep_limit":
        return weak_limit_report(chain, functional, preset.sweep_widths[-1:]).means[0]
    if name == "mc_success_fraction":
        trials = sample_trials(chain, [preset.meters[0]], mc_trials, seed=20_260_810)
        return trials.summary().success_rate
    raise ValueError(f"no computation defined for expected value {name!r}")


def verify_preset(preset: ScenarioPreset, mc_trials: int = 100_000) -> VerificationReport:
    """Recompute every expected constant and compare at its tolerance class
    (DEFAULT_TOLERANCES)."""
    tol = DEFAULT_TOLERANCES
    checks = []
    for name, exp in preset.expected.items():
        computed = _compute_check(preset, name, mc_trials)
        if exp.kind == "sweep":
            delta = abs(computed - exp.value) / max(abs(exp.value), 1e-30)
            bound = tol["sweep"]
        elif exp.kind == "mc":
            delta = abs(computed - exp.value)
            # three sigma with the conservative Bernoulli variance bound
            bound = 3.0 * math.sqrt(0.25 / mc_trials)
        else:
            delta = abs(computed - exp.value)
            bound = tol.get(exp.kind, tol["analytic"])
        checks.append(CheckResult(name, exp.value, computed, delta, bound, delta <= bound))
    return VerificationReport(preset.name, tuple(checks))
