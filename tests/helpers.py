"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the package's own code paths: the matrix
exponential check and single path amplitudes go through scipy, mean
readings through the overlap closed form summed pair by pair, and joint
densities through plain nested loops.  The fixtures at the end (the
reference two-layer network, the one-step chain's outcome table) are built
from the package's own code and are not oracles.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from qpathnet import (
    ClassicalConnector,
    ClassicalNetwork,
    MeasurementChain,
    MeasurementStep,
    Observable,
    Propagator,
    StateVector,
    chain_comparator,
)
from qpathnet.classical import to_connector, to_receptacle


def random_state_vector(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps))


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_observable(rng, dim, eigenvalues=None):
    if eigenvalues is None:
        return Observable.from_matrix(random_hermitian(rng, dim))
    return Observable.from_eigensystem(eigenvalues, random_unitary(rng, dim))


def random_chain(rng, dim, n_steps, zero_h=False, eigenvalues=None, total_time=1.0):
    prop = Propagator.free(dim) if zero_h else Propagator(random_hermitian(rng, dim))
    times = np.sort(rng.uniform(0.05, 0.95, size=n_steps)) * total_time
    while n_steps > 1 and np.min(np.diff(times)) < 1e-3:
        times = np.sort(rng.uniform(0.05, 0.95, size=n_steps)) * total_time
    steps = tuple(
        MeasurementStep(float(t), random_observable(rng, dim, eigenvalues)) for t in times
    )
    return MeasurementChain(
        random_state_vector(rng, dim), steps, prop, random_state_vector(rng, dim), total_time
    )


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def random_spin_chain(rng, n_steps):
    """dim 2, spin n.sigma along a random axis at each step, diagonalised by
    Observable.from_matrix: the eigenvalues are +-1 only to within an ulp or
    two, as a user's spin observables would be."""
    steps = []
    for k in range(n_steps):
        n = rng.normal(size=3)
        spin = sum(c * s for c, s in zip(n / np.linalg.norm(n), PAULI))
        steps.append(MeasurementStep((k + 1) / (n_steps + 1), Observable.from_matrix(spin)))
    return MeasurementChain(
        random_state_vector(rng, 2), tuple(steps), Propagator(random_hermitian(rng, 2)), random_state_vector(rng, 2), 1.0
    )


def path_amplitude_oracle(chain, path):
    """<post|U(T - t_K)|i_K> ... <i_2|U(t_2 - t_1)|i_1> <i_1|U(t_1)|pre> of one
    path, each U(t) = expm(-i H t) by scipy, multiplied overlap by overlap."""
    h = chain.propagator.hamiltonian
    state, time, amp = chain.pre_state.amplitudes, 0.0, 1.0 + 0.0j
    for step, i in zip(chain.steps, path):
        vec = step.observable.eigenvectors[:, i]
        amp *= np.vdot(vec, expm(-1j * h * (step.time - time)) @ state)
        state, time = vec, step.time
    return complex(amp * np.vdot(chain.post_state.amplitudes, expm(-1j * h * (chain.total_time - time)) @ state))


def gaussian_overlap_mean(support, amps, width):
    """Closed-form mean reading for a Gaussian profile.

    With G^2 a normal density of standard deviation `width`, the overlap of
    two shifted profiles is exp(-(f_m - f_n)^2 / (8 width^2)), so both
    moments of |sum_m A_m G(xi - f_m)|^2 reduce to finite double sums.
    """
    support = np.asarray(support, dtype=float)
    amps = np.asarray(amps, dtype=complex)
    overlap = np.exp(-((support[:, None] - support[None, :]) ** 2) / (8.0 * width**2))
    pair_re = np.real(amps[:, None] * np.conj(amps[None, :]))
    midpoints = (support[:, None] + support[None, :]) / 2.0
    return float((pair_re * midpoints * overlap).sum() / (pair_re * overlap).sum())


def gaussian_overlap_norm(support, amps, width):
    """Closed-form total mass of the reading density for a Gaussian profile."""
    support = np.asarray(support, dtype=float)
    amps = np.asarray(amps, dtype=complex)
    overlap = np.exp(-((support[:, None] - support[None, :]) ** 2) / (8.0 * width**2))
    pair_re = np.real(amps[:, None] * np.conj(amps[None, :]))
    return float((pair_re * overlap).sum())


def closed_form_moments(keys, amps, autocorrelations, midpoint_moments=None):
    """Norm of each amplitude column and column 0's mean reading on each axis
    of |sum_g A_g prod_r G_r(xi_r - keys[g, r])|^2, by an explicit loop over
    group pairs (g, h).  The pair weighs Re(A_g conj A_h) prod_r C_r(k_gr - k_hr)
    into the norm and, times the midpoint (k_gr + k_hr) / 2, into the first
    moment on axis r, plus Re(A_g conj A_h) D_r(k_gr - k_hr) prod_{s != r} C_s
    where axis r has a midpoint moment D_r (None for an even profile).  C_r
    and D_r are any functions of one difference."""
    keys = np.asarray(keys, dtype=float).reshape(len(keys), -1)
    amps = np.asarray(amps, dtype=complex).reshape(len(keys), -1)
    n_groups, n_axes = keys.shape
    midpoint_moments = midpoint_moments or [None] * n_axes
    norms, first = [0.0] * amps.shape[1], [0.0] * n_axes
    for g in range(n_groups):
        for h in range(n_groups):
            overlaps = [float(autocorrelations[r](keys[g, r] - keys[h, r])) for r in range(n_axes)]
            overlap = float(np.prod(overlaps))
            for b in range(amps.shape[1]):
                norms[b] += (amps[g, b] * np.conj(amps[h, b])).real * overlap
            pair = (amps[g, 0] * np.conj(amps[h, 0])).real
            for r in range(n_axes):
                first[r] += pair * overlap * (keys[g, r] + keys[h, r]) / 2.0
                if midpoint_moments[r] is not None:
                    others = float(np.prod(overlaps[:r] + overlaps[r + 1 :]))
                    first[r] += pair * float(midpoint_moments[r](keys[g, r] - keys[h, r])) * others
    return norms, [m / norms[0] for m in first]


def quadrature_overlaps(profile):
    """The overlap C(d) = integral G(u - d/2) G(u + d/2) du of a profile and
    its midpoint moment D(d) = integral u G(u - d/2) G(u + d/2) du, each by
    scipy quadrature over the profile's own samples, split at every knot of
    a tabulated template; values are kept per difference."""
    lo, hi = (-12.0 * profile.width, 12.0 * profile.width)
    if profile.shape == "tabulated":
        knots = list(profile.template_xs * profile.width)
    else:
        knots = [-profile.width / 2.0, profile.width / 2.0] if profile.shape == "rectangular" else []
    cache = {}

    def integrals(d):
        d = float(d)
        if d not in cache:
            points = sorted({k + s * d / 2.0 for k in knots for s in (-1, 1) if lo < k + s * d / 2.0 < hi})
            cache[d] = [
                quad(lambda u: u**k * float(profile.samples(u - d / 2.0) * profile.samples(u + d / 2.0)),
                     lo, hi, points=points or None, limit=1000, epsabs=1e-13, epsrel=1e-13)[0]
                for k in (0, 1)
            ]
        return cache[d]

    return (lambda d: integrals(d)[0]), (lambda d: integrals(d)[1])


def brute_force_joint_density(amps, value_table, profiles, axes):
    """Joint reading density by explicit loops over paths and grid points."""
    shape = tuple(len(a) for a in axes)
    pointer = np.zeros(shape, dtype=complex)
    for idx in np.ndindex(*shape):
        total = 0.0 + 0.0j
        for p, a in enumerate(amps):
            term = a
            for r, profile in enumerate(profiles):
                term *= profile.samples(np.array([axes[r][idx[r]] - value_table[r][p]]))[0]
            total += term
        pointer[idx] = total
    return np.abs(pointer) ** 2


def _watch_walks(monkeypatch, seen):
    """Call seen(chain, functionals, branches) at every A(f) walk, i.e. call
    of paths._walk, which every grouping runs unless the chain's memo of
    paths._branch_amplitudes already holds its result."""
    import qpathnet.paths

    original = qpathnet.paths._walk

    def watched(chain, functionals, branches):
        seen(chain, functionals, branches)
        return original(chain, functionals, branches)

    monkeypatch.setattr(qpathnet.paths, "_walk", watched)


def count_grouped_amplitudes(monkeypatch):
    """Count A(f) walks; the returned one-element list holds the running count."""
    calls = [0]

    def seen(chain, functionals, branches):
        calls[0] += 1

    _watch_walks(monkeypatch, seen)
    return calls


def record_walks(monkeypatch):
    """Record A(f) walks: the returned list gains one (functionals, branches)
    pair per walk, each functional as (rule, params) and each branch as the
    bytes of its post_state."""
    walks = []

    def seen(chain, functionals, branches):
        walks.append(
            (
                tuple((f.rule, repr(sorted(f.params.items()))) for f in functionals),
                tuple(b.post_state.amplitudes.tobytes() for b in branches),
            )
        )

    _watch_walks(monkeypatch, seen)
    return walks


def two_layer_network(entry_weights, first_layer, second_layer, labels=None):
    """The reference two-layer topology with crossed second-layer wiring.

    The entry connector feeds first-layer connectors a0 (outlet 0) and a1
    (outlet 1).  a0 sends outlet 0 to b0 inlet 0 and outlet 1 to b1 inlet 1;
    a1 sends outlet 0 to b1 inlet 0 and outlet 1 to b0 inlet 1.  b0 drops
    outlet 0 into receptacle f0 and outlet 1 into f1; b1 does the opposite.
    """
    connectors = {
        "in": ClassicalConnector("in", entry_weights),
        "a0": ClassicalConnector("a0", first_layer["a0"]),
        "a1": ClassicalConnector("a1", first_layer["a1"]),
        "b0": ClassicalConnector("b0", second_layer["b0"]),
        "b1": ClassicalConnector("b1", second_layer["b1"]),
    }
    wiring = {
        ("in", 0): to_connector("a0", 0),
        ("in", 1): to_connector("a1", 0),
        ("a0", 0): to_connector("b0", 0),
        ("a0", 1): to_connector("b1", 1),
        ("a1", 0): to_connector("b1", 0),
        ("a1", 1): to_connector("b0", 1),
        ("b0", 0): to_receptacle("f0"),
        ("b0", 1): to_receptacle("f1"),
        ("b1", 0): to_receptacle("f1"),
        ("b1", 1): to_receptacle("f0"),
    }
    return ClassicalNetwork(connectors, wiring, ("in", 0), labels or {})


def uniform_two_layer_network():
    """All connectors fifty-fifty: eight equally likely paths."""
    half = np.full((2, 2), 0.5)
    return two_layer_network(half, {"a0": half, "a1": half}, {"b0": half, "b1": half})


def disturbance_table(psi, a, b, prop, t_mid, total_time):
    """{k: (disturbed, undisturbed)} for each eigenstate k of b measured at
    total_time: with a projective measurement of a at t_mid, the sum of
    chain_comparator's distinguishable-path probabilities over receptacle
    f{k}; without it, |<b_k|U(total_time)|psi>|^2."""
    chain = MeasurementChain(
        psi,
        (MeasurementStep(t_mid, a),),
        prop,
        b.eigenstate(0),
        total_time,
        post_complement=tuple(b.eigenstate(k) for k in range(1, b.dim)),
    )
    disturbed = [0.0] * b.dim
    for path in chain_comparator(chain):
        disturbed[int(path.receptacle[1:])] += path.probability
    return {k: (disturbed[k], abs(branch.transition_amplitude()) ** 2) for k, branch in enumerate(chain.branches())}
