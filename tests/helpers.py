"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the package's own code paths: the matrix
exponential check and single path amplitudes go through scipy, mean
readings through the Gaussian overlap closed form, and joint densities
through plain nested loops.
"""

import numpy as np
from scipy.linalg import expm

from qpathnet import (
    MeasurementChain,
    MeasurementStep,
    Observable,
    Propagator,
    StateVector,
)


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


def count_grouped_amplitudes(monkeypatch):
    """Count A(f) builds, i.e. grouped_amplitudes calls made through the paths
    and meter modules; the returned one-element list holds the running count."""
    import qpathnet.meter
    import qpathnet.paths

    original = qpathnet.paths.grouped_amplitudes
    calls = [0]

    def counted(chain, functionals):
        calls[0] += 1
        return original(chain, functionals)

    for module in (qpathnet.paths, qpathnet.meter):
        monkeypatch.setattr(module, "grouped_amplitudes", counted)
    return calls
