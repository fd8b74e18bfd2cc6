"""Independent numpy oracles for the benchmark's correctness gates.

Nothing here imports qpathnet.  Amplitude distributions come from a
transfer matrix over (eigenstate, accumulated value) instead of the
library's path enumeration, and reading moments come from the profile
autocorrelation instead of grid quadrature:

    integral G(xi - a) G(xi - b) dxi       = C(a - b)
    integral xi G(xi - a) G(xi - b) dxi    = (a + b) / 2 * C(a - b)

for an even real profile G, with C(d) = exp(-d^2 / 8 w^2) for the Gaussian
of width w and max(0, 1 - |d| / w) for the rectangular window of width w.
"""

from __future__ import annotations

import numpy as np


def unitary(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hamiltonian)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def transition_amplitude(hamiltonian, pre, post, total_time) -> complex:
    """<post| U(total_time) |pre>."""
    return complex(np.vdot(post, unitary(hamiltonian, total_time) @ pre))


def additive_amplitudes(hamiltonian, pre, post, total_time, times, observables, weights):
    """A(f) of the functional f = sum_k weights[k] * (eigenvalue at step k).

    Eigenvalues times weights must be integers; the returned support is the
    sorted array of reachable integer values with nonzero bookkeeping.
    Returns (support, amplitudes).
    """
    eig = [np.linalg.eigh(np.asarray(o)) for o in observables]
    shifts = [np.rint(w * vals).astype(int) for w, (vals, _) in zip(weights, eig)]
    for w, (vals, _), s in zip(weights, eig, shifts):
        if not np.allclose(w * vals, s, rtol=0.0, atol=1e-9):
            raise ValueError("additive_amplitudes needs integer weighted eigenvalues")
    lo = sum(int(s.min()) for s in shifts)
    hi = sum(int(s.max()) for s in shifts)
    span = hi - lo + 1
    # table[i, v]: amplitude of reaching eigenstate i of the current step
    # with accumulated value lo + v
    vecs0 = eig[0][1]
    first = vecs0.conj().T @ (unitary(hamiltonian, times[0]) @ pre)
    table = np.zeros((len(first), span), dtype=complex)
    base = -lo
    for i, a in enumerate(first):
        table[i, base + shifts[0][i]] += a
    for k in range(1, len(times)):
        hop = eig[k][1].conj().T @ unitary(hamiltonian, times[k] - times[k - 1]) @ eig[k - 1][1]
        moved = hop @ table  # [j, v] summed over the previous eigenstate
        table = np.zeros_like(moved)
        for j, s in enumerate(shifts[k]):
            if s >= 0:
                table[j, s:] = moved[j, : span - s]
            else:
                table[j, :s] = moved[j, -s:]
    closing = post.conj() @ unitary(hamiltonian, total_time - times[-1]) @ eig[-1][1]
    amps = closing @ table
    support = np.arange(lo, hi + 1, dtype=float)
    keep = np.abs(amps) > 0.0
    return support[keep], amps[keep]


def gaussian_autocorrelation(delta, width):
    return np.exp(-(np.asarray(delta) ** 2) / (8.0 * width**2))


def rectangular_autocorrelation(delta, width):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(delta)) / width)


def moments(support, amps, autocorrelation) -> tuple[float, float]:
    """(norm, mean reading) of |sum_m A_m G(xi - f_m)|^2 from the closed form."""
    support = np.asarray(support, dtype=float)
    amps = np.asarray(amps, dtype=complex)
    overlap = autocorrelation(support[:, None] - support[None, :])
    pair = np.real(amps[:, None] * np.conj(amps[None, :])) * overlap
    norm = float(pair.sum())
    mids = (support[:, None] + support[None, :]) / 2.0
    return norm, float((pair * mids).sum() / norm)


def joint_moments(path_amps, value_tables, autocorrelations):
    """(norm, marginal means) of |sum_p A_p prod_r G_r(xi_r - F_r[p])|^2.

    The product form: the overlap of two paths is the product of the
    per-axis autocorrelations.
    """
    amps = np.asarray(path_amps, dtype=complex)
    pair = np.real(amps[:, None] * np.conj(amps[None, :]))
    for vals, corr in zip(value_tables, autocorrelations):
        vals = np.asarray(vals, dtype=float)
        pair = pair * corr(vals[:, None] - vals[None, :])
    norm = float(pair.sum())
    means = []
    for vals in value_tables:
        vals = np.asarray(vals, dtype=float)
        mids = (vals[:, None] + vals[None, :]) / 2.0
        means.append(float((pair * mids).sum() / norm))
    return norm, means


def path_amplitudes(hamiltonian, pre, post, total_time, times, observables):
    """Amplitudes of every path of a short chain, with per-step eigenvalues.

    Paths are ordered with the last step's index varying fastest.  Returns
    (amps, values) where values[k] holds the step-k eigenvalue of each path.
    """
    eig = [np.linalg.eigh(np.asarray(o)) for o in observables]
    dim = len(pre)
    tensor = eig[0][1].conj().T @ (unitary(hamiltonian, times[0]) @ pre)
    for k in range(1, len(times)):
        hop = eig[k][1].conj().T @ unitary(hamiltonian, times[k] - times[k - 1]) @ eig[k - 1][1]
        tensor = tensor[..., None] * hop.T
    closing = post.conj() @ unitary(hamiltonian, total_time - times[-1]) @ eig[-1][1]
    amps = (tensor * closing).reshape(-1)
    grid = np.indices((dim,) * len(times)).reshape(len(times), -1)
    values = [vals[grid[k]] for k, (vals, _) in enumerate(eig)]
    return amps, values


def orthogonal_complement_2(post) -> np.ndarray:
    """The state orthogonal to a two-level state (phase is irrelevant here)."""
    return np.array([-np.conj(post[1]), np.conj(post[0])])


def distinguishable_mean(path_amps, values) -> float:
    """Conditional mean of per-path values when paths add probabilities."""
    p = np.abs(np.asarray(path_amps)) ** 2
    return float((p * np.asarray(values, dtype=float)).sum() / p.sum())
