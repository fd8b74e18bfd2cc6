import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import disturbance_table, random_hermitian, random_observable, random_state_vector
from qpathnet import (
    Observable,
    Propagator,
    StateVector,
    orthonormal_completion,
    robertson_check,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestStateVector:
    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0 + 0j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector([bad, 1.0])

    def test_normalization(self):
        s = StateVector.from_components([3.0, 4.0])
        assert not s.is_normalized()
        assert s.normalized().is_normalized()

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError):
            StateVector(np.eye(2)[0]).inner(StateVector(np.eye(3)[0]))

    def test_completion_is_orthonormal(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 5):
            phi = random_state_vector(rng, dim)
            comp = orthonormal_completion(phi)
            assert len(comp) == dim - 1
            basis = np.column_stack([phi.amplitudes] + [c.amplitudes for c in comp])
            assert np.linalg.norm(basis.conj().T @ basis - np.eye(dim)) < 1e-10


class TestObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_matrix(self, bad):
        with pytest.raises(ValueError, match="observable must be finite"):
            Observable.from_matrix([[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "matrix, eigenvalues, eigenvectors",
        [
            (None, [np.nan, 1.0], np.eye(2)),
            (None, [np.inf, 1.0], np.eye(2)),
            (np.eye(2), [1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]]),
            ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0], np.eye(2)),
        ],
    )
    def test_rejects_a_non_finite_eigensystem(self, matrix, eigenvalues, eigenvectors):
        with pytest.raises(ValueError, match="must be finite"):
            if matrix is None:
                Observable.from_eigensystem(eigenvalues, eigenvectors)
            else:
                Observable(matrix, eigenvalues, eigenvectors)

    def test_rejects_a_wrong_eigensystem(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Observable(np.eye(2), [1.0, 1.0], 2.0 * np.eye(2))
        with pytest.raises(ValueError, match="does not reconstruct"):
            Observable(np.eye(2), [1.0, 2.0], np.eye(2))

    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_spectral_reconstruction(self, seed, dim):
        rng = np.random.default_rng(seed)
        obs = Observable.from_matrix(random_hermitian(rng, dim))
        v = obs.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) < 1e-10
        rebuilt = (v * obs.eigenvalues) @ v.conj().T
        assert np.linalg.norm(rebuilt - obs.matrix) < 1e-10 * max(np.linalg.norm(obs.matrix), 1)

    def test_phase_convention_is_deterministic(self):
        obs = Observable.from_matrix(SIGMA_X)
        # first nonzero component of each eigenvector is real positive
        for j in range(2):
            first = obs.eigenvectors[np.flatnonzero(np.abs(obs.eigenvectors[:, j]) > 1e-12)[0], j]
            assert first.imag == pytest.approx(0.0, abs=1e-14)
            assert first.real > 0

    def test_explicit_eigensystem_keeps_order(self):
        obs = Observable.from_eigensystem([1.0, 0.0], np.eye(2, dtype=complex))
        assert obs.eigenvalues[0] == 1.0
        assert obs.eigenstate(0).amplitudes[0] == 1.0


class TestPropagator:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_hamiltonian(self, bad):
        with pytest.raises(ValueError, match="hamiltonian must be finite"):
            Propagator([[bad, 0.0], [0.0, 1.0]])

    def test_zero_hamiltonian_is_identity(self):
        prop = Propagator.free(3)
        psi = random_state_vector(np.random.default_rng(1), 3)
        out = StateVector(prop.unitary(1.0) @ psi.amplitudes)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_pauli_x_quarter_turn(self):
        # closed form: exp(-i sx t) = cos(t) I - i sin(t) sx
        out = StateVector(Propagator(SIGMA_X).unitary(np.pi / 2) @ np.eye(2)[0])
        assert np.allclose(out.amplitudes, [0.0, -1j], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_expm(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        h = random_hermitian(rng, dim)
        t = float(rng.uniform(-3, 3))
        expected = scipy.linalg.expm(-1j * h * t)
        assert np.linalg.norm(Propagator(h).unitary(t) - expected) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_group_properties(self, seed):
        rng = np.random.default_rng(seed)
        prop = Propagator(random_hermitian(rng, 3))
        t1, t2 = rng.uniform(-2, 2, size=2)
        assert np.linalg.norm(prop.unitary(0.0) - np.eye(3)) < 1e-12
        u1, u2 = prop.unitary(t1), prop.unitary(t2)
        assert np.linalg.norm(u1 @ u1.conj().T - np.eye(3)) < 1e-10
        assert np.linalg.norm(u1 @ u2 - prop.unitary(t1 + t2)) < 1e-10

    def test_round_trip_restores_state(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            prop = Propagator(random_hermitian(rng, 4))
            psi = random_state_vector(rng, 4)
            t = float(rng.uniform(0.1, 5.0))
            back = StateVector(prop.unitary(-t) @ (prop.unitary(t) @ psi.amplitudes))
            assert np.linalg.norm(back.amplitudes - psi.amplitudes) < 1e-12

    def test_preserves_inner_products(self):
        rng = np.random.default_rng(8)
        prop = Propagator(random_hermitian(rng, 3))
        a, b = random_state_vector(rng, 3), random_state_vector(rng, 3)
        before = a.inner(b)
        u = prop.unitary(1.3)
        after = StateVector(u @ a.amplitudes).inner(StateVector(u @ b.amplitudes))
        assert abs(after - before) < 1e-12

    def test_unitary_matches_expm(self):
        t = 0.123
        assert np.allclose(Propagator(SIGMA_X).unitary(t), scipy.linalg.expm(-1j * SIGMA_X * t), atol=1e-12)


class TestRobertson:
    def test_commuting_eigenstate(self):
        z = Observable.from_matrix(SIGMA_Z)
        lhs, rhs = robertson_check(StateVector(np.eye(2)[0]), z, z)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_pauli_pair_saturates(self):
        # [sx, sy] = 2i sz, <sz> = 1 in |0>, and both deviations are 1
        lhs, rhs = robertson_check(
            StateVector(np.eye(2)[0]), Observable.from_matrix(SIGMA_X), Observable.from_matrix(SIGMA_Y)
        )
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_never_violated(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            psi = random_state_vector(rng, dim)
            a = random_observable(rng, dim)
            b = random_observable(rng, dim)
            lhs, rhs = robertson_check(psi, a, b)
            assert lhs >= rhs - 1e-10


class TestDisturbanceGap:
    def test_commuting_observables_leave_statistics_alone(self):
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        a = Observable.from_eigensystem([1.0, 2.0, 3.0], basis)
        b = Observable.from_eigensystem([-1.0, 0.5, 2.0], basis)
        psi = random_state_vector(rng, 3)
        table = disturbance_table(psi, a, b, Propagator.free(3), 0.5, 1.0)
        for disturbed, undisturbed in table.values():
            assert disturbed == pytest.approx(undisturbed, abs=1e-12)

    def test_symmetric_case_agrees(self):
        z = Observable.from_matrix(SIGMA_Z)
        x = Observable.from_matrix(SIGMA_X)
        table = disturbance_table(StateVector(np.eye(2)[0]), z, x, Propagator.free(2), 0.5, 1.0)
        for disturbed, undisturbed in table.values():
            assert disturbed == pytest.approx(0.5, abs=1e-12)
            assert undisturbed == pytest.approx(0.5, abs=1e-12)

    def test_superposition_loses_coherence(self):
        z = Observable.from_matrix(SIGMA_Z)
        x = Observable.from_matrix(SIGMA_X)
        plus = StateVector.from_components([1.0, 1.0]).normalized()
        table = disturbance_table(plus, z, x, Propagator.free(2), 0.5, 1.0)
        # index 1 is the +1 eigenvector (1,1)/sqrt(2) of sx
        assert table[1] == (pytest.approx(0.5, abs=1e-12), pytest.approx(1.0, abs=1e-12))
        assert table[0] == (pytest.approx(0.5, abs=1e-12), pytest.approx(0.0, abs=1e-12))

    def test_columns_are_distributions(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            table = disturbance_table(
                random_state_vector(rng, dim),
                random_observable(rng, dim),
                random_observable(rng, dim),
                Propagator(random_hermitian(rng, dim)),
                0.4,
                1.0,
            )
            disturbed = sum(v[0] for v in table.values())
            undisturbed = sum(v[1] for v in table.values())
            assert disturbed == pytest.approx(1.0, abs=1e-10)
            assert undisturbed == pytest.approx(1.0, abs=1e-10)
            assert all(v[0] >= 0 and v[1] >= 0 for v in table.values())

    def test_invalid_time_ordering(self):
        z = Observable.from_matrix(SIGMA_Z)
        with pytest.raises(ValueError, match="step times must lie strictly inside"):
            disturbance_table(StateVector(np.eye(2)[0]), z, z, Propagator.free(2), 1.5, 1.0)
