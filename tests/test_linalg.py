import numpy as np
import pytest

from qudit_teleport.linalg import pure_fidelity
from qudit_teleport.protocol import compose_initial
from qudit_teleport.states import basis_state

from conftest import random_complex_matrix, random_density, random_unitary
from dm_reference import _fidelity_eig


def kron_oracle(a, b):
    """Index-formula Kronecker product: out[i*br+k, j*bc+l] = a[i,j] b[k,l]."""
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k, j * bc + l] = a[i, j] * b[k, l]
    return out


def projector(v):
    return np.outer(v, v.conj())


class TestKron:
    """The package's Kronecker convention: the left factor is most significant."""

    def test_against_index_formula_oracle(self, rng):
        a = random_complex_matrix(rng, 3, 1)
        b = random_complex_matrix(rng, 9, 1)
        joint = compose_initial(a[:, 0], b[:, 0])
        np.testing.assert_allclose(joint, kron_oracle(a, b)[:, 0], atol=1e-14)


class TestFidelity:
    """Properties of the eigendecomposition fidelity in ``dm_reference`` and
    its agreement with the rank-1 shortcut the pipeline uses."""

    def test_self_fidelity_is_one(self, rng):
        rho = random_density(rng, 4)
        assert _fidelity_eig(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        r0 = projector(basis_state(2, 0))
        r1 = projector(basis_state(2, 1))
        assert _fidelity_eig(r0, r1) == pytest.approx(0.0, abs=1e-12)

    def test_plus_vs_maximally_mixed(self):
        plus = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
        want = 1 / np.sqrt(2)  # sqrt(<+|I/2|+>) = sqrt(1/2)
        assert _fidelity_eig(projector(plus), np.eye(2) / 2) == pytest.approx(want, abs=1e-12)
        assert pure_fidelity(plus, np.eye(2) / 2) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_symmetry(self, rng, dim):
        rho = random_density(rng, dim)
        sigma = random_density(rng, dim)
        assert abs(_fidelity_eig(rho, sigma) - _fidelity_eig(sigma, rho)) < 1e-9

    def test_unitary_invariance(self, rng):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        u = random_unitary(rng, 4)
        before = _fidelity_eig(rho, sigma)
        after = _fidelity_eig(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(before - after) < 1e-9

    def test_pure_shortcut_agrees_with_general_path(self, rng):
        for seed in range(5):
            g = np.random.default_rng(seed)
            v = g.standard_normal(4) + 1j * g.standard_normal(4)
            v /= np.linalg.norm(v)
            sigma = random_density(rng, 4)
            assert abs(_fidelity_eig(projector(v), sigma) - pure_fidelity(v, sigma)) < 1e-10
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            assert abs(_fidelity_eig(projector(v), projector(psi)) - pure_fidelity(v, psi)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pure_fidelity(basis_state(2, 0), np.eye(3) / 3)
        with pytest.raises(ValueError, match="mismatch"):
            pure_fidelity(basis_state(2, 0), basis_state(3, 0))
