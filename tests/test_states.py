import numpy as np
import pytest

from qudit_teleport.channels import weyl
from qudit_teleport.states import (
    basis_state,
    bell_state,
    is_normalized,
    load_state,
    parse_state_text,
    random_pure_state,
    uniform_state,
)


class TestBasisState:
    def test_qubit_zero(self):
        np.testing.assert_array_equal(basis_state(2, 0), [1, 0])

    def test_qutrit_two(self):
        np.testing.assert_array_equal(basis_state(3, 2), [0, 0, 1])

    @pytest.mark.parametrize("d", range(2, 9))
    def test_orthonormality_exhaustive(self, d):
        for j in range(d):
            for k in range(d):
                ip = np.vdot(basis_state(d, j), basis_state(d, k))
                assert ip == (1.0 if j == k else 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(3, 3)


class TestBellState:
    def test_qubit_phi_plus(self):
        want = np.zeros(4)
        want[0] = want[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(bell_state(2, (0, 0)), want, atol=1e-15)

    def test_qubit_singlet_form(self):
        # l = m = 1: (|01> - |10>)/sqrt(2)
        want = np.array([0, 1, -1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(bell_state(2, (1, 1)), want, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormal_family(self, d):
        vs = [bell_state(d, (l, m)) for l in range(d) for m in range(d)]
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_diagonal_amplitudes(self, d):
        v = bell_state(d, (0, 0))
        nz = np.flatnonzero(np.abs(v) > 0)
        np.testing.assert_array_equal(nz, [k * d + k for k in range(d)])
        np.testing.assert_allclose(v[nz], 1 / np.sqrt(d), atol=1e-15)

    @pytest.mark.parametrize("d,s", [(2, 1), (3, 1), (3, 2), (5, 2), (8, 3)])
    def test_shift_covariance(self, d, s):
        # U_(0,s) shifts |l> down by s, so acting on the second qudit of the
        # (0,0) state lands on the label (0, (d-s) mod d).
        shifted = np.kron(np.eye(d), weyl(d, 0, s)) @ bell_state(d, (0, 0))
        np.testing.assert_allclose(shifted, bell_state(d, (0, (d - s) % d)), atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            bell_state(3, (3, 0))


class TestUniformState:
    def test_d1(self):
        np.testing.assert_array_equal(uniform_state(1), [1])

    def test_d2(self):
        np.testing.assert_allclose(uniform_state(2), [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_norm_d64(self):
        assert abs(np.linalg.norm(uniform_state(64)) - 1) < 1e-12


class TestRandomPureState:
    def test_normalized(self):
        assert is_normalized(random_pure_state(4, 99))

    def test_reproducible(self):
        np.testing.assert_array_equal(random_pure_state(4, 7), random_pure_state(4, 7))

    def test_distinct_seeds_differ(self):
        assert not np.allclose(random_pure_state(4, 1), random_pure_state(4, 2))

    def test_first_amplitude_moment_matches_haar(self):
        # E |<0|psi>|^2 = 1/d for Haar-like states; Monte Carlo over 10^4 seeds
        d, n = 4, 10_000
        vals = np.array([abs(random_pure_state(d, s)[0]) ** 2 for s in range(n)])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1 / d) < 5 * se


class TestStateFile:
    def test_parse_and_normalize(self):
        text = "2\n3 0\n0 4\n"
        v = parse_state_text(text)
        np.testing.assert_allclose(v, [0.6, 0.8j], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            parse_state_text("2\n0 0\n0 0\n")

    def test_wrong_line_count(self):
        with pytest.raises(ValueError, match="amplitude lines"):
            parse_state_text("3\n1 0\n0 1\n")

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_state_text("2\n1 0\nfoo bar\n")

    @pytest.mark.parametrize("line", ["nan 0", "0 inf", "-inf 1"])
    def test_non_finite_amplitude_rejected(self, line):
        with pytest.raises(ValueError, match="amplitude line 2 is not finite"):
            parse_state_text(f"2\n1 0\n{line}\n")

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "state.txt"
        p.write_text("3\n1 0\n1 0\n1 0\n")
        v = load_state(str(p))
        np.testing.assert_allclose(v, uniform_state(3), atol=1e-15)
