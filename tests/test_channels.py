import numpy as np
import pytest

from qudit_teleport.channels import (
    CORRELATED,
    INDEPENDENT,
    PHASE,
    SHIFT,
    VARIANTS,
    WEYL,
    CompletenessError,
    KrausChannel,
    apply_channel_to_branches,
    crosstalk_channel,
    product_channel,
    weyl,
)
from qudit_teleport.states import basis_state, uniform_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1, -1]).astype(complex)
ISY = np.array([[0, 1], [-1, 0]], dtype=complex)  # i * sigma_y


def identity(d):
    return KrausChannel(d=d, operators=(np.eye(d),))


class TestWeyl:
    def test_qubit_shift_is_sigma_x(self):
        np.testing.assert_array_equal(weyl(2, 0, 1), SX)

    def test_qubit_phase_is_sigma_z(self):
        np.testing.assert_array_equal(weyl(2, 1, 0), SZ)

    def test_qubit_mixed_is_i_sigma_y(self):
        u = weyl(2, 1, 1)
        np.testing.assert_allclose(u, ISY, atol=1e-15)
        # equal to i*sigma_y up to a unit phase
        ratio = u[np.abs(ISY) > 0] / ISY[np.abs(ISY) > 0]
        assert np.allclose(np.abs(ratio), 1) and np.allclose(ratio, ratio[0])

    def test_identity_label(self):
        np.testing.assert_array_equal(weyl(5, 0, 0), np.eye(5))

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_unitary(self, d):
        for i in range(d):
            for m in range(d):
                u = weyl(d, i, m)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_clock_shift_commutation(self, d):
        # With U_(0,1) mapping |l> to |l-1>, the braiding runs X Z = w Z X.
        z, x = weyl(d, 1, 0), weyl(d, 0, 1)
        w = np.exp(2j * np.pi / d)
        np.testing.assert_allclose(x @ z, w * (z @ x), atol=1e-12)

    def test_factorization(self):
        for d in (3, 5):
            for i in range(d):
                for m in range(d):
                    np.testing.assert_allclose(
                        weyl(d, i, m), weyl(d, i, 0) @ weyl(d, 0, m), atol=1e-12
                    )

    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_shift_fixes_uniform_state(self, d):
        # shifts are exact 0/1 permutations, so this holds bitwise
        u = uniform_state(d)
        for m in range(d):
            np.testing.assert_array_equal(weyl(d, 0, m) @ u, u)


class TestCrosstalkChannel:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_p_zero_collapses_to_identity(self, variant):
        ch = crosstalk_channel(3, 0.0, variant)
        assert len(ch.operators) == 1
        np.testing.assert_array_equal(ch.operators[0], np.eye(3))

    def test_qubit_shift_form(self):
        p = 0.6
        ch = crosstalk_channel(2, p, SHIFT)
        np.testing.assert_allclose(ch.operators[0], np.sqrt(1 - p / 2) * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(ch.operators[1], np.sqrt(p / 2) * SX, atol=1e-15)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("p", [0.25, 1.0])
    def test_completeness(self, variant, d, p):
        ch = crosstalk_channel(d, p, variant)
        total = sum(op.conj().T @ op for op in ch.operators)
        assert np.max(np.abs(total - np.eye(d))) <= 1e-12

    def test_operator_counts(self):
        assert len(crosstalk_channel(3, 0.5, SHIFT).operators) == 3
        assert len(crosstalk_channel(3, 0.5, PHASE).operators) == 3
        assert len(crosstalk_channel(3, 0.5, WEYL).operators) == 9

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            crosstalk_channel(3, 1.5, SHIFT)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            crosstalk_channel(3, 0.5, "depolarizing")


class TestKrausChannelValidation:
    def test_incomplete_set_rejected(self):
        with pytest.raises(CompletenessError):
            KrausChannel(d=2, operators=(0.5 * np.eye(2, dtype=complex),))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel(d=2, operators=(np.eye(3, dtype=complex),))


class TestProductChannel:
    def test_identity_pair(self):
        ch = product_channel(identity(2), identity(2))
        assert len(ch.operators) == 1
        np.testing.assert_array_equal(ch.operators[0], np.eye(4))

    def test_independent_weight_bookkeeping(self):
        p = 0.4
        ch = product_channel(crosstalk_channel(2, p, SHIFT), crosstalk_channel(2, p, SHIFT))
        # weight of sqrt(w) U is recovered as ||C||_F^2 / d
        weights = sorted(np.sum(np.abs(op) ** 2).real / 4 for op in ch.operators)
        want = sorted([(1 - p / 2) ** 2, (p / 2) * (1 - p / 2), (p / 2) * (1 - p / 2), (p / 2) ** 2])
        np.testing.assert_allclose(weights, want, atol=1e-12)

    def test_correlated_count_mismatch(self):
        with pytest.raises(ValueError, match="count"):
            product_channel(crosstalk_channel(2, 0.5, SHIFT), identity(2), CORRELATED)

    def test_correlated_completeness_failure_raises(self):
        a = crosstalk_channel(2, 0.5, SHIFT)
        with pytest.raises(CompletenessError):
            product_channel(a, a, CORRELATED)

    def test_correlated_valid_at_p_zero(self):
        a = crosstalk_channel(2, 0.0, SHIFT)
        ch = product_channel(a, a, CORRELATED)
        np.testing.assert_array_equal(ch.operators[0], np.eye(4))


class TestApplyChannelToBranches:
    def test_identity_channel_noop(self):
        v = uniform_state(4)
        out = apply_channel_to_branches(identity(4), [(1.0, v)], (4,), 0)
        assert len(out) == 1
        assert out[0][0] == pytest.approx(1.0)
        np.testing.assert_allclose(out[0][1], v, atol=1e-15)

    def test_qubit_shift_at_full_strength(self):
        ch = crosstalk_channel(2, 1.0, SHIFT)
        out = apply_channel_to_branches(ch, [(1.0, basis_state(2, 0))], (2,), 0)
        assert len(out) == 2
        w0, v0 = out[0]
        w1, v1 = out[1]
        assert w0 == pytest.approx(0.5) and w1 == pytest.approx(0.5)
        np.testing.assert_allclose(v0, basis_state(2, 0), atol=1e-15)
        np.testing.assert_allclose(v1, basis_state(2, 1), atol=1e-15)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_branch_form_matches_density_form(self, variant, rng):
        # channel on the middle factor of a random tripartite ket
        d = 3
        ch = crosstalk_channel(d, 0.37, variant)
        v = rng.standard_normal(d**3) + 1j * rng.standard_normal(d**3)
        v /= np.linalg.norm(v)
        branches = apply_channel_to_branches(ch, [(1.0, v)], (d, d, d), 1)
        rho_branches = sum(w * np.outer(x, x.conj()) for w, x in branches)

        eye = np.eye(d, dtype=complex)
        rho = np.outer(v, v.conj())
        rho_matrix = sum(
            (k := np.kron(np.kron(eye, op), eye)) @ rho @ k.conj().T for op in ch.operators
        )
        np.testing.assert_allclose(rho_branches, rho_matrix, atol=1e-10)
        assert abs(sum(w for w, _ in branches) - 1.0) < 1e-12

    def test_weight_total_preserved(self, rng):
        ch = crosstalk_channel(2, 0.8, WEYL)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        out = apply_channel_to_branches(ch, [(0.25, v), (0.75, v[::-1].copy())], (2, 2, 2), 0)
        assert abs(sum(w for w, _ in out) - 1.0) < 1e-12

    def test_mask_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_channel_to_branches(identity(3), [(1.0, uniform_state(4))], (2, 2), 0)

    def test_bad_state_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_channel_to_branches(identity(2), [(1.0, uniform_state(3))], (2, 2), 0)
