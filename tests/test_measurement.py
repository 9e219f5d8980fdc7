import numpy as np
import pytest

from qudit_teleport.measurement import (
    GENERAL,
    QUTRIT_ALT,
    crystal_operator,
    measurement_row,
    measurement_rows,
    povm_elements,
    qft,
)

# explicit 2x4 crystal matrices for d = 2 (type I and type II)
M2_TYPE_I = np.array([[0, 0, 0, 1], [1, 0, 0, 0]], dtype=complex)
M2_TYPE_II = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)


class TestCrystalOperator:
    def test_d2_type_i_exact(self):
        np.testing.assert_array_equal(crystal_operator(2, 0).matrix, M2_TYPE_I)

    def test_d2_type_ii_exact(self):
        np.testing.assert_array_equal(crystal_operator(2, 1).matrix, M2_TYPE_II)

    def test_d2_polarization_conversion_rules(self):
        # under |0> = |H>, |1> = |V>: type I upconverts the co-polarized
        # pairs, |HH> -> |V> and |VV> -> |H>; type II the cross-polarized
        # pairs, with the explicit 2x4 matrix assigning |HV> -> |H> and
        # |VH> -> |V> (the prose rule lists the type-II outputs swapped,
        # inconsistently with that matrix; the matrix is authoritative)
        t1 = crystal_operator(2, 0).matrix
        assert t1[1, 0] == 1.0 and t1[0, 3] == 1.0
        t2 = crystal_operator(2, 1).matrix
        assert t2[0, 1] == 1.0 and t2[1, 2] == 1.0

    def test_qutrit_alt_first_group(self):
        # |0><21| + |1><00| + |2><12|
        m = crystal_operator(3, 0, QUTRIT_ALT).matrix
        want = np.zeros((3, 9))
        want[0, 2 * 3 + 1] = 1
        want[1, 0] = 1
        want[2, 1 * 3 + 2] = 1
        np.testing.assert_array_equal(m, want)

    def test_conventions_agree_only_for_group_zero(self):
        np.testing.assert_array_equal(
            crystal_operator(3, 0, GENERAL).matrix, crystal_operator(3, 0, QUTRIT_ALT).matrix
        )
        for m in (1, 2):
            assert not np.array_equal(
                crystal_operator(3, m, GENERAL).matrix,
                crystal_operator(3, m, QUTRIT_ALT).matrix,
            )

    def test_qutrit_alt_rejected_off_d3(self):
        with pytest.raises(ValueError, match="d = 3"):
            crystal_operator(4, 0, QUTRIT_ALT)

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            crystal_operator(3, 0, "bogus")

    @pytest.mark.parametrize("d", range(2, 17))
    def test_structure_invariants(self, d):
        seen = np.zeros(d * d, dtype=int)
        for m in range(d):
            op = crystal_operator(d, m).matrix
            assert np.count_nonzero(op) == d
            assert np.all(op[np.abs(op) > 0] == 1.0)
            np.testing.assert_array_equal((op @ op.conj().T).real, np.eye(d))
            seen += (np.abs(op) > 0).sum(axis=0)
        assert np.all(seen == 1)  # accepted pairs partition the basis


class TestQft:
    def test_d1(self):
        np.testing.assert_array_equal(qft(1), [[1]])

    def test_d2_is_hadamard(self):
        np.testing.assert_allclose(qft(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)

    def test_d3_unitary(self):
        f = qft(3)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_unitary_and_order_four(self, d):
        f = qft(d)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(np.linalg.matrix_power(f, 4), np.eye(d), atol=1e-10)


class TestMeasurementOperator:
    """M_(i,m) = |i><i| QFT M_m, represented by its one nonzero row."""

    def test_d2_hand_multiplied_row(self):
        want = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(measurement_row(2, 0, 0), want, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_single_row_and_rank_one(self, d):
        rows = measurement_rows(d)
        for i in range(d):
            for m in range(d):
                full = np.diag(np.eye(d)[i]) @ qft(d) @ crystal_operator(d, m).matrix
                nz_rows = np.flatnonzero(np.abs(full).sum(axis=1) > 0)
                np.testing.assert_array_equal(nz_rows, [i])
                np.testing.assert_allclose(measurement_row(d, i, m), full[i], atol=1e-15)
                np.testing.assert_array_equal(rows[i * d + m], measurement_row(d, i, m))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_unit_squared_entry_sum(self, d):
        for i in range(d):
            for m in range(d):
                row = measurement_row(d, i, m)
                assert abs(np.sum(np.abs(row) ** 2) - 1.0) < 1e-12


class TestPovmElements:
    def test_d2_completeness(self):
        total = sum(povm_elements(2))
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_unit_trace(self, d):
        for el in povm_elements(d):
            assert abs(np.trace(el) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_projector_spectrum(self, d):
        for el in povm_elements(d):
            w = np.linalg.eigvalsh(el)
            assert np.all((np.abs(w) < 1e-10) | (np.abs(w - 1) < 1e-10))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_hermitian_psd(self, d):
        for el in povm_elements(d):
            assert np.max(np.abs(el - el.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(el)) > -1e-10


def assert_complete_partition(d, convention=GENERAL):
    ops = [crystal_operator(d, m, convention).matrix for m in range(d)]
    total = sum(op.conj().T @ op for op in ops)
    assert np.max(np.abs(total - np.eye(d * d))) <= 1e-12
    hits = sum((np.abs(op) > 0).sum(axis=0) for op in ops)
    assert np.all(hits == 1)  # accepted pairs partition the basis
    for op in ops:
        assert np.max(np.abs(op @ op.conj().T - np.eye(d))) <= 1e-15


class TestCertification:
    def test_d2_set(self):
        assert_complete_partition(2)

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_general_convention(self, d):
        assert_complete_partition(d)

    def test_qutrit_alt_set(self):
        assert_complete_partition(3, QUTRIT_ALT)
