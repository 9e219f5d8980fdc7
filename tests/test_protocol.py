import numpy as np
import pytest

from qudit_teleport.channels import PHASE, SHIFT, WEYL, crosstalk_channel, weyl
from qudit_teleport.measurement import GENERAL, QUTRIT_ALT
from qudit_teleport.protocol import (
    DERIVED_EXACT,
    PAPER_WEYL,
    CorrectionTable,
    ProtocolConfig,
    compose_initial,
    derived_exact_correction,
    enumerate_outcomes,
    find_correction,
    inversion,
    run_protocol,
    weyl_correction,
)
from qudit_teleport.states import basis_state, bell_state, random_pure_state, uniform_state

from conftest import strip_global_phase
from dm_reference import run_protocol_dm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1, -1]).astype(complex)
ISY = np.array([[0, 1], [-1, 0]], dtype=complex)


def phases_equal(a, b, atol=1e-12):
    return np.allclose(strip_global_phase(a), strip_global_phase(b), atol=atol)


class TestComposeInitial:
    def test_basis_with_bell(self):
        got = compose_initial(basis_state(2, 0), bell_state(2, (0, 0)))
        want = np.zeros(8)
        want[0] = want[3] = 1 / np.sqrt(2)  # (|000> + |011>)/sqrt(2)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_qubit_expansion_grouping(self):
        # alpha|0>+beta|1> composed with the entangled pair groups as
        # (alpha|00> + beta|10>)|0> + (alpha|01> + beta|11>)|1>, each branch
        # carrying weight 1/sqrt(2) once the pair is normalized
        alpha, beta = 0.6, 0.8
        phi = alpha * basis_state(2, 0) + beta * basis_state(2, 1)
        got = compose_initial(phi, bell_state(2, (0, 0)))
        want = np.zeros(8)
        want[0b000] = alpha
        want[0b100] = beta
        want[0b011] = alpha
        want[0b111] = beta
        np.testing.assert_allclose(got, want / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_norm_preserved(self, d):
        phi = random_pure_state(d, 3)
        joint = compose_initial(phi, bell_state(d, (1 % d, 2 % d)))
        assert abs(np.linalg.norm(joint) - 1) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="bell state"):
            compose_initial(basis_state(2, 0), bell_state(3, (0, 0)))


class TestEnumerateOutcomes:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_noiseless_probabilities_uniform(self, d):
        phi = random_pure_state(d, 11)
        branches = [(1.0, compose_initial(phi, bell_state(d, (0, 0))))]
        records = enumerate_outcomes(d, branches)
        assert len(records) == d * d
        for rec in records:
            assert abs(rec.probability - 1 / d**2) < 1e-10
            assert rec.fidelity is None
        assert abs(sum(r.probability for r in records) - 1.0) < 1e-10

    def test_d2_type_i_detector0_receives_input_uncorrected(self):
        alpha, beta = 0.6, 0.8j
        phi = alpha * basis_state(2, 0) + beta * basis_state(2, 1)
        branches = [(1.0, compose_initial(phi, bell_state(2, (0, 0))))]
        records = {(r.i, r.m): r for r in enumerate_outcomes(2, branches)}
        assert phases_equal(records[(0, 0)].receiver_state, phi)

    def test_d2_type_i_branches(self):
        # crystal type I: detector 0 sees alpha|0>+beta|1>, detector 1 sees
        # alpha|0>-beta|1> up to a global phase (the state that sigma_z fixes)
        alpha, beta = 0.8, 0.6
        phi = alpha * basis_state(2, 0) + beta * basis_state(2, 1)
        branches = [(1.0, compose_initial(phi, bell_state(2, (0, 0))))]
        records = {(r.i, r.m): r for r in enumerate_outcomes(2, branches)}
        want_l = alpha * basis_state(2, 0) + beta * basis_state(2, 1)
        want_r = alpha * basis_state(2, 0) - beta * basis_state(2, 1)
        assert phases_equal(records[(0, 0)].receiver_state, want_l)
        assert phases_equal(records[(1, 0)].receiver_state, want_r)

    def test_wrong_branch_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            enumerate_outcomes(2, [(1.0, uniform_state(4))])


class TestWeylCorrection:
    def test_identity_outcome(self):
        np.testing.assert_array_equal(weyl_correction(3, 0, 0), np.eye(3))

    def test_d2_table_matches_su2_set(self):
        # (i, m): (0,0) -> 1, (1,0) -> sigma_z, (0,1) -> sigma_x, (1,1) -> i sigma_y
        np.testing.assert_array_equal(weyl_correction(2, 0, 0), np.eye(2))
        np.testing.assert_array_equal(weyl_correction(2, 1, 0), SZ)
        np.testing.assert_array_equal(weyl_correction(2, 0, 1), SX)
        np.testing.assert_allclose(weyl_correction(2, 1, 1), ISY, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_unitary(self, d):
        for i in range(d):
            for m in range(d):
                u = weyl_correction(d, i, m)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


class TestDerivedExactCorrection:
    def test_d2_coincides_with_weyl_table(self):
        for i in range(2):
            for m in range(2):
                got = derived_exact_correction(2, i, m)
                assert phases_equal(got.reshape(-1), weyl_correction(2, i, m).reshape(-1))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_composition_structure(self, d):
        for i in range(d):
            for m in range(d):
                want = weyl(d, (-i) % d, m) @ inversion(d)
                np.testing.assert_allclose(derived_exact_correction(d, i, m), want, atol=1e-15)

    def test_d3_unit_fidelity_on_probes(self):
        d = 3
        for i in range(d):
            for m in range(d):
                u = derived_exact_correction(d, i, m)
                for seed in range(20):
                    phi = random_pure_state(d, seed)
                    branches = [(1.0, compose_initial(phi, bell_state(d, (0, 0))))]
                    rec = {(r.i, r.m): r for r in enumerate_outcomes(d, branches)}[(i, m)]
                    fid = abs(np.vdot(phi, u @ rec.receiver_state))
                    assert abs(fid - 1) < 1e-10

    def test_qutrit_alt_corrections_exist_for_all_outcomes(self):
        # search-backed: every alternate-wiring outcome has an exact fix
        for i in range(3):
            for m in range(3):
                u = derived_exact_correction(3, i, m, QUTRIT_ALT)
                _, fid = find_correction(3, i, m, QUTRIT_ALT)
                assert fid >= 1 - 1e-10
                np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_cached_correction_is_read_only(self):
        u = derived_exact_correction(3, 1, 2, QUTRIT_ALT)
        with pytest.raises(ValueError, match="read-only"):
            u[:] = 0
        again = derived_exact_correction(3, 1, 2, QUTRIT_ALT)
        np.testing.assert_allclose(again @ again.conj().T, np.eye(3), atol=1e-12)


class TestFindCorrection:
    def test_d2_identity_outcome(self):
        u, fid = find_correction(2, 0, 0)
        np.testing.assert_array_equal(u, np.eye(2))
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_d3_identity_outcome_needs_inversion(self):
        u, fid = find_correction(3, 0, 0)
        assert fid >= 1 - 1e-10
        np.testing.assert_allclose(u, inversion(3), atol=1e-15)

    def test_deterministic(self):
        u1, f1 = find_correction(3, 1, 2)
        u2, f2 = find_correction(3, 1, 2)
        np.testing.assert_array_equal(u1, u2)
        assert f1 == f2

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_closed_form(self, d):
        for i in range(d):
            for m in range(d):
                u, fid = find_correction(d, i, m)
                assert fid >= 1 - 1e-10
                want = derived_exact_correction(d, i, m)
                # both reach fidelity 1, so they can differ by a global phase
                ratio = (u @ np.linalg.inv(want)).diagonal()
                assert np.allclose(np.abs(ratio), 1, atol=1e-10)
                assert np.allclose(ratio, ratio[0], atol=1e-10)


class TestRunProtocol:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_noiseless_unit_fidelity(self, d):
        for seed in (0, 1, 2):
            res = run_protocol(ProtocolConfig(d=d, input_state=random_pure_state(d, seed)))
            assert abs(res.average_fidelity - 1) < 1e-10
            assert abs(res.min_outcome_fidelity - 1) < 1e-10
            assert all(r.fidelity is not None for r in res.records)

    def test_paper_weyl_exact_at_d2(self):
        res = run_protocol(
            ProtocolConfig(d=2, input_state=random_pure_state(2, 9), correction=PAPER_WEYL)
        )
        assert abs(res.average_fidelity - 1) < 1e-10

    def test_paper_weyl_gap_at_d3(self):
        # Weyl rotations alone cannot undo the crystal index reflection
        res = run_protocol(
            ProtocolConfig(d=3, input_state=random_pure_state(3, 9), correction=PAPER_WEYL)
        )
        assert res.average_fidelity < 0.999

    def test_custom_correction_table(self):
        d = 2
        table = CorrectionTable(
            d=d, entries={(i, m): derived_exact_correction(d, i, m) for i in range(d) for m in range(d)}
        )
        res = run_protocol(ProtocolConfig(d=d, input_state=random_pure_state(d, 4), correction=table))
        assert abs(res.average_fidelity - 1) < 1e-10

    def test_global_phase_invariance(self):
        d = 3
        phi = random_pure_state(d, 21)
        base = run_protocol(ProtocolConfig(d=d, input_state=phi))
        rot = run_protocol(ProtocolConfig(d=d, input_state=np.exp(0.7j) * phi))
        for a, b in zip(base.records, rot.records):
            assert abs(a.probability - b.probability) < 1e-12
            assert abs(a.fidelity - b.fidelity) < 1e-12

    @pytest.mark.parametrize("d,s", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2)])
    def test_bell_covariance(self, d, s):
        # with the (0, s) pair the corrected output is the s-shifted input
        phi = random_pure_state(d, 31)
        res = run_protocol(ProtocolConfig(d=d, input_state=phi, bell_label=(0, s)))
        shifted = weyl(d, 0, s) @ phi
        for rec in res.records:
            assert abs(abs(np.vdot(shifted, rec.receiver_state)) - 1) < 1e-10

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            run_protocol(ProtocolConfig(d=2, input_state=np.array([1.0, 1.0])))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            run_protocol(ProtocolConfig(d=3, input_state=basis_state(2, 0)))


class TestNoisyProtocol:
    @pytest.mark.parametrize("d", [2, 3])
    def test_phase_noise_on_a2_closed_form(self, d):
        p = 0.3
        res = run_protocol(
            ProtocolConfig(
                d=d,
                input_state=uniform_state(d),
                noise_a2=crosstalk_channel(d, p, PHASE),
            )
        )
        assert abs(res.average_fidelity - np.sqrt(1 - (d - 1) * p / d)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.25, 1.0])
    def test_shift_transparency(self, d, p):
        res = run_protocol(
            ProtocolConfig(
                d=d,
                input_state=uniform_state(d),
                noise_a1=crosstalk_channel(d, p, SHIFT),
                noise_a2=crosstalk_channel(d, p, SHIFT),
            )
        )
        assert abs(res.average_fidelity - 1) < 1e-10

    def test_mixed_receiver_states_recorded(self):
        res = run_protocol(
            ProtocolConfig(
                d=2,
                input_state=uniform_state(2),
                noise_a1=crosstalk_channel(2, 0.5, WEYL),
                noise_a2=crosstalk_channel(2, 0.5, WEYL),
            )
        )
        assert all(r.receiver_state.ndim == 2 for r in res.records)
        assert abs(sum(r.probability for r in res.records) - 1) < 1e-10
        for r in res.records:
            rho = r.receiver_state
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert abs(np.trace(rho) - 1) <= 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    def test_weyl_noise_closed_form_uniform_input(self):
        # derived in closed form for the uniform input and checked against
        # the density-matrix reference elsewhere
        d, p = 3, 0.4
        res = run_protocol(
            ProtocolConfig(
                d=d,
                input_state=uniform_state(d),
                noise_a1=crosstalk_channel(d, p, WEYL),
                noise_a2=crosstalk_channel(d, p, WEYL),
            )
        )
        want = np.sqrt((1 - (d - 1) * p / d) ** 2 + (d - 1) * p * p / d / d)
        assert abs(res.average_fidelity - want) < 1e-10

    def test_independent_matches_product_channel_route(self):
        from qudit_teleport.channels import INDEPENDENT, apply_channel_to_branches, product_channel

        d, p = 2, 0.6
        phi = random_pure_state(d, 17)
        a1 = crosstalk_channel(d, p, WEYL)
        a2 = crosstalk_channel(d, p, PHASE)
        joint = compose_initial(phi, bell_state(d, (0, 0)))

        seq = apply_channel_to_branches(a1, [(1.0, joint)], (d, d, d), 0)
        seq = apply_channel_to_branches(a2, seq, (d, d, d), 1)
        pair = product_channel(a1, a2, INDEPENDENT)
        prod = apply_channel_to_branches(pair, [(1.0, joint)], (d * d, d), 0)

        rho_seq = sum(w * np.outer(v, v.conj()) for w, v in seq)
        rho_prod = sum(w * np.outer(v, v.conj()) for w, v in prod)
        np.testing.assert_allclose(rho_seq, rho_prod, atol=1e-12)


class TestAgainstDensityMatrixReference:
    @pytest.mark.parametrize("variant", [SHIFT, PHASE, WEYL])
    def test_noisy_average_fidelity_matches(self, variant):
        d, p = 2, 0.5
        phi = random_pure_state(d, 41)
        ch = crosstalk_channel(d, p, variant)
        res = run_protocol(
            ProtocolConfig(d=d, input_state=phi, noise_a1=ch, noise_a2=ch)
        )
        _, avg_dm = run_protocol_dm(
            d, phi, ops_a1=list(ch.operators), ops_a2=list(ch.operators)
        )
        assert abs(res.average_fidelity - avg_dm) < 1e-9


class TestResultSerialization:
    def test_to_dict_roundtrips_through_json(self):
        import json

        res = run_protocol(
            ProtocolConfig(
                d=2,
                input_state=uniform_state(2),
                noise_a2=crosstalk_channel(2, 0.2, WEYL),
            )
        )
        blob = json.loads(json.dumps(res.to_dict()))
        assert blob["config"]["d"] == 2
        assert blob["config"]["correction_scheme"] == DERIVED_EXACT
        assert blob["config"]["noise_a2"].startswith("weyl")
        assert len(blob["outcomes"]) == 4
        assert {"i", "m", "probability", "fidelity"} <= set(blob["outcomes"][0])
        assert 0 <= blob["average_fidelity"] <= 1 + 1e-9
