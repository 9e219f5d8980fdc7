import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qudit_teleport import measurement, protocol
from qudit_teleport.channels import (
    PHASE,
    SHIFT,
    VARIANTS,
    WEYL,
    KrausChannel,
    apply_channel_to_branches,
    crosstalk_channel,
    weyl,
)
from qudit_teleport.linalg import WEIGHT_FLOOR, pure_fidelity
from qudit_teleport.measurement import (
    GENERAL,
    QUTRIT_ALT,
    measurement_row,
    measurement_rows,
    monomial_rows,
)
from qudit_teleport.protocol import (
    DERIVED_EXACT,
    PAPER_WEYL,
    CorrectionTable,
    ProtocolConfig,
    compose_initial,
    derived_exact_correction,
    enumerate_outcomes,
    inversion,
    run_protocol,
)
from qudit_teleport.states import basis_state, bell_state, random_pure_state, uniform_state

from conftest import (
    assert_same_floats,
    isometry_channel,
    random_density,
    random_unitary,
    strip_global_phase,
)
from dm_reference import run_protocol_dm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1, -1]).astype(complex)
ISY = np.array([[0, 1], [-1, 0]], dtype=complex)


def phases_equal(a, b, atol=1e-12):
    return np.allclose(strip_global_phase(a), strip_global_phase(b), atol=atol)


def assert_equal_up_to_phase(u, v, atol=1e-10):
    ratio = u @ v.conj().T
    phase = ratio[0, 0]
    assert abs(abs(phase) - 1) < atol
    np.testing.assert_allclose(ratio, phase * np.eye(len(u)), atol=atol)


def noiseless_receiver(d, i, m, convention, phi):
    psi = compose_initial(phi, bell_state(d, (0, 0)))
    recv = measurement_row(d, i, m, convention) @ psi.reshape(d * d, d)
    return recv / np.linalg.norm(recv)


def find_correction(d, i, m, convention=GENERAL):
    """Reference correction search for one outcome, independent of the derivation.

    Scans the 2 d^2 candidates {U_(i',m')} then {U_(i',m') INV} in
    lexicographic (uses_inversion, i', m') order, scoring each by mean
    fidelity of the corrected noiseless receiver state over 20 seeded probe
    states. Ties within 1e-12 keep the earlier candidate, so the result is
    deterministic. Returns the best candidate and its fidelity.
    """
    probes = [random_pure_state(d, seed) for seed in range(20)]
    received = [noiseless_receiver(d, i, m, convention, phi) for phi in probes]
    inv = inversion(d)
    best_u, best_fid = None, -1.0
    for use_inv in (False, True):
        for ii in range(d):
            for mm in range(d):
                u = weyl(d, ii, mm) @ inv if use_inv else weyl(d, ii, mm)
                fid = float(
                    np.mean([abs(np.vdot(phi, u @ r)) for phi, r in zip(probes, received)])
                )
                if fid > best_fid + 1e-12:
                    best_fid, best_u = fid, u
    return best_u, best_fid


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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_equals_kron_bit_for_bit(self, d):
        # the branch reference's pinned arithmetic starts from these bits
        phi, bell = random_pure_state(d, d), bell_state(d, (1, d - 1))
        assert_same_floats(compose_initial(phi, bell), np.kron(phi, bell))

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
        np.testing.assert_array_equal(weyl(3, 0, 0), np.eye(3))

    def test_d2_table_matches_su2_set(self):
        # (i, m): (0,0) -> 1, (1,0) -> sigma_z, (0,1) -> sigma_x, (1,1) -> i sigma_y
        np.testing.assert_array_equal(weyl(2, 0, 0), np.eye(2))
        np.testing.assert_array_equal(weyl(2, 1, 0), SZ)
        np.testing.assert_array_equal(weyl(2, 0, 1), SX)
        np.testing.assert_allclose(weyl(2, 1, 1), ISY, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_unitary(self, d):
        for i in range(d):
            for m in range(d):
                u = weyl(d, i, m)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


class TestDerivedExactCorrection:
    def test_d2_coincides_with_weyl_table(self):
        for i in range(2):
            for m in range(2):
                got = derived_exact_correction(2, i, m)
                assert phases_equal(got.reshape(-1), weyl(2, i, m).reshape(-1))

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
        # the search certifies that every alternate-wiring outcome has an exact fix
        for i in range(3):
            for m in range(3):
                u = derived_exact_correction(3, i, m, QUTRIT_ALT)
                _, fid = find_correction(3, i, m, QUTRIT_ALT)
                assert fid >= 1 - 1e-10
                np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_caller_write_does_not_corrupt_corrections(self):
        u = derived_exact_correction(3, 1, 2, QUTRIT_ALT)
        u[:] = 0
        again = derived_exact_correction(3, 1, 2, QUTRIT_ALT)
        np.testing.assert_allclose(again @ again.conj().T, np.eye(3), atol=1e-12)
        res = run_protocol(
            ProtocolConfig(d=3, input_state=random_pure_state(3, 5), convention=QUTRIT_ALT)
        )
        assert abs(res.average_fidelity - 1) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        outcome=st.integers(2, 16).flatmap(
            lambda d: st.tuples(st.just(d), st.integers(0, d - 1), st.integers(0, d - 1))
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_derivation_inverts_receiver(self, outcome, seed):
        # sqrt(d) conj(R) undoes the R^T / sqrt(d) that outcome (i, m) applies
        d, i, m = outcome
        phi = random_pure_state(d, seed)
        u = np.sqrt(d) * measurement_row(d, i, m).reshape(d, d).conj()
        recv = noiseless_receiver(d, i, m, GENERAL, phi)
        assert abs(abs(np.vdot(phi, u @ recv)) - 1) < 1e-10
        assert_equal_up_to_phase(u, derived_exact_correction(d, i, m))


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

    @pytest.mark.parametrize(
        "d,convention", [(2, GENERAL), (3, GENERAL), (3, QUTRIT_ALT)], ids=["2", "3", "3-qutrit-alt"]
    )
    def test_agrees_with_closed_form(self, d, convention):
        for i in range(d):
            for m in range(d):
                u, fid = find_correction(d, i, m, convention)
                assert fid >= 1 - 1e-10
                # both reach fidelity 1, so they can differ by a global phase
                assert_equal_up_to_phase(u, derived_exact_correction(d, i, m, convention))


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

    @pytest.mark.parametrize(
        "targets,mode",
        [("none", "bogus"), ("a1", "bogus"), ("a2", "bogus"), ("a1a2", "bogus"), ("a1a2", "correlated")],
        ids=["none", "a1", "a2", "a1a2", "a1a2-correlated"],
    )
    def test_unknown_noise_mode_rejected(self, targets, mode):
        # p = 0 would make an index-locked product complete; it is still rejected
        ch = crosstalk_channel(3, 0.0 if mode == "correlated" else 0.3, WEYL)
        config = ProtocolConfig(
            d=3,
            input_state=uniform_state(3),
            noise_a1=ch if "a1" in targets else None,
            noise_a2=ch if "a2" in targets else None,
            noise_mode=mode,
        )
        with pytest.raises(ValueError, match=f"unknown noise mode '{mode}'"):
            run_protocol(config)

    def test_correction_table_dimension_mismatch_rejected(self):
        table = CorrectionTable(
            d=2, entries={(i, m): weyl(2, i, m) for i in range(2) for m in range(2)}
        )
        with pytest.raises(ValueError, match="dimension 2, the run has dimension 3"):
            run_protocol(ProtocolConfig(d=3, input_state=uniform_state(3), correction=table))

    @pytest.mark.parametrize("key", [(5, 7), (-1, 0), (0, 2)])
    def test_correction_table_key_out_of_range_rejected(self, key):
        with pytest.raises(ValueError, match="out of range for dimension 2"):
            CorrectionTable(d=2, entries={key: np.eye(2)})

    def test_correction_table_missing_outcome_rejected(self):
        with pytest.raises(ValueError, match=r"no correction for outcome \(i=0, m=1\)"):
            CorrectionTable(d=2, entries={(0, 0): np.eye(2)})
        entries = {(i, m): np.eye(3) for i in range(3) for m in range(3) if (i, m) != (2, 1)}
        with pytest.raises(ValueError, match=r"no correction for outcome \(i=2, m=1\)"):
            CorrectionTable(d=3, entries=entries)

    def test_correction_table_nan_entry_rejected(self):
        entries = {(i, m): weyl(2, i, m) for i in range(2) for m in range(2)}
        entries[(1, 1)] = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"correction for \(1, 1\) is not unitary"):
            CorrectionTable(d=2, entries=entries)

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_correction_table_infinite_entry_rejected(self, value):
        # rejected before the unitarity product, which would warn on inf * 0
        entries = {(i, m): weyl(2, i, m) for i in range(2) for m in range(2)}
        entries[(0, 1)] = np.array([[value, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"correction for \(0, 1\) is not unitary: non-finite"):
            CorrectionTable(d=2, entries=entries)

    def test_correction_table_nested_list_entries_accepted(self):
        d = 2
        entries = {(i, m): derived_exact_correction(d, i, m).tolist() for i in range(d) for m in range(d)}
        table = CorrectionTable(d=d, entries=entries)
        assert all(u.dtype == complex for u in table.entries.values())
        res = run_protocol(ProtocolConfig(d=d, input_state=random_pure_state(d, 4), correction=table))
        assert abs(res.average_fidelity - 1) < 1e-10

    @pytest.mark.parametrize("target", ["a1", "a2"])
    @pytest.mark.parametrize("noise", ["weyl", "isometry"])
    def test_channel_dimension_mismatch_rejected(self, target, noise):
        if noise == "weyl":
            ch = crosstalk_channel(2, 0.3, WEYL)
        else:
            ch = isometry_channel(2, 2, np.random.default_rng(3))
        config = ProtocolConfig(d=3, input_state=uniform_state(3), **{f"noise_{target}": ch})
        with pytest.raises(ValueError, match=f"{target} channel has dimension 2, the run has dimension 3"):
            run_protocol(config)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            run_protocol(ProtocolConfig(d=2, input_state=np.array([1.0, 1.0])))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            run_protocol(ProtocolConfig(d=3, input_state=basis_state(2, 0)))

    @pytest.mark.parametrize("noise", [None, "crosstalk", "isometry"], ids=["noiseless", "crosstalk", "isometry"])
    def test_input_within_roundoff_of_unit_norm_runs(self, noise):
        # accepted by the input check; its probabilities sum to ||phi||^2, not 1
        d = 3
        phi = uniform_state(d) * (1 + 0.9e-10)
        a1 = {
            None: None,
            "crosstalk": crosstalk_channel(d, 0.3, WEYL),
            "isometry": isometry_channel(d, 2, np.random.default_rng(3)),
        }[noise]
        res = run_protocol(ProtocolConfig(d=d, input_state=phi, noise_a1=a1))
        total = sum(r.probability for r in res.records)
        assert abs(total - np.vdot(phi, phi).real) < 1e-14
        if noise is None:
            assert abs(res.average_fidelity - 1.0) < 1e-9


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

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 4),
        n_ops=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distinct_kraus_channels_match_per_outcome(self, d, n_ops, seed):
        # two unrelated non-Weyl channels, one per sender qudit
        assume(n_ops[0] != n_ops[1])
        rng = np.random.default_rng(seed)
        a1, a2 = (isometry_channel(d, n, rng) for n in n_ops)
        phi = random_pure_state(d, seed)
        res = run_protocol(ProtocolConfig(d=d, input_state=phi, noise_a1=a1, noise_a2=a2))
        outcomes, avg_dm = run_protocol_dm(
            d, phi, ops_a1=list(a1.operators), ops_a2=list(a2.operators)
        )
        for rec, (i, m, p, fid) in zip(res.records, outcomes, strict=True):
            assert (rec.i, rec.m) == (i, m)
            assert abs(rec.probability - p) < 1e-9
            assert abs(rec.fidelity - fid) < 1e-9
        assert abs(res.average_fidelity - avg_dm) < 1e-9


def branch_form_run(config):
    """Corrected records through the branch engine, the reference for ``run_protocol``.

    Fans the joint ket out with ``apply_channel_to_branches``, enumerates
    with ``enumerate_outcomes`` and scores the records with ``dense_scoring``.
    """
    d = config.d
    branches = [(1.0, compose_initial(config.input_state, bell_state(d, config.bell_label)))]
    for target, channel in enumerate((config.noise_a1, config.noise_a2)):
        if channel is not None:
            branches = apply_channel_to_branches(channel, branches, (d, d, d), target)
    return dense_scoring(config, enumerate_outcomes(d, branches, config.convention))


def dense_scoring(config, uncorrected):
    """Records corrected with dense unitaries and scored as ``run_protocol`` does."""
    d = config.d
    phi = config.input_state
    records = []
    for rec in uncorrected:
        if rec.probability <= WEIGHT_FLOOR:
            records.append(rec)
            continue
        if isinstance(config.correction, CorrectionTable):
            u = config.correction.entries[(rec.i, rec.m)]
        elif config.correction == PAPER_WEYL:
            u = weyl(d, rec.i, rec.m)
        else:
            u = derived_exact_correction(d, rec.i, rec.m, config.convention)
        s = rec.receiver_state
        state = u @ s if s.ndim == 1 else u @ s @ u.conj().T
        records.append(type(rec)(rec.i, rec.m, rec.probability, state, pure_fidelity(phi, state)))
    return records


def as_density(state):
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def assert_records_match(got, want, tol=1e-12, same_kind=True):
    """Records agree to ``tol``, their states compared as density matrices.

    ``same_kind`` also asks that both hold a ket or both a density matrix.
    """
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.i, a.m) == (b.i, b.m)
        assert abs(a.probability - b.probability) <= tol
        assert (a.fidelity is None) == (b.fidelity is None)
        if a.fidelity is not None:
            assert abs(a.fidelity - b.fidelity) <= tol
        if same_kind:
            assert a.receiver_state.ndim == b.receiver_state.ndim
        np.testing.assert_allclose(
            as_density(a.receiver_state), as_density(b.receiver_state), rtol=0, atol=tol
        )


def count_reference_calls(monkeypatch):
    calls = []
    for name in ("enumerate_outcomes", "apply_channel_to_branches"):
        original = getattr(protocol, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counted)
    return calls


class TestOutcomeMapEngine:
    @pytest.mark.parametrize(
        "noise",
        [
            None, (SHIFT, "a1a2"), (PHASE, "a2"), (WEYL, "a1"), (WEYL, "a1a2"), "scaled-weyl",
            ("isometry", "a1"), ("isometry", "a2"), ("isometry", "a1a2"),
        ],
        ids=[
            "noiseless", "shift", "phase-a2", "weyl-a1", "weyl", "scaled-weyl",
            "isometry-a1", "isometry-a2", "isometry-a1a2",
        ],
    )
    def test_no_run_reaches_the_reference(self, monkeypatch, noise):
        d = 3
        if noise is None:
            a1 = a2 = None
        elif noise == "scaled-weyl":
            ops = (0.6j * weyl(d, 1, 2), 0.8 * np.exp(1j) * weyl(d, 2, 0))
            a1 = a2 = KrausChannel(d=d, operators=ops)
        elif noise[0] == "isometry":
            # beside a Weyl channel on the other sender qudit
            iso = isometry_channel(d, 2, np.random.default_rng(5))
            weyl_ch = crosstalk_channel(d, 0.3, WEYL)
            a1, a2 = (iso if t in noise[1] else weyl_ch for t in ("a1", "a2"))
        else:
            ch = crosstalk_channel(d, 0.3, noise[0])
            a1, a2 = (ch if t in noise[1] else None for t in ("a1", "a2"))
        calls = count_reference_calls(monkeypatch)
        res = run_protocol(ProtocolConfig(d=d, input_state=uniform_state(d), noise_a1=a1, noise_a2=a2))
        assert calls == []
        assert abs(sum(r.probability for r in res.records) - 1.0) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 5),
        n_a1=st.integers(1, 4),
        extra=st.integers(1, 3),
        targets=st.sampled_from(["a1", "a2", "a1a2"]),
        scheme=st.sampled_from([DERIVED_EXACT, PAPER_WEYL, "table"]),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_branch_form(self, d, n_a1, extra, targets, scheme, convention, data, seed):
        if convention == QUTRIT_ALT:
            d = 3
        rng = np.random.default_rng(seed)
        # unequal operator counts on the two sender qudits
        a1 = isometry_channel(d, n_a1, rng) if "a1" in targets else None
        a2 = isometry_channel(d, n_a1 + extra, rng) if "a2" in targets else None
        label = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        correction = scheme
        if scheme == "table":
            entries = {(i, m): random_unitary(rng, d) for i in range(d) for m in range(d)}
            correction = CorrectionTable(d=d, entries=entries)
        phi = random_pure_state(d, seed)
        config = ProtocolConfig(
            d=d, input_state=phi, bell_label=label, convention=convention,
            noise_a1=a1, noise_a2=a2, correction=correction,
        )
        res = run_protocol(config)
        assert_records_match(res.records, branch_form_run(config))

        if label == (0, 0) and scheme != "table":
            outcomes, avg_dm = run_protocol_dm(
                d, phi,
                ops_a1=None if a1 is None else list(a1.operators),
                ops_a2=None if a2 is None else list(a2.operators),
                correction=scheme, convention=convention,
            )
            for rec, (i, m, p, fid) in zip(res.records, outcomes, strict=True):
                assert (rec.i, rec.m) == (i, m)
                assert abs(rec.probability - p) < 1e-9
                assert abs(rec.fidelity - fid) < 1e-9
            assert abs(res.average_fidelity - avg_dm) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 8),
        variant=st.sampled_from(VARIANTS),
        targets=st.sampled_from(["a1", "a2", "a1a2"]),
        p=st.floats(0.0, 1.0),
        scheme=st.sampled_from([DERIVED_EXACT, PAPER_WEYL]),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_crosstalk_matches_branch_form(
        self, d, variant, targets, p, scheme, convention, data, seed
    ):
        if convention == QUTRIT_ALT:
            d = 3
        ch = crosstalk_channel(d, p, variant)
        a1, a2 = (ch if t in targets else None for t in ("a1", "a2"))
        label = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        phi = random_pure_state(d, seed)
        config = ProtocolConfig(
            d=d, input_state=phi, bell_label=label, convention=convention,
            noise_a1=a1, noise_a2=a2, correction=scheme,
        )
        res = run_protocol(config)
        # the same channel as dense operators, unfolded; a dense a2 stack mixes
        # every operator, and the fold drops whole labels, so near the floor
        # either may keep a mixture where the reference, which drops pairs one
        # by one, keeps a ket (test_fold_floor_is_per_label)
        dense = KrausChannel(d=d, operators=ch.operators)
        unfolded = replace(config, **{f"noise_{t}": dense for t in ("a1", "a2") if t in targets})
        dense_records = run_protocol(unfolded).records
        reference = branch_form_run(config)
        assert_records_match(dense_records, reference, same_kind=False)
        assert_records_match(res.records, reference, same_kind=False)

        # the density-matrix reference evolves d^3 x d^3 matrices once per Kraus
        # pair; it runs up to the cost of Weyl noise on both qudits at d = 4
        pairs = len(ch.operators) ** ((a1 is not None) + (a2 is not None))
        if label == (0, 0) and pairs * d**9 <= 16**2 * 4**9:
            outcomes, avg_dm = run_protocol_dm(
                d, phi,
                ops_a1=None if a1 is None else list(a1.operators),
                ops_a2=None if a2 is None else list(a2.operators),
                correction=scheme, convention=convention,
            )
            for rec, (i, m, prob, fid) in zip(res.records, outcomes, strict=True):
                assert (rec.i, rec.m) == (i, m)
                assert abs(rec.probability - prob) < 1e-9
                assert abs(rec.fidelity - fid) < 1e-9
            assert abs(res.average_fidelity - avg_dm) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), p=st.floats(0.0, 1.0))
    def test_weyl_noise_on_both_qudits_closed_form(self, d, p):
        # every outcome of the uniform input is equally faithful
        ch = crosstalk_channel(d, p, WEYL)
        res = run_protocol(ProtocolConfig(d=d, input_state=uniform_state(d), noise_a1=ch, noise_a2=ch))
        want = np.sqrt((1 - (d - 1) * p / d) ** 2 + (d - 1) * (p / d) ** 2)
        assert abs(res.average_fidelity - want) < 1e-12
        assert abs(res.min_outcome_fidelity - want) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kets_and_unscored_outcomes_match_branch_form(self, d):
        # a1 measured in the basis: only one Kraus pair survives, records stay kets
        projectors = KrausChannel(d=d, operators=tuple(np.diag(np.eye(d)[k]) + 0j for k in range(d)))
        # a2 reset to |0>: outcomes whose row misses a2 = 0 have probability 0
        reset = KrausChannel(
            d=d, operators=tuple(np.outer(np.eye(d)[0], np.eye(d)[k]) + 0j for k in range(d))
        )
        for a1, a2, kinds in [(projectors, None, {1}), (None, reset, {1, 2})]:
            config = ProtocolConfig(d=d, input_state=basis_state(d, 0), noise_a1=a1, noise_a2=a2)
            res = run_protocol(config)
            assert_records_match(res.records, branch_form_run(config))
            assert {r.receiver_state.ndim for r in res.records} == kinds
        assert any(r.fidelity is None for r in res.records)

    @pytest.mark.parametrize("budget", [1, 5 * 12 * 4 * 16])
    def test_outcome_chunks_do_not_change_records(self, monkeypatch, budget):
        # one outcome per chunk, then 15: a chunk's largest array holds
        # 4 x 4 amplitudes per outcome
        rng = np.random.default_rng(11)
        d = 4
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, 11),
            noise_a1=isometry_channel(d, 3, rng), noise_a2=isometry_channel(d, 4, rng),
        )
        whole = run_protocol(config)
        monkeypatch.setattr(protocol, "OUTCOME_CHUNK_BYTES", budget)
        assert_records_match(run_protocol(config).records, whole.records, tol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("p", [0.1, 0.37, 1.0])
    def test_unitary_mixture_of_weyl_operators(self, d, p):
        # A Kraus set mixed by a unitary is the same channel (Kraus unitary
        # freedom), though none of its operators is a Weyl operator.
        weyl_ch = crosstalk_channel(d, p, WEYL)
        ops = np.stack(weyl_ch.operators)
        u = random_unitary(np.random.default_rng(d * 100 + round(p * 100)), len(ops))
        mixed = KrausChannel(d=d, operators=tuple(np.tensordot(u, ops, axes=1)))
        phi = uniform_state(d)
        res_weyl = run_protocol(
            ProtocolConfig(d=d, input_state=phi, noise_a1=weyl_ch, noise_a2=weyl_ch)
        )
        res_mixed = run_protocol(ProtocolConfig(d=d, input_state=phi, noise_a1=mixed, noise_a2=mixed))
        assert_records_match(res_mixed.records, res_weyl.records)
        want = np.sqrt((1 - (d - 1) * p / d) ** 2 + (d - 1) * (p / d) ** 2)
        for res in (res_weyl, res_mixed):
            assert abs(res.average_fidelity - want) < 1e-12
            assert abs(res.min_outcome_fidelity - want) < 1e-12

    @pytest.mark.parametrize("noise", ["weyl", "isometry", "reference"])
    def test_probability_sum_checked_in_both_engines(self, monkeypatch, noise):
        # the outcome map under either channel, and the branch reference on
        # hand-built branches
        d = 3
        if noise == "reference":
            # the reference reads the dense rows
            rows = 1.01 * measurement_rows(d, GENERAL)
            monkeypatch.setattr(protocol, "measurement_rows", lambda d, convention: rows)
            bell = bell_state(d, (0, 0))
            branches = [
                (0.25, compose_initial(basis_state(d, 1), bell)),
                (0.75, compose_initial(uniform_state(d), bell)),
            ]
            with pytest.raises(RuntimeError, match="probabilities do not sum"):
                enumerate_outcomes(d, branches)
            return
        if noise == "isometry":
            ch = isometry_channel(d, 2, np.random.default_rng(7))
        else:
            ch = crosstalk_channel(d, 0.3, WEYL)
        # every QFT phase of the cached receiver map off by 1 %
        pair, cols, coefs, paths, q = protocol._receiver_map(d, (0, 0), GENERAL)
        corrupted = (pair, cols, coefs, paths, 1.01 * q)
        monkeypatch.setattr(protocol, "_receiver_map", lambda d, label, convention: corrupted)
        with pytest.raises(RuntimeError, match="probabilities do not sum"):
            run_protocol(ProtocolConfig(d=d, input_state=uniform_state(d), noise_a2=ch))


def l2(d, label):
    """L2 (i, m) = (-i, m) mod d: the A1 label a Weyl error on A2 acts as."""
    return (-label[0]) % d, label[1]


def brute_force_fold(d, w_a1, w_a2):
    """Q(e) = sum w_a1(a) w_a2(b) over a + L2 b = e, one pair at a time."""
    q = np.zeros((d, d))
    for a in zip(*w_a1.nonzero()):
        for b in zip(*w_a2.nonzero()):
            i, m = l2(d, b)
            q[(a[0] + i) % d, (a[1] + m) % d] += w_a1[a] * w_a2[b]
    return q


def label_table(d, weights):
    table = np.zeros((d, d))
    for label, w in weights.items():
        table[label] = w
    return table


class TestWeylFold:
    """The sender's two Weyl channels fold into one label table on A1."""

    @pytest.mark.parametrize(
        "d, convention",
        [(d, GENERAL) for d in range(2, 6)] + [(3, QUTRIT_ALT)],
        ids=[str(d) for d in range(2, 6)] + ["3-qutrit-alt"],
    )
    def test_a2_error_acts_as_l2_label_on_a1(self, d, convention):
        # exact single-operator channels, the a2 one on the dense path, no fold involved
        phi = random_pure_state(d, d)
        for b in np.ndindex(d, d):
            on_a2 = KrausChannel(d=d, operators=(weyl(d, *b),))
            on_a1 = KrausChannel(d=d, operators=(weyl(d, *l2(d, b)),))
            for label in np.ndindex(d, d):
                config = ProtocolConfig(
                    d=d, input_state=phi, bell_label=label, convention=convention, noise_a2=on_a2
                )
                got = run_protocol(config).records
                want = run_protocol(replace(config, noise_a1=on_a1, noise_a2=None)).records
                assert_records_match(got, want)
                assert {r.receiver_state.ndim for r in got} == {1}

    @pytest.mark.parametrize("d", range(2, 9))
    def test_fold_is_the_pairwise_sum(self, d):
        rng = np.random.default_rng(d)
        for variant in VARIANTS:
            for p in (0.0, 0.37, 1.0):
                w = crosstalk_channel(d, p, variant).weyl_weights
                q = protocol._fold_weyl_weights(d, w, w)
                np.testing.assert_allclose(q, brute_force_fold(d, w, w), rtol=1e-14, atol=0)
                assert (q >= 0).all() and abs(q.sum() - 1) < 1e-14
        # sparse random tables: the support is exactly the sum of the supports
        w1, w2 = rng.random((2, d, d)) * (rng.random((2, d, d)) < 0.3)
        q = protocol._fold_weyl_weights(d, w1, w2)
        want = brute_force_fold(d, w1, w2)
        np.testing.assert_allclose(q, want, rtol=1e-14, atol=0)
        assert np.array_equal(q > 0, want > 0)
        assert np.array_equal(protocol._fold_weyl_weights(d, w1, None), w1)
        assert np.array_equal(protocol._fold_weyl_weights(d, None, None), label_table(d, {(0, 0): 1.0}))

    def test_fold_floor_is_per_label(self):
        # at p = 1e-23 a Kraus pair with one flip weighs about p / 16 <
        # WEIGHT_FLOOR in every outcome, so the reference keeps only the
        # no-flip pair, a ket; the fold adds the two one-flip pairs of each
        # label e, (e, I) and (I, L2^-1 e), to p / 8, above it, so it mixes
        d, p = 2, 1e-23
        ch = crosstalk_channel(d, p, WEYL)
        config = ProtocolConfig(d=d, input_state=random_pure_state(d, 3), noise_a1=ch, noise_a2=ch)
        folded = run_protocol(config).records
        reference = branch_form_run(config)
        assert [r.receiver_state.ndim for r in folded] == [2] * d * d
        assert [r.receiver_state.ndim for r in reference] == [1] * d * d
        assert_records_match(folded, reference, same_kind=False)
        # as dense operators, the a2 stack of four operators mixes too
        dense = KrausChannel(d=d, operators=ch.operators)
        unfolded = run_protocol(replace(config, noise_a1=dense, noise_a2=dense)).records
        assert [r.receiver_state.ndim for r in unfolded] == [2] * d * d
        assert_records_match(unfolded, reference, same_kind=False)

    def test_p_zero_keeps_one_label_and_kets(self):
        d = 8
        ch = crosstalk_channel(d, 0.0, WEYL)
        columns, coefficients = protocol._folded_sender(d, ch.weyl_weights.tobytes(), None)
        assert columns.shape == coefficients.shape == (1, d)
        config = ProtocolConfig(d=d, input_state=random_pure_state(d, 8), noise_a1=ch, noise_a2=ch)
        assert {r.receiver_state.ndim for r in run_protocol(config).records} == {1}

    @pytest.mark.parametrize(
        "d, convention",
        [(3, GENERAL), (4, GENERAL), (5, GENERAL), (3, QUTRIT_ALT)],
        ids=["3", "4", "5", "3-qutrit-alt"],
    )
    @pytest.mark.parametrize("scheme", [DERIVED_EXACT, PAPER_WEYL])
    def test_asymmetric_tables(self, d, convention, scheme):
        # crosstalk tables are invariant under the label sign maps, so they
        # cannot tell L2 from another sign map; these two-label tables can
        w1 = label_table(d, {(1, 2): 0.3, (2, 1): 0.7})
        w2 = label_table(d, {(0, 1): 0.4, (1, 2): 0.6})
        q = protocol._fold_weyl_weights(d, w1, w2)
        # a + L2 b for each pair; L2 (1, 2) = (-1, 2)
        want = {}
        for a, wa in ((1, 2), 0.3), ((2, 1), 0.7):
            for b, wb in ((0, 1), 0.4), ((1, 2), 0.6):
                e = ((a[0] - b[0]) % d, (a[1] + b[1]) % d)
                want[e] = want.get(e, 0.0) + wa * wb
        np.testing.assert_allclose(q, label_table(d, want), rtol=1e-15, atol=0)

        a1, a2 = (KrausChannel(d=d, weyl_weights=w) for w in (w1, w2))
        for label in np.ndindex(d, d):
            config = ProtocolConfig(
                d=d, input_state=random_pure_state(d, 7), bell_label=label,
                convention=convention, noise_a1=a1, noise_a2=a2, correction=scheme,
            )
            res = run_protocol(config)
            dense = replace(
                config,
                noise_a1=KrausChannel(d=d, operators=a1.operators),
                noise_a2=KrausChannel(d=d, operators=a2.operators),
            )
            assert_records_match(res.records, run_protocol(dense).records)
            assert_records_match(res.records, branch_form_run(config))


def sender_reference(d, bell, kets, convention):
    """Uncorrected records of the sender kets a_k through the reference, pair by pair.

    Each ket enters as the weight-1 branch a_k (x) bell, so ``enumerate_outcomes``
    applies the weight floor to each Kraus pair.
    """
    return enumerate_outcomes(d, [(1.0, compose_initial(a, bell)) for a in kets], convention)


def gathered_records(d, bell, kets, convention):
    """Uncorrected sender-state records, each state gathered from one sender state.

    Outcome o's state is N_o rho N_o^dag / p_o, or N_o a / |N_o a| for one
    surviving sender ket a, gathered in the order a record's state is built
    on read, so both carry the same bits. Every outcome's N_o = Phi^T R_o^T
    is built here from its measurement row and the Bell pair, independently
    of the run's per-group receiver map.
    """
    positions, phases = monomial_rows(d, convention)
    # row o's entry (a, b) sends A1 level a to A2 level b, and the Bell pair
    # sends A2 level b to receiver level out[o, j]
    a, b = np.divmod(positions, d)
    pair = bell.reshape(d, d)
    out = np.abs(pair).argmax(axis=1)[b]
    o = np.arange(d * d)[:, None]
    cols, coefs = np.empty_like(a), np.empty_like(phases)
    cols[o, out] = a
    coefs[o, out] = phases * pair[b, out]
    alive, rho = protocol._sender_state(d, kets)
    n = (kets.real**2 + kets.imag**2).sum(axis=0)
    probs = (np.abs(coefs) ** 2 * n[cols]).sum(axis=1)
    records = []
    for o in range(d * d):
        c, k = cols[o], coefs[o]
        if len(alive) == 1:
            state = k * alive[0][c]
            state /= np.sqrt((state.real**2 + state.imag**2).sum())
        else:
            state = rho[c[:, None], c] * k[:, None] * k.conj()
            state /= probs[o]
        records.append(protocol.OutcomeRecord(*divmod(o, d), float(probs[o]), state))
    return records


class TestSenderStatePath:
    """When A2 sees the identity, every record is a gather of one sender state."""

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(2, 8),
        a1_form=st.sampled_from(["label", "dense", "isometry"]),
        a2_label=st.booleans(),
        variant=st.sampled_from(VARIANTS),
        # flip probabilities down to where one Kraus pair weighs about WEIGHT_FLOOR
        p=st.one_of(st.just(0.0), st.floats(-23.0, 0.0).map(lambda e: 10.0**e)),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_pair_path(self, d, a1_form, a2_label, variant, p, convention, data, seed):
        if convention == QUTRIT_ALT:
            d = 3
        ch = crosstalk_channel(d, p, variant)
        a1 = {
            "label": ch,
            "dense": KrausChannel(d=d, operators=ch.operators),
            "isometry": isometry_channel(d, 3, np.random.default_rng(seed)),
        }[a1_form]
        a2 = ch if a2_label else None
        label = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        phi = random_pure_state(d, seed)
        kets, ops_a2 = protocol._sender_noise(d, phi, a1, a2)
        assert ops_a2 is None
        bell = bell_state(d, label)
        config = ProtocolConfig(
            d=d, input_state=phi, bell_label=label, convention=convention,
            noise_a1=a1, noise_a2=a2,
        )
        got = run_protocol(config).records
        assert_records_match(got, dense_scoring(config, sender_reference(d, bell, kets, convention)))

        if a2_label and a1_form != "label":
            # a label-form A2 channel beside a dense A1 one folds onto A1 pair
            # by pair; as dense operators it moves to the receiver, where its
            # stack mixes every operator, so near the floor the kinds may differ
            dense = replace(config, noise_a2=KrausChannel(d=d, operators=ch.operators))
            assert_records_match(
                run_protocol(config).records, run_protocol(dense).records, same_kind=False
            )

    @pytest.mark.parametrize("p, kind", [(1.0e-23, 1), (2.0e-23, 2)])
    def test_weight_floor_per_sender_ket(self, p, kind):
        # at d = 2 each flip label of the a1 channel weighs p / 4, and its
        # pair p / 16 in every outcome: below WEIGHT_FLOOR, then above it
        d = 2
        ch = crosstalk_channel(d, p, WEYL)
        phi = random_pure_state(d, 3)
        kets, _ = protocol._sender_noise(d, phi, ch, None)
        config = ProtocolConfig(d=d, input_state=phi, noise_a1=ch)
        got = run_protocol(config).records
        assert [r.receiver_state.ndim for r in got] == [kind] * d * d
        reference = sender_reference(d, bell_state(d, (0, 0)), kets, GENERAL)
        assert_records_match(got, dense_scoring(config, reference))

    @pytest.mark.parametrize(
        "a1, a2, pair_path",
        [
            (None, None, False), ("label", None, False), (None, "label", False),
            ("label", "label", False), ("dense", None, False), ("dense", "label", False),
            (None, "dense", True), ("label", "dense", True), ("dense", "dense", True),
        ],
    )
    def test_only_a_dense_a2_channel_takes_the_pair_path(self, monkeypatch, a1, a2, pair_path):
        # a dense a2 channel's Kraus pairs are summed at the receiver, by
        # _dense_scores; every other run takes the sender-state path, and
        # both hand their scores to _scored_records
        d = 3
        channels = {
            None: None,
            "label": crosstalk_channel(d, 0.3, WEYL),
            "dense": isometry_channel(d, 2, np.random.default_rng(3)),
        }
        paths = []
        for name in ("_sender_state_scores", "_dense_scores", "_scored_records"):
            original = getattr(protocol, name)

            def recorded(*args, _name=name, _original=original):
                paths.append(_name)
                return _original(*args)

            monkeypatch.setattr(protocol, name, recorded)
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, 3), noise_a1=channels[a1], noise_a2=channels[a2]
        )
        records = run_protocol(config).records
        path = "_dense_scores" if pair_path else "_sender_state_scores"
        assert paths == [path, "_scored_records"]
        assert_records_match(records, branch_form_run(config))

    @staticmethod
    def row_bytes(d, table):
        """The bytes ``_sender_state_scores`` counts for one detector row's arrays.

        Three (d, d) arrays, or a table's (d, d, d) adjoints and u^dag phi;
        the test below checks the chunks this gives.
        """
        return 16 * d * d * (d + 1 if table else 3)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 7),
        scheme=st.sampled_from([DERIVED_EXACT, PAPER_WEYL, "table"]),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_detector_rows_match_branch_form(self, d, scheme, convention, data, seed):
        # 1 to d + 2 sender kets reach both the sum over the kets and the form of rho
        if convention == QUTRIT_ALT:
            d = 3
        n_kets = data.draw(st.integers(1, d + 2))
        label = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        rng = np.random.default_rng(seed)
        correction = scheme
        if scheme == "table":
            entries = {(i, m): random_unitary(rng, d) for i in range(d) for m in range(d)}
            correction = CorrectionTable(d=d, entries=entries)
        phi = random_pure_state(d, seed)
        a1 = isometry_channel(d, n_kets, rng)
        config = ProtocolConfig(
            d=d, input_state=phi, bell_label=label, convention=convention, noise_a1=a1,
            correction=correction,
        )
        reference = branch_form_run(config)
        scored = [r for r in reference if r.fidelity is not None]
        avg = sum(r.probability * r.fidelity for r in scored)
        low = min(r.fidelity for r in scored)
        # each state gathered outcome by outcome and corrected as a record corrects it
        kets, _ = protocol._sender_noise(d, phi, a1, None)
        gathered = gathered_records(d, bell_state(d, label), kets, convention)
        if scheme == "table":
            unitaries = [correction.entries[divmod(o, d)] for o in range(d * d)]
        else:
            columns, phases = protocol._scheme_table(d, scheme, convention)
            unitaries = [(columns[m], phases[i, m]) for i in range(d) for m in range(d)]
        # every row in one chunk, one row per chunk, then d - 1 rows per
        # chunk, which do not divide d > 2
        for rows, sizes in ((d, [d]), (1, [1] * d), (d - 1, [d - 1, 1])):
            spans = []
            original = protocol._outcome_unitary

            def spied(correction, i, m, _original=original):
                if isinstance(i, slice):
                    spans.append(min(i.stop, d) - i.start)
                return _original(correction, i, m)

            budget = rows * self.row_bytes(d, scheme == "table")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocol, "OUTCOME_CHUNK_BYTES", budget)
                mp.setattr(protocol, "_outcome_unitary", spied)
                res = run_protocol(config)
            assert spans == sizes
            assert_records_match(res.records, reference)
            assert abs(res.average_fidelity - avg) <= 1e-12
            assert abs(res.min_outcome_fidelity - low) <= 1e-12
            # the states read on demand carry the bits of the outcome-by-outcome gathers
            for got, want, u in zip(res.records, gathered, unitaries, strict=True):
                assert got.probability == want.probability
                assert_same_floats(
                    got.receiver_state, protocol._apply_unitary(u, want.receiver_state)
                )

    @pytest.mark.parametrize("d, limit_mib", [(32, 3.4), (64, 16)])
    def test_run_peak_memory(self, d, limit_mib):
        # Weyl noise on both sender qudits, after a first run has built the cached tables
        ch = crosstalk_channel(d, 0.1, WEYL)
        config = ProtocolConfig(d=d, input_state=random_pure_state(d, d), noise_a1=ch, noise_a2=ch)
        run_protocol(config)
        tracemalloc.start()
        try:
            res = run_protocol(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(sum(r.probability for r in res.records) - 1.0) < 1e-10
        assert peak <= limit_mib * 2**20


class TestDensePath:
    """A dense a2 channel moves to the receiver; records are scored without their states."""

    def test_states_are_built_on_read(self, monkeypatch):
        d = 32
        calls = []
        original = protocol._dense_state

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(protocol, "_dense_state", counted)
        rng = np.random.default_rng(32)
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, 32),
            noise_a1=isometry_channel(d, 4, rng), noise_a2=isometry_channel(d, 4, rng),
        )
        res = run_protocol(config)
        assert calls == []
        assert abs(sum(r.probability for r in res.records) - 1.0) < 1e-10
        rec = res.records[d + 5]
        state = rec.receiver_state
        assert len(calls) == 1
        assert rec.receiver_state is state
        assert replace(rec, fidelity=0.5).receiver_state is state
        assert len(calls) == 1
        # the state it builds is the one the record was scored on
        assert abs(np.trace(state) - 1.0) < 1e-12
        assert abs(pure_fidelity(config.input_state, state) - rec.fidelity) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_label_a1_beside_dense_a2_builds_no_a1_stack(self, d, variant):
        # its kets are the fold's gathers; the same channel as dense operators
        # gives the same records
        label_a1 = crosstalk_channel(d, 0.37, variant)
        a2 = isometry_channel(d, 3, np.random.default_rng(d))
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, d), bell_label=(1, d - 1),
            noise_a1=label_a1, noise_a2=a2,
        )
        got = run_protocol(config).records
        assert "operator_stack" not in vars(label_a1)
        dense_a1 = KrausChannel(d=d, operators=label_a1.operators)
        assert_records_match(got, run_protocol(replace(config, noise_a1=dense_a1)).records)
        assert_records_match(got, branch_form_run(config))

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_impossible_outcomes_stay_unscored(self, d):
        # a2 reset to |+>: G is not diagonal in the receiver basis, so each
        # impossible outcome's p = tr(G X_o) is a signed sum that rounds to
        # about +-1e-17, not to zero
        plus = uniform_state(d)
        reset = KrausChannel(d=d, operators=tuple(np.outer(plus, np.eye(d)[k]) + 0j for k in range(d)))
        config = ProtocolConfig(d=d, input_state=uniform_state(d), noise_a2=reset)
        res = run_protocol(config)
        reference = branch_form_run(config)
        assert sum(r.fidelity is None for r in reference) == d * d - d
        assert_records_match(res.records, reference)
        assert min(r.probability for r in res.records) >= 0.0
        assert abs(res.min_outcome_fidelity - 1 / np.sqrt(d)) < 1e-12

    def test_state_read_later_ignores_table_edits(self):
        # a record builds its state on read, from the table as it was at the run
        d = 3
        table = CorrectionTable(
            d=d,
            entries={(i, m): derived_exact_correction(d, i, m) for i in range(d) for m in range(d)},
        )
        rng = np.random.default_rng(3)
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, 3), noise_a2=isometry_channel(d, 2, rng),
            correction=table,
        )
        records = run_protocol(config).records
        for u in table.entries.values():
            u[...] = np.eye(d)
        for rec in records:
            assert abs(pure_fidelity(config.input_state, rec.receiver_state) - rec.fidelity) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_sender_ket_through_one_operator_is_a_ket(self, d):
        u = KrausChannel(d=d, operators=(random_unitary(np.random.default_rng(d), d),))
        config = ProtocolConfig(d=d, input_state=random_pure_state(d, d), noise_a2=u)
        records = run_protocol(config).records
        assert {r.receiver_state.ndim for r in records} == {1}
        assert_records_match(records, branch_form_run(config))

    @staticmethod
    def group_bytes(d, n_kets, n_ops, table):
        """The bytes ``_dense_scores`` counts for one crystal group's arrays.

        Its (d, L, d) and (d, L, min(K, d)) arrays, or a table's (d, d, d)
        adjoints; the test below checks the chunks this gives.
        """
        return 16 * d * max(n_ops * (d + min(n_kets, d)), d * d if table else 0)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 7),
        scheme=st.sampled_from([DERIVED_EXACT, PAPER_WEYL, "table"]),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_crystal_groups_match_branch_form(self, d, scheme, convention, data, seed):
        # 1 to d + 2 sender kets reach both the sum over the kets and the form
        # of rho; the a2 stack holds 1 to d + 2 operators
        if convention == QUTRIT_ALT:
            d = 3
        n_kets = data.draw(st.integers(1, d + 2))
        n_ops = data.draw(st.integers(1, d + 2))
        label = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        rng = np.random.default_rng(seed)
        correction = scheme
        if scheme == "table":
            entries = {(i, m): random_unitary(rng, d) for i in range(d) for m in range(d)}
            correction = CorrectionTable(d=d, entries=entries)
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, seed), bell_label=label, convention=convention,
            noise_a1=isometry_channel(d, n_kets, rng), noise_a2=isometry_channel(d, n_ops, rng),
            correction=correction,
        )
        reference = branch_form_run(config)
        scored = [r for r in reference if r.fidelity is not None]
        avg = sum(r.probability * r.fidelity for r in scored)
        low = min(r.fidelity for r in scored)
        # every group in one chunk, one group per chunk, then d - 1 groups
        # per chunk, which do not divide d > 2
        for groups, sizes in ((d, [d]), (1, [1] * d), (d - 1, [d - 1, 1])):
            spans = []
            original = protocol._outcome_unitary

            def spied(correction, i, m, _original=original):
                if isinstance(m, slice):
                    spans.append(min(m.stop, d) - m.start)
                return _original(correction, i, m)

            budget = groups * self.group_bytes(d, n_kets, n_ops, scheme == "table")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocol, "OUTCOME_CHUNK_BYTES", budget)
                mp.setattr(protocol, "_outcome_unitary", spied)
                res = run_protocol(config)
            assert spans == sizes
            # the records, each state built on read
            assert_records_match(res.records, reference)
            assert abs(res.average_fidelity - avg) <= 1e-12
            assert abs(res.min_outcome_fidelity - low) <= 1e-12

    @pytest.mark.parametrize("d, limit_mib", [(32, 6), (64, 18)])
    def test_run_peak_memory(self, d, limit_mib):
        # 16 + 16 operators, after a first run has built the cached tables
        rng = np.random.default_rng(d)
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, d),
            noise_a1=isometry_channel(d, 16, rng), noise_a2=isometry_channel(d, 16, rng),
        )
        run_protocol(config)
        tracemalloc.start()
        try:
            res = run_protocol(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(sum(r.probability for r in res.records) - 1.0) < 1e-10
        assert peak <= limit_mib * 2**20


class TestScoredRecords:
    """Every outcome is scored from p_o and p_o F_o^2, with no outcome state built."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 8),
        p=st.floats(0.0, 1.0),
        variant=st.sampled_from(VARIANTS),
        targets=st.sampled_from(["a1", "a2", "a1a2"]),
        scheme=st.sampled_from([DERIVED_EXACT, PAPER_WEYL, "table"]),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fidelity_is_the_overlap_of_the_state_read(
        self, d, p, variant, targets, scheme, convention, data, seed
    ):
        if convention == QUTRIT_ALT:
            d = 3
        ch = crosstalk_channel(d, p, variant)
        a1, a2 = (ch if t in targets else None for t in ("a1", "a2"))
        label = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        correction = scheme
        if scheme == "table":
            rng = np.random.default_rng(seed)
            entries = {(i, m): random_unitary(rng, d) for i in range(d) for m in range(d)}
            correction = CorrectionTable(d=d, entries=entries)
        phi = random_pure_state(d, seed)
        config = ProtocolConfig(
            d=d, input_state=phi, bell_label=label, convention=convention,
            noise_a1=a1, noise_a2=a2, correction=correction,
        )
        res = run_protocol(config)
        assert abs(sum(r.probability for r in res.records) - np.vdot(phi, phi).real) <= 1e-10
        # with noise on both qudits the reference sums up to d^4 Kraus pairs,
        # and its own round-off reaches about 1e-13 at d = 7, 8
        tol = 1e-12 if targets == "a1a2" else 1e-14
        for rec, ref in zip(res.records, branch_form_run(config), strict=True):
            assert rec.fidelity is not None
            assert abs(rec.fidelity - pure_fidelity(phi, rec.receiver_state)) <= 1e-14
            assert abs(rec.fidelity - ref.fidelity) <= tol

    def test_scores_give_records_average_and_minimum(self):
        d = 2
        correction = protocol._scheme_table(d, DERIVED_EXACT, GENERAL)
        probs = np.array([0.25, 0.25, 0.25, 1e-30])
        # an F^2 that rounds below zero reads F = 0; an unscored outcome holds a zero ket
        weighted = np.array([0.25, -1e-17, 0.0625, 0.0])
        # it builds no record; the call it returns builds them
        build, avg, low = protocol._scored_records(
            d, correction, probs, weighted, probs > WEIGHT_FLOOR, lambda o, p, u: None
        )
        records = build()
        assert [r.fidelity for r in records] == [1.0, 0.0, 0.5, None]
        assert (avg, low) == (0.25 + 0.25 * 0.5, 0.0)
        assert_same_floats(records[3].receiver_state, np.zeros(d, dtype=complex))

    def test_negative_overlap_is_an_internal_error(self):
        # no input makes <phi|sigma|phi> negative, so the CLI reports it with exit 4
        d = 2
        correction = protocol._scheme_table(d, DERIVED_EXACT, GENERAL)
        probs = np.full(d * d, 0.25)
        weighted = np.array([0.25, 0.25, -1e-9, 0.25])
        with pytest.raises(RuntimeError, match="negative beyond round-off"):
            protocol._scored_records(d, correction, probs, weighted, probs > 0, lambda o, p, u: None)


def built_on_read_config(name):
    """One run per kind of record state: a ket or a mixture, a scheme or a table, each path."""
    d = 4
    rng = np.random.default_rng(4)
    phi = random_pure_state(d, 4)
    weyl_noise = crosstalk_channel(d, 0.37, WEYL)
    dense = isometry_channel(d, 3, rng)
    table = CorrectionTable(
        d=d, entries={(i, m): random_unitary(rng, d) for i in range(d) for m in range(d)}
    )
    return {
        "noiseless": ProtocolConfig(d=d, input_state=phi),
        "weyl": ProtocolConfig(
            d=d, input_state=phi, noise_a1=weyl_noise, noise_a2=weyl_noise, correction=PAPER_WEYL
        ),
        "weyl-table": ProtocolConfig(d=d, input_state=phi, noise_a1=weyl_noise, correction=table),
        "dense-a2": ProtocolConfig(d=d, input_state=phi, noise_a1=weyl_noise, noise_a2=dense),
        "dense-a2-table": ProtocolConfig(d=d, input_state=phi, noise_a2=dense, correction=table),
    }[name]


class TestRecordsBuiltOnRead:
    """A run returns its average and minimum; its records are built on their first read."""

    @pytest.mark.parametrize(
        "name", ["noiseless", "weyl", "weyl-table", "dense-a2", "dense-a2-table"]
    )
    def test_records_read_later_match_an_eager_build(self, name):
        config = built_on_read_config(name)
        late = run_protocol(config)
        # runs at other dimensions in between replace the fold's one cache entry
        for d in (2, 3):
            ch = crosstalk_channel(d, 0.1, SHIFT)
            run_protocol(
                ProtocolConfig(
                    d=d, input_state=uniform_state(d), noise_a1=ch, noise_a2=ch, correction=PAPER_WEYL
                )
            )
        eager = run_protocol(config).records
        want = [(r.i, r.m, r.probability, r.fidelity, r.receiver_state) for r in eager]
        records = late.records
        assert late.records is records
        for rec, (i, m, p, f, state) in zip(records, want, strict=True):
            assert (rec.i, rec.m, rec.probability, rec.fidelity) == (i, m, p, f)
            assert_same_floats(rec.receiver_state, state)
        # the average and the minimum are those of the records, summed in outcome order
        avg, low = 0.0, 1.0
        for rec in records:
            if rec.fidelity is not None:
                avg += rec.probability * rec.fidelity
                low = min(low, rec.fidelity)
        assert (late.average_fidelity, late.min_outcome_fidelity) == (avg, low)
        assert replace(late, average_fidelity=0.5).records is records

    @pytest.mark.parametrize("name", ["weyl-table", "dense-a2-table"])
    def test_table_edits_before_the_first_read_leave_every_state(self, name):
        config = built_on_read_config(name)
        table = config.correction
        copies = {key: u.copy() for key, u in table.entries.items()}
        untouched = CorrectionTable(d=table.d, entries=copies)
        res = run_protocol(config)
        for u in table.entries.values():
            u[...] = np.eye(table.d)
        for key in table.entries:
            table.entries[key] = weyl(table.d, 1, 1)
        want = run_protocol(replace(config, correction=untouched)).records
        for rec, ref in zip(res.records, want, strict=True):
            assert (rec.probability, rec.fidelity) == (ref.probability, ref.fidelity)
            assert_same_floats(rec.receiver_state, ref.receiver_state)

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(2, 8),
        scheme=st.sampled_from([PAPER_WEYL, DERIVED_EXACT]),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        seed=st.integers(0, 2**32 - 1),
    )
    # z^dag rho z scored these outcomes' F about 1e-3 at a relative 1e-11 off
    @example(d=3, scheme=PAPER_WEYL, convention=QUTRIT_ALT, seed=540)
    @example(d=8, scheme=PAPER_WEYL, convention=GENERAL, seed=15)
    def test_noiseless_fidelities_keep_their_relative_accuracy(self, d, scheme, convention, seed):
        # one sender ket survives, so p_o F_o^2 = |a^dag z_o|^2: no entries of
        # rho cancel, and F carries only the rounding of the overlap itself
        if convention == QUTRIT_ALT:
            d = 3
        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, seed), convention=convention, correction=scheme
        )
        # both engines sum the overlap itself over d terms of modulus up to
        # 1 / d, so an F near 1e-5 carries their rounding, about d eps
        roundoff = d * np.finfo(float).eps
        for rec, ref in zip(run_protocol(config).records, branch_form_run(config), strict=True):
            assert abs(rec.fidelity - ref.fidelity) <= 1e-12 * ref.fidelity + roundoff


class TestMonomialLayer:
    @pytest.mark.parametrize(
        "d, convention",
        [(d, GENERAL) for d in range(2, 17)] + [(3, QUTRIT_ALT)],
        ids=[str(d) for d in range(2, 17)] + ["3-qutrit-alt"],
    )
    def test_scheme_tables_equal_dense_corrections(self, d, convention):
        dense = {
            PAPER_WEYL: lambda i, m: weyl(d, i, m),
            DERIVED_EXACT: lambda i, m: derived_exact_correction(d, i, m, convention),
        }
        for scheme, correction in dense.items():
            columns, phases = protocol._scheme_table(d, scheme, convention)
            for i in range(d):
                for m in range(d):
                    u = np.zeros((d, d), dtype=complex)
                    u[np.arange(d), columns[m]] = phases[i, m]
                    assert_same_floats(u, correction(i, m))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 9),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        scheme=st.sampled_from([PAPER_WEYL, DERIVED_EXACT]),
        data=st.data(),
    )
    def test_group_tables_give_every_outcome(self, d, convention, scheme, data):
        # a cold run reads no composite row; then each outcome's N_o and u_o,
        # read from the per-group tables, against the rows and the dense corrections
        if convention == QUTRIT_ALT:
            d = 3
        label = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        protocol._receiver_map.cache_clear()
        protocol._scheme_table.cache_clear()

        def unread(*args):
            raise AssertionError("a run read monomial_rows")

        config = ProtocolConfig(
            d=d, input_state=random_pure_state(d, d), bell_label=label, convention=convention,
            correction=scheme,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measurement, "monomial_rows", unread)
            run_protocol(config)
        receivers = protocol._receiver_map(d, label, convention)
        correction = protocol._scheme_table(d, scheme, convention)
        dense = {
            PAPER_WEYL: lambda i, m: weyl(d, i, m),
            DERIVED_EXACT: lambda i, m: derived_exact_correction(d, i, m, convention),
        }[scheme]
        positions, phases = monomial_rows(d, convention)
        pair = bell_state(d, label).reshape(d, d)
        rows = np.arange(d)
        for i in range(d):
            for m in range(d):
                o = i * d + m
                # the row's entry (a, b) sends A1 level a to A2 level b, and the
                # Bell pair sends b to receiver level out
                a, b = np.divmod(positions[o], d)
                out = np.abs(pair).argmax(axis=1)[b]
                want = np.zeros((d, d), dtype=complex)
                want[out, a] = phases[o] * pair[b, out]
                cols, coefs = protocol._receiver(receivers, o)
                got = np.zeros((d, d), dtype=complex)
                got[rows, cols] = coefs
                assert_same_floats(got, want)
                columns, u_phases = protocol._outcome_unitary(correction, i, m)
                u = np.zeros((d, d), dtype=complex)
                u[rows, columns] = u_phases
                assert_same_floats(u, dense(i, m))

    @pytest.mark.parametrize("d, convention", [(4, GENERAL), (3, QUTRIT_ALT)])
    def test_every_run_checks_the_wiring(self, monkeypatch, d, convention):
        pairs = measurement.crystal_pairs

        def reused(d, m, convention=GENERAL):
            # group 1 takes group 0's first input pair
            triples = pairs(d, m, convention)
            if m == 1:
                triples[0] = (triples[0][0], *pairs(d, 0, convention)[0][1:])
            return triples

        monkeypatch.setattr(measurement, "crystal_pairs", reused)
        protocol._receiver_map.cache_clear()
        protocol._scheme_table.cache_clear()
        config = ProtocolConfig(d=d, input_state=uniform_state(d), convention=convention)
        with pytest.raises(RuntimeError, match="crystal operator construction violated its invariants"):
            run_protocol(config)

    def test_cold_run_caches_no_cubic_table(self):
        # every cached table of a noiseless run is (d, d): about 1.5 MiB stay
        # at d = 128, where d^3 phases alone are 32 MiB
        d = 128
        for cache in (protocol._receiver_map, protocol._scheme_table, protocol._folded_sender):
            cache.cache_clear()
        tracemalloc.start()
        try:
            res = run_protocol(ProtocolConfig(d=d, input_state=random_pure_state(d, d)))
            assert abs(res.min_outcome_fidelity - 1.0) < 1e-12
            del res
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 4 * 2**20

    @pytest.mark.parametrize("d", range(2, 9))
    def test_branch_engine_reproduces_dense_contraction(self, d):
        # the reference's records against the dense rows applied to the
        # branches' density matrix: p_o rho_o = Tr_A1A2 (M_o (x) I) rho (M_o (x) I)^dag
        ch = crosstalk_channel(d, 0.37, WEYL)
        branches = [(1.0, compose_initial(random_pure_state(d, d), bell_state(d, (1, 0))))]
        for target in (0, 1):
            branches = apply_channel_to_branches(ch, branches, (d, d, d), target)
        weights = np.array([w for w, _ in branches])
        kets = np.stack([psi for _, psi in branches])
        rho = ((kets.T * weights) @ kets.conj()).reshape(d * d, d, d * d, d)
        rows = measurement_rows(d)
        records = enumerate_outcomes(d, branches)
        assert len(records) == d * d
        for rec in records:
            row = rows[rec.i * d + rec.m]
            want = np.einsum("a,aibj,b->ij", row, rho, row.conj())
            assert abs(rec.probability - np.trace(want).real) <= 1e-12
            got = rec.probability * as_density(rec.receiver_state)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("noise", [None, "unitary-a1"], ids=["noiseless", "unitary-a1"])
    def test_d64_run_reads_no_dense_rows(self, monkeypatch, noise):
        # the dense rows alone are 268 MB at d = 64
        def dense_rows(*args):
            raise AssertionError("a run path built the dense measurement rows")

        monkeypatch.setattr(protocol, "measurement_rows", dense_rows)
        d = 64
        a1 = None
        if noise is not None:
            a1 = KrausChannel(d=d, operators=(random_unitary(np.random.default_rng(64), d),))
        config = ProtocolConfig(d=d, input_state=random_pure_state(d, 64), noise_a1=a1)
        tracemalloc.start()
        try:
            res = run_protocol(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert abs(sum(r.probability for r in res.records) - 1.0) < 1e-10
        if noise is None:
            assert abs(res.min_outcome_fidelity - 1.0) < 1e-12


class TestMonomialCorrection:
    """Named schemes are applied as gathers; the dense unitaries are the reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(2, 8),
        scheme=st.sampled_from([PAPER_WEYL, DERIVED_EXACT]),
        convention=st.sampled_from([GENERAL, QUTRIT_ALT]),
        noisy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # F is about 1.2e-3 on one outcome here: a z^dag rho z score was 1.7e-14 off
    @example(d=3, scheme=PAPER_WEYL, convention=QUTRIT_ALT, noisy=False, seed=540)
    def test_gathers_match_dense_products(self, d, scheme, convention, noisy, seed):
        if convention == QUTRIT_ALT:
            d = 3
        rng = np.random.default_rng(seed)
        phi = random_pure_state(d, seed)
        ket, rho = random_pure_state(d, seed + 1), random_density(rng, d)
        if scheme == PAPER_WEYL:
            dense = {(i, m): weyl(d, i, m) for i in range(d) for m in range(d)}
        else:
            dense = {
                (i, m): derived_exact_correction(d, i, m, convention)
                for i in range(d)
                for m in range(d)
            }
        columns, phases = protocol._scheme_table(d, scheme, convention)
        for (i, m), u in dense.items():
            for state, want in ((ket, u @ ket), (rho, u @ rho @ u.conj().T)):
                got = protocol._apply_monomial(columns[m], phases[i, m], state)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-14
                assert abs(pure_fidelity(phi, got) - pure_fidelity(phi, want)) <= 1e-14

        # Weyl noise on a1 leaves every record mixed; without it every record is a ket
        noise = crosstalk_channel(d, 0.37, WEYL) if noisy else None
        config = ProtocolConfig(
            d=d, input_state=phi, convention=convention, noise_a1=noise, correction=scheme
        )
        records = run_protocol(config).records
        assert {r.receiver_state.ndim for r in records} == ({2} if noisy else {1})
        assert_records_match(records, branch_form_run(config), tol=1e-14)

        # a table is applied as dense products to the gathered states, so a
        # state read from a record carries the bits the reference gives it
        table_config = replace(config, correction=CorrectionTable(d=d, entries=dense))
        table_records = run_protocol(table_config).records
        kets, _ = protocol._sender_noise(d, phi, noise, None)
        uncorrected = gathered_records(d, bell_state(d, (0, 0)), kets, convention)
        for got, want in zip(table_records, dense_scoring(table_config, uncorrected), strict=True):
            assert (got.i, got.m, got.probability) == (want.i, want.m, want.probability)
            assert abs(got.fidelity - want.fidelity) <= 1e-14
            assert_same_floats(got.receiver_state, want.receiver_state)
        assert_records_match(table_records, records, tol=1e-14)


class TestBranchEngineMemory:
    """tracemalloc peaks of the d = 8 Weyl fan-out at p = 0.5: 64 branches in, 4096 out.

    The output kets alone are 4096 x 512 amplitudes, 32 MiB.
    """

    d = 8

    def a1_branches(self):
        d = self.d
        joint = compose_initial(random_pure_state(d, d), bell_state(d, (0, 0)))
        return apply_channel_to_branches(crosstalk_channel(d, 0.5, WEYL), [(1.0, joint)], (d, d, d), 0)

    def test_a2_fanout_peak(self):
        d, branches = self.d, self.a1_branches()
        channel = crosstalk_channel(d, 0.5, WEYL)
        tracemalloc.start()
        try:
            out = apply_channel_to_branches(channel, branches, (d, d, d), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(branches), len(out)) == (64, 4096)
        assert peak < 40 * 2**20
