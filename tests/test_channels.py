import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_teleport.channels import (
    PHASE,
    SHIFT,
    VARIANTS,
    WEYL,
    CompletenessError,
    KrausChannel,
    apply_channel_to_branches,
    crosstalk_channel,
    weyl,
)
from qudit_teleport import channels, cli, protocol
from qudit_teleport.linalg import WEIGHT_FLOOR
from qudit_teleport.protocol import ProtocolConfig, run_protocol
from qudit_teleport.states import basis_state, uniform_state

from conftest import isometry_channel
from sweep_oracle import render as oracle_csv

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
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_kraus_count_without_building(self, d, variant):
        # the label table counts the operators the channel would build
        for p in (0.0, 0.1, 0.5, 1.0):
            ch = crosstalk_channel(d, p, variant)
            assert np.count_nonzero(ch.weyl_weights) == len(ch.operators)

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


def dense_crosstalk_operators(d, p, variant):
    """The Kraus operators crosstalk channels held before they took label form.

    The identity times sqrt(1 - n_listed p / n) first, then sqrt(p / n)
    U_(i,m) for each listed label; kept as the reference the lazily built
    operators must reproduce bit for bit.
    """
    if variant == SHIFT:
        labels, n = [(0, k) for k in range(1, d)], d
    elif variant == PHASE:
        labels, n = [(k, 0) for k in range(1, d)], d
    else:
        labels, n = [(i, m) for i in range(d) for m in range(d) if (i, m) != (0, 0)], d * d
    keep = 1.0 - len(labels) * p / n
    ops = [np.sqrt(keep) * np.eye(d, dtype=complex)]
    if p > 0.0:
        ops.extend(np.sqrt(p / n) * weyl(d, i, m) for i, m in labels)
    return ops


class TestLabelForm:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_lazy_operators_equal_dense_construction(self, d, variant):
        for p in (0.0, 0.1, 0.3, 0.7, 1.0):
            ch = crosstalk_channel(d, p, variant)
            assert "operators" not in vars(ch)
            want = dense_crosstalk_operators(d, p, variant)
            assert [op.tobytes() for op in ch.operators] == [op.tobytes() for op in want]
            assert ch.operator_stack.tobytes() == np.stack(want).tobytes()

    def test_operator_stack_and_weights_are_read_only(self):
        ch = crosstalk_channel(3, 0.5, WEYL)
        for array in (ch.operator_stack, identity(3).operator_stack, ch.weyl_weights):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 2.0

    def test_default_sweep_builds_no_operator(self, monkeypatch):
        def no_operator(*args):
            raise AssertionError("a run path built a Weyl operator")

        monkeypatch.setattr(channels, "weyl", no_operator)
        monkeypatch.setattr(protocol, "weyl", no_operator)
        result = cli.run_sweep(cli.SweepConfig())
        assert cli.emit(result) == oracle_csv()

    def test_d64_channel_allocates_no_operator(self):
        # its dense operators would be 4095 x 64 x 64 amplitudes, 268 MB
        tracemalloc.start()
        try:
            ch = crosstalk_channel(64, 0.5, WEYL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert ch.weyl_weights.shape == (64, 64)

    @pytest.mark.parametrize(
        "weights, error",
        [
            ([[0.5, 0.5], [0.5, -0.5]], "negative or non-finite"),
            ([[np.nan, 0.5], [0.5, 0.0]], "negative or non-finite"),
            ([[np.inf, 0.0], [0.0, 0.0]], "negative or non-finite"),
            ([[0.5, 0.5], [0.5, 0.0]], "sum to 1"),
            ([[1.0 + 1e-11, 0.0], [0.0, 0.0]], "sum to 1"),
        ],
        ids=["negative", "nan", "inf", "excess", "beyond-exact-tol"],
    )
    def test_bad_weights_rejected(self, weights, error):
        with pytest.raises(CompletenessError, match=error):
            KrausChannel(d=2, weyl_weights=np.array(weights))

    def test_one_form_required(self):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel(d=3, weyl_weights=np.eye(2) / 2)
        with pytest.raises(ValueError, match="either"):
            KrausChannel(d=2)
        with pytest.raises(ValueError, match="either"):
            KrausChannel(d=2, operators=(np.eye(2),), weyl_weights=np.diag([1.0, 0.0]))


class TestKrausChannelValidation:
    def test_incomplete_set_rejected(self):
        with pytest.raises(CompletenessError):
            KrausChannel(d=2, operators=(0.5 * np.eye(2, dtype=complex),))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel(d=2, operators=(np.eye(3, dtype=complex),))

    def test_nan_operator_rejected(self):
        with pytest.raises(CompletenessError):
            KrausChannel(d=2, operators=(np.array([[np.nan, 0], [0, 1]]),))

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_infinite_operator_rejected(self, value):
        # rejected before the completeness product, which would warn on inf * 0
        ops = (np.array([[value, 0], [0, 1]]), np.eye(2))
        with pytest.raises(CompletenessError, match="non-finite Kraus operator entry"):
            KrausChannel(d=2, operators=ops, label="bad")

    def test_edits_to_the_inputs_leave_the_channel(self):
        # the channel keeps a copy of the operators it checked
        d = 3
        ops = [op.copy() for op in isometry_channel(d, 2, np.random.default_rng(3)).operators]
        ch = KrausChannel(d=d, operators=ops)
        want = np.stack(ops)
        config = ProtocolConfig(d=d, input_state=uniform_state(d), noise_a1=ch, noise_a2=ch)
        before = run_protocol(config)
        for op in ops:
            op *= 0.5
        assert np.array_equal(np.stack(ch.operators), want)
        assert np.array_equal(ch.operator_stack, want)
        after = run_protocol(config)
        assert (after.average_fidelity, after.min_outcome_fidelity) == (
            before.average_fidelity, before.min_outcome_fidelity
        )
        assert [r.probability for r in after.records] == [r.probability for r in before.records]
        for op in ch.operators:
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 2.0

    def test_nested_list_operators_accepted(self):
        ch = KrausChannel(d=2, operators=([[0, 1], [1, 0]],))
        assert ch.operators[0].dtype == complex
        out = run_protocol(ProtocolConfig(d=2, input_state=uniform_state(2), noise_a1=ch))
        assert abs(out.average_fidelity - 1) < 1e-12


def projector_channel(d):
    """Measurement in the computational basis: Kraus operators |k><k|."""
    return KrausChannel(d=d, operators=tuple(np.diag(np.eye(d)[k]) + 0j for k in range(d)))


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
        with pytest.raises(ValueError, match=r"branch state has dimension \(3,\), subsystems give 4"):
            apply_channel_to_branches(identity(2), [(1.0, uniform_state(3))], (2, 2), 0)
        # a ket of one factor short of the joint system
        with pytest.raises(ValueError, match=r"branch state has dimension \(4,\), subsystems give 8"):
            apply_channel_to_branches(identity(2), [(1.0, uniform_state(4))], (2, 2, 2), 0)

    def test_empty_branch_list(self):
        assert apply_channel_to_branches(crosstalk_channel(2, 0.5), [], (2, 2), 1) == []

    def test_bad_branch_rejected_before_any_product(self):
        class Unread:
            d = 2

            @property
            def operators(self):
                raise AssertionError("operators read before every branch was checked")

        branches = [(0.5, uniform_state(4)), (0.5, uniform_state(3))]
        with pytest.raises(ValueError, match=r"branch state has dimension \(3,\), subsystems give 4"):
            apply_channel_to_branches(Unread(), branches, (2, 2), 0)

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(2, 5),
        layout=st.sampled_from(["(d,)", "(d,d,d)"]),
        target=st.integers(0, 2),
        kind=st.sampled_from(["crosstalk", "isometry", "projector"]),
        variant=st.sampled_from(VARIANTS),
        p=st.floats(0.0, 1.0),
        n_ops=st.integers(1, 4),
        n_branches=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_operator_loop(
        self, d, layout, target, kind, variant, p, n_ops, n_branches, seed
    ):
        # the fan-out's mixture sum w psi psi^dag against the channel applied
        # to the branches' density matrix, sum_k (I (x) C_k (x) I) rho (...)^dag
        rng = np.random.default_rng(seed)
        dims = (d,) if layout == "(d,)" else (d, d, d)
        target = min(target, len(dims) - 1)
        if kind == "crosstalk":
            channel = crosstalk_channel(d, p, variant)
        elif kind == "isometry":
            channel = isometry_channel(d, n_ops, rng)
        else:
            channel = projector_channel(d)
        # zero some levels of the target factor, so projectors leave
        # zero-weight branches for the floor to drop
        pre = int(np.prod(dims[:target], initial=1))
        levels = rng.random((n_branches, d)) < 0.6
        levels[np.arange(n_branches), rng.integers(0, d, n_branches)] = True
        branches = []
        for b in range(n_branches):
            psi = rng.standard_normal(d ** len(dims)) + 1j * rng.standard_normal(d ** len(dims))
            psi = psi.reshape(pre, d, -1) * levels[b][:, None]
            psi = psi.reshape(-1) / np.linalg.norm(psi)
            branches.append((float(rng.uniform(0.01, 1.0)), psi))

        got = apply_channel_to_branches(channel, branches, dims, target)
        if kind == "projector":
            # one branch per level a branch holds; the zero-weight rest are dropped
            assert len(got) == int(levels.sum())
        post = d ** len(dims) // (pre * d)
        rho = sum(w * np.outer(psi, psi.conj()) for w, psi in branches)
        lifted = [np.kron(np.kron(np.eye(pre), op), np.eye(post)) for op in channel.operators]
        want = sum(k @ rho @ k.conj().T for k in lifted)
        for w, ket in got:
            assert w > WEIGHT_FLOOR
            assert abs(np.linalg.norm(ket) - 1.0) <= 1e-12
        mixture = sum(w * np.outer(ket, ket.conj()) for w, ket in got)
        assert np.max(np.abs(mixture - want)) <= 1e-12
