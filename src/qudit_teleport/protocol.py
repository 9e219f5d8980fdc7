"""End-to-end qudit teleportation: composition, measurement, correction.

The pipeline composes the input ket with a maximally entangled pair, applies
optional Kraus channels to the sender's two qudits, enumerates all d^2
detection outcomes exactly (no sampling), applies an outcome-conditioned
correction unitary to the receiver state and scores each outcome by
fidelity against the input.

Correction schemes
------------------
``paper-weyl``     outcome (i, m) is undone with the Weyl operator U_(i,m)
                   alone. Exact for d = 2; for d >= 3 the crystal stage also
                   reflects the level index, which no phased cyclic shift can
                   invert, so this scheme leaves a fidelity gap.
``derived-exact``  U_((-i) mod d, m) composed with the index inversion
                   INV: |l> -> |(-l) mod d>. Achieves unit fidelity on every
                   noiseless outcome; reduces to ``paper-weyl`` at d = 2
                   where INV is the identity.

For any other crystal wiring, ``derived-exact`` reads the correction off the
measurement row. With the (0, 0) pair, outcome (i, m) leaves the receiver
R^T phi / sqrt(d), where R is the row reshaped to d x d. Every row is a
monomial matrix with entries of modulus 1/sqrt(d), so sqrt(d) conj(R) undoes
it exactly.

Monomial form
-------------
Every measurement row and every correction is a monomial matrix: d nonzero
entries, one per row and column. Crystal group m fixes where the entries
sit and detector row i only sets phases, so every run-path monomial is kept
per group: (d, d) columns indexed by m, and phases indexed by (i, m). The
receiver map below is one; a named scheme's unitaries are the other
(``_scheme_table``, the Weyl ones by ``channels.weyl_monomial``): row k of
outcome (i, m)'s u holds phases[i, m, k] at column columns[m, k]. In the
general wiring the phases do not depend on m and are a broadcast view of
one (d, d) table. Both share one cache rule, 32 entries, and no run reads
``measurement.monomial_rows``. Scoring applies
u^dag to phi as a scatter, (u^dag phi)_(c_k) = conj(phases_k) phi_k; a state
read from a record is corrected by gathers, u psi = phases * psi[columns]
and u rho u^dag = (phases phases^dag) * rho[columns][:, columns]. Neither
builds a d x d unitary or runs a matrix product; only a ``CorrectionTable``,
whose entries may be any unitaries, is applied as dense products. No run
path builds a d^4 array: the dense rows are 268 MB at d = 64 and 4.3 GB at
d = 128.

Engine
------
``run_protocol`` takes one of two paths, both built on one sender state; an
absent channel is the identity. With Phi the Bell pair reshaped to d x d
(A2, B) and R_o outcome o's row reshaped to d x d (A1, A2), Kraus pair
(A_k, B_l) leaves the receiver the unnormalized ket V_(o,k,l) =
Phi^T B_l^T R_o^T a_k, a_k = A_k phi, and rho = sum a_k a_k^dag runs over
the sender kets whose weight |a_k|^2 / d^2 is above the floor. No
d^3-amplitude branch ket is built.

N_o = Phi^T R_o^T is a monomial matrix, every entry of modulus 1/d, and
both paths read it from one map (``_receiver_map``). Each crystal group m
sends one input pair to each output path, and the QFT over the output paths
only sets phases, so the d detectors of a group share one gather:
N_(i,m) = Delta_(i,m) N_m, with N_m carrying the Bell pair's phases and the
diagonal Delta_(i,m) the QFT row's. The map holds every N_m, each pair's
output path and the QFT, all (d, d), cached per (d, Bell label, wiring); a
chunk of outcomes gathers its own Delta, so no run builds a table of its
d^2 outcomes' N_o and no cache holds d^3 phases.

Both paths score every outcome by one formula: with u_o the correction and
sigma_o the corrected state, p_o F_o^2 = p_o <phi|sigma_o|phi> is a quadratic
form of rho, so no outcome state is built. Each path hands p_o, p_o F_o^2
and the outcomes it leaves unscored to ``_scored_records``, which returns
the average, summed in outcome order, and the minimum, and builds no
record: ``ProtocolResult.records`` is built from those arrays on its first
read, and a record builds its state on its own first read. A
``CorrectionTable`` is copied when the run starts, so a later edit to it
changes no record.

When A2 sees the identity (``_sender_state_scores``), V_(o,k) = N_o a_k:
pair k weighs |a_k|^2 / d^2 in every outcome, and the mixture is
N_o rho N_o^dag. So p_o = sum_B |N_o[B, c]|^2 n_c, n the sender kets'
weight per level, and p_o F_o^2 = z_o^dag rho z_o with
z_o = N_o^dag u_o^dag phi, two scatters of phi. Outcomes o = i d + m go in
chunks of detector rows i, each spanning every group, so a chunk's N_o are
its rows of Delta times every N_m, its corrections a slice of the scheme's
phases, and it costs one (n, d) @ (d, d) product. With at most d sender kets
the form is summed over them, p_o F_o^2 = sum_k |a_k^dag z_o|^2, whose
terms are never negative, so a small F carries no cancellation between
entries of rho. A state read is u_o N_o rho N_o^dag u_o^dag / p_o, a gather
of rho (``_gathered_state``); it is a ket when one sender ket survives.

A dense A2 channel moves to the receiver (``_dense_scores``; teleportation
as a channel on the receiver, Bowen and Bose, PRL 87, 267901, 2001). Since
sqrt(d) Phi^T is unitary, Phi^T B_l^T = C_l Phi^T with
C_l = d Phi^T B_l^T conj(Phi), so the unnormalized state is
sum_l C_l X_o C_l^dag with X_o = N_o rho N_o^dag, and:

* p_o = tr(G X_o), G = sum_l C_l^dag C_l;
* p_o F_o^2 = sum_l v_lo^dag X_o v_lo, v_lo = C_l^dag u_o^dag phi.

The path gathers X_m = N_m rho N_m^dag once per group, d^3 entries in all,
and scores the group's d detectors from it: p_(i,m) =
tr(G Delta X_m Delta^dag) and, with y_lo = Delta^dag v_lo,
p_o F_o^2 = sum_l y_lo^dag X_m y_lo, summed as
sum_(k,l) |y_lo^dag N_m a_k|^2 over at most d sender kets. A chunk of groups
costs one w @ c_adj product for every v_lo and one batched product against
N_m a_k or X_m. A state read is u_o (sum_l C_l X_o C_l^dag / p_o) u_o^dag
(``_dense_state``). It is a ket when one sender ket survives and the stack
has one operator. p_o is a signed sum here, so an impossible outcome rounds
to about 1e-17, not to zero: an outcome within the sum's rounding bound,
(2 d + K + L d) eps tr(G) tr(rho) / d^2 for K sender kets and L operators,
of zero stays unscored.

Outcomes are processed in chunks, detector rows on the sender path and
crystal groups on the dense path, and OUTCOME_CHUNK_BYTES bounds the arrays
a chunk holds at once; only a single row, or group, whose own arrays exceed
it goes over. The probabilities must sum to the weight the run carries
(||phi||^2 for the input phi) within 1e-10. An F_o^2 below zero beyond
round-off is a broken invariant, not a bad input, and raises RuntimeError.

Weyl fold
---------
A label-form A2 channel folds onto A1 before the records are built, and A2 then
sees the identity: a Weyl error b on A2 acts as the error L2 b on A1, with
L2 (i, m) = (-i, m) mod d, so the pair (a, b) acts as the label
e = a + L2 b and the d^4 pairs collapse to at most d^2 labels with weights
Q(e) (``_fold_weyl_weights``). Derivation, up to phases that depend only on
(o, a, b) and cancel in every record:

* on the Bell pair, (U_b (x) I)|Phi> = (I (x) U_b^T)|Phi>, so the A2
  error reaches the receiver as V = Phi^T U_b^T x;
* U_(i,m)^T = w^(-i m) U_(i,-m);
* in both wirings R_o^T sends A1 level a to A2 level -a - c_m with the
  phase w^(i out(a)) / sqrt(d), where the output path is out(a) = +-a + s_m:
  up to a phase it is a shift times INV times a clock. Weyl operators
  commute up to phases and INV U_(i,m) INV = U_(-i,-m), so R_o^T U_(i,m)
  is proportional to U_(-i,-m) R_o^T;
* hence U_b^T R_o^T, proportional to U_(b_i,-b_m) R_o^T, is proportional
  to R_o^T U_(-b_i, b_m) = R_o^T U_(L2 b).

With the A1 channel in label form too (or absent), the two tables fold into
one, and a label's A1 ket sqrt(Q(e)) U_e phi is a gather from phi, so the
run builds no d x d operator. Beside a dense A1 channel the A2 labels fold
pair by pair, into the kets sqrt(w_a2(b)) U_(L2 b) A_k phi. Beside a dense
A2 channel, such as a random Kraus set, a label-form A1 table is the fold of
that table alone, so its kets are gathers too.

``enumerate_outcomes`` is the reference: it takes weighted (A1, A2, B)
branch kets, such as ``channels.apply_channel_to_branches`` fans out, and
contracts them with the dense measurement rows. No run path calls it; the
tests compare both paths against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from .channels import (
    INDEPENDENT,
    KrausChannel,
    apply_channel_to_branches,  # not called here; perfbench's tracer wraps it under this name
    weyl,
    weyl_monomial,
)
from .linalg import ROUNDOFF_TOL, WEIGHT_FLOOR
from .linalg import pure_fidelity  # not called here; perfbench's tracer wraps it under this name
from .measurement import GENERAL, crystal_wiring, measurement_rows, qft
from .states import bell_state, is_normalized

__all__ = [
    "PAPER_WEYL",
    "DERIVED_EXACT",
    "CorrectionTable",
    "OutcomeRecord",
    "ProtocolConfig",
    "ProtocolResult",
    "inversion",
    "compose_initial",
    "enumerate_outcomes",
    "derived_exact_correction",
    "run_protocol",
]

PAPER_WEYL = "paper-weyl"
DERIVED_EXACT = "derived-exact"

# Bounds the arrays either run path holds at once for a chunk of outcomes; a
# chunk holds at least one detector row, or one crystal group on the dense
# path, whose own arrays alone may exceed it. Larger chunks save little time: a
# d = 32 dense-a2 run with 16 + 16 operators holds 1.5 MiB at two groups per
# chunk and 4.9 MiB at ten, and takes 8.9 and 7.9 ms (2 vCPU).
OUTCOME_CHUNK_BYTES = 2**20


def inversion(d: int) -> np.ndarray:
    """Index inversion permutation |l> -> |(-l) mod d>; identity for d <= 2."""
    P = np.zeros((d, d), dtype=complex)
    for b in range(d):
        P[(-b) % d, b] = 1.0
    return P


def compose_initial(input_state: np.ndarray, bell: np.ndarray) -> np.ndarray:
    """Joint ket input (x) bell over subsystems (A1, A2, B)."""
    input_state = np.asarray(input_state, dtype=complex)
    bell = np.asarray(bell, dtype=complex)
    d = input_state.size
    if bell.size != d * d:
        raise ValueError(
            f"bell state has dimension {bell.size}, expected {d * d} for input dimension {d}"
        )
    # the outer product's entries are the kron's, bit for bit
    return np.outer(input_state, bell).reshape(-1)


@dataclass(frozen=True)
class OutcomeRecord:
    """One detection branch: detector i, crystal group m and receiver state.

    ``receiver_state`` is a ket when a single noise branch survives and a
    density matrix otherwise. ``fidelity`` is None until a correction has
    been applied, and then ``receiver_state`` is the corrected state.
    ``run_protocol`` scores its records without their states: each builds
    ``receiver_state`` on its first read, from the run's sender state.
    """

    i: int
    m: int
    probability: float
    receiver_state: np.ndarray
    fidelity: float | None = None


def _built_on_read(cls, build, **fields):
    """A ``_LazyRecord`` or ``_LazyResult`` with ``fields`` set and its lazy field unset.

    Skips the dataclass constructor, so the lazy field is ``build()``, called
    on its first read; that constructor, which ``dataclasses.replace`` calls,
    makes an instance that holds the field.
    """
    instance = cls.__new__(cls)
    for name, value in {**fields, "_build": build}.items():
        # OutcomeRecord is frozen
        object.__setattr__(instance, name, value)
    return instance


class _LazyRecord(OutcomeRecord):
    """A scored record whose ``receiver_state`` is ``_build()``, called on first read."""

    @cached_property
    def receiver_state(self) -> np.ndarray:
        return self._build()


def enumerate_outcomes(
    d: int,
    branches: Sequence[tuple[float, np.ndarray]],
    convention: str = GENERAL,
) -> list[OutcomeRecord]:
    """Exact outcome table over all d^2 (detector, crystal) pairs.

    Branches are (weight, ket) pairs over the (A1, A2, B) system, each ket
    contracted with every dense measurement row. Probabilities sum to the
    weight the branches carry, sum_b w_b ||psi_b||^2, within 1e-10.
    """
    kets = [np.asarray(psi, dtype=complex) for _, psi in branches]
    if not kets:
        raise ValueError("no input branches")
    for psi in kets:
        if psi.shape != (d**3,):
            raise ValueError(f"branch state has dimension {psi.shape}, subsystems give {d**3}")
    weights = np.array([w for w, _ in branches], dtype=float)
    stack = np.stack(kets)
    # receivers[o, b] = row_o . psi_b reshaped to (A1A2, B)
    rows = measurement_rows(d, convention)
    receivers = np.tensordot(rows, stack.reshape(-1, d * d, d), axes=([1], [1]))
    norms2 = np.einsum("obj,obj->ob", receivers, receivers.conj()).real
    probs = norms2 @ weights
    carried = float(weights @ np.einsum("bx,bx->b", stack, stack.conj()).real)
    if abs(float(probs.sum()) - carried) > ROUNDOFF_TOL:
        raise RuntimeError("outcome probabilities do not sum to the branch weight")

    records = []
    for o in range(d * d):
        alive = np.flatnonzero(weights * norms2[o] > WEIGHT_FLOOR)
        if alive.size == 0:
            state = np.zeros(d, dtype=complex)
        elif alive.size == 1:
            state = receivers[o, alive[0]] / np.sqrt(norms2[o, alive[0]])
        else:
            # raw receivers carry the collapse norms, so weighting by the
            # plain branch weights yields a unit-trace mixture after /p
            vecs = receivers[o, alive]
            state = np.einsum("b,bi,bj->ij", weights[alive] / probs[o], vecs, vecs.conj())
        i, m = divmod(o, d)
        records.append(OutcomeRecord(i=i, m=m, probability=float(probs[o]), receiver_state=state))
    return records


def _fold_weyl_weights(d: int, w_a1: np.ndarray | None, w_a2: np.ndarray | None) -> np.ndarray:
    """The sender's two Weyl label tables folded into one table on A1.

    Q(e) = sum w_a1(a) w_a2(b) over all a + L2 b = e (mod d), with
    L2 (i, m) = (-i, m): e = (a_i - b_i, a_m + b_m). An absent table is the
    identity label. Q is built by index arithmetic: for each nonzero row b_i
    of w_a2, w_a1's rows shifted by b_i times a circulant of w_a2's row b_i,
    all in one batched product summed over the rows in order. So each entry
    is a sum of products of nonnegative weights: none is negative, and an
    entry is nonzero only where some product is.
    """
    identity = np.zeros((d, d))
    identity[0, 0] = 1.0
    w1 = identity if w_a1 is None else w_a1
    w2 = identity if w_a2 is None else w_a2
    k = np.arange(d)
    rows = np.flatnonzero(w2.any(axis=1))
    # q[e_i, e_m] = sum over b_i and a_m of w1[e_i + b_i, a_m] w2[b_i, e_m - a_m]
    shifted = w1[(k + rows[:, None]) % d]
    circulants = w2[rows[:, None, None], (k - k[:, None]) % d]
    return (shifted @ circulants).sum(axis=0)


@lru_cache(maxsize=1)
def _folded_sender(d: int, w_a1: bytes | None, w_a2: bytes | None) -> tuple[np.ndarray, np.ndarray]:
    """The folded sender channel as monomial operators sqrt(Q(e)) U_e, e in supp Q.

    Keyed on the two tables' bytes (None for an absent channel). Operator j
    holds coefficients[j, k] at row k, column columns[j, k], since
    (U_(i,m) phi)_k = w^(k i) phi_(k+m); the labels are in row-major order.
    Both arrays have shape (|supp Q|, d) and are returned read-only. One
    entry is kept: consecutive runs of one sweep point share it, and a sweep
    that moves on never returns to a point it left.
    """
    tables = (None if w is None else np.frombuffer(w).reshape(d, d) for w in (w_a1, w_a2))
    q = _fold_weyl_weights(d, *tables)
    i, m = q.nonzero()
    columns, phases = weyl_monomial(d, i, m)
    coefficients = np.sqrt(q[i, m])[:, None] * phases
    columns.setflags(write=False)
    coefficients.setflags(write=False)
    return columns, coefficients


def _sender_noise(
    d: int, phi: np.ndarray, noise_a1: KrausChannel | None, noise_a2: KrausChannel | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The A1 kets and the dense A2 operator stack for one run.

    Every label-form table folds onto A1 (an absent channel is the identity
    label), so the kets are sqrt(Q(e)) U_e phi, one per label, a gather
    from phi; beside a dense A1 channel they are sqrt(w_a2(b)) U_(L2 b) A_k
    phi, one per Kraus pair. A dense A2 channel does not fold: its (L, d, d)
    stack is returned beside the kets, and None when A2 sees the identity.
    """
    dense_a1, dense_a2 = (ch is not None and ch.weyl_weights is None for ch in (noise_a1, noise_a2))
    tables = (None if dense_a1 else noise_a1, None if dense_a2 else noise_a2)
    keys = (None if ch is None else ch.weyl_weights.tobytes() for ch in tables)
    columns, coefficients = _folded_sender(d, *keys)
    base = noise_a1.operator_stack @ phi if dense_a1 else phi[None]
    kets = (coefficients * base[:, columns]).reshape(-1, d)
    return kets, noise_a2.operator_stack if dense_a2 else None


@lru_cache(maxsize=32)
def _receiver_map(d: int, bell_label: tuple[int, int], convention: str) -> tuple[np.ndarray, ...]:
    """The Bell pair and every crystal group's receiver map, as (pair, cols, coefs, paths, q).

    ``pair`` is the Bell pair as d x d (A2, B). Group m's pair (path, a, b)
    sends A1 level a to A2 level b, which the Bell pair sends to receiver
    level B, and detector i adds the phase QFT[i, path]. So N_(i,m) =
    Delta_(i,m) N_m, with N_m[B, cols[m, B]] = coefs[m, B] the Bell pair's
    phase and Delta_(i,m)[B] = q[i, paths[m, B]] the QFT row's, ``q`` the
    QFT: the floats ``monomial_rows`` holds. All five are (d, d), and a
    chunk of outcomes gathers its own rows of Delta. Keyed on the label, so
    a run builds no Bell pair; returned read-only.
    """
    pair = bell_state(d, bell_label).reshape(d, d)
    path, a, b = np.moveaxis(crystal_wiring(d, convention), -1, 0)
    out = np.abs(pair).argmax(axis=1)[b]
    m = np.arange(d)[:, None]
    cols, paths, coefs = np.empty_like(a), np.empty_like(a), np.empty(a.shape, dtype=complex)
    cols[m, out] = a
    paths[m, out] = path
    coefs[m, out] = pair[b, out]
    tables = (pair, cols, coefs, paths, qft(d))
    for table in tables:
        table.setflags(write=False)
    return tables


def _receiver(receivers: tuple[np.ndarray, ...], o: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome o's N_o as (columns, coefficients), N_o[B, columns[B]] = coefficients[B]."""
    _, cols, coefs, paths, q = receivers
    i, m = divmod(o, len(cols))
    return cols[m], q[i, paths[m]] * coefs[m]


def _sender_state(d: int, kets_a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sender kets above the weight floor and rho = sum a_k a_k^dag over them.

    Pair k weighs |a_k|^2 / d^2 in every outcome, so the floor drops whole
    sender kets, on both paths.
    """
    weights = (kets_a1.real**2 + kets_a1.imag**2).sum(axis=1)
    keep = weights / d**2 > WEIGHT_FLOOR
    # every Weyl run at p > 0 keeps them all: no copy then
    alive = kets_a1 if keep.all() else kets_a1[keep]
    return alive, alive.T @ alive.conj()


def _check_probability_sum(total: float, phi: np.ndarray) -> None:
    # complete channels keep the weight the input carries, ||phi||^2
    if abs(total - float(np.vdot(phi, phi).real)) > ROUNDOFF_TOL:
        raise RuntimeError("outcome probabilities do not sum to the branch weight")


def _sender_state_scores(
    d: int,
    phi: np.ndarray,
    receivers: tuple[np.ndarray, ...],
    kets_a1: np.ndarray,
    correction: np.ndarray | tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, partial]:
    """Every outcome's p_o and p_o F_o^2 when A2 sees the identity, with no outcome state built.

    Outcome o sends the A1 ket a_k to the receiver as N_o a_k, so
    p_o = sum_B |N_o[B, c_B]|^2 n[c_B] with n = sum_k |a_k|^2 per level, and
    the corrected mixture is u_o N_o rho N_o^dag u_o^dag / p_o, so
    p_o F_o^2 = z_o^dag rho z_o with z_o = N_o^dag u_o^dag phi. With at most
    d sender kets it is summed over them, sum_k |a_k^dag z_o|^2, whose terms
    are never negative: a small F then carries only the rounding of the
    overlaps, where the entries of rho can cancel. Outcomes o = i d + m go
    in chunks of detector rows i: every row spans the d crystal groups, so a
    chunk's N_(i,m) = Delta_(i,m) N_m is its rows of Delta, gathered from
    the QFT, times every group's N_m, and its corrections a slice of the
    table. Returns the arguments of ``_scored_records`` after ``correction``.
    """
    _, cols, coefs, paths, q = receivers
    n = (kets_a1.real**2 + kets_a1.imag**2).sum(axis=0)
    alive, rho = _sender_state(d, kets_a1)

    probs, weighted = np.empty((d, d)), np.empty(d * d)
    kets_adj = alive.conj().T if len(alive) <= d else None
    # a row's arrays live at once are at most three (d, d) ones, or a
    # table's (d, d, d) adjoints and u^dag phi
    per_row = d * d * (d + 1 if isinstance(correction, np.ndarray) else 3)
    rows = max(1, OUTCOME_CHUNK_BYTES // (per_row * np.dtype(complex).itemsize))
    for start in range(0, d, rows):
        span, outcomes = slice(start, start + rows), slice(start * d, (start + rows) * d)
        w = _apply_unitary(_outcome_unitary(correction, span, slice(None)), phi, adjoint=True)
        # the chunk's coefficients of every N_o, Delta_o k_m
        k = q[span].take(paths, axis=1)
        k *= coefs
        probs[span] = (np.abs(k) ** 2 * n[cols]).sum(axis=-1)
        # z = N^dag w scatters conj(k) w to the columns
        np.conjugate(k, out=k)
        k *= w
        z = np.empty_like(k)
        np.put_along_axis(z, cols[None], k, axis=-1)
        z = z.reshape(-1, d)
        # z^dag rho, or the overlaps, then join z alone
        del w, k
        if kets_adj is None:
            weighted[outcomes] = np.einsum("oj,oj->o", z.conj() @ rho, z).real
        else:
            overlaps = z @ kets_adj
            weighted[outcomes] = (overlaps.real**2 + overlaps.imag**2).sum(axis=1)
    probs = probs.reshape(-1)
    _check_probability_sum(float(probs.sum()), phi)
    sender = alive[0] if len(alive) == 1 else rho
    return probs, weighted, probs > WEIGHT_FLOOR, partial(_gathered_state, sender, receivers)


def _dense_scores(
    d: int,
    phi: np.ndarray,
    receivers: tuple[np.ndarray, ...],
    kets_a1: np.ndarray,
    ops_a2: np.ndarray,
    correction: np.ndarray | tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, partial]:
    """Every outcome's p_o and p_o F_o^2 under a dense A2 channel, with no outcome state built.

    ``correction`` is a table's (d^2, d, d) unitaries or a named scheme's
    (columns, phases) table. Pair (k, l) reaches the receiver as C_l N_o a_k, so with
    X_o = N_o rho N_o^dag, p_o = tr(G X_o) and p_o F_o^2 = sum_l v_lo^dag X_o v_lo,
    v_lo = C_l^dag u_o^dag phi. Outcomes go one crystal group m at a time:
    N_(i,m) = Delta N_m (``_receiver_map``), so X_m = N_m rho N_m^dag is
    gathered from rho once per group and, with y_lo = Delta^dag v_lo,

    * p_(i,m) = tr(G Delta X_m Delta^dag), one (d, d) @ (d, d) product for
      the group's d detectors and a row-wise dot;
    * p_o F_o^2 = sum_l y_lo^dag X_m y_lo, or, with at most d sender kets,
      sum_(k,l) |y_lo^dag N_m a_k|^2, whose terms are never negative.

    A chunk of groups gathers its own Delta from the QFT. Returns the
    arguments of ``_scored_records`` after ``correction``.
    """
    pair, cols, coefs, paths, q = receivers
    c_stack = d * (pair.T @ ops_a2.transpose(0, 2, 1) @ pair.conj())
    gram = (c_stack.conj().transpose(0, 2, 1) @ c_stack).sum(axis=0)
    # v for every l at once is w @ c_adj, laid out (l, j)
    c_adj = c_stack.conj().transpose(1, 0, 2).reshape(d, -1)
    n_ops = len(c_stack)
    alive, rho = _sender_state(d, kets_a1)
    # the sender kets as columns, when the form is summed over them
    kets = alive.T if len(alive) <= d else None

    table = isinstance(correction, np.ndarray)
    probs, weighted = np.empty((d, d)), np.empty((d, d))
    # a group's largest arrays, live together, are y, (d, L, d), and y X_m^T
    # or its overlaps, (d, L, min(K, d)); or a table's (d, d, d) adjoints
    n_overlaps = d if kets is None else len(alive)
    per_group = d * max(n_ops * (d + n_overlaps), d * d if table else 0)
    chunk = max(1, OUTCOME_CHUNK_BYTES // (per_group * np.dtype(complex).itemsize))
    for start in range(0, d, chunk):
        ms = slice(start, start + chunk)
        c, k = cols[ms], coefs[ms]
        g = len(c)
        # outcome (i, m) is row i of group m: the chunk's Delta is read as [m, i]
        delta = q.take(paths[ms], axis=1).swapaxes(0, 1)
        x = rho[c[:, :, None], c[:, None, :]]
        x *= k[:, :, None]
        x *= k[:, None, :].conj()
        # p = sum_(B, B') Delta_B X_m[B, B'] G[B', B] conj(Delta_B')
        probs[ms] = _real_dot(delta, delta @ (x * gram.T))
        w = _apply_unitary(_outcome_unitary(correction, slice(None), ms), phi, adjoint=True)
        # every v_lo in one product, read as [m, i], then y_lo = Delta^dag v_lo in place
        y = (w.swapaxes(0, 1).reshape(-1, d) @ c_adj).reshape(g, d, n_ops, d)
        y *= delta[:, :, None, :].conj()
        y = y.reshape(g, d * n_ops, d)
        if kets is None:
            s = y @ x.transpose(0, 2, 1)
        else:
            # the conjugates of y^dag N_m a_k, summed as |.|^2
            y = s = y @ (k[:, :, None] * kets[c]).conj()
        weighted[ms] = _real_dot(y.reshape(g, d, -1), s.reshape(g, d, -1))
        # the next chunk's arrays then replace this one's, not join them
        del delta, x, w, y, s
    probs, weighted = probs.T.reshape(-1), weighted.T.reshape(-1)
    # the weights |V|^2 this sum stands for are never negative
    np.maximum(probs, 0.0, out=probs)
    _check_probability_sum(float(probs.sum()), phi)

    # p_o sums over B' the products conj(Delta_B') (Delta Y)_B', each a sum
    # over B of Delta_B Y[B, B'], Y[B, B'] = X_m[B, B'] G[B', B], over
    # entries of rho and G that are sums of K and L d products. G and X_o
    # are positive, so the sum of the moduli of the d^2 terms
    # Delta_B Y[B, B'] conj(Delta_B') is at most tr(G) tr(X_o) =
    # tr(G) tr(rho) / d^2, as N_o^dag N_o = I / d^2, and rounding moves p_o
    # by at most (2 d + K + L d) eps times that; eps, twice the unit
    # round-off, also covers the phases and gathers. An outcome within it of
    # zero carries no state the arithmetic resolves: it stays unscored.
    terms = 2 * d + len(alive) + n_ops * d
    roundoff = terms * np.finfo(float).eps * np.trace(gram).real * np.trace(rho).real / d**2
    scored = probs > max(WEIGHT_FLOOR, roundoff)
    # one surviving sender ket through a one-operator stack leaves a ket
    sender = alive[0] if len(alive) == 1 and n_ops == 1 else rho
    return probs, weighted, scored, partial(_dense_state, c_stack, sender, receivers)


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_j conj(a_j) b_j over the last axis, with no complex product formed."""
    return np.einsum("...j,...j->...", a.view(float), b.view(float))


def _gathered_state(
    sender: np.ndarray,
    receivers: tuple[np.ndarray, ...],
    o: int,
    probability: float,
    u_o: np.ndarray | tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """One sender-state outcome's corrected state u_o (N_o rho N_o^dag / p_o) u_o^dag.

    ``sender`` is rho, or the one surviving sender ket a, which gives the
    ket u_o N_o a / |N_o a|: p_o also counts the sender kets under the
    floor, so a ket takes its own norm.
    """
    c, k = _receiver(receivers, o)
    if sender.ndim == 1:
        s = k * sender[c]
        s /= np.sqrt((s.real**2 + s.imag**2).sum())
    else:
        s = sender[c[:, None], c] * k[:, None] * k.conj()
        s /= probability
    return _apply_unitary(u_o, s)


def _dense_state(
    c_stack: np.ndarray,
    sender: np.ndarray,
    receivers: tuple[np.ndarray, ...],
    o: int,
    probability: float,
    u_o: np.ndarray | tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """One dense-A2 outcome's corrected state u_o (sum_l C_l X_o C_l^dag / p_o) u_o^dag.

    X_o = N_o rho N_o^dag, N_o read from its crystal group's map. ``sender``
    is rho, or the one surviving sender ket a beside a one-operator stack,
    which gives the ket u_o C N_o a / sqrt(p_o).
    """
    s = _apply_monomial(*_receiver(receivers, o), sender)
    if s.ndim == 1:
        s = c_stack[0] @ s / np.sqrt(probability)
    else:
        s = (c_stack @ s @ c_stack.conj().transpose(0, 2, 1)).sum(axis=0) / probability
    return _apply_unitary(u_o, s)


def _scored_records(
    d: int,
    correction: np.ndarray | tuple[np.ndarray, np.ndarray],
    probs: np.ndarray,
    weighted: np.ndarray,
    scored: np.ndarray,
    state: partial,
) -> tuple[partial, float, float]:
    """The records' builder, the average and the minimum F, from every p_o and p_o F_o^2.

    No record is built here: ``ProtocolResult.records`` calls the builder on
    its first read. An outcome outside ``scored`` holds a zero ket and no
    fidelity; a scored record builds its state on first read, as
    state(o, p_o, u_o).
    """
    # F_o^2 = <phi|sigma_o|phi>, the overlap pure_fidelity takes
    fid2 = np.divide(weighted, probs, out=np.zeros(d * d), where=scored)
    if fid2.min() < -ROUNDOFF_TOL:
        # no input makes this overlap negative: the arithmetic above broke
        raise RuntimeError(f"<phi|sigma|phi> = {fid2.min():.3e} is negative beyond round-off")
    fids = np.sqrt(np.clip(fid2, 0.0, 1.0))
    # summed in outcome order, one term at a time; an unscored term is +0.0
    avg = float(np.cumsum(probs * fids)[-1])
    min_fid = float(fids.min(initial=1.0, where=scored))
    return partial(_records, d, correction, probs, fids, scored, state), avg, min_fid


def _records(
    d: int,
    correction: np.ndarray | tuple[np.ndarray, np.ndarray],
    probs: np.ndarray,
    fids: np.ndarray,
    scored: np.ndarray,
    state: partial,
) -> list[OutcomeRecord]:
    """Every outcome's record, in outcome order; a scored one builds its state on first read."""
    # one block of the final size: the blocks that appends free on the way
    # fragment the heap of a caller that keeps arrays between reads
    records = [None] * (d * d)
    for o, (p, f, keep) in enumerate(zip(probs.tolist(), fids.tolist(), scored.tolist())):
        i, m = divmod(o, d)
        if keep:
            build = partial(state, o, p, _outcome_unitary(correction, i, m))
            records[o] = _built_on_read(_LazyRecord, build, i=i, m=m, probability=p, fidelity=f)
        else:
            records[o] = OutcomeRecord(i, m, p, np.zeros(d, dtype=complex))
    return records


def derived_exact_correction(d: int, i: int, m: int, convention: str = GENERAL) -> np.ndarray:
    """Unit-fidelity correction unitary for one noiseless outcome.

    For the general convention this is U_((-i) mod d, m) INV in closed form.
    For other conventions it is sqrt(d) conj(R), R the outcome's measurement
    row reshaped to d x d, which inverts the R^T / sqrt(d) the outcome
    applies to the receiver. Each call returns a fresh array.
    """
    if convention == GENERAL:
        return weyl(d, (-i) % d, m) @ inversion(d)
    return np.sqrt(d) * measurement_rows(d, convention)[i * d + m].reshape(d, d).conj()


@dataclass
class CorrectionTable:
    """Explicit outcome-to-unitary map over all d^2 outcomes; every entry must be unitary."""

    d: int
    entries: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        for i, m in self.entries:
            if not (0 <= i < self.d and 0 <= m < self.d):
                raise ValueError(f"outcome ({i}, {m}) out of range for dimension {self.d}")
        missing = [(i, m) for i in range(self.d) for m in range(self.d) if (i, m) not in self.entries]
        if missing:
            raise ValueError("no correction for outcome (i={}, m={})".format(*missing[0]))
        self.entries = {key: np.asarray(u, dtype=complex) for key, u in self.entries.items()}
        for (i, m), u in self.entries.items():
            if u.shape != (self.d, self.d):
                raise ValueError(f"correction for ({i}, {m}) has shape {u.shape}")
            # checked before the product, which would warn on inf * 0
            if not np.isfinite(u).all():
                raise ValueError(f"correction for ({i}, {m}) is not unitary: non-finite entry")
            if not np.max(np.abs(u @ u.conj().T - np.eye(self.d))) <= ROUNDOFF_TOL:
                raise ValueError(
                    f"correction for ({i}, {m}) is not unitary within {ROUNDOFF_TOL:g}"
                )


@dataclass
class ProtocolConfig:
    """Everything one teleportation run needs.

    ``noise_a1``/``noise_a2`` act on the sender's input qudit and entangled
    qudit respectively; the receiver's qudit is never touched. They compose
    independently: a1 then a2, the all-pairwise-products channel.
    ``noise_mode`` names that composition and accepts only ``independent``;
    it stays so that callers that pass it keep working. An index-locked
    product ``A_i (x) B_i`` is complete only when it reduces to this same
    channel (see the README noise notes), so there is no second mode.
    """

    d: int
    input_state: np.ndarray
    bell_label: tuple[int, int] = (0, 0)
    convention: str = GENERAL
    noise_a1: KrausChannel | None = None
    noise_a2: KrausChannel | None = None
    noise_mode: str = INDEPENDENT
    correction: str | CorrectionTable = DERIVED_EXACT


@dataclass
class ProtocolResult:
    """One run's outcome records and its average and minimum fidelity.

    ``run_protocol`` scores a run without its records: ``records`` is built
    on its first read, and then kept.
    """

    config: ProtocolConfig
    records: list[OutcomeRecord]
    average_fidelity: float
    min_outcome_fidelity: float


class _LazyResult(ProtocolResult):
    """A result whose ``records`` is ``_build()``, called on first read.

    The read then drops ``_build`` and the score arrays it holds, which the
    records no longer need.
    """

    @cached_property
    def records(self) -> list[OutcomeRecord]:
        records = self._build()
        del self._build
        return records


@lru_cache(maxsize=32)
def _scheme_table(d: int, scheme: str, convention: str) -> tuple[np.ndarray, np.ndarray]:
    """A named scheme's d^2 monomial unitaries as (columns, phases), in crystal-group form.

    Outcome (i, m)'s unitary holds phases[i, m, k] at row k, column
    columns[m, k]: the columns are (d, d) and the phases (d, d, d). In the
    general wiring a phase does not depend on m, and the phases are a
    broadcast view of one (d, d) table. Returned read-only.
    """
    k = np.arange(d)
    if scheme == PAPER_WEYL:
        columns, phases = weyl_monomial(d, k, k)
    elif scheme == DERIVED_EXACT and convention == GENERAL:
        # U_((-i) mod d, m) INV = sum_k w^(k (-i mod d)) |k><-(k+m)|
        columns, phases = weyl_monomial(d, (-k) % d, k)
        columns = (-columns) % d
    elif scheme == DERIVED_EXACT:
        # sqrt(d) conj(R): R's entry QFT[i, path] at (a, b) becomes row a, column b
        path, a, b = np.moveaxis(crystal_wiring(d, convention), -1, 0)
        columns, paths = np.empty_like(b), np.empty_like(path)
        columns[k[:, None], a] = b
        paths[k[:, None], a] = path
        phases = (np.sqrt(d) * qft(d).conj())[:, paths]
    else:
        raise ValueError(f"unknown correction scheme {scheme!r}")
    columns.setflags(write=False)
    phases.setflags(write=False)
    # in the general wiring one (d, d) table, phases[i, k], serves every group m
    return columns, np.broadcast_to(phases.reshape(d, -1, d), (d, d, d))


def _apply_monomial(columns: np.ndarray, phases: np.ndarray, state: np.ndarray) -> np.ndarray:
    """u psi for a ket, u rho u^dag for a density matrix, u[k, columns[k]] = phases[k].

    Gathers in the order the dense products multiply: (u psi)_k =
    phases_k psi_(c_k) and (u rho u^dag)_(k,l) = phases_k rho_(c_k, c_l)
    conj(phases_l).
    """
    if state.ndim == 1:
        return phases * state[columns]
    return phases[:, None] * state[columns[:, None], columns] * phases.conj()


def _outcome_unitary(
    correction: np.ndarray | tuple[np.ndarray, np.ndarray], i: int | slice, m: int | slice
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Outcome (i, m)'s correction: a table's dense unitary, or a scheme's (columns, phases).

    A table comes as its (d, d, d, d) unitaries indexed [i, m], a scheme as
    ``_scheme_table`` gives it; slices of detector rows and crystal groups
    keep their axes.
    """
    if isinstance(correction, np.ndarray):
        return correction[i, m]
    columns, phases = correction
    return columns[m], phases[i, m]


def _apply_unitary(
    u: np.ndarray | tuple[np.ndarray, np.ndarray], state: np.ndarray, adjoint: bool = False
) -> np.ndarray:
    """u psi or u rho u^dag, u a dense matrix or a monomial's (columns, phases).

    With ``adjoint``, u^dag psi for a ket psi and a chunk of outcomes: a
    stack of dense u, or a scheme's (groups, d) columns and (rows, groups, d)
    phases.
    """
    if adjoint:
        if not isinstance(u, tuple):
            return u.conj().swapaxes(-1, -2) @ state
        # a monomial's u^dag sends psi_k, times conj(phases_k), to column c_k;
        # a group's columns serve every detector row
        columns, phases = u
        out = np.empty(phases.shape, dtype=complex)
        out[:, np.arange(len(columns))[:, None], columns] = phases.conj() * state
        return out
    if isinstance(u, tuple):
        return _apply_monomial(*u, state)
    return u @ state if state.ndim == 1 else u @ state @ u.conj().T


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Run one exact teleportation experiment.

    Deterministic: all Kraus pairs and all d^2 outcomes are enumerated, and
    each outcome is scored by the fidelity of its corrected receiver state
    against the input, without building that state; the average is
    probability-weighted.
    """
    d = config.d
    phi = np.asarray(config.input_state, dtype=complex)
    if phi.shape != (d,):
        raise ValueError(f"input state has shape {phi.shape}, expected ({d},)")
    if not is_normalized(phi, tol=ROUNDOFF_TOL):
        raise ValueError("input state is not normalized")

    if config.noise_mode != INDEPENDENT:
        raise ValueError(f"unknown noise mode {config.noise_mode!r}")
    if isinstance(config.correction, CorrectionTable) and config.correction.d != d:
        raise ValueError(
            f"correction table has dimension {config.correction.d}, the run has dimension {d}"
        )

    noise = (config.noise_a1, config.noise_a2)
    for target, channel in zip(("a1", "a2"), noise):
        if channel is not None and channel.d != d:
            raise ValueError(
                f"{target} channel has dimension {channel.d}, the run has dimension {d}"
            )

    receivers = _receiver_map(d, tuple(config.bell_label), config.convention)
    kets_a1, ops_a2 = _sender_noise(d, phi, *noise)
    correction = config.correction
    if isinstance(correction, CorrectionTable):
        # a copy, so a record that builds its state later ignores edits to the table
        entries = correction.entries
        correction = np.array([[entries[i, m] for m in range(d)] for i in range(d)])
    else:
        correction = _scheme_table(d, correction, config.convention)
    if ops_a2 is None:
        scores = _sender_state_scores(d, phi, receivers, kets_a1, correction)
    else:
        scores = _dense_scores(d, phi, receivers, kets_a1, ops_a2, correction)
    build, avg, min_fid = _scored_records(d, correction, *scores)
    return _built_on_read(
        _LazyResult, build, config=config, average_fidelity=avg, min_outcome_fidelity=min_fid
    )
