"""End-to-end qudit teleportation: composition, measurement, correction.

The pipeline composes the input ket with a maximally entangled pair, applies
optional noise channels to the sender's two qudits in weighted-branch form,
enumerates all d^2 detection outcomes exactly (no sampling), applies an
outcome-conditioned correction unitary to the receiver state and scores each
outcome by fidelity against the input.

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

Engines
-------
Both engines produce the same uncorrected outcome records; ``run_protocol``
then corrects and scores them in one place.

branch        ``apply_channel_to_branches`` fans the joint ket out into one
              weighted (A1, A2, B) ket per Kraus pair, and
              ``enumerate_outcomes`` contracts every branch with every
              measurement row. Used when the run is noiseless or every
              configured channel holds only scaled Weyl operators
              c U_(i,m) (``KrausChannel.is_weyl``).
outcome map   any other channel. With Phi the Bell pair reshaped to d x d
              (A2, B) and R_o outcome o's row reshaped to d x d (A1, A2),
              Kraus pair (A_k, B_l) leaves the receiver the unnormalized
              ket V_(o,k,l) = Phi^T B_l^T x_(o,k), x_(o,k) = R_o^T A_k phi.
              The weights |V|^2 give p_o and the surviving pairs; no
              d^3-amplitude branch ket is built. Outcomes are processed in
              chunks of at most OUTCOME_CHUNK_BYTES of amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import INDEPENDENT, KrausChannel, apply_channel_to_branches, weyl
from .linalg import ROUNDOFF_TOL, WEIGHT_FLOOR, pure_fidelity
from .measurement import GENERAL, measurement_rows
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
    "weyl_correction",
    "derived_exact_correction",
    "run_protocol",
]

PAPER_WEYL = "paper-weyl"
DERIVED_EXACT = "derived-exact"

# The outcome-map engine holds at most this many bytes of receiver kets at once.
OUTCOME_CHUNK_BYTES = 16 * 2**20


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
    return np.kron(input_state, bell)


@dataclass(frozen=True)
class OutcomeRecord:
    """One detection branch: detector i, crystal group m and receiver state.

    ``receiver_state`` is a ket when a single noise branch survives and a
    density matrix otherwise. ``fidelity`` is None until a correction has
    been applied, and then ``receiver_state`` is the corrected state.
    """

    i: int
    m: int
    probability: float
    receiver_state: np.ndarray
    fidelity: float | None = None


def enumerate_outcomes(
    d: int,
    branches: Sequence[tuple[float, np.ndarray]],
    convention: str = GENERAL,
) -> list[OutcomeRecord]:
    """Exact outcome table over all d^2 (detector, crystal) pairs.

    Branches are weighted kets over the (A1, A2, B) system. Probabilities
    sum to the total branch weight within 1e-10.
    """
    weights = np.array([w for w, _ in branches], dtype=float)
    if weights.size == 0:
        raise ValueError("no input branches")
    stack = np.stack([np.asarray(v, dtype=complex) for _, v in branches])
    if stack.shape[1] != d ** 3:
        raise ValueError(f"branch states have dimension {stack.shape[1]}, expected {d ** 3}")
    cube = stack.reshape(-1, d * d, d)

    rows = measurement_rows(d, convention)
    # receivers[(i,m), branch, :] = row_(i,m) . psi_branch reshaped to (A1A2, B)
    receivers = np.tensordot(rows, cube, axes=([1], [1]))
    norms2 = np.einsum("obj,obj->ob", receivers, receivers.conj()).real
    probs = norms2 @ weights

    total = float(np.sum(weights))
    if abs(float(np.sum(probs)) - total) > ROUNDOFF_TOL:
        raise RuntimeError("outcome probabilities do not sum to the branch weight")

    records = []
    for o in range(d * d):
        i, m = divmod(o, d)
        bw = weights * norms2[o]
        alive = np.flatnonzero(bw > WEIGHT_FLOOR)
        p = float(probs[o])
        if alive.size == 0:
            records.append(
                OutcomeRecord(i=i, m=m, probability=p, receiver_state=np.zeros(d, dtype=complex))
            )
            continue
        if alive.size == 1:
            b = alive[0]
            state = receivers[o, b] / np.sqrt(norms2[o, b])
        else:
            # raw receivers carry the collapse norms, so weighting by the
            # plain branch weights yields a unit-trace mixture after /p
            vecs = receivers[o, alive]
            state = np.einsum("b,bi,bj->ij", weights[alive] / p, vecs, vecs.conj())
        records.append(OutcomeRecord(i=i, m=m, probability=p, receiver_state=state))
    return records


def _outcome_map(
    d: int,
    phi: np.ndarray,
    bell: np.ndarray,
    ops_a1: Sequence[np.ndarray],
    ops_a2: Sequence[np.ndarray],
    convention: str,
) -> list[OutcomeRecord]:
    """The outcome table of ``enumerate_outcomes`` without the branch kets.

    Pair (k, l) is ordered k * len(ops_a2) + l, as the fan-out orders its
    branches.
    """
    x_in = np.stack(ops_a1) @ phi  # A_k phi, (K_a, d)
    # B_l Phi laid out (A2, (l, B)): x @ b_out is V for every l at once
    b_out = (np.stack(ops_a2) @ bell.reshape(d, d)).transpose(1, 0, 2).reshape(d, -1)
    pairs = x_in.shape[0] * len(ops_a2)
    rows = measurement_rows(d, convention).reshape(d * d, d, d)
    chunk = max(1, OUTCOME_CHUNK_BYTES // (pairs * d * np.dtype(complex).itemsize))

    records = []
    total = 0.0
    for start in range(0, d * d, chunk):
        x = x_in @ rows[start : start + chunk]  # x_(o,k) = R_o^T A_k phi
        n = x.shape[0]
        kets = (x.reshape(-1, d) @ b_out).reshape(n, pairs, d)
        weights = np.einsum("opj,opj->op", kets, kets.conj()).real
        probs = weights.sum(axis=1)
        total += float(probs.sum())
        # a mixed record sums k k^dag over the pairs above the weight floor
        kets[weights <= WEIGHT_FLOOR] = 0.0
        rhos = np.swapaxes(kets, 1, 2) @ kets.conj()
        for j in range(n):
            i, m = divmod(start + j, d)
            p = float(probs[j])
            alive = np.flatnonzero(weights[j] > WEIGHT_FLOOR)
            if alive.size == 0:
                state = np.zeros(d, dtype=complex)
            elif alive.size == 1:
                state = kets[j, alive[0]] / np.sqrt(weights[j, alive[0]])
            else:
                state = rhos[j] / p
            records.append(OutcomeRecord(i=i, m=m, probability=p, receiver_state=state))
    # the branch weight is 1: a unit input through complete channels
    if abs(total - 1.0) > ROUNDOFF_TOL:
        raise RuntimeError("outcome probabilities do not sum to the branch weight")
    return records


def weyl_correction(d: int, i: int, m: int) -> np.ndarray:
    """Plain Weyl correction U_(i,m) for outcome (i, m)."""
    return weyl(d, i, m)


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
        for (i, m), u in self.entries.items():
            if u.shape != (self.d, self.d):
                raise ValueError(f"correction for ({i}, {m}) has shape {u.shape}")
            if np.max(np.abs(u @ u.conj().T - np.eye(self.d))) > ROUNDOFF_TOL:
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
    config: ProtocolConfig
    records: list[OutcomeRecord]
    average_fidelity: float
    min_outcome_fidelity: float


@lru_cache(maxsize=32)
def _scheme_table(d: int, scheme: str, convention: str) -> tuple[np.ndarray, ...]:
    if scheme == PAPER_WEYL:
        mats = [weyl_correction(d, i, m) for i in range(d) for m in range(d)]
    elif scheme == DERIVED_EXACT:
        mats = [derived_exact_correction(d, i, m, convention) for i in range(d) for m in range(d)]
    else:
        raise ValueError(f"unknown correction scheme {scheme!r}")
    for mat in mats:
        mat.setflags(write=False)
    return tuple(mats)


def _correction_matrix(config: ProtocolConfig, i: int, m: int) -> np.ndarray:
    if isinstance(config.correction, CorrectionTable):
        return config.correction.entries[(i, m)]
    return _scheme_table(config.d, config.correction, config.convention)[i * config.d + m]


def run_protocol(config: ProtocolConfig) -> ProtocolResult:
    """Run one exact teleportation experiment.

    Deterministic: all noise branches and all d^2 outcomes are enumerated,
    each receiver state is corrected per the configured scheme and scored by
    fidelity against the input, and the average is probability-weighted.
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

    bell = bell_state(d, config.bell_label)
    if all(channel is None or channel.is_weyl for channel in noise):
        branches: list[tuple[float, np.ndarray]] = [(1.0, compose_initial(phi, bell))]
        # An independent product acts as a1 then a2 on disjoint targets.
        for target, channel in enumerate(noise):
            if channel is not None:
                branches = apply_channel_to_branches(channel, branches, (d, d, d), target)
        records = enumerate_outcomes(d, branches, config.convention)
    else:
        ops = [(np.eye(d, dtype=complex),) if ch is None else ch.operators for ch in noise]
        records = _outcome_map(d, phi, bell, *ops, config.convention)

    avg = 0.0
    min_fid = 1.0
    for k, rec in enumerate(records):
        if rec.probability <= WEIGHT_FLOOR:
            continue
        u = _correction_matrix(config, rec.i, rec.m)
        if rec.receiver_state.ndim == 1:
            state = u @ rec.receiver_state
        else:
            state = u @ rec.receiver_state @ u.conj().T
        fid = pure_fidelity(phi, state)
        records[k] = OutcomeRecord(rec.i, rec.m, rec.probability, state, fid)
        avg += rec.probability * fid
        min_fid = min(min_fid, fid)

    return ProtocolResult(
        config=config,
        records=records,
        average_fidelity=avg,
        min_outcome_fidelity=min_fid,
    )
