"""Kraus channels and the crosstalk (d-flip) noise family.

A channel is a finite list of d x d Kraus operators C_i satisfying
sum_i C_i^dag C_i = I. Crosstalk noise spreads a total flip weight p over
generalized-Pauli (Weyl) operators; three variants are provided:

* ``shift`` - the literal d-flip form: identity plus the d-1 cyclic shifts
  U_(0,i), each with weight p/d. Shifts leave the uniform superposition
  invariant, so this variant cannot degrade the uniform-input benchmark.
* ``phase`` - the same weights on the pure phase operators U_(i,0).
* ``weyl``  - weight p spread evenly over all d^2 - 1 non-identity Weyl
  operators U_(i,m). Default for experiments.

Every crosstalk channel is a Weyl channel, and ``crosstalk_channel`` builds
it in label form: a (d, d) table of the probabilities w(i, m) of U_(i,m),
d^2 floats where the dense operators are d^4 amplitudes (268 MB at d = 64).
``protocol.run_protocol`` folds label-form channels by their tables and
reads any other channel as its (K, d, d) ``operator_stack``; a label-form
channel builds its operators only when something asks for them.

``apply_channel_to_branches`` is the reference the tests compare against:
it fans weighted (weight, ket) branches out over a channel's operators, one
product per (branch, operator). No run path calls it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import EXACT_TOL, ROUNDOFF_TOL, WEIGHT_FLOOR

__all__ = [
    "SHIFT",
    "PHASE",
    "WEYL",
    "VARIANTS",
    "INDEPENDENT",
    "CompletenessError",
    "KrausChannel",
    "weyl",
    "weyl_phases",
    "weyl_monomial",
    "crosstalk_channel",
    "apply_channel_to_branches",
]

SHIFT = "shift"
PHASE = "phase"
WEYL = "weyl"
VARIANTS = (SHIFT, PHASE, WEYL)

# the one composition of the sender's two channels: a1, then a2
INDEPENDENT = "independent"


class CompletenessError(ValueError):
    """The Kraus operators do not sum to the identity."""


def weyl_phases(d: int) -> np.ndarray:
    """The powers w^e, e = 0..d-1, of w = exp(2 pi i / d) that Weyl operators carry.

    w^0 = 1 and, for even d, w^(d/2) = -1 are exact, so shifts, the
    identity and their sign flips carry no round-off.
    """
    phases = np.empty(d, dtype=complex)
    for e in range(d):
        if e == 0:
            phases[e] = 1.0
        elif 2 * e == d:
            phases[e] = -1.0
        else:
            phases[e] = np.exp(2j * np.pi * e / d)
    return phases


def weyl_monomial(d: int, i, m) -> tuple[np.ndarray, np.ndarray]:
    """U_(i,m) as (columns, phases): row k holds phases[..., k] at column columns[..., k].

    U_(i,m) = sum_k w^(k i) |k><k+m mod d|, so columns[k] = (k + m) mod d
    and phases[k] = w^(k i mod d). ``i`` and ``m`` may be arrays of labels;
    they broadcast, and the last axis runs over k.
    """
    k = np.arange(d)
    i, m = np.asarray(i)[..., None], np.asarray(m)[..., None]
    return (k + m) % d, weyl_phases(d)[(k * i) % d]


def weyl(d: int, i: int, m: int) -> np.ndarray:
    """Generalized Pauli operator U_(i,m) = sum_k w^(k i) |k><k+m mod d|.

    U_(0,0) is the identity, U_(i,0) are pure phases (clock operators) and
    U_(0,m) are cyclic shifts mapping |l> to |l-m mod d>.
    """
    if not (0 <= i < d and 0 <= m < d):
        raise ValueError(f"weyl indices ({i}, {m}) out of range for dimension {d}")
    columns, phases = weyl_monomial(d, i, m)
    U = np.zeros((d, d), dtype=complex)
    U[np.arange(d), columns] = phases
    return U


class KrausChannel:
    """A completeness-checked channel on a d-level system, in one of two forms.

    Dense: ``operators``, d x d Kraus operators C_i with
    sum_i C_i^dag C_i = I, checked numerically. Label form:
    ``weyl_weights``, a (d, d) table of probabilities w(i, m), the channel
    rho -> sum w(i, m) U_(i,m) rho U_(i,m)^dag. Its completeness is checked
    analytically (finite weights, all >= 0, summing to 1 within EXACT_TOL),
    and ``protocol.run_protocol`` reads the table, not operators. A
    label-form channel builds ``operators`` on first access, sqrt(w(i, m))
    U_(i,m) for each label of nonzero weight in row-major order; a dense
    channel has ``weyl_weights`` None. A dense channel copies its operators
    into ``operator_stack`` at construction, and ``operators`` are read-only
    views of that stack, so a later edit to the caller's arrays changes
    nothing. The channel is not modified after construction.
    """

    def __init__(
        self,
        d: int,
        operators: Sequence[np.ndarray] | None = None,
        label: str = "",
        weyl_weights: np.ndarray | None = None,
    ):
        self.d = d
        self.label = label
        if (operators is None) == (weyl_weights is None):
            raise ValueError("a channel takes either Kraus operators or Weyl label weights")
        name = label or "<unlabeled>"
        if weyl_weights is not None:
            weights = np.array(weyl_weights, dtype=float)
            if weights.shape != (d, d):
                raise ValueError(f"Weyl label weights have shape {weights.shape}, not ({d}, {d})")
            # written so that a NaN weight or sum fails too
            if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
                raise CompletenessError(f"channel {name} has a negative or non-finite Weyl weight")
            total = float(weights.sum())
            if not abs(total - 1.0) <= EXACT_TOL:
                raise CompletenessError(f"Weyl label weights sum to {total!r}, not 1 (channel {name})")
            weights.setflags(write=False)
            self.weyl_weights = weights
            return
        self.weyl_weights = None
        ops = [np.asarray(op, dtype=complex) for op in operators]
        if not ops:
            raise CompletenessError("channel has no Kraus operators")
        for op in ops:
            if op.shape != (d, d):
                raise ValueError(f"Kraus operator shape {op.shape} != ({d}, {d})")
        # a copy, so a later edit to the caller's arrays leaves the checked channel
        stack = np.stack(ops)
        stack.setflags(write=False)
        self.operator_stack = stack
        self.operators = tuple(stack)
        # checked before any product, which would warn on inf * 0
        if not np.isfinite(self.operator_stack).all():
            raise CompletenessError(f"channel {name} has a non-finite Kraus operator entry")
        total = sum(op.conj().T @ op for op in self.operators)
        residual = float(np.max(np.abs(total - np.eye(d))))
        # written so that a NaN residual fails too
        if not residual <= EXACT_TOL:
            raise CompletenessError(
                f"sum C^dag C deviates from identity by {residual:.3e} (channel {name})"
            )

    @cached_property
    def operators(self) -> tuple[np.ndarray, ...]:
        """The Kraus operators; a dense channel sets them at construction, as views of its stack."""
        w = self.weyl_weights
        return tuple(np.sqrt(w[i, m]) * weyl(self.d, i, m) for i, m in zip(*w.nonzero()))

    @cached_property
    def operator_stack(self) -> np.ndarray:
        """The operators as one read-only (K, d, d) array; label form builds it on first access."""
        stack = np.stack(self.operators)
        stack.setflags(write=False)
        return stack


def _crosstalk_weights(d: int, p: float, variant: str) -> np.ndarray:
    """A crosstalk variant's Weyl label weights as a (d, d) table, entry (i, m) for U_(i,m).

    Each of the variant's n_listed labels carries p / n and the identity keeps
    1 - n_listed p / n: the d - 1 shifts U_(0,m) or phases U_(i,0) with
    n = d, or all d^2 - 1 non-identity labels with n = d^2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability {p} outside [0, 1]")
    if variant not in VARIANTS:
        raise ValueError(f"unknown noise variant {variant!r}")
    weights = np.zeros((d, d))
    if variant == SHIFT:
        listed, n = weights[0, 1:], d
    elif variant == PHASE:
        listed, n = weights[1:, 0], d
    else:
        listed, n = weights.reshape(-1)[1:], d * d
    listed[:] = p / n
    weights[0, 0] = 1.0 - listed.size * p / n
    return weights


def crosstalk_channel(d: int, p: float, variant: str = WEYL) -> KrausChannel:
    """Crosstalk channel at flip probability p, in label form; zero-weight labels hold no operator."""
    return KrausChannel(
        d=d, weyl_weights=_crosstalk_weights(d, p, variant), label=f"{variant}(d={d},p={p:g})"
    )


def apply_channel_to_branches(
    channel: KrausChannel,
    branches: Sequence[tuple[float, np.ndarray]],
    dims: Sequence[int],
    target: int,
) -> list[tuple[float, np.ndarray]]:
    """Apply a channel to one subsystem of weighted pure-state branches.

    ``dims`` lists the subsystem dimensions of every branch state and
    ``target`` selects the factor the channel acts on; the rest see the
    identity. Each (weight, ket) branch fans out into one branch per Kraus
    operator with weight w * ||C psi||^2 and the renormalized ket, ordered
    branch-major, operator-minor; branches at or below ``WEIGHT_FLOOR`` are
    dropped. Total weight is preserved.
    """
    dims = tuple(int(x) for x in dims)
    if not 0 <= target < len(dims):
        raise ValueError(f"target {target} out of range for {len(dims)} subsystems")
    if dims[target] != channel.d:
        raise ValueError(
            f"channel dimension {channel.d} does not match subsystem {target} "
            f"of dimension {dims[target]}"
        )
    size = int(np.prod(dims))
    branches = [(float(w), np.asarray(psi, dtype=complex)) for w, psi in branches]
    for _, psi in branches:
        if psi.shape != (size,):
            raise ValueError(f"branch state has dimension {psi.shape}, subsystems give {size}")
    pre = int(np.prod(dims[:target], initial=1))
    post = int(np.prod(dims[target + 1 :], initial=1))
    # the weight a branch carries is w ||psi||^2, which a complete channel keeps
    in_weight = sum(w * float(np.vdot(psi, psi).real) for w, psi in branches)
    out_weight = 0.0
    out = []
    for w, psi in branches:
        cube = psi.reshape(pre, channel.d, post)
        for op in channel.operators:
            new = np.einsum("ab,xbz->xaz", op, cube).reshape(-1)
            norm = np.linalg.norm(new)
            weight = w * norm * norm
            out_weight += weight
            if weight > WEIGHT_FLOOR:
                out.append((weight, new / norm))
    if abs(out_weight - in_weight) > ROUNDOFF_TOL:
        raise RuntimeError(
            f"channel application changed total weight by {out_weight - in_weight:.3e}"
        )
    return out
