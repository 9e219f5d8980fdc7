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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import EXACT_TOL, ROUNDOFF_TOL, WEIGHT_FLOOR

__all__ = [
    "SHIFT",
    "PHASE",
    "WEYL",
    "VARIANTS",
    "INDEPENDENT",
    "CORRELATED",
    "CompletenessError",
    "KrausChannel",
    "weyl",
    "crosstalk_channel",
    "product_channel",
    "apply_channel_to_branches",
]

SHIFT = "shift"
PHASE = "phase"
WEYL = "weyl"
VARIANTS = (SHIFT, PHASE, WEYL)

INDEPENDENT = "independent"
CORRELATED = "correlated"


class CompletenessError(ValueError):
    """The Kraus operators do not sum to the identity."""


def weyl(d: int, i: int, m: int) -> np.ndarray:
    """Generalized Pauli operator U_(i,m) = sum_k w^(k i) |k><k+m mod d|.

    U_(0,0) is the identity, U_(i,0) are pure phases (clock operators) and
    U_(0,m) are cyclic shifts mapping |l> to |l-m mod d>.
    """
    if not (0 <= i < d and 0 <= m < d):
        raise ValueError(f"weyl indices ({i}, {m}) out of range for dimension {d}")
    U = np.zeros((d, d), dtype=complex)
    for k in range(d):
        e = (k * i) % d
        if e == 0:
            phase = 1.0  # keep shifts and the identity exact
        elif 2 * e == d:
            phase = -1.0
        else:
            phase = np.exp(2j * np.pi * e / d)
        U[k, (k + m) % d] = phase
    return U


@dataclass(frozen=True)
class KrausChannel:
    """A completeness-checked list of d x d Kraus operators."""

    d: int
    operators: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        if not self.operators:
            raise CompletenessError("channel has no Kraus operators")
        for op in self.operators:
            if op.shape != (self.d, self.d):
                raise ValueError(f"Kraus operator shape {op.shape} != ({self.d}, {self.d})")
        total = sum(op.conj().T @ op for op in self.operators)
        residual = float(np.max(np.abs(total - np.eye(self.d))))
        if residual > EXACT_TOL:
            raise CompletenessError(
                f"sum C^dag C deviates from identity by {residual:.3e} "
                f"(channel {self.label or '<unlabeled>'})"
            )


def crosstalk_channel(d: int, p: float, variant: str = WEYL) -> KrausChannel:
    """Crosstalk channel at flip probability p; zero-weight operators dropped."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability {p} outside [0, 1]")
    if variant not in VARIANTS:
        raise ValueError(f"unknown noise variant {variant!r}")
    ops: list[np.ndarray] = []
    if variant in (SHIFT, PHASE):
        keep = 1.0 - (d - 1) * p / d
        if keep > 0.0:
            ops.append(np.sqrt(keep) * np.eye(d, dtype=complex))
        if p > 0.0:
            for idx in range(1, d):
                U = weyl(d, 0, idx) if variant == SHIFT else weyl(d, idx, 0)
                ops.append(np.sqrt(p / d) * U)
    else:
        keep = 1.0 - (d * d - 1) * p / (d * d)
        if keep > 0.0:
            ops.append(np.sqrt(keep) * np.eye(d, dtype=complex))
        if p > 0.0:
            for i in range(d):
                for m in range(d):
                    if (i, m) != (0, 0):
                        ops.append(np.sqrt(p / (d * d)) * weyl(d, i, m))
    return KrausChannel(d=d, operators=tuple(ops), label=f"{variant}(d={d},p={p:g})")


def product_channel(a: KrausChannel, b: KrausChannel, mode: str = INDEPENDENT) -> KrausChannel:
    """Two-qudit channel from channels on the individual qudits.

    ``independent`` takes all pairwise tensor products A_i x B_j, the channel
    implied by independent noise. ``correlated`` index-locks the factors,
    A_i x B_i; the result must still satisfy completeness, which fails for
    generic pairs and raises CompletenessError.
    """
    if mode == INDEPENDENT:
        ops = tuple(np.kron(x, y) for x in a.operators for y in b.operators)
    elif mode == CORRELATED:
        if len(a.operators) != len(b.operators):
            raise ValueError(
                f"correlated mode needs equal operator counts, got "
                f"{len(a.operators)} and {len(b.operators)}"
            )
        ops = tuple(np.kron(x, y) for x, y in zip(a.operators, b.operators))
    else:
        raise ValueError(f"unknown product mode {mode!r}")
    return KrausChannel(d=a.d * b.d, operators=ops, label=f"{mode}({a.label},{b.label})")


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
    operator with weight w * ||C psi||^2 and the renormalized ket; zero-norm
    branches are dropped. Total weight is preserved.
    """
    dims = tuple(int(x) for x in dims)
    if not 0 <= target < len(dims):
        raise ValueError(f"target {target} out of range for {len(dims)} subsystems")
    if dims[target] != channel.d:
        raise ValueError(
            f"channel dimension {channel.d} does not match subsystem {target} "
            f"of dimension {dims[target]}"
        )
    total = int(np.prod(dims))
    pre = int(np.prod(dims[:target], initial=1))
    post = int(np.prod(dims[target + 1 :], initial=1))

    out: list[tuple[float, np.ndarray]] = []
    in_weight = 0.0
    out_weight = 0.0
    for w, psi in branches:
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (total,):
            raise ValueError(
                f"branch state has dimension {psi.shape}, subsystems give {total}"
            )
        in_weight += w
        cube = psi.reshape(pre, channel.d, post)
        for op in channel.operators:
            new = np.einsum("ab,xbz->xaz", op, cube).reshape(-1)
            norm = np.linalg.norm(new)
            nw = w * norm * norm
            out_weight += nw
            if nw > WEIGHT_FLOOR:
                out.append((nw, new / norm))
    if abs(out_weight - in_weight) > ROUNDOFF_TOL:
        raise RuntimeError(
            f"channel application changed total weight by {out_weight - in_weight:.3e}"
        )
    return out
