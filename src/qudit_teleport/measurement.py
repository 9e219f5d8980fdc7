"""Nonlinear-crystal measurement layer.

Each crystal group m upconverts exactly one input pair per output path: the
group-m operator is a d x d^2 matrix of 0/1 entries that maps a two-qudit
basis pair |a>|b> to a single output path. Across the d groups the accepted
input pairs partition all d^2 basis pairs, so sum_m M_m^dag M_m equals the
identity with no extra normalization. A quantum Fourier transform mixes the
output paths before photodetection, giving composite operators
M_(i,m) = |i><i| QFT M_m and the rank-1 POVM elements Pi_(i,m).

Because each group sends one input pair to each output path and the QFT
only adds phases, the single nonzero row of M_(i,m) has exactly d nonzero
entries, each of modulus 1/sqrt(d): reshaped to d x d over (A1, A2) it is a
monomial matrix. ``crystal_wiring`` returns every group's accepted pairs
as one checked (d, d, 3) array, and the simulator's run paths build their
per-group tables from it. ``monomial_rows`` stores every outcome in monomial
form, as column positions a*d + b and phases QFT[i, output path], two arrays
of shape (d^2, d) that cost O(d^3) memory; ``measurement_rows``,
``measurement_row`` and ``povm_elements`` build the dense d^2-column rows
from it on demand, for inspection and tests (the full dense block is d^4
amplitudes: 4 GB at d = 128). No run path calls these four.

Two crystal wirings are provided: the "general" convention valid for any d,
and "qutrit-alt", an alternate explicit wiring for d = 3 that also partitions
the input pairs but assigns different output paths for groups 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GENERAL",
    "QUTRIT_ALT",
    "CrystalOperator",
    "crystal_operator",
    "crystal_pairs",
    "crystal_wiring",
    "qft",
    "monomial_rows",
    "measurement_row",
    "povm_elements",
]

GENERAL = "general"
QUTRIT_ALT = "qutrit-alt"

# Alternate qutrit wiring: (output path, first input, second input) per group.
_QUTRIT_ALT_PAIRS = {
    0: ((0, 2, 1), (1, 0, 0), (2, 1, 2)),
    1: ((0, 0, 1), (1, 1, 0), (2, 2, 2)),
    2: ((0, 2, 0), (1, 1, 1), (2, 0, 2)),
}


@dataclass(frozen=True)
class CrystalOperator:
    """One crystal group: a d x d^2 matrix with d unit entries."""

    d: int
    m: int
    convention: str
    matrix: np.ndarray


def crystal_pairs(d: int, m: int, convention: str = GENERAL) -> list[tuple[int, int, int]]:
    """Index triples (output, a, b) accepted by crystal group m."""
    if d < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= m < d:
        raise ValueError(f"crystal index {m} out of range for dimension {d}")
    if convention == GENERAL:
        triples = []
        for k in range(d):
            if m == 0:
                triples.append(((k + 1) % d, k, (d - k) % d))
            elif m == 1:
                triples.append((k, k, (d - (k + 1)) % d))
            else:
                triples.append(((k + m) % d, k, (d - (k + m)) % d))
        return triples
    if convention == QUTRIT_ALT:
        if d != 3:
            raise ValueError("the qutrit-alt convention is only defined for d = 3")
        return list(_QUTRIT_ALT_PAIRS[m])
    raise ValueError(f"unknown convention {convention!r}")


def crystal_operator(d: int, m: int, convention: str = GENERAL) -> CrystalOperator:
    """Build and validate the group-m crystal operator."""
    mat = np.zeros((d, d * d), dtype=complex)
    for out, a, b in crystal_pairs(d, m, convention):
        mat[out, a * d + b] = 1.0
    # d unit entries in distinct rows and columns make the rows orthonormal.
    if np.count_nonzero(mat) != d or not np.allclose(mat @ mat.conj().T, np.eye(d)):
        raise RuntimeError("crystal operator construction violated its invariants")
    return CrystalOperator(d=d, m=m, convention=convention, matrix=mat)


def qft(d: int) -> np.ndarray:
    """Discrete Fourier transform matrix, entry (y, x) = w^(x y) / sqrt(d).

    The exponent is reduced mod d before the exponential, so every entry
    has modulus 1/sqrt(d) to within an ulp at any d.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    y, x = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * ((x * y) % d) / d) / np.sqrt(d)


def crystal_wiring(d: int, convention: str = GENERAL) -> np.ndarray:
    """Every crystal group's accepted (output path, a, b) triples, shape (d, d, 3).

    Entry [m, k] is group m's k-th triple from ``crystal_pairs``. Checked on
    each call: every group uses each output path, A1 level and A2 level
    once, and the d groups partition the d^2 input pairs, so every
    composite row reshaped over (A1, A2) is a monomial matrix.
    """
    groups = [crystal_pairs(d, m, convention) for m in range(d)]
    each_once = all(sorted(levels) == list(range(d)) for g in groups for levels in zip(*g))
    if not each_once or len({(a, b) for g in groups for _, a, b in g}) != d * d:
        raise RuntimeError("crystal operator construction violated its invariants")
    return np.array(groups)


@lru_cache(maxsize=32)
def monomial_rows(d: int, convention: str = GENERAL) -> tuple[np.ndarray, np.ndarray]:
    """Every composite measurement row as (positions, phases), indexed by i*d + m.

    Row i*d + m holds phases[i*d + m, k] at column positions[i*d + m, k] and
    zeros elsewhere. Entry k is crystal group m's k-th accepted pair (out, a, b)
    from ``crystal_pairs``: position a*d + b, phase QFT[i, out], the same float
    the dense row holds. Both arrays have shape (d^2, d); cached per
    (d, convention) and returned read-only.
    """
    out, a, b = np.moveaxis(crystal_wiring(d, convention), -1, 0)
    positions = np.tile(a * d + b, (d, 1))
    phases = qft(d)[:, out].reshape(d * d, d)
    positions.setflags(write=False)
    phases.setflags(write=False)
    return positions, phases


def measurement_rows(d: int, convention: str = GENERAL) -> np.ndarray:
    """All d^2 composite measurement rows as a dense (d^2, d^2) block, indexed by i*d + m.

    Built on each call from ``monomial_rows``; nothing on the simulator's
    run paths calls it.
    """
    positions, phases = monomial_rows(d, convention)
    rows = np.zeros((d * d, d * d), dtype=complex)
    np.put_along_axis(rows, positions, phases, axis=1)
    return rows


def measurement_row(d: int, i: int, m: int, convention: str = GENERAL) -> np.ndarray:
    """The single nonzero row of M_(i,m): (QFT row i) times the crystal matrix."""
    if not 0 <= i < d:
        raise ValueError(f"detector index {i} out of range for dimension {d}")
    if not 0 <= m < d:
        raise ValueError(f"crystal index {m} out of range for dimension {d}")
    positions, phases = monomial_rows(d, convention)
    row = np.zeros(d * d, dtype=complex)
    row[positions[i * d + m]] = phases[i * d + m]
    return row


def povm_elements(d: int, convention: str = GENERAL) -> list[np.ndarray]:
    """The d^2 POVM elements M_(i,m)^dag M_(i,m), ordered by (i, m)."""
    return [np.outer(row.conj(), row) for row in measurement_rows(d, convention)]
