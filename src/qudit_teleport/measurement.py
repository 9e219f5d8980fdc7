"""Nonlinear-crystal measurement layer.

Each crystal group m upconverts exactly one input pair per output path: the
group-m operator is a d x d^2 matrix of 0/1 entries that maps a two-qudit
basis pair |a>|b> to a single output path. Across the d groups the accepted
input pairs partition all d^2 basis pairs, so sum_m M_m^dag M_m equals the
identity with no extra normalization. A quantum Fourier transform mixes the
output paths before photodetection, giving composite operators
M_(i,m) = |i><i| QFT M_m and the rank-1 POVM elements Pi_(i,m).

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
    "qft",
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
        raise AssertionError("crystal operator construction violated its invariants")
    return CrystalOperator(d=d, m=m, convention=convention, matrix=mat)


def qft(d: int) -> np.ndarray:
    """Discrete Fourier transform matrix, entry (y, x) = w^(x y) / sqrt(d)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    w = np.exp(2j * np.pi / d)
    y, x = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return w ** (x * y) / np.sqrt(d)


@lru_cache(maxsize=8)
def measurement_rows(d: int, convention: str = GENERAL) -> np.ndarray:
    """All d^2 composite measurement rows stacked, indexed by i*d + m.

    Cached per (d, convention) and returned read-only; at d = 64 this block
    is 256 MB, hence the small cache.
    """
    f = qft(d)
    crystals = [crystal_operator(d, m, convention).matrix for m in range(d)]
    blocks = np.stack([f @ c for c in crystals])  # indexed (m, i, column)
    rows = np.ascontiguousarray(blocks.transpose(1, 0, 2).reshape(d * d, d * d))
    rows.setflags(write=False)
    return rows


def measurement_row(d: int, i: int, m: int, convention: str = GENERAL) -> np.ndarray:
    """The single nonzero row of M_(i,m): (QFT row i) times the crystal matrix."""
    if not 0 <= i < d:
        raise ValueError(f"detector index {i} out of range for dimension {d}")
    if not 0 <= m < d:
        raise ValueError(f"crystal index {m} out of range for dimension {d}")
    return measurement_rows(d, convention)[i * d + m]


def povm_elements(d: int, convention: str = GENERAL) -> list[np.ndarray]:
    """The d^2 POVM elements M_(i,m)^dag M_(i,m), ordered by (i, m)."""
    out = []
    for i in range(d):
        for m in range(d):
            row = measurement_row(d, i, m, convention)
            out.append(np.outer(row.conj(), row))
    return out
