"""Constructors for qudit pure states.

All constructors return unit-norm 1-d complex numpy arrays. Two-qudit Bell
states live in the d*d-dimensional joint space with the first qudit as the
most significant index.
"""

from __future__ import annotations

import numpy as np

from .linalg import EXACT_TOL

__all__ = [
    "basis_state",
    "bell_state",
    "uniform_state",
    "random_pure_state",
    "is_normalized",
    "load_state",
    "parse_state_text",
]


def basis_state(d: int, k: int) -> np.ndarray:
    """Computational basis ket |k> in dimension d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= k < d:
        raise ValueError(f"basis index {k} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


def bell_state(d: int, label: tuple[int, int]) -> np.ndarray:
    """Maximally entangled two-qudit state with phase index l and shift index m.

    (1/sqrt(d)) sum_k w^(l k) |k>|k+m mod d>  with  w = exp(2 pi i / d).
    """
    l, m = label
    if d < 1:
        raise ValueError("dimension must be positive")
    if not (0 <= l < d and 0 <= m < d):
        raise ValueError(f"bell label {label} out of range for dimension {d}")
    w = np.exp(2j * np.pi / d)
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d + (k + m) % d] = w ** (l * k)
    return v / np.sqrt(d)


def uniform_state(d: int) -> np.ndarray:
    """Equal superposition of all d levels."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def random_pure_state(d: int, seed: int) -> np.ndarray:
    """Haar-like random ket from a seeded generator.

    Draws d real then d imaginary standard normals from numpy's PCG64
    (np.random.default_rng) and normalizes. Identical (d, seed) pairs give
    bit-identical output for a fixed numpy version.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def is_normalized(v: np.ndarray, tol: float = EXACT_TOL) -> bool:
    return abs(np.linalg.norm(v) - 1.0) <= tol


def parse_state_text(text: str) -> np.ndarray:
    """Parse the plain-text state format.

    First line: the dimension d. Then d lines, each "re im". The parsed
    vector is normalized; non-finite amplitudes and an all-zero vector are
    rejected.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty state file")
    try:
        d = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the dimension, got {lines[0]!r}") from None
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if len(lines) != d + 1:
        raise ValueError(f"expected {d} amplitude lines, got {len(lines) - 1}")
    v = np.zeros(d, dtype=complex)
    for idx, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"amplitude line {idx + 1} must be 're im', got {ln!r}")
        try:
            v[idx] = float(parts[0]) + 1j * float(parts[1])
        except ValueError:
            raise ValueError(f"amplitude line {idx + 1} is not numeric: {ln!r}") from None
        if not np.isfinite(v[idx]):
            raise ValueError(f"amplitude line {idx + 1} is not finite: {ln!r}")
    norm = np.linalg.norm(v)
    if norm < EXACT_TOL:
        raise ValueError("state vector is zero")
    return v / norm


def load_state(path: str) -> np.ndarray:
    """Read a state from a plain-text file (see ``parse_state_text``)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state_text(fh.read())
