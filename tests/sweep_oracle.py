"""Closed-form oracle for the default sweep's CSV.

With the uniform input, crosstalk Weyl noise on both sender qudits and the
``derived-exact`` correction, every outcome is teleported with the same
fidelity

    F = sqrt((1 - (d-1) p/d)^2 + (d-1) (p/d)^2).

This script evaluates F^2 exactly with ``fractions.Fraction`` and its square
root to 50 digits with ``decimal``, and prints the CSV that ``qudit-teleport``
run with no flags must emit, byte for byte:

    python tests/sweep_oracle.py > oracle.csv
"""

from __future__ import annotations

import sys
from decimal import Context, Decimal
from fractions import Fraction

HEADER = (
    "d,p,noise_variant,noise_mode,correction_scheme,input_spec,seed,"
    "avg_fidelity,min_outcome_fidelity,runtime_ms,expected_trigger_probability"
)
DIMS = (2, 3, 4, 5, 8)
P_GRID = tuple(Fraction(k, 10) for k in range(11))
EXACT = Context(prec=50)
PRINTED = Context(prec=12)


def fidelity(d: int, p: Fraction) -> Decimal:
    """F at dimension d and flip probability p, to 50 significant digits."""
    q = p / d
    f2 = (1 - (d - 1) * q) ** 2 + (d - 1) * q * q
    return EXACT.sqrt(EXACT.divide(Decimal(f2.numerator), Decimal(f2.denominator)))


def printed(x: Decimal | Fraction) -> str:
    """x in [0, 1] as ``f"{x:.12g}"`` prints the nearest float: 12 significant digits, no trailing zeros."""
    if isinstance(x, Fraction):
        x = EXACT.divide(Decimal(x.numerator), Decimal(x.denominator))
    return format(PRINTED.plus(x).normalize(), "f")


def render(dims: tuple[int, ...] = DIMS) -> bytes:
    """The CSV of ``qudit-teleport --dims <dims>``: one row per (d, p), uniform input, seed 0."""
    lines = [HEADER]
    for d in dims:
        for p in P_GRID:
            f = printed(fidelity(d, p))
            lines.append(f"{d},{printed(p)},weyl,independent,derived-exact,uniform,0,{f},{f},0,1")
    return ("\n".join(lines) + "\n").encode("utf-8")


if __name__ == "__main__":
    sys.stdout.buffer.write(render())
