"""Pure-state fidelity and the package's tolerance policy.

Every round-off comparison in the package uses one of the four tolerances
below; each value is defined here and nowhere else.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WEIGHT_FLOOR",
    "EXACT_TOL",
    "ROUNDOFF_TOL",
    "GRID_TOL",
    "pure_fidelity",
]

# Noise branches and detection outcomes whose weight falls below this are
# analytically zero: they are dropped or left unscored.
WEIGHT_FLOOR = 1e-24
# Quantities exact up to a few ulps: Kraus completeness, state normalization,
# the zero-vector check, p-grid edges.
EXACT_TOL = 1e-12
# Quantities that accumulate round-off over a sum or product: weight
# conservation, the outcome probability sum, unitarity, input normalization,
# the eigenvalue clamp.
ROUNDOFF_TOL = 1e-10
# The p-grid step must divide the range to within this.
GRID_TOL = 1e-9


def pure_fidelity(phi: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity of a pure reference ket against a ket or density operator.

    Uses the rank-1 shortcut sqrt(<phi|sigma|phi>); for a ket argument this
    reduces to |<phi|psi>|.
    """
    phi = np.asarray(phi, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim == 1:
        if phi.shape != sigma.shape:
            raise ValueError(f"dimension mismatch: {phi.shape} vs {sigma.shape}")
        return min(float(abs(np.vdot(phi, sigma))), 1.0)
    if sigma.shape != (phi.size, phi.size):
        raise ValueError(f"dimension mismatch: {phi.shape} vs {sigma.shape}")
    val = float(np.real(np.vdot(phi, sigma @ phi)))
    if val < -ROUNDOFF_TOL:
        raise ValueError(f"<phi|sigma|phi> = {val:.3e} is negative beyond round-off")
    return min(float(np.sqrt(max(val, 0.0))), 1.0)
