"""Literal density-matrix reference implementation of the protocol.

Deliberately independent of the branch-form pipeline in
qudit_teleport.protocol: the full tripartite density operator is evolved
with explicitly embedded Kraus operators, each outcome is collapsed with the
full measurement operator, the receiver share is extracted by partial trace
and scored with an inline eigendecomposition fidelity. Only usable at small
d; it exists to cross-check the fast path.
"""

from __future__ import annotations

import numpy as np

from qudit_teleport.channels import weyl
from qudit_teleport.measurement import crystal_operator, qft
from qudit_teleport.protocol import derived_exact_correction
from qudit_teleport.states import bell_state


def _sqrt_spectrum(w: np.ndarray) -> np.ndarray:
    # zero eigenvalue dust below the solver's resolution; sqrt would
    # otherwise blow 1e-17 round-off up to 3e-9
    floor = max(float(np.max(w, initial=0.0)), 0.0) * w.size * 1e-14
    return np.sqrt(np.where(w > floor, w, 0.0))


def _fidelity_eig(rho: np.ndarray, sigma: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho)
    s = (v * _sqrt_spectrum(w)) @ v.conj().T
    inner = s @ sigma @ s
    inner = (inner + inner.conj().T) / 2.0
    ev = np.linalg.eigvalsh(inner)
    return float(np.sum(_sqrt_spectrum(ev)))


def _embedded_kraus(d, ops_a1, ops_a2):
    eye_d = np.eye(d, dtype=complex)
    a1 = ops_a1 if ops_a1 is not None else [eye_d]
    a2 = ops_a2 if ops_a2 is not None else [eye_d]
    return [np.kron(np.kron(x, y), eye_d) for x in a1 for y in a2]


def run_protocol_dm(
    d: int,
    input_state: np.ndarray,
    *,
    ops_a1=None,
    ops_a2=None,
    correction: str = "derived-exact",
    convention: str = "general",
):
    """Returns (per-outcome (i, m, probability, fidelity), average fidelity)."""
    phi = np.asarray(input_state, dtype=complex)
    rho_in = np.outer(phi, phi.conj())
    bell = bell_state(d, (0, 0))
    rho = np.kron(rho_in, np.outer(bell, bell.conj()))

    if ops_a1 is not None or ops_a2 is not None:
        rho = sum(k @ rho @ k.conj().T for k in _embedded_kraus(d, ops_a1, ops_a2))

    eye_d = np.eye(d, dtype=complex)
    F = qft(d)
    outcomes = []
    avg = 0.0
    for i in range(d):
        for m in range(d):
            m_im = np.zeros((d, d * d), dtype=complex)
            m_im[i] = F[i] @ crystal_operator(d, m, convention).matrix
            m_full = np.kron(m_im, eye_d)
            p = float(np.real(np.trace(m_full.conj().T @ m_full @ rho)))
            collapsed = m_full @ rho @ m_full.conj().T / p
            # trace out the upconverted-photon register, keep the receiver
            sigma = np.trace(collapsed.reshape(d, d, d, d), axis1=0, axis2=2)
            if correction == "derived-exact":
                u = derived_exact_correction(d, i, m, convention)
            else:
                u = weyl(d, i, m)
            sigma = u @ sigma @ u.conj().T
            fid = _fidelity_eig(rho_in, sigma)
            outcomes.append((i, m, p, fid))
            avg += p * fid
    return outcomes, avg
