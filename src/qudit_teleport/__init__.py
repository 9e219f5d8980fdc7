"""Exact simulator of a nonlinear-optics qudit teleportation protocol.

The sender's two qudits enter a bank of upconversion crystals followed by a
quantum Fourier transform and path-resolved photodetection; the receiver
applies an outcome-conditioned correction unitary. Crosstalk noise on the
sender's qudits is modeled with Kraus channels and scored via state fidelity.
"""

from .channels import (
    INDEPENDENT,
    PHASE,
    SHIFT,
    VARIANTS,
    WEYL,
    CompletenessError,
    KrausChannel,
    apply_channel_to_branches,
    crosstalk_channel,
    weyl,
)
from .cli import SweepConfig, SweepResult, SweepRow, emit, main, parse_cli, run_sweep
from .linalg import pure_fidelity
from .measurement import (
    GENERAL,
    QUTRIT_ALT,
    CrystalOperator,
    crystal_operator,
    povm_elements,
    qft,
)
from .protocol import (
    DERIVED_EXACT,
    PAPER_WEYL,
    CorrectionTable,
    OutcomeRecord,
    ProtocolConfig,
    ProtocolResult,
    compose_initial,
    derived_exact_correction,
    enumerate_outcomes,
    inversion,
    run_protocol,
)
from .states import (
    basis_state,
    bell_state,
    is_normalized,
    load_state,
    parse_state_text,
    random_pure_state,
    uniform_state,
)

__version__ = "0.1.0"
