"""Quantized circulating states of ring condensates under a gauge phase.

Layering: `units` turns lab parameters into the dimensionless phase eta;
`reduction` turns a 3D trapped cloud into the 1D ring parameters (eta,
u_tilde); `ring` is the closed-form theory of plane-wave and two-mode states;
`solver` finds ground states by a spectral descent (one report from `relax`
or `global_ground`, per-point columns from `global_grounds`), the independent
check on `ring`; `sweeps` and `cli` produce staircase / stability / hysteresis tables.
"""

from .reduction import RingParams, TrapSetup, build_ring_params, effective_interaction
from .ring import (
    BarrierInfo,
    GroundWindingResult,
    MixedState,
    barrier,
    ground_winding,
    mu_mixed,
    mu_total,
)
from .solver import (
    GroundStateReport,
    RingWavefunction,
    SolverSettings,
    apply_hamiltonian,
    global_ground,
    global_grounds,
    relax,
)
from .sweeps import StaircaseSpec, hysteresis, landscape, staircase
from .units import (
    CONSTANTS,
    CrossedFieldSetup,
    LineChargeSetup,
    PhysicalConstants,
    TorusChargeSetup,
    eta_cross_field,
    eta_line_charge,
    eta_torus,
    field_line_charge,
    field_torus,
    required_line_density,
    required_torus_charges,
)

__version__ = "0.1.0"

__all__ = [
    "RingParams",
    "TrapSetup",
    "build_ring_params",
    "effective_interaction",
    "BarrierInfo",
    "GroundWindingResult",
    "MixedState",
    "barrier",
    "ground_winding",
    "mu_mixed",
    "mu_total",
    "GroundStateReport",
    "RingWavefunction",
    "SolverSettings",
    "apply_hamiltonian",
    "global_ground",
    "global_grounds",
    "relax",
    "StaircaseSpec",
    "hysteresis",
    "landscape",
    "staircase",
    "CONSTANTS",
    "CrossedFieldSetup",
    "LineChargeSetup",
    "PhysicalConstants",
    "TorusChargeSetup",
    "eta_cross_field",
    "eta_line_charge",
    "eta_torus",
    "field_line_charge",
    "field_torus",
    "required_line_density",
    "required_torus_charges",
    "__version__",
]
