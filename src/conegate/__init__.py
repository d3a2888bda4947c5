"""conegate: nonadiabatic geometric gates from exactly controlled conical
spin evolution, for NMR-like two-level systems.

The package builds rotating-field Hamiltonians, propagates them in closed
form and with an independent stepped integrator, splits cyclic phases into
dynamical and geometric parts, prepares conditional cone eigenstates with
a hard-pulse sequence, and composes geometric phase, Hadamard, NOT and
controlled-NOT gates that are verified by simulation.
"""

from .hamiltonians import (
    FieldParams,
    h_compensated,
    h_two_qubit_rotating,
)
from .linalg import (
    bloch_vector,
    fidelity,
)
from .phases import (
    ConeGeometry,
    PhaseDecomposition,
    canonical_phase,
    compensation_gamma,
    cone_eigenstate,
    dynamical_phase,
    geometric_phase_cone,
    phase_decomposition,
    two_qubit_loop_params,
)
from .propagation import (
    Trajectory,
    adiabatic_error,
    integrate,
    loop_duration,
    propagator_compensated,
    propagator_uncompensated,
)
from .sequences import (
    ConditionalLoop,
    FieldLoop,
    FreeEvolve,
    PulseSequence,
    RotX,
    RotY,
    RotZ,
    SOpSolution,
    apply_sequence,
    build_conditional_loop,
    build_s_operation,
    integrate_loop,
    s_operation_params,
    sequence_trajectory,
    simulate_sequence,
    to_json,
)
from .gates import (
    GateRecipe,
    cnot_recipe,
    conditional_recipe,
    hadamard_recipe,
    not_recipe,
    phase_gate,
    phase_gate_recipe,
    verify_gate,
)

__version__ = "0.1.0"
