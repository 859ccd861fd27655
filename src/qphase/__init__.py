"""Simulation and control synthesis for finite-level quantum systems in
real phase-space coordinates (q = Re psi, p = Im psi)."""

__version__ = "0.1.0"

from .geometry import (
    CanonicalGenerator,
    Observable,
    PhasePoint,
    StateVector,
    canonical_apply,
    complex_structure,
    from_phase,
    g_form,
    omega_form,
    real_block,
    to_phase,
)
from .dynamics import (
    ClassicalHamiltonian,
    ControlSchedule,
    ControlledHamiltonian,
    PhaseEnsemble,
    evolve,
    evolve_block,
    evolve_unitary,
    interval_propagators,
    transport_ensemble,
)
from .measurement import (
    DensityMatrix,
    GaussianMeasurement,
    MeasurementOutcome,
    born_probability_via_metric,
    born_weights,
    branch_outcome,
    branch_probabilities,
    closest_point_check,
    collapse,
    continuous_observe,
    draw_branch,
    gaussian_apply,
    measure_nonselective,
    measure_selective,
    select_branches,
)
from .controllability import (
    LieClosureReport,
    OrbitMembership,
    group_element,
    lie_closure,
    orbit_membership,
)
from .steering import (
    ProtocolStep,
    ProtocolTrace,
    SteeringObservable,
    SteeringWord,
    build_frame_3level,
    build_frame_general,
    h1_matrix,
    h2_matrix,
    h3_matrix,
    ladder_control,
    ladder_drift,
    stabilize_middle_level,
    steer,
    steer_outcome,
)
from .torus import (
    CatMap,
    KickPlan,
    TorusState,
    apply_floquet_component,
    measure_momentum,
    plan_kicks,
    reach_state,
)
from .pontryagin import (
    ControlDomain,
    CostIntegrand,
    PmpSolution,
    PmpState,
    argmax_control,
    control_hamiltonian,
    forward_backward_sweep,
    solve_shooting,
)
from . import errors, rng, serialize
