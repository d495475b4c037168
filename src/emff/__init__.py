"""Electromagnetic formation flight: optimal dipole allocation and swarm power analysis."""

from .magnetics import (
    MU0,
    MIN_SEPARATION,
    CoilDesign,
    DipoleWaveform,
    Wrench,
    ZeroSeparationError,
    averaged_wrench,
    build_los_frame,
    dipole_field_wrench,
    instantaneous_wrench,
    interaction_operator,
    psi_stack,
    time_average_oracle,
)
from .dual import (
    DualCertificate,
    SolverError,
    solve_dual,
    solve_dual_batch,
)
from .allocation import (
    AllocationSolution,
    allocate,
    brute_force_allocate,
    extract_waveforms,
)
from .orbit import (
    K_J2,
    MU_EARTH,
    R_EARTH,
    OrbitContext,
    RelativeElements,
    StablePlane,
    desired_trajectory,
    freq_mismatch_disturbance,
    integrate_dynamics,
    j2_core_matrix,
    j2_disturbance_matrix,
    make_context,
    propagate_analytic,
    propagate_analytic_state,
    relative_elements,
)
from .brigade import (
    DisturbanceField,
    GridConfig,
    equilibrium_residuals,
    force_weight,
    pair_command,
    telescoping_oracle,
    torque_weight,
    unit_wrench,
)
from .power import (
    PowerReport,
    compute_power_report,
    compute_power_reports,
    orbit_time_grid,
    pair_power_w_star,
    power_index,
    surface_ratio,
)

__version__ = "0.1.0"
