"""One-dimensional relativistic quantum trajectory laboratory.

Computes particle and photon trajectories of the relativistic quantum
Hamilton-Jacobi formulation, locates trajectory nodes, verifies the
node-spacing / de Broglie half-wavelength law, and checks the governing
equations by residual analysis.
"""

from .action import (
    MobiusParams,
    action_scan,
    conjugate_momentum,
    dual_params,
    reduced_action,
    rqshje_residual,
)
from .errors import (
    DegenerateBasisError,
    DomainError,
    IntegrationOverflowError,
    SingularEnergyError,
)
from .kg import (
    KgBasis,
    kg_closed_constant,
    kg_fd_residual,
    kg_solve_linear,
    kg_solve_numeric,
    wronskian_drift,
    write_basis_csv,
)
from .nodes import (
    ClassicalLimitReport,
    NodeIntervals,
    NodeReport,
    classical_limit_scan,
    de_broglie_check,
    linear_node_summary,
    mean_momentum,
    nodes_constant,
    nodes_numeric,
    spacing_grows,
    write_classical_csv,
    write_node_report_csv,
)
from .scenario import (
    Potential,
    RegionClass,
    Scenario,
    Species,
    constant_rates,
    kinetic_factor,
    load_config,
    local_rates,
    m_to_fm,
    parse_config_text,
    scenario_from_config,
    turning_points,
)
from .trajectory import (
    DivergenceEvent,
    Trajectory,
    TrajectoryKind,
    constant_allowed_position,
    constant_allowed_velocity,
    constant_forbidden_position,
    divergence_times_forbidden,
    firqnl_residual,
    node_times_constant,
    trajectory_constant_allowed,
    trajectory_constant_forbidden,
    trajectory_ode,
    trajectory_ode_family,
    trajectory_photon,
    velocity_momentum_check,
    write_trajectory_csv,
)
