"""Resilient multi-robot coverage control on bearing-rigid networks.

Library layout:

  graphs     minimally rigid graph construction and combinatorial checks
  rigidity   bearing functions, rigidity matrix, rank analysis
  recovery   repair-edge computation after a robot loss
  geometry   convex polygon primitives
  coverage   Voronoi partitions, density-weighted centroids, locational cost
  dynamics   discrete-time robot models
  terminal   LQR terminal controller, Lyapunov matrix, invariant level set
  mpc        per-robot tracking solver with artificial references
  config     simulation config schema
  sim        closed-loop simulator, fault injection, trace export
  cli        command-line entry points
"""

from .config import FaultEvent, SimConfig, config_from_dict, load_config
from .coverage import (
    GaussianComponent,
    GaussianMixtureDensity,
    GridDensity,
    UniformDensity,
    centroid,
    coverage_cost,
    partition_update_due,
    voronoi_partition,
)
from .dynamics import (
    DoubleIntegrator,
    DragDoubleIntegrator,
    linearize,
    steady_state_from_position,
)
from .errors import (
    DegenerateEdgeError,
    DegenerateMassError,
    DegenerateSitesError,
    InvalidInputError,
    InvalidScalingError,
    InvalidStepError,
    NotStabilizableError,
    NumericalBreakdownError,
    OcpInfeasibleError,
    RecoveryInfeasibleError,
    RecursiveFeasibilityError,
    RigidCoverageError,
    TerminalSetEmptyError,
    UnsupportedDimensionError,
)
from .geometry import ConvexRegion
from .graphs import (
    EdgeSplitting,
    Graph,
    VertexAddition,
    graph_from_json,
    graph_to_json,
    henneberg_apply,
    henneberg_generate,
    henneberg_replay,
    laman_check,
)
from .mpc import (
    CostWeights,
    OcpProblem,
    OcpSolution,
    SqpOptions,
    bearing_cost,
    mpc_step,
    offset_optimum,
    shift_warm_start,
    solve_ocp,
)
from .recovery import (
    ClosingRanks,
    RecoveryPlan,
    apply_recovery,
    build_recovery_plan,
    closing_ranks,
    contract_edge,
    is_contractible,
)
from .rigidity import (
    BearingVector,
    Configuration,
    Framework,
    bearing_function,
    is_infinitesimally_bearing_rigid,
    rigidity_matrix,
    rigidity_rank,
    trivial_motion_basis,
)
from .sim import SimTrace, StepRecord, export, run
from .terminal import TerminalSet, build_terminal_set, lqr_gain, lyapunov_P, solve_riccati

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
