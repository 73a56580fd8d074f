"""Guaranteed-winning pursuit of goal-seeking evaders above a guarded
half-plane: geometry, strategies, certificates, matching and simulation."""

from .certificates import (
    AdjustBound,
    Certificate,
    CertificateKind,
    KKTReconstructionError,
    ParamRegion,
    RegionLabel,
    RelaxedSolution,
    adjust_time_bound,
    certify_win,
    classify_region,
    curvature_demand,
    curvature_demand_bound,
    heading_adjust_ratio,
    adjust_feasible,
    intercept_feasible,
    relaxation_sextic,
    relaxed_clearance_from_centers,
    relaxed_clearance_oracle,
    relaxed_oracle_from_centers,
    rollout_clearance_oracle,
    sample_adjust_feasible_state,
    solve_relaxed_clearance,
    two_step_feasible,
)
from .geometry import (
    IO_TOL,
    InterceptionData,
    heading_error,
    interception,
    turn_direction,
)
from .matching import WinGraph, assign, build_graph, max_matching
from .model import (
    EvaderSpec,
    EvaderState,
    GameParams,
    JointState,
    PursuerSpec,
    PursuerState,
    Scenario,
    pair_distances,
    step_evader,
    step_pursuer,
    wrap_angle,
    wrap_to_pi,
)
from .numerics import Polynomial, golden_max, max_on_circle, real_roots
from .sim import (
    Event,
    SimConfig,
    SimResult,
    detect_captures,
    detect_crossing,
    run,
)
from .strategies import (
    ClampDiagnostics,
    Phase,
    TwoStepState,
    evader_constant,
    evader_optimal,
    evader_random_goal,
    heading_adjust,
    pursuit_intercept,
    pursuit_simple,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
