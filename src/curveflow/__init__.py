"""Planar open elastic curves with Coulomb endpoint repulsion, evolved by an
implicit variational (minimizing-movement) scheme on equal-edge polylines."""

from .energy import (
    EnergyBreakdown,
    EnergyParams,
    dissipation,
    energy,
    objective,
    objective_gradient,
)
from .errors import (
    BadParameters,
    BoundViolation,
    CurveFlowError,
    CuspAngle,
    DegenerateGap,
    IndexOutOfRange,
    MismatchedN,
    TooFewPoints,
    UnequalEdges,
    ZeroEdgeLength,
    ZeroLengthInput,
)
from .flow import FlowConfig, Trajectory, assert_cone_condition, run_flow
from .diagnostics import (
    ResidualReport,
    VelocityField,
    coupling_residual,
    fd_gradient_check,
    fd_hessian_check,
    full_residual_report,
    loop_diameter,
    self_intersections,
    velocity,
)
from .io import read_trajectory_jsonl, render_svg, write_trajectory
from .minimize import SolverOptions, StepReport, minimize_step
from .polyline import (
    DiscreteCurve,
    ReducedCoords,
    discrete_curvature,
    from_reduced,
    resample_equal_arclength,
    to_reduced,
    turning_angles,
    validate,
)
from .scenarios import PRESETS, Preset, Scenario, make_scenario

__version__ = "0.1.0"

__all__ = [
    "BadParameters",
    "BoundViolation",
    "CurveFlowError",
    "CuspAngle",
    "DegenerateGap",
    "DiscreteCurve",
    "EnergyBreakdown",
    "EnergyParams",
    "FlowConfig",
    "IndexOutOfRange",
    "MismatchedN",
    "PRESETS",
    "Preset",
    "ReducedCoords",
    "ResidualReport",
    "Scenario",
    "SolverOptions",
    "StepReport",
    "TooFewPoints",
    "Trajectory",
    "UnequalEdges",
    "VelocityField",
    "ZeroEdgeLength",
    "ZeroLengthInput",
    "assert_cone_condition",
    "coupling_residual",
    "discrete_curvature",
    "dissipation",
    "energy",
    "fd_gradient_check",
    "fd_hessian_check",
    "from_reduced",
    "full_residual_report",
    "loop_diameter",
    "make_scenario",
    "minimize_step",
    "objective",
    "objective_gradient",
    "read_trajectory_jsonl",
    "render_svg",
    "resample_equal_arclength",
    "run_flow",
    "self_intersections",
    "to_reduced",
    "turning_angles",
    "validate",
    "velocity",
    "write_trajectory",
]
