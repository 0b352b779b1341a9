"""Outer iteration of the implicit variational scheme.

``run_flow`` repeats ``minimize_step``, records snapshots and per-step
scalars, and enforces the scheme's structural bounds as runtime assertions:
the energy chain E(x_{n+1}) <= F(x_{n+1}, x_n) <= E(x_n), the summed
dissipation bound sum_n D/tau <= E(x_0), the length bound (N-1)l <= 2(E_0+1),
the bending bound (eps*l/2) sum kappa^2 <= E_0+1, a positive endpoint gap,
and the tangent-cone condition <tau_i, tau~_i> >= 0 between consecutive
curves. Any violation raises BoundViolation with the offending numbers.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .energy import EnergyParams, dissipation, energy
from .errors import BoundViolation, IndexOutOfRange
from .minimize import (
    SolverOptions,
    StepReport,
    assert_cone_condition,
    minimize_step,
)
from .polyline import GAP_FLOOR, DiscreteCurve, discrete_curvature, edge_frame, rot90

ENERGY_SLACK = 1e-10
DISSIPATION_SLACK = 1e-8


@dataclass(frozen=True)
class FlowConfig:
    """Flow run parameters; ``n_steps`` caps every run.

    Termination happens at whichever triggers first: the step count, or, when
    ``stop_tol`` is set, the maximum vertex speed
    max_i |x_i^{n+1} - x_i^n| / tau dropping below it.
    """

    params: EnergyParams
    n_steps: int
    stop_tol: float | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    snapshot_every: int = 1

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.stop_tol is not None and not (self.stop_tol > 0):
            raise ValueError("stop_tol must be positive")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


@dataclass
class Trajectory:
    """Recorded history of one flow run.

    Scalars are recorded at every step; curve snapshots every
    ``snapshot_every`` steps (always including the first and last state).
    ``snapshot_steps[k]`` is the step index of ``snapshots[k]`` and its time
    is ``snapshot_steps[k] * tau``.
    """

    tau: float
    snapshots: list[DiscreteCurve] = field(default_factory=list)
    snapshot_steps: list[int] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    lengths: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    diss_over_tau: list[float] = field(default_factory=list)
    reports: list[StepReport] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        """Physical times of the recorded snapshots."""
        return self.tau * np.asarray(self.snapshot_steps, dtype=float)

    @property
    def n_steps(self) -> int:
        return len(self.reports)

    @property
    def final(self) -> DiscreteCurve:
        return self.snapshots[-1]


class VelocityField(NamedTuple):
    """Difference-quotient velocity of one recorded step and its split into
    tangential/normal parts against the arrival curve's vertex tangents."""

    v: np.ndarray           # (N, 2) vertex velocities
    v_tan: np.ndarray       # (N,) tangential components
    v_norm: np.ndarray      # (N,) normal components
    vertex_tangents: np.ndarray  # (N, 2) unit tangents used for the split


def vertex_tangents(curve: DiscreteCurve) -> np.ndarray:
    """Unit vertex tangents: edge tangent at the ends, normalized bisector
    (sum of adjacent edge tangents) at interior vertices."""
    t = edge_frame(curve).tangents
    out = np.empty((curve.n, 2))
    out[0] = t[0]
    out[-1] = t[-1]
    if curve.n > 2:
        mid = t[:-1] + t[1:]
        norms = np.linalg.norm(mid, axis=1, keepdims=True)
        out[1:-1] = mid / norms
    return out


def velocity(traj: Trajectory, n: int) -> VelocityField:
    """Velocity of recorded step n -> n+1 (snapshot indices)."""
    if n < 0 or n + 1 >= len(traj.snapshots):
        raise IndexOutOfRange(f"need snapshots {n} and {n + 1} recorded")
    cur = traj.snapshots[n + 1]
    dt = (traj.snapshot_steps[n + 1] - traj.snapshot_steps[n]) * traj.tau
    v = (cur.points - traj.snapshots[n].points) / dt
    tvec = vertex_tangents(cur)
    v_tan = np.sum(v * tvec, axis=1)
    v_norm = np.sum(v * rot90(tvec), axis=1)
    return VelocityField(v=v, v_tan=v_tan, v_norm=v_norm, vertex_tangents=tvec)


class CouplingResidual(NamedTuple):
    per_vertex: np.ndarray  # interior vertices i = 2..N-1
    max_norm: float
    l2_norm: float


def coupling_residual(traj: Trajectory, n: int) -> CouplingResidual:
    """Discrete defect of the tangential/normal speed coupling identity.

    In the unit-parameter chart the constant-speed constraint forces

        d/ds <V, G~ + G> = (L~ + L) dL/dt + L~^2 k~ <V, R(t~)> + L^2 k <V, R(t)>

    where G, G~ are the full-speed tangents (|G| = L), k the curvature and t
    the unit tangent of the arrival/previous curves. The left side is formed
    from edge values of <V, G~ + G> differenced at interior vertices with
    spacing 1/(N-1); the right side uses vertex curvatures and bisector vertex
    tangents. The residual is reported per interior vertex.
    """
    if n < 0 or n + 1 >= len(traj.snapshots):
        raise IndexOutOfRange(f"need snapshots {n} and {n + 1} recorded")
    prev = traj.snapshots[n]
    cur = traj.snapshots[n + 1]
    dt = (traj.snapshot_steps[n + 1] - traj.snapshot_steps[n]) * traj.tau
    nv = cur.n
    h = 1.0 / (nv - 1)
    L_prev = prev.total_length
    L_cur = cur.total_length

    v = (cur.points - prev.points) / dt
    g_prev = np.diff(prev.points, axis=0) / h  # full-speed edge tangents
    g_cur = np.diff(cur.points, axis=0) / h
    v_edge = 0.5 * (v[:-1] + v[1:])
    q = np.sum(v_edge * (g_prev + g_cur), axis=1)
    dq = np.diff(q) / h  # at interior vertices 2..N-1

    kap_prev = discrete_curvature(prev)
    kap_cur = discrete_curvature(cur)
    t_prev = vertex_tangents(prev)[1:-1]
    t_cur = vertex_tangents(cur)[1:-1]
    v_int = v[1:-1]
    rhs = (L_prev + L_cur) * (L_cur - L_prev) / dt
    rhs = rhs + L_prev**2 * kap_prev * np.sum(v_int * rot90(t_prev), axis=1)
    rhs = rhs + L_cur**2 * kap_cur * np.sum(v_int * rot90(t_cur), axis=1)

    r = dq - rhs
    return CouplingResidual(
        per_vertex=r,
        max_norm=float(np.max(np.abs(r))),
        l2_norm=float(np.sqrt(h * float(r @ r))),
    )


def _check_bounds(step, e_prev, breakdown, next_curve, e0, diss_sum):
    e_next = breakdown.total
    details = {
        "E_prev": e_prev,
        "E_next": e_next,
        "gap": next_curve.gap,
        "length": next_curve.total_length,
        "bend": breakdown.bending_term,
        "sum_D_over_tau": diss_sum,
    }
    if e_next > e_prev + ENERGY_SLACK * (1.0 + abs(e0)):
        raise BoundViolation("energy increased", step, details)
    if next_curve.gap < GAP_FLOOR:
        raise BoundViolation("endpoint gap below floor", step, details)
    if next_curve.total_length > 2.0 * (e0 + 1.0):
        raise BoundViolation("length bound exceeded", step, details)
    if breakdown.bending_term > e0 + 1.0:
        raise BoundViolation("bending bound exceeded", step, details)
    if diss_sum > e0 + DISSIPATION_SLACK:
        raise BoundViolation("summed dissipation exceeds E0", step, details)


def run_flow(initial: DiscreteCurve, cfg: FlowConfig) -> Trajectory:
    """Drive the minimizing-movement iteration from an admissible curve."""
    params = cfg.params
    e0 = energy(initial, params).total
    traj = Trajectory(tau=params.tau)
    traj.snapshots.append(initial)
    traj.snapshot_steps.append(0)
    traj.energies.append(e0)
    traj.lengths.append(initial.total_length)
    traj.gaps.append(initial.gap)

    prev = initial
    e_prev = e0
    diss_sum = 0.0
    for step in range(1, cfg.n_steps + 1):
        cur, report = minimize_step(prev, params, cfg.solver)
        d_over_tau = dissipation(cur, prev) / params.tau
        diss_sum += d_over_tau
        breakdown = energy(cur, params)
        e_next = breakdown.total

        if not assert_cone_condition(cur, prev):
            raise BoundViolation(
                "tangent cone condition violated (tau too large?)",
                step,
                {"E_prev": e_prev, "E_next": e_next},
            )
        _check_bounds(step, e_prev, breakdown, cur, e0, diss_sum)

        traj.energies.append(e_next)
        traj.lengths.append(cur.total_length)
        traj.gaps.append(cur.gap)
        traj.diss_over_tau.append(d_over_tau)
        traj.reports.append(report)

        max_speed = float(
            np.max(np.linalg.norm(cur.points - prev.points, axis=1)) / params.tau
        )
        done = cfg.stop_tol is not None and max_speed < cfg.stop_tol
        if step % cfg.snapshot_every == 0 or done or step == cfg.n_steps:
            traj.snapshots.append(cur)
            traj.snapshot_steps.append(step)
        prev = cur
        e_prev = e_next
        if done:
            break
    return traj
