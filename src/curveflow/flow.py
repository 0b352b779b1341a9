"""Outer iteration of the implicit variational scheme.

``run_flow`` repeats ``minimize_step``, records snapshots and per-step
scalars, and enforces the scheme's structural bounds as runtime assertions:
the energy chain E(x_{n+1}) <= F(x_{n+1}, x_n) <= E(x_n), the summed
dissipation bound sum_n D/tau <= E(x_0), the length bound (N-1)l <= 2(E_0+1),
the bending bound (eps*l/2) sum kappa^2 <= E_0+1, an endpoint gap above
GAP_FLOOR, and the tangent-cone condition <tau_i, tau~_i> >= 0 between
consecutive curves. Any violation raises BoundViolation with the offending
numbers.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyParams, dissipation, energy
from .errors import BoundViolation, MismatchedN
from .minimize import SolverOptions, StepReport, minimize_step
from .polyline import DiscreteCurve

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
    def n_steps(self) -> int:
        return len(self.reports)

    @property
    def final(self) -> DiscreteCurve:
        return self.snapshots[-1]


def assert_cone_condition(next_curve: DiscreteCurve, prev: DiscreteCurve) -> bool:
    """True iff every edge tangent kept a non-negative dot with its
    predecessor, i.e. the step stayed inside the admissible cone of prev."""
    if next_curve.n != prev.n:
        raise MismatchedN(f"curves have N={next_curve.n} and N={prev.n}")
    e_new = next_curve.edges
    e_old = prev.edges
    dots = np.sum(e_new * e_old, axis=1)
    return bool(np.all(dots >= 0.0))


def _check_bounds(step, e_prev, breakdown, next_curve, prev, e0, diss_sum):
    e_next = breakdown.total
    details = {
        "E_prev": e_prev,
        "E_next": e_next,
        "gap": next_curve.gap,
        "length": next_curve.total_length,
        "bend": breakdown.bending_term,
        "sum_D_over_tau": diss_sum,
    }
    if not assert_cone_condition(next_curve, prev):
        raise BoundViolation(
            "tangent cone condition violated (tau too large?)", step, details)
    if e_next > e_prev + ENERGY_SLACK * (1.0 + abs(e0)):
        raise BoundViolation("energy increased", step, details)
    if not next_curve.is_admissible():
        raise BoundViolation("endpoint gap at or below floor", step, details)
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
        _check_bounds(step, e_prev, breakdown, cur, prev, e0, diss_sum)

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
