"""Trajectory analysis: velocities and residuals of recorded steps against
the limiting motion law, and numerical checks.

The flow's limit satisfies, in the unit-parameter chart with L = (N-1)*l,

    interior:  V_perp = kappa - eps * (kappa_ss / L^2 + kappa^3 / 2)
    start:     V(0) = -(x_N - x_1)/gap^2 + t(0) - (eps/L) kappa_s(0) R(t(0))
    end:       V(1) = +(x_N - x_1)/gap^2 - t(1) + (eps/L) kappa_s(1) R(t(1))
    free ends: kappa(0) = kappa(1) = 0

with t the unit tangent. These are evaluated discretely on recorded steps of
a trajectory: kappa_ss by second central differences, kappa_s at the ends by
one-sided second-order stencils on the nearest interior curvatures, velocities
as difference quotients. The scheme is first order in tau and second order in
the edge length, so residual magnitudes are meaningful under refinement, not
as absolute gates.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import EnergyParams, PrevFrame, _objective_hessian, _objective_raw
from .errors import IndexOutOfRange, TooFewPoints
from .flow import Trajectory
from .polyline import DiscreteCurve, ReducedCoords, discrete_curvature, rot90

# The residual stencils reach two vertices in from each end.
RESIDUAL_MIN_POINTS = 5

# Central-difference step of fd_gradient_check and fd_hessian_check.
_FD_STEP = 1e-6

# Edges tested at once against every other edge by crossing_pairs.
_CROSSING_ROWS = 16

# Columns of the per-step CSV that ``curveflow run --diagnostics`` writes.
RESIDUAL_CSV_HEADER = ("snapshot_step,interior_L2,interior_max,coupling_L2,"
                       "boundary_start,boundary_end,kappa_start,kappa_end\n")


@dataclass(frozen=True)
class ResidualReport:
    """Discrete evaluations of the limiting motion law at one recorded step,
    as built by full_residual_report.

    ``step_index`` is the snapshot index n of the step n -> n+1, not the flow
    step; the flow step is ``traj.snapshot_steps[n]``.
    """

    step_index: int
    interior_L2: float
    interior_max: float
    boundary_start: np.ndarray
    boundary_end: np.ndarray
    kappa_boundary: tuple[float, float]
    coupling_L2: float

    def csv_row(self, snapshot_step: int) -> str:
        """One line of the diagnostics CSV (columns: RESIDUAL_CSV_HEADER)."""
        return (
            f"{snapshot_step},{self.interior_L2:.9e},"
            f"{self.interior_max:.9e},{self.coupling_L2:.9e},"
            f"{np.linalg.norm(self.boundary_start):.9e},"
            f"{np.linalg.norm(self.boundary_end):.9e},"
            f"{self.kappa_boundary[0]:.9e},{self.kappa_boundary[1]:.9e}\n"
        )


class VelocityField(NamedTuple):
    """Difference-quotient velocity of one recorded step and its split into
    tangential/normal parts against the arrival curve's vertex tangents."""

    v: np.ndarray           # (N, 2) vertex velocities
    v_tan: np.ndarray       # (N,) tangential components
    v_norm: np.ndarray      # (N,) normal components
    vertex_tangents: np.ndarray  # (N, 2) unit tangents used for the split


class CouplingResidual(NamedTuple):
    per_vertex: np.ndarray  # interior vertices i = 2..N-1
    max_norm: float
    l2_norm: float


def _fd_mismatch(z0: np.ndarray, exact, fun) -> float:
    """Max over coordinates k of the mismatch between ``exact(k)`` and the
    central difference of step _FD_STEP of ``fun`` along coordinate k,
    relative to the larger of their inf-norms (absolute below 1e-8)."""
    worst = 0.0
    for k in range(z0.size):
        zp = z0.copy()
        zm = z0.copy()
        zp[k] += _FD_STEP
        zm[k] -= _FD_STEP
        fd = (fun(zp) - fun(zm)) / (2.0 * _FD_STEP)
        ex = exact(k)
        scale = max(float(np.max(np.abs(ex))), float(np.max(np.abs(fd))))
        err = float(np.max(np.abs(fd - ex)))
        if scale > 1e-8:
            err /= scale
        worst = max(worst, err)
    return worst


def fd_gradient_check(rc: ReducedCoords, prev: DiscreteCurve,
                      params: EnergyParams) -> float:
    """Max relative mismatch of the analytic objective gradient vs central
    finite differences of step _FD_STEP (absolute comparison below 1e-8
    magnitude).

    The configuration must sit inside the feasible set with gap and cusp
    margins well above _FD_STEP.
    """
    frame = PrevFrame(prev)
    z0 = rc.as_vector()
    _, grad = _objective_raw(z0, frame, params, True)
    return _fd_mismatch(z0, lambda k: grad[k],
                        lambda z: _objective_raw(z, frame, params, False)[0])


def fd_hessian_check(rc: ReducedCoords, prev: DiscreteCurve,
                     params: EnergyParams) -> float:
    """Max relative mismatch of the analytic Hessian, column by column from
    its generators, vs central finite differences of step _FD_STEP of the
    analytic gradient. Each column is compared relative to its largest entry
    (absolute comparison below 1e-8 magnitude).

    The configuration must sit inside the feasible set with gap and cusp
    margins well above _FD_STEP.
    """
    frame = PrevFrame(prev)
    z0 = rc.as_vector()
    hess = _objective_hessian(z0, frame, params)
    return _fd_mismatch(z0, lambda k: hess.matvec(np.eye(1, z0.size, k)[0]),
                        lambda z: _objective_raw(z, frame, params, True)[1])


def vertex_tangents(curve: DiscreteCurve) -> np.ndarray:
    """Unit vertex tangents: edge tangent at the ends, normalized bisector
    (sum of adjacent edge tangents) at interior vertices."""
    t = curve.tangents
    out = np.empty((curve.n, 2))
    out[0] = t[0]
    out[-1] = t[-1]
    if curve.n > 2:
        mid = t[:-1] + t[1:]
        norms = np.linalg.norm(mid, axis=1, keepdims=True)
        out[1:-1] = mid / norms
    return out


def _recorded_step(traj: Trajectory, n: int):
    """(prev, cur, dt, v) of recorded step n -> n+1: the two snapshots, the
    time between them and the difference-quotient vertex velocities."""
    if n < 0 or n + 1 >= len(traj.snapshots):
        raise IndexOutOfRange(f"need snapshots {n} and {n + 1} recorded")
    prev = traj.snapshots[n]
    cur = traj.snapshots[n + 1]
    dt = (traj.snapshot_steps[n + 1] - traj.snapshot_steps[n]) * traj.tau
    return prev, cur, dt, (cur.points - prev.points) / dt


def velocity(traj: Trajectory, n: int) -> VelocityField:
    """Velocity of recorded step n -> n+1 (snapshot indices)."""
    _, cur, _, v = _recorded_step(traj, n)
    tvec = vertex_tangents(cur)
    v_tan = np.sum(v * tvec, axis=1)
    v_norm = np.sum(v * rot90(tvec), axis=1)
    return VelocityField(v=v, v_tan=v_tan, v_norm=v_norm, vertex_tangents=tvec)


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
    prev, cur, dt, v = _recorded_step(traj, n)
    return _coupling(prev, cur, dt, v, discrete_curvature(cur), vertex_tangents(cur))


def _coupling(prev, cur, dt, v, kap_cur, tvec_cur) -> CouplingResidual:
    """coupling_residual from the arrival curve's curvature and tangents."""
    nv = cur.n
    h = 1.0 / (nv - 1)
    L_prev = prev.total_length
    L_cur = cur.total_length

    g_prev = np.diff(prev.points, axis=0) / h  # full-speed edge tangents
    g_cur = np.diff(cur.points, axis=0) / h
    v_edge = 0.5 * (v[:-1] + v[1:])
    q = np.sum(v_edge * (g_prev + g_cur), axis=1)
    dq = np.diff(q) / h  # at interior vertices 2..N-1

    kap_prev = discrete_curvature(prev)
    t_prev = vertex_tangents(prev)[1:-1]
    t_cur = tvec_cur[1:-1]
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


def full_residual_report(traj: Trajectory, n: int,
                         params: EnergyParams) -> ResidualReport:
    """Interior, endpoint and coupling residuals of recorded step n -> n+1.

    Interior, per vertex i = 3..N-2:
    r_i = V_perp_i - kappa_i + eps (kappa_ss,i / L^2 + kappa_i^3 / 2),
    aggregated to trapezoid-in-s L2 and max norms. Endpoints: kappa_s at
    s=0,1 uses the second-order one-sided stencil on the three nearest
    interior curvatures; kappa at the ends themselves is not extrapolated, so
    the free-end condition is reported through ``kappa_boundary`` =
    (|kappa_2|, |kappa_{N-1}|). Coupling: the L2 norm of coupling_residual.
    The arrival curve's velocity, curvature and tangents are evaluated once.
    """
    prev, cur, dt, v = _recorded_step(traj, n)
    nv = cur.n
    if nv < RESIDUAL_MIN_POINTS:
        raise TooFewPoints(f"residual stencils need N >= {RESIDUAL_MIN_POINTS}")
    h = 1.0 / (nv - 1)
    L = cur.total_length
    kap = discrete_curvature(cur)  # interior vertices 2..N-1
    tvec = vertex_tangents(cur)

    v_norm = np.sum(v * rot90(tvec), axis=1)
    kss = (kap[2:] - 2.0 * kap[1:-1] + kap[:-2]) / h**2
    k_mid = kap[1:-1]
    r = v_norm[2:-2] - k_mid + params.epsilon * (kss / L**2 + 0.5 * k_mid**3)
    weights = np.full(r.size, h)
    weights[0] = weights[-1] = 0.5 * h

    d = cur.points[-1] - cur.points[0]
    gap2 = float(d @ d)
    ks0 = (-2.5 * kap[0] + 4.0 * kap[1] - 1.5 * kap[2]) / h
    ks1 = (2.5 * kap[-1] - 4.0 * kap[-2] + 1.5 * kap[-3]) / h
    rhs_start = -d / gap2 + tvec[0] - (params.epsilon / L) * ks0 * rot90(tvec[0])
    rhs_end = d / gap2 - tvec[-1] + (params.epsilon / L) * ks1 * rot90(tvec[-1])

    return ResidualReport(
        step_index=n,
        interior_L2=float(np.sqrt(np.sum(weights * r * r))),
        interior_max=float(np.max(np.abs(r))),
        boundary_start=v[0] - rhs_start,
        boundary_end=v[-1] - rhs_end,
        kappa_boundary=(float(abs(kap[0])), float(abs(kap[-1]))),
        coupling_L2=_coupling(prev, cur, dt, v, kap, tvec).l2_norm,
    )


def _orient(p, q, r, tol):
    """Sign of the (q-p) x (r-p) determinant with a touching tolerance."""
    det = (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
        q[..., 1] - p[..., 1]
    ) * (r[..., 0] - p[..., 0])
    return np.where(det > tol, 1, np.where(det < -tol, -1, 0))


def crossing_pairs(curve: DiscreteCurve) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of properly crossing non-adjacent edges."""
    pts = curve.points
    m = curve.n - 1  # edge count
    if m < 3:
        return []
    scale = max(float(np.max(np.abs(pts))), 1.0)
    tol = 1e-12 * scale * scale
    a = pts[:-1]
    b = pts[1:]
    js = np.arange(m)
    pairs = []
    # A block of rows i against every edge j, keeping the non-adjacent
    # partners j >= i + 2; np.nonzero lists the hits row by row.
    for lo in range(0, m - 2, _CROSSING_ROWS):
        rows = np.arange(lo, min(lo + _CROSSING_ROWS, m - 2))
        ai = a[rows, None]
        bi = b[rows, None]
        d1 = _orient(ai, bi, a, tol)
        d2 = _orient(ai, bi, b, tol)
        d3 = _orient(a, b, ai, tol)
        d4 = _orient(a, b, bi, tol)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0) & (js >= rows[:, None] + 2)
        ii, jj = np.nonzero(hit)
        pairs.extend(zip((ii + lo).tolist(), jj.tolist()))
    return pairs


def self_intersections(curve: DiscreteCurve) -> int:
    """Number of properly crossing non-adjacent edge pairs.

    Touching configurations within 1e-12 (relative to the coordinate scale)
    do not count as crossings.
    """
    return len(crossing_pairs(curve))


def loop_diameter(curve: DiscreteCurve) -> float:
    """Largest pairwise vertex distance inside the first self-crossing loop.

    The loop consists of the vertices strictly between the two crossing
    edges' far ends. Returns 0.0 when the curve has no crossing.
    """
    pairs = crossing_pairs(curve)
    if not pairs:
        return 0.0
    i, j = pairs[0]
    loop = curve.points[i + 1 : j + 1]
    if loop.shape[0] < 2:
        return 0.0
    diff = loop[:, None, :] - loop[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))
