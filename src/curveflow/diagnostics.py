"""Residual diagnostics against the limiting motion law, and numerical checks.

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

import numpy as np

from .energy import EnergyParams, PrevFrame, _objective_raw
from .errors import TooFewPoints
from .flow import Trajectory, coupling_residual, velocity, vertex_tangents
from .polyline import DiscreteCurve, ReducedCoords, discrete_curvature, rot90

# The residual stencils reach two vertices in from each end.
RESIDUAL_MIN_POINTS = 5

# Edges tested at once against every other edge by crossing_pairs.
_CROSSING_ROWS = 16


@dataclass
class ResidualReport:
    """Discrete evaluations of the limiting motion law at one step.

    Fields are filled by interior_residual / boundary_residual /
    full_residual_report; unset ones remain None.
    """

    step_index: int
    interior_L2: float | None = None
    interior_max: float | None = None
    boundary_start: np.ndarray | None = None
    boundary_end: np.ndarray | None = None
    kappa_boundary: tuple[float, float] | None = None
    coupling_L2: float | None = None


def fd_gradient_check(rc: ReducedCoords, prev: DiscreteCurve,
                      params: EnergyParams, h: float = 1e-6) -> float:
    """Max relative mismatch of the analytic objective gradient vs central
    finite differences (absolute comparison below 1e-8 magnitude).

    The configuration must sit inside the feasible set with gap and cusp
    margins well above h.
    """
    frame = PrevFrame(prev)
    z0 = rc.as_vector()
    _, grad = _objective_raw(z0, frame, params, True)
    worst = 0.0
    for k in range(z0.size):
        zp = z0.copy()
        zm = z0.copy()
        zp[k] += h
        zm[k] -= h
        fp, _ = _objective_raw(zp, frame, params, False)
        fm, _ = _objective_raw(zm, frame, params, False)
        fd = (fp - fm) / (2.0 * h)
        scale = max(abs(grad[k]), abs(fd))
        err = abs(fd - grad[k])
        if scale > 1e-8:
            err /= scale
        worst = max(worst, err)
    return worst


def _arrival_kappa_fields(traj: Trajectory, n: int):
    cur = traj.snapshots[n + 1]
    nv = cur.n
    if nv < RESIDUAL_MIN_POINTS:
        raise TooFewPoints(f"residual stencils need N >= {RESIDUAL_MIN_POINTS}")
    h = 1.0 / (nv - 1)
    kap = discrete_curvature(cur)  # interior vertices 2..N-1
    return cur, nv, h, kap


def interior_residual(traj: Trajectory, n: int,
                      params: EnergyParams) -> ResidualReport:
    """Interior motion-law residual of step n -> n+1, per vertex i = 3..N-2.

    r_i = V_perp_i - kappa_i + eps (kappa_ss,i / L^2 + kappa_i^3 / 2),
    aggregated to trapezoid-in-s L2 and max norms.
    """
    cur, nv, h, kap = _arrival_kappa_fields(traj, n)
    L = cur.total_length
    v_norm = velocity(traj, n).v_norm
    kss = (kap[2:] - 2.0 * kap[1:-1] + kap[:-2]) / h**2
    k_mid = kap[1:-1]
    r = v_norm[2:-2] - k_mid + params.epsilon * (kss / L**2 + 0.5 * k_mid**3)
    weights = np.full(r.size, h)
    weights[0] = weights[-1] = 0.5 * h
    return ResidualReport(
        step_index=n,
        interior_L2=float(np.sqrt(np.sum(weights * r * r))),
        interior_max=float(np.max(np.abs(r))),
    )


def boundary_residual(traj: Trajectory, n: int,
                      params: EnergyParams) -> ResidualReport:
    """Endpoint velocity-law residuals of step n -> n+1.

    kappa_s at s=0,1 uses the second-order one-sided stencil on the three
    nearest interior curvatures; kappa at the ends themselves is not
    extrapolated, so the free-end condition is reported through
    ``kappa_boundary`` = (|kappa_2|, |kappa_{N-1}|).
    """
    cur, nv, h, kap = _arrival_kappa_fields(traj, n)
    L = cur.total_length
    vel = velocity(traj, n)
    tvec = vertex_tangents(cur)
    d = cur.points[-1] - cur.points[0]
    gap2 = float(d @ d)

    ks0 = (-2.5 * kap[0] + 4.0 * kap[1] - 1.5 * kap[2]) / h
    ks1 = (2.5 * kap[-1] - 4.0 * kap[-2] + 1.5 * kap[-3]) / h

    rhs_start = -d / gap2 + tvec[0] - (params.epsilon / L) * ks0 * rot90(tvec[0])
    rhs_end = d / gap2 - tvec[-1] + (params.epsilon / L) * ks1 * rot90(tvec[-1])
    return ResidualReport(
        step_index=n,
        boundary_start=vel.v[0] - rhs_start,
        boundary_end=vel.v[-1] - rhs_end,
        kappa_boundary=(float(abs(kap[0])), float(abs(kap[-1]))),
    )


def full_residual_report(traj: Trajectory, n: int,
                         params: EnergyParams) -> ResidualReport:
    """Interior, boundary and coupling residuals of one step in one report."""
    rep = interior_residual(traj, n, params)
    bnd = boundary_residual(traj, n, params)
    rep.boundary_start = bnd.boundary_start
    rep.boundary_end = bnd.boundary_end
    rep.kappa_boundary = bnd.kappa_boundary
    rep.coupling_L2 = coupling_residual(traj, n).l2_norm
    return rep


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
