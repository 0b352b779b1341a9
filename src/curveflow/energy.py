"""Discrete energy, dissipation, and the implicit-step objective.

The driving energy of a curve with endpoint gap g = |x_1 - x_N| is

    E = (N-1)*l  +  (eps*l/2) * sum_i kappa_i^2  -  log g,

i.e. polygonal length, a bending term over interior vertices, and a Coulomb
endpoint repulsion. One implicit time step of size tau minimizes

    F(x, x~) = E(x) + D(x, x~) / tau

over equal-edge curves x, where the dissipation D measures normal displacement
against both the previous and the current edge frames plus endpoint motion:

    D = (l~/4) * sum_e <m_e, nu~_e>^2
      + (l /4) * sum_e <m_e, nu_e>^2
      + |x_1 - x~_1|^2 / 2 + |x_N - x~_N|^2 / 2,

with m_e = (x_e - x~_e + x_{e+1} - x~_{e+1}) / 2 the edge-midpoint
displacement (e = 1..N-1): a midpoint quadrature of the continuum normal-
projection integral. Pairing each edge with its midpoint rather than a single
endpoint keeps D invariant under reversing the point order; the one-sided
point-with-edge pairing is chirally biased at O(l) and makes loops drift
along the curve toward lower indices.

Note the length term is (N-1)*l, the exact polygon length (a common
alternative writes N*l); this choice keeps E >= 1 for every admissible curve,
with equality exactly at the unit segment. The first dissipation sum carries
the previous edge length l~, the second the current l, mirroring the two-frame
symmetrization of the underlying metric.

Gradients with respect to the reduced coordinates (base, l, theta_1..theta_{N-1})
are exact: energy terms are differentiated in the chart directly, dissipation
through the positions by the chain rule
    dx_i/d base = Id,   dx_i/dl = sum_{j<i} u_j,   dx_i/d theta_j = l*R(u_j) [j<i].
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CuspAngle, DegenerateGap, MismatchedN, ZeroEdgeLength
from .polyline import (
    CUSP_TOL,
    GAP_FLOOR,
    DiscreteCurve,
    ReducedCoords,
    discrete_curvature,
    rot90,
)


@dataclass(frozen=True)
class EnergyParams:
    """Bending weight eps and time step tau, both positive and finite."""

    epsilon: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 < self.tau < np.inf):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.tau > 1.0:
            warnings.warn(
                f"tau={self.tau} > 1: the implicit step is still defined but "
                "outside the intended small-step regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class EnergyBreakdown:
    length_term: float
    bending_term: float
    coulomb_term: float
    total: float


def energy(curve: DiscreteCurve, params: EnergyParams) -> EnergyBreakdown:
    """Evaluate E on a curve, split into length, bending and Coulomb terms."""
    gap = curve.gap
    if gap <= 0.0:
        raise DegenerateGap("endpoint gap vanishes; -log gap undefined")
    bend = 0.0
    if curve.n >= 3:
        bend = float(np.sum(discrete_curvature(curve) ** 2))
    length_term = curve.total_length
    bending_term = 0.5 * params.epsilon * curve.edge_len * bend
    coulomb_term = -float(np.log(gap))
    return EnergyBreakdown(
        length_term=length_term,
        bending_term=bending_term,
        coulomb_term=coulomb_term,
        total=length_term + bending_term + coulomb_term,
    )


class PrevFrame:
    """Cached geometry of the previous curve used by D and its gradient."""

    def __init__(self, prev: DiscreteCurve):
        self.points = prev.points
        self.edge_len = prev.edge_len
        self.normals = rot90(prev.tangents)
        self.n = prev.n


def _dissipation_terms(x: np.ndarray, edge_len: float, normals: np.ndarray,
                       prev: PrevFrame):
    """Edge-midpoint projections a_e (previous frame), b_e (current frame)
    and D itself."""
    dx = x - prev.points
    mid = 0.5 * (dx[:-1] + dx[1:])
    a = (mid * prev.normals).sum(axis=1)
    b = (mid * normals).sum(axis=1)
    d_val = (
        0.25 * prev.edge_len * float(a @ a)
        + 0.25 * edge_len * float(b @ b)
        + 0.5 * float(dx[0] @ dx[0])
        + 0.5 * float(dx[-1] @ dx[-1])
    )
    return dx, mid, a, b, d_val


def dissipation(curve: DiscreteCurve, prev: DiscreteCurve) -> float:
    """Symmetrized squared distance between consecutive curves.

    Symmetric in its arguments and zero iff the curves coincide. Does not
    include the 1/tau factor; the step objective divides by tau.
    """
    if curve.n != prev.n:
        raise MismatchedN(f"curve has N={curve.n}, prev has N={prev.n}")
    d_val = _dissipation_terms(
        curve.points, curve.edge_len, rot90(curve.tangents), PrevFrame(prev)
    )[-1]
    return d_val


def _objective_raw(z: np.ndarray, prev: PrevFrame, params: EnergyParams,
                   want_grad: bool):
    """Objective F (and optionally its exact gradient) at a reduced-coordinate
    vector z = (bx, by, l, theta_1..theta_{N-1}).

    This is the feasibility test of the open set the implicit step lives on:
    raises ZeroEdgeLength unless l > 0, DegenerateGap when the endpoint gap is
    at or below GAP_FLOOR, and CuspAngle at anti-parallel consecutive edges.
    A non-finite z gives a non-finite F rather than an error.
    """
    ell = float(z[2])
    if not (ell > 0.0):
        raise ZeroEdgeLength(f"edge length {ell} is not positive")
    n = prev.n
    base = z[:2]
    theta = z[3:]
    eps, tau = params.epsilon, params.tau

    u = np.empty((n - 1, 2))
    u[:, 0] = np.cos(theta)
    u[:, 1] = np.sin(theta)
    p = np.empty_like(u)  # current edge normals, u rotated by pi/2
    p[:, 0] = -u[:, 1]
    p[:, 1] = u[:, 0]
    csum = np.empty((n, 2))  # csum[i] = sum_{j<i} u_j
    csum[0] = 0.0
    np.cumsum(u, axis=0, out=csum[1:])
    x = base + ell * csum

    d = x[-1] - x[0]
    gap2 = float(d @ d)
    if gap2 <= GAP_FLOOR * GAP_FLOOR:
        raise DegenerateGap(
            f"endpoint gap {np.sqrt(gap2):.3e} is at or below the floor"
        )

    # Bending in the chart: kappa_i = (2/l) tan(delta_i/2) with delta the
    # heading increment, so (eps*l/2) sum kappa^2 = (2 eps / l) sum tan^2.
    delta = theta[1:] - theta[:-1]
    one_plus_cos = 1.0 + np.cos(delta)
    if delta.size and one_plus_cos.min() < CUSP_TOL:
        raise CuspAngle("anti-parallel edges inside objective evaluation")
    t_half = np.tan(0.5 * delta)
    c_bend = 2.0 * eps / ell
    bend = c_bend * float(t_half @ t_half)

    energy_val = (n - 1) * ell + bend - 0.5 * float(np.log(gap2))

    dxp, mid, a, b, d_val = _dissipation_terms(x, ell, p, prev)
    f_val = energy_val + d_val / tau
    if not want_grad:
        return f_val, None

    # Point-space gradient of the Coulomb term and of D/tau; each edge
    # projection feeds half its weight to each of its two endpoints.
    pull = d / gap2
    g_pts = np.zeros((n, 2))
    g_pts[0] += pull
    g_pts[-1] -= pull
    edge_pull = (
        (0.25 * prev.edge_len / tau) * a[:, None] * prev.normals
        + (0.25 * ell / tau) * b[:, None] * p
    )
    g_pts[:-1] += edge_pull
    g_pts[1:] += edge_pull
    g_pts[0] += dxp[0] / tau
    g_pts[-1] += dxp[-1] / tau

    grad = np.empty(n + 2)
    # Chain rule through the positions.
    grad[:2] = g_pts.sum(axis=0)
    grad[2] = float((g_pts * csum).sum())
    suffix = g_pts[::-1].cumsum(axis=0)[::-1]  # suffix[j] = sum_{i>=j} g_i
    grad[3:] = ell * (suffix[1:] * p).sum(axis=1)

    # Direct dependence of length, bending and D on (l, theta).
    grad[2] += (n - 1) - bend / ell + 0.25 * float(b @ b) / tau
    if delta.size:
        w = t_half * (1.0 + t_half * t_half)
        grad[3:-1] -= c_bend * w
        grad[4:] += c_bend * w
    grad[3:] -= (0.5 * ell / tau) * b * (mid * u).sum(axis=1)
    return f_val, grad


def objective(rc: ReducedCoords, prev: DiscreteCurve, params: EnergyParams) -> float:
    """F(x(rc), prev) = E + D/tau for a candidate in reduced coordinates."""
    if rc.n != prev.n:
        raise MismatchedN(f"candidate has N={rc.n}, prev has N={prev.n}")
    f_val, _ = _objective_raw(rc.as_vector(), PrevFrame(prev), params, False)
    return f_val


def objective_gradient(rc: ReducedCoords, prev: DiscreteCurve,
                       params: EnergyParams) -> np.ndarray:
    """Exact gradient of the objective over (base_x, base_y, l, theta_*)."""
    if rc.n != prev.n:
        raise MismatchedN(f"candidate has N={rc.n}, prev has N={prev.n}")
    _, grad = _objective_raw(rc.as_vector(), PrevFrame(prev), params, True)
    return grad
