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

So is the Hessian (ChartHessian): over the headings it is tridiagonal plus a
rank-2 semiseparable part, built from O(N) generators, and newton_direction
solves with it in O(N) by block cyclic reduction.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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


# A sum of tan^2(delta/2) at most this keeps every 1 + cos(delta) at or
# above 2 / (1 + 1/CUSP_TOL), about twice CUSP_TOL.
_CUSP_SCREEN = 1.0 / CUSP_TOL


class PrevFrame:
    """Cached geometry of the previous curve used by D and its gradient: the
    point columns (x, y), the edge-normal columns (nx, ny) and l~."""

    def __init__(self, prev: DiscreteCurve):
        self.x = np.ascontiguousarray(prev.points[:, 0])
        self.y = np.ascontiguousarray(prev.points[:, 1])
        tangents = prev.tangents
        self.nx = -tangents[:, 1]
        self.ny = np.ascontiguousarray(tangents[:, 0])
        self.edge_len = prev.edge_len
        self.n = prev.n


def _chart_points(z: np.ndarray, n: int):
    """Edge tangents (ux, uy), their prefix sums (cx, cy) with
    c_i = sum_{j<i} u_j, and the points (x, y) of the chart vector z."""
    theta = z[3:]
    ux, uy = np.cos(theta), np.sin(theta)
    cx, cy = np.empty(n), np.empty(n)
    cx[0] = cy[0] = 0.0
    np.add.accumulate(ux, out=cx[1:])
    np.add.accumulate(uy, out=cy[1:])
    ell = z[2]
    return ux, uy, cx, cy, z[0] + ell * cx, z[1] + ell * cy


def _dissipation_terms(x, y, edge_len: float, ux, uy, prev: PrevFrame):
    """Displacements (ex, ey), edge-midpoint displacements (mx, my), their
    projections a_e on the previous normals and b_e on the current ones
    (the current normal is (-uy, ux)), and D itself."""
    ex, ey = x - prev.x, y - prev.y
    mx = 0.5 * (ex[:-1] + ex[1:])
    my = 0.5 * (ey[:-1] + ey[1:])
    a = mx * prev.nx + my * prev.ny
    b = my * ux - mx * uy
    e0x, e0y, e1x, e1y = float(ex[0]), float(ey[0]), float(ex[-1]), float(ey[-1])
    d_val = (
        0.25 * prev.edge_len * float(a @ a)
        + 0.25 * edge_len * float(b @ b)
        + 0.5 * (e0x * e0x + e0y * e0y)
        + 0.5 * (e1x * e1x + e1y * e1y)
    )
    return ex, ey, mx, my, a, b, d_val


def dissipation(curve: DiscreteCurve, prev: DiscreteCurve) -> float:
    """Symmetrized squared distance between consecutive curves.

    Symmetric in its arguments and zero iff the curves coincide. Does not
    include the 1/tau factor; the step objective divides by tau.
    """
    if curve.n != prev.n:
        raise MismatchedN(f"curve has N={curve.n}, prev has N={prev.n}")
    pts, tangents = curve.points, curve.tangents
    return _dissipation_terms(pts[:, 0], pts[:, 1], curve.edge_len,
                              tangents[:, 0], tangents[:, 1], PrevFrame(prev))[-1]


def _objective_raw(z: np.ndarray, prev: PrevFrame, params: EnergyParams,
                   want_grad: bool):
    """Objective F (and optionally its exact gradient) at a reduced-coordinate
    vector z = (bx, by, l, theta_1..theta_{N-1}).

    This is the feasibility test of the open set the implicit step lives on:
    raises ZeroEdgeLength unless l > 0, DegenerateGap when the endpoint gap is
    at or below GAP_FLOOR, and CuspAngle at anti-parallel consecutive edges.
    A non-finite z gives a non-finite F rather than an error. Works on the x
    and y columns as 1-D arrays; 2-vectors are Python floats.
    """
    ell = float(z[2])
    if not (ell > 0.0):
        raise ZeroEdgeLength(f"edge length {ell} is not positive")
    n = prev.n
    theta = z[3:]
    eps, tau = params.epsilon, params.tau

    ux, uy, cx, cy, x, y = _chart_points(z, n)
    dx, dy = float(x[-1] - x[0]), float(y[-1] - y[0])
    gap2 = dx * dx + dy * dy
    if gap2 <= GAP_FLOOR * GAP_FLOOR:
        raise DegenerateGap(
            f"endpoint gap {math.sqrt(gap2):.3e} is at or below the floor"
        )

    # Bending in the chart: kappa_i = (2/l) tan(delta_i/2) with delta the
    # heading increment, so (eps*l/2) sum kappa^2 = (2 eps / l) sum tan^2.
    # As 1 + cos(delta) = 2 / (1 + tan^2(delta/2)), no edge pair can be
    # anti-parallel while sum tan^2 <= _CUSP_SCREEN; only above it is
    # 1 + cos(delta) computed and tested against CUSP_TOL.
    delta = theta[1:] - theta[:-1]
    t_half = np.tan(0.5 * delta)
    tan2_sum = float(t_half @ t_half)
    if tan2_sum > _CUSP_SCREEN and np.min(1.0 + np.cos(delta)) < CUSP_TOL:
        raise CuspAngle("anti-parallel edges inside objective evaluation")
    c_bend = 2.0 * eps / ell
    bend = c_bend * tan2_sum

    energy_val = (n - 1) * ell + bend - 0.5 * math.log(gap2)

    ex, ey, mx, my, a, b, d_val = _dissipation_terms(x, y, ell, ux, uy, prev)
    f_val = energy_val + d_val / tau
    if not want_grad:
        return f_val, None

    # Point-space gradient (gx, gy) of the Coulomb term and of D/tau; each
    # edge projection feeds half its weight to each of its two endpoints.
    pull_x, pull_y = dx / gap2, dy / gap2
    wa = (0.25 * prev.edge_len / tau) * a
    wb = (0.25 * ell / tau) * b
    edge_x = wa * prev.nx - wb * uy
    edge_y = wa * prev.ny + wb * ux
    gx, gy = np.empty(n), np.empty(n)
    gx[:-1] = edge_x
    gy[:-1] = edge_y
    gx[-1] = float(ex[-1]) / tau - pull_x
    gy[-1] = float(ey[-1]) / tau - pull_y
    gx[1:] += edge_x
    gy[1:] += edge_y
    gx[0] += float(ex[0]) / tau + pull_x
    gy[0] += float(ey[0]) / tau + pull_y

    # Chain rule through the positions, with the suffix sums
    # s_j = sum_{i>=j} g_i: d/d base = s_0, d/dl = sum_i g_i . c_i and
    # d/d theta_j = l * s_{j+1} . (-uy_j, ux_j).
    sx = np.add.accumulate(gx[::-1])[::-1]
    sy = np.add.accumulate(gy[::-1])[::-1]
    grad = np.empty(n + 2)
    grad[0], grad[1] = sx[0], sy[0]
    grad[2] = float(gx @ cx) + float(gy @ cy)
    g_theta = grad[3:]
    np.multiply(sy[1:], ux, out=g_theta)
    g_theta -= sx[1:] * uy
    g_theta *= ell

    # Direct dependence of length, bending and D on (l, theta).
    grad[2] += (n - 1) - bend / ell + 0.25 * float(b @ b) / tau
    w = c_bend * (t_half * (1.0 + t_half * t_half))
    g_theta[:-1] -= w
    g_theta[1:] += w
    g_theta -= (0.5 * ell / tau) * b * (mx * ux + my * uy)
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


def _suffix_after(a: np.ndarray) -> np.ndarray:
    """out[j] = sum_{e>j} a[e] along the first axis."""
    out = np.zeros_like(a)
    out[:-1] = np.cumsum(a[:0:-1], axis=0)[::-1]
    return out


class ChartHessian(NamedTuple):
    """Exact Hessian of F in chart coordinates z = (bx, by, l, theta), kept as
    O(N) generators. Over the headings (m = N-1 of them) it is

        H[j, j] = diag[j],   H[j, j+1] = off[j] + p[j].v[j+1],
        H[j, k] = p[j].v[k]  for j < k (symmetric below),

    a tridiagonal part (bending) plus a rank-2 semiseparable part (D, the
    endpoint terms and the Coulomb term); ``border[j]`` holds the entries of
    (bx, by, l) against theta_j and ``corner`` the 3x3 (bx, by, l) block.
    """

    diag: np.ndarray    # (m,)
    off: np.ndarray     # (m-1,)
    p: np.ndarray       # (m, 2)
    v: np.ndarray       # (m, 2)
    border: np.ndarray  # (m, 3)
    corner: np.ndarray  # (3, 3)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x in O(N), through prefix and suffix sums of the generators."""
        xb, xt = x[:3], x[3:]
        px = self.p * xt[:, None]
        vx = self.v * xt[:, None]
        s = np.cumsum(px, axis=0) - px  # sum_{k<j} p_k x_k
        t = _suffix_after(vx)           # sum_{k>j} v_k x_k
        out = np.empty_like(x)
        ht = self.diag * xt + (self.p * t + self.v * s).sum(axis=1)
        ht[:-1] += self.off * xt[1:]
        ht[1:] += self.off * xt[:-1]
        out[3:] = ht + self.border @ xb
        out[:3] = self.corner @ xb + (self.border * xt[:, None]).sum(axis=0)
        return out


def _objective_hessian(z: np.ndarray, prev: PrevFrame,
                       params: EnergyParams) -> ChartHessian:
    """Generators of the exact Hessian of F at a feasible z (see ChartHessian).

    Every term is a function of the points x(z), of l or of one heading, with
    dx_i/dtheta_j = l*p_j, d2x_i/dtheta_j^2 = -l*u_j and
    d2x_i/dl dtheta_j = p_j for j < i. The midpoint of edge e takes half of
    its own heading's motion, which is where the halves below come from.
    Symmetric 2x2 matrices are stored as their (xx, xy, yy) entries.
    """
    ell = float(z[2])
    n = prev.n
    theta = z[3:]
    tau = params.tau
    ux, uy, cx, cy, x, y = _chart_points(z, n)
    ex, ey, mx, my, a, b, _ = _dissipation_terms(x, y, ell, ux, uy, prev)
    u = np.column_stack([ux, uy])
    p = rot90(u)
    csum = np.column_stack([cx, cy])
    mid = np.column_stack([mx, my])
    nt = np.column_stack([prev.nx, prev.ny])
    d = np.array([x[-1] - x[0], y[-1] - y[0]])
    gap2 = float(d @ d)
    k_a = 0.5 * prev.edge_len / tau  # curvature of D/tau in a_e
    k_b = 0.5 * ell / tau            # and in b_e

    # Coulomb and the x_N endpoint term act through x_N - x_1 = l * sum u and
    # x_N: their heading block is l^2 p_j^T m_end p_k, of rank 2.
    m_end = (2.0 / gap2**2) * np.outer(d, d) + (1.0 / tau - 1.0 / gap2) * np.eye(2)
    pull = np.array([ex[-1], ey[-1]]) / tau - d / gap2
    sum_u = csum[-1]

    cm = csum[:-1] + 0.5 * u                  # d mid_e / dl
    ncm = (nt * cm).sum(axis=1)
    pcm = (p * cm).sum(axis=1)
    beta = 0.5 * ell - (mid * u).sum(axis=1)  # d b_e / d theta_e
    na = nt * (ell * ncm + a)[:, None]
    nn = np.column_stack([nt[:, 0] ** 2, nt[:, 0] * nt[:, 1], nt[:, 1] ** 2])
    pp = np.column_stack([p[:, 0] ** 2, p[:, 0] * p[:, 1], p[:, 1] ** 2])
    # Per-edge terms whose sums over e > j enter heading j, and those sums.
    per_edge = np.column_stack([
        k_a * nn + k_b * pp,                                  # grad a_e, b_e squared
        k_a * a[:, None] * nt + k_b * b[:, None] * p,         # a_e, b_e times their normals
        k_a * na + k_b * p * (ell * pcm + 2.0 * b)[:, None],  # l-heading terms
    ])
    after = _suffix_after(per_edge)
    q = after[:, :3] + (0.5 * k_a) * nn   # sum_e w_ej (k_a n n^T + k_b p p^T)
    qp = np.column_stack([q[:, 0] * p[:, 0] + q[:, 1] * p[:, 1],
                          q[:, 1] * p[:, 0] + q[:, 2] * p[:, 1]])
    side = k_b * (beta[:, None] * p - b[:, None] * u)
    pm = p @ m_end

    v = (ell * ell) * (pm + qp) + ell * side
    np_ = (nt * p).sum(axis=1)
    diag = (ell * ell) * ((pm * p).sum(axis=1) + (qp * p).sum(axis=1)
                          - (0.25 * k_a) * np_ * np_)
    diag -= ell * (u * (pull + after[:, 3:5] + (0.5 * k_a) * a[:, None] * nt)).sum(axis=1)
    diag += k_b * (beta * beta - b * b)

    border = np.empty((n - 1, 3))
    border[:, :2] = ell * (p / tau + qp) + side
    border[:, 2] = (p * (ell * (sum_u @ m_end) + pull + after[:, 5:]
                         + (0.5 * k_a) * na)).sum(axis=1)
    border[:, 2] += k_b * (pcm * beta + b * (0.5 - (cm * u).sum(axis=1))) + (0.5 / tau) * b * beta

    corner = np.empty((3, 3))
    w = per_edge[:, :3].sum(axis=0)
    corner[:2, :2] = [[w[0], w[1]], [w[1], w[2]]]
    corner[:2, :2] += (2.0 / tau) * np.eye(2)
    corner[:2, 2] = corner[2, :2] = (
        sum_u / tau + k_a * (nt * ncm[:, None]).sum(axis=0)
        + (p * (k_b * pcm + (0.5 / tau) * b)[:, None]).sum(axis=0)
    )
    corner[2, 2] = (sum_u @ m_end @ sum_u + k_a * float(ncm @ ncm)
                    + k_b * float(pcm @ pcm) + float(b @ pcm) / tau)

    # Bending: (2 eps / l) * sum tan^2(delta_k / 2), delta_k = theta_{k+1} - theta_k.
    c_bend = 2.0 * params.epsilon / ell
    t_half = np.tan(0.5 * (theta[1:] - theta[:-1]))
    t2 = t_half * t_half
    h = 0.5 * c_bend * (1.0 + 3.0 * t2) * (1.0 + t2)
    diag[:-1] += h
    diag[1:] += h
    w_l = (c_bend / ell) * t_half * (1.0 + t2)
    border[:-1, 2] += w_l
    border[1:, 2] -= w_l
    corner[2, 2] += 2.0 * c_bend * float(t2.sum()) / (ell * ell)
    return ChartHessian(diag, -h, p, v, border, corner)


def block_tridiagonal_solve(lower, diag, upper, rhs):
    """Solve a block-tridiagonal system by cyclic reduction (Heller 1976,
    SIAM J. Numer. Anal. 13).

    Block row j reads lower[j] x[j-1] + diag[j] x[j] + upper[j] x[j+1] = rhs[j]
    (lower[0] and upper[-1] are ignored); the blocks are (n, s, s) and rhs is
    (n, s, r). Each level eliminates the odd blocks with one batched s x s
    inverse and recurses on the even ones, so no LAPACK call is larger than
    one block. No pivoting across blocks: a singular block raises LinAlgError.
    """
    n, size = diag.shape[0], diag.shape[1]
    if n == 1:
        return np.linalg.solve(diag, rhs)
    n_odd, k = n // 2, (n - 1) // 2
    # Odd block i (row 2i+1) is x = e_f - e_lo x[2i] - e_up x[2i+2], with
    # [e_lo | e_up | e_f] = diag^-1 [lower | upper | rhs] of that row.
    elim = np.linalg.inv(diag[1::2]) @ np.concatenate(
        [lower[1::2], upper[1::2], rhs[1::2]], axis=2)
    e_lo, e_up, e_f = elim[:, :, :size], elim[:, :, size:2 * size], elim[:, :, 2 * size:]
    lo, up = lower[0::2].copy(), upper[0::2].copy()
    di, f = diag[0::2].copy(), rhs[0::2].copy()
    left = lo[1:] @ elim[:k]       # even rows 2.. and their left odd neighbour
    lo[1:] = -left[:, :, :size]
    di[1:] -= left[:, :, size:2 * size]
    f[1:] -= left[:, :, 2 * size:]
    right = up[:n_odd] @ elim      # even rows with an odd right neighbour
    di[:n_odd] -= right[:, :, :size]
    up[:n_odd] = -right[:, :, size:2 * size]
    f[:n_odd] -= right[:, :, 2 * size:]
    x_even = block_tridiagonal_solve(lo, di, up, f)
    x = np.empty_like(rhs)
    x[0::2] = x_even
    x[1::2] = e_f - e_lo @ x_even[:n_odd]
    x[1:2 * k:2] -= e_up[:k] @ x_even[1:]
    return x


def newton_direction(hess: ChartHessian, g: np.ndarray) -> np.ndarray:
    """The Newton direction -H^{-1} g from the generators in O(N).

    With the prefix and suffix states s_j = sum_{k<j} p_k x_k and
    t_j = sum_{k>j} v_k x_k, heading row j of H x reads
    diag_j x_j + off terms + v_j.s_j + p_j.t_j, so the heading system becomes
    block-tridiagonal in (x_j, s_j, t_j), 5x5 blocks. It is solved for g and
    the three border columns at once; a 3x3 Schur complement then closes the
    (bx, by, l) border. Raises LinAlgError on a singular block.
    """
    m = hess.diag.size
    eye = np.eye(2)
    diag = np.zeros((m, 5, 5))
    diag[:, 0, 0] = hess.diag
    diag[:, 0, 1:3] = hess.v
    diag[:, 0, 3:5] = hess.p
    diag[:, 1:3, 1:3] = eye
    diag[:, 3:5, 3:5] = eye
    lower = np.zeros((m, 5, 5))  # s_j - s_{j-1} - p_{j-1} x_{j-1} = 0
    lower[1:, 0, 0] = hess.off
    lower[1:, 1:3, 0] = -hess.p[:-1]
    lower[1:, 1:3, 1:3] = -eye
    upper = np.zeros((m, 5, 5))  # t_j - t_{j+1} - v_{j+1} x_{j+1} = 0
    upper[:-1, 0, 0] = hess.off
    upper[:-1, 3:5, 0] = -hess.v[1:]
    upper[:-1, 3:5, 3:5] = -eye
    rhs = np.zeros((m, 5, 4))
    rhs[:, 0, 0] = g[3:]
    rhs[:, 0, 1:] = hess.border
    sol = block_tridiagonal_solve(lower, diag, upper, rhs)[:, 0, :]
    x_g, x_b = sol[:, 0], sol[:, 1:]
    schur = hess.corner - (hess.border[:, :, None] * x_b[:, None, :]).sum(axis=0)
    y = np.linalg.solve(schur, g[:3] - (hess.border * x_g[:, None]).sum(axis=0))
    d = np.empty_like(g)
    d[:3] = -y
    d[3:] = (x_b * y).sum(axis=1) - x_g
    return d
