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
solves with it in O(N): one block-LU sweep over chunks of headings, each
lifted with the prefix and suffix sums that couple it to the others.
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
    _chart_points,
    discrete_curvature,
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
    Works on x and y columns as 1-D arrays, like _objective_raw; symmetric
    2x2 matrices are kept as their (xx, xy, yy) entries.
    """
    ell = float(z[2])
    n = prev.n
    theta = z[3:]
    tau = params.tau
    ux, uy, cx, cy, x, y = _chart_points(z, n)
    ex, ey, mx, my, a, b, _ = _dissipation_terms(x, y, ell, ux, uy, prev)
    px, py = -uy, ux
    nx, ny = prev.nx, prev.ny
    dx, dy = float(x[-1] - x[0]), float(y[-1] - y[0])
    gap2 = dx * dx + dy * dy
    k_a = 0.5 * prev.edge_len / tau  # curvature of D/tau in a_e
    k_b = 0.5 * ell / tau            # and in b_e

    # Coulomb and the x_N endpoint term act through x_N - x_1 = l * sum u and
    # x_N: their heading block is l^2 p_j^T m_end p_k, of rank 2.
    c_d, c_i = 2.0 / (gap2 * gap2), 1.0 / tau - 1.0 / gap2
    m_xx, m_xy, m_yy = c_d * dx * dx + c_i, c_d * dx * dy, c_d * dy * dy + c_i
    pull_x = float(ex[-1]) / tau - dx / gap2
    pull_y = float(ey[-1]) / tau - dy / gap2
    su_x, su_y = float(cx[-1]), float(cy[-1])  # sum u

    cmx = cx[:-1] + 0.5 * ux                  # d mid_e / dl
    cmy = cy[:-1] + 0.5 * uy
    ncm = nx * cmx + ny * cmy
    pcm = px * cmx + py * cmy
    beta = 0.5 * ell - (mx * ux + my * uy)    # d b_e / d theta_e
    a_l = ell * ncm + a                       # d (l a_e) / dl
    nxx, nxy, nyy = nx * nx, nx * ny, ny * ny
    # Per-edge terms whose sums over e > j enter heading j (rows 0-2: grad
    # a_e, b_e squared; 3-4: a_e, b_e times their normals; 5-6: l-heading
    # terms), and those sums, all seven in one pass.
    m = n - 1
    per_edge = np.empty((7, m + 1))
    per_edge[:, -1] = 0.0
    pb = ell * pcm + 2.0 * b
    per_edge[0, :-1] = k_a * nxx + k_b * (px * px)
    per_edge[1, :-1] = k_a * nxy + k_b * (px * py)
    per_edge[2, :-1] = k_a * nyy + k_b * (py * py)
    per_edge[3, :-1] = k_a * a * nx + k_b * b * px
    per_edge[4, :-1] = k_a * a * ny + k_b * b * py
    per_edge[5, :-1] = k_a * a_l * nx + k_b * pb * px
    per_edge[6, :-1] = k_a * a_l * ny + k_b * pb * py
    from_e = np.add.accumulate(per_edge[:, ::-1], axis=1)[:, ::-1]
    after, total = from_e[:, 1:], from_e[:, 0]
    q0 = after[0] + (0.5 * k_a) * nxx   # sum_e w_ej (k_a n n^T + k_b p p^T)
    q1 = after[1] + (0.5 * k_a) * nxy
    q2 = after[2] + (0.5 * k_a) * nyy
    qpx = q0 * px + q1 * py
    qpy = q1 * px + q2 * py
    side_x = k_b * (beta * px - b * ux)
    side_y = k_b * (beta * py - b * uy)
    pmx = px * m_xx + py * m_xy
    pmy = px * m_xy + py * m_yy

    p = np.empty((m, 2))
    p[:, 0], p[:, 1] = px, py
    v = np.empty((m, 2))
    v[:, 0] = (ell * ell) * (pmx + qpx) + ell * side_x
    v[:, 1] = (ell * ell) * (pmy + qpy) + ell * side_y
    np_ = nx * px + ny * py
    diag = (ell * ell) * ((pmx * px + pmy * py) + (qpx * px + qpy * py)
                          - (0.25 * k_a) * np_ * np_)
    diag -= ell * (ux * (pull_x + after[3] + (0.5 * k_a) * a * nx)
                   + uy * (pull_y + after[4] + (0.5 * k_a) * a * ny))
    diag += k_b * (beta * beta - b * b)

    border = np.empty((m, 3))
    border[:, 0] = ell * (px / tau + qpx) + side_x
    border[:, 1] = ell * (py / tau + qpy) + side_y
    border[:, 2] = (px * (ell * (su_x * m_xx + su_y * m_xy) + pull_x + after[5]
                          + (0.5 * k_a) * a_l * nx)
                    + py * (ell * (su_x * m_xy + su_y * m_yy) + pull_y + after[6]
                            + (0.5 * k_a) * a_l * ny))
    border[:, 2] += (k_b * (pcm * beta + b * (0.5 - (cmx * ux + cmy * uy)))
                     + (0.5 / tau) * b * beta)

    corner = np.empty((3, 3))
    corner[0, 0] = total[0] + 2.0 / tau
    corner[0, 1] = corner[1, 0] = total[1]
    corner[1, 1] = total[2] + 2.0 / tau
    w_cb = k_b * pcm + (0.5 / tau) * b
    corner[0, 2] = corner[2, 0] = (su_x / tau + k_a * float(nx @ ncm)
                                   + float(px @ w_cb))
    corner[1, 2] = corner[2, 1] = (su_y / tau + k_a * float(ny @ ncm)
                                   + float(py @ w_cb))
    corner[2, 2] = (su_x * (m_xx * su_x + m_xy * su_y) + su_y * (m_xy * su_x + m_yy * su_y)
                    + k_a * float(ncm @ ncm) + k_b * float(pcm @ pcm) + float(b @ pcm) / tau)

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


# Headings per chunk of the Newton solve. The sweep's largest LAPACK call is
# one (_CHUNK + 4)-square block: dense solves up to 64x64 gave the same bits
# under 1 and 2 BLAS threads, 122x122 did not.
_CHUNK = 32


def _heading_solve(hess: ChartHessian, rhs: np.ndarray) -> np.ndarray:
    """Solve H_theta X = rhs for the heading block of H, rhs of shape (m, r).

    With the prefix and suffix states s_j = sum_{k<j} p_k x_k and
    t_j = sum_{k>j} v_k x_k, heading row j of H x reads
    diag_j x_j + off terms + v_j.s_j + p_j.t_j. The headings are cut into
    chunks of _CHUNK (padded with identity rows). Chunk c carries the state
    S_c before it and T_c after it, so its unknowns (S_c, x_c, T_c) meet the
    neighbouring chunks only through S_c = S_{c-1} + P_{c-1}^T x_{c-1},
    T_c = T_{c+1} + V_{c+1}^T x_{c+1} and the two off entries across the
    cut: the system is block tridiagonal, and each off-diagonal block has
    three nonzero rows. One block-LU sweep solves it: forward, each chunk's
    block takes a 3-row update from the previous chunk and gets one pivoted
    solve; backward, each chunk reads three interface values of the next.
    No pivoting across chunks: raises LinAlgError on a singular block.
    """
    m, n_rhs = rhs.shape
    k = -(-m // _CHUNK)
    # Generators and right-hand sides, padded to whole chunks with identity
    # rows; off[j] couples headings j and j + 1.
    gen = np.zeros((k * _CHUNK, 6 + n_rhs))
    gen[:, 0] = 1.0
    gen[:m, 0], gen[:m - 1, 1], gen[:m, 6:] = hess.diag, hess.off, rhs
    gen[:m, 2:4], gen[:m, 4:6] = hess.p, hess.v
    gen = gen.reshape(k, _CHUNK, -1)
    diag, off, p, v = gen[:, :, 0], gen[:, :, 1], gen[:, :, 2:4], gen[:, :, 4:6]

    # Diagonal blocks over (S, x, T): diag + off + triu(P V^T, 1) and its
    # transpose, with V next to S and P next to T, and identity rows for S, T.
    size = _CHUNK + 4
    block = np.zeros((k, size, size))
    pvt = p @ v.transpose(0, 2, 1)
    block[:, 2:-2, 2:-2] = np.where(np.tri(_CHUNK, dtype=bool),
                                    pvt.transpose(0, 2, 1), pvt)
    i = np.arange(2, size - 2)
    block[:, i, i] = diag
    block[:, i[:-1], i[1:]] += off[:, :-1]
    block[:, i[1:], i[:-1]] += off[:, :-1]
    block[:, 2:-2, :2] = v
    block[:, 2:-2, -2:] = p
    block[:, :2, :2] = block[:, -2:, -2:] = np.eye(2)
    # Rows (S_c, x_c first) on chunk c - 1, and rows (x_c last, T_c) on
    # chunk c + 1; low[0] and up[-1] are unused.
    low = np.zeros((k, 3, size))
    low[1:, :2, :2] = -np.eye(2)
    low[1:, :2, 2:-2] = -p[:-1].transpose(0, 2, 1)
    low[1:, 2, -3] = off[:-1, -1]
    up = np.zeros((k, 3, size))
    up[:-1, 0, 2] = off[:-1, -1]
    up[:-1, 1:, 2:-2] = -v[1:].transpose(0, 2, 1)
    up[:-1, 1:, -2:] = -np.eye(2)

    # Forward: sol[c] = [Z_c | z_c] = block_c^-1 [e_33 e_34 e_35 | r_c], the
    # block and r_c updated by the elimination of chunk c - 1.
    cols = np.zeros((k, size, 3 + n_rhs))
    cols[:, -3:, :3] = np.eye(3)
    cols[:, 2:-2, 3:] = gen[:, :, 6:]
    sol = np.empty_like(cols)
    sol[0] = np.linalg.solve(block[0], cols[0])
    for c in range(1, k):
        read = low[c] @ sol[c - 1]
        block[c, :3] -= read[:, :3] @ up[c - 1]
        cols[c, :3, 3:] -= read[:, 3:]
        sol[c] = np.linalg.solve(block[c], cols[c])

    # Backward: x_c = z_c - Z_c (up_c x_{c+1}).
    x = sol[:, :, 3:]
    for c in range(k - 2, -1, -1):
        x[c] -= sol[c, :, :3] @ (up[c] @ x[c + 1])
    return x[:, 2:-2].reshape(-1, n_rhs)[:m]


def newton_direction(hess: ChartHessian, g: np.ndarray) -> np.ndarray:
    """The Newton direction -H^{-1} g from the generators in O(N).

    The heading block is solved (_heading_solve) for g and the three border
    columns at once; a 3x3 Schur complement then closes the (bx, by, l)
    border. No LAPACK call is larger than one (_CHUNK + 4)-square chunk block
    with 7 right-hand sides. Raises LinAlgError on a singular chunk block.
    """
    rhs = np.empty((hess.diag.size, 4))
    rhs[:, 0] = g[3:]
    rhs[:, 1:] = hess.border
    sol = _heading_solve(hess, rhs)
    x_g, x_b = sol[:, 0], sol[:, 1:]
    schur = hess.corner - (hess.border[:, :, None] * x_b[:, None, :]).sum(axis=0)
    y = np.linalg.solve(schur, g[:3] - (hess.border * x_g[:, None]).sum(axis=0))
    d = np.empty_like(g)
    d[:3] = -y
    d[3:] = (x_b * y).sum(axis=1) - x_g
    return d
