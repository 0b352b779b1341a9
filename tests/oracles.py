"""Independent reference computations used by the tests.

These deliberately avoid the package's own evaluation paths: the 1-D segment
flow is a scalar root-finding recursion, intersections are brute-force pair
checks, arclength is dense piecewise-linear quadrature, and derivative checks
are plain central differences. The L-BFGS two-loop recursion and the
crossing search over one edge at a time are the simple forms of the
package's compact-form history and grid-filtered crossing search. The
dense Hessian, written out entry by entry from its generators, is the
reference for the structured Newton solve. The objective kernel and the
Hessian generators in their earlier row form, over (N, 2) point arrays, are
the references for the column-form ``_objective_raw`` and
``_objective_hessian``. The residuals of one recorded step,
computed in three independent parts that each re-evaluate the velocity,
curvature and tangents they need, are the reference for the one-pass
``full_residual_report``.
"""

import numpy as np

from curveflow.errors import CuspAngle, DegenerateGap, ZeroEdgeLength
from curveflow.polyline import CUSP_TOL, GAP_FLOOR, discrete_curvature, rot90


def segment_step_oracle(length_prev: float, tau: float) -> float:
    """One implicit step of the straight-segment flow.

    A straight on-axis segment stays straight; translations of its interior
    points cost no normal dissipation, so minimizing over (left shift, right
    shift) reduces to the scalar strictly convex problem

        min_L  L - log L + (L - L_prev)^2 / (4 tau),

    whose optimality condition (1 - 1/L) + (L - L_prev)/(2 tau) = 0 is solved
    by bisection.
    """

    def slope(length):
        return (1.0 - 1.0 / length) + (length - length_prev) / (2.0 * tau)

    lo, hi = min(1.0, length_prev), max(1.0, length_prev)
    if lo == hi:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def segment_flow_oracle(length0: float, tau: float, steps: int) -> np.ndarray:
    """Lengths L_0..L_steps of the 1-D straight-segment flow."""
    lengths = [length0]
    for _ in range(steps):
        lengths.append(segment_step_oracle(lengths[-1], tau))
    return np.asarray(lengths)


def brute_force_crossings(points: np.ndarray) -> int:
    """All-pairs proper-crossing count via explicit parametric solves."""
    m = len(points) - 1
    count = 0
    for i in range(m):
        for j in range(i + 2, m):
            a, b = points[i], points[i + 1]
            p, q = points[j], points[j + 1]
            d1 = b - a
            d2 = q - p
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if den == 0.0:
                continue
            rp = p - a
            t = (rp[0] * d2[1] - rp[1] * d2[0]) / den
            s = (rp[0] * d1[1] - rp[1] * d1[0]) / den
            if 1e-9 < t < 1 - 1e-9 and 1e-9 < s < 1 - 1e-9:
                count += 1
    return count


def polyline_arclength(points: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


def central_difference(fun, x0: np.ndarray, h: float) -> np.ndarray:
    """Plain per-coordinate central differences of a scalar function."""
    grad = np.empty_like(x0)
    for k in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += h
        xm[k] -= h
        grad[k] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def random_open_curve(rng, n: int, min_gap: float = 0.1):
    """Random equal-edge polyline with bounded turning and a healthy gap.

    The total length is kept O(1) so energies stay moderate. Returns
    (base, edge_len, headings); draws are retried until the endpoint gap
    clears ``min_gap`` (as a fraction of the total length) so that the log
    and cusp guards stay far away.
    """
    for _ in range(200):
        total = float(rng.uniform(0.8, 2.5))
        edge_len = total / (n - 1)
        base = rng.uniform(-0.5, 0.5, 2)
        headings = float(rng.uniform(-np.pi, np.pi)) + np.cumsum(
            rng.uniform(-0.5, 0.5, n - 1)
        )
        steps = edge_len * np.column_stack([np.cos(headings), np.sin(headings)])
        pts = np.vstack([base, base + np.cumsum(steps, axis=0)])
        if np.linalg.norm(pts[-1] - pts[0]) > min_gap * total:
            return base, edge_len, headings
    raise AssertionError("could not draw an admissible random curve")


def two_loop_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """L-BFGS direction -H g by the standard two-loop recursion over
    (s, y) pairs, oldest first, with the initial scaling s.y / y.y of the
    newest pair."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = float(s @ q) / float(s @ y)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        b = float(y @ q) / float(s @ y)
        q += (a - b) * s
    return -q


def dense_chart_hessian(hess) -> np.ndarray:
    """The (N+2) x (N+2) chart Hessian written out entry by entry from the
    generators of a ChartHessian: border rows (bx, by, l) first, then the
    headings with H[j, k] = p_j . v_k (+ off_j on the first superdiagonal)
    above the diagonal."""
    m = hess.diag.size
    dense = np.zeros((m + 3, m + 3))
    dense[:3, :3] = hess.corner
    for j in range(m):
        dense[3 + j, :3] = dense[:3, 3 + j] = hess.border[j]
        dense[3 + j, 3 + j] = hess.diag[j]
        for k in range(j + 1, m):
            entry = float(hess.p[j] @ hess.v[k])
            if k == j + 1:
                entry += hess.off[j]
            dense[3 + j, 3 + k] = dense[3 + k, 3 + j] = entry
    return dense


def crossing_pairs_by_rows(points: np.ndarray, orient) -> list:
    """Properly crossing non-adjacent edge pairs (i, j), one edge i at a time
    against its partners j >= i + 2, with the package's orientation test
    ``orient(p, q, r, tol)``."""
    m = len(points) - 1
    if m < 3:
        return []
    scale = max(float(np.max(np.abs(points))), 1.0)
    tol = 1e-12 * scale * scale
    a = points[:-1]
    b = points[1:]
    pairs = []
    for i in range(m - 2):
        js = np.arange(i + 2, m)
        d1 = orient(a[i], b[i], a[js], tol)
        d2 = orient(a[i], b[i], b[js], tol)
        d3 = orient(a[js], b[js], np.broadcast_to(a[i], (js.size, 2)), tol)
        d4 = orient(a[js], b[js], np.broadcast_to(b[i], (js.size, 2)), tol)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        pairs.extend((i, int(j)) for j in js[hit])
    return pairs


def _vertex_tangents(curve) -> np.ndarray:
    t = curve.tangents
    out = np.empty((curve.n, 2))
    out[0] = t[0]
    out[-1] = t[-1]
    if curve.n > 2:
        mid = t[:-1] + t[1:]
        norms = np.linalg.norm(mid, axis=1, keepdims=True)
        out[1:-1] = mid / norms
    return out


def _velocity(traj, n):
    """(v, v_norm) of recorded step n -> n+1."""
    cur = traj.snapshots[n + 1]
    dt = (traj.snapshot_steps[n + 1] - traj.snapshot_steps[n]) * traj.tau
    v = (cur.points - traj.snapshots[n].points) / dt
    tvec = _vertex_tangents(cur)
    return v, np.sum(v * rot90(tvec), axis=1)


def _interior_residual(traj, n, params) -> dict:
    cur = traj.snapshots[n + 1]
    h = 1.0 / (cur.n - 1)
    kap = discrete_curvature(cur)
    L = cur.total_length
    v_norm = _velocity(traj, n)[1]
    kss = (kap[2:] - 2.0 * kap[1:-1] + kap[:-2]) / h**2
    k_mid = kap[1:-1]
    r = v_norm[2:-2] - k_mid + params.epsilon * (kss / L**2 + 0.5 * k_mid**3)
    weights = np.full(r.size, h)
    weights[0] = weights[-1] = 0.5 * h
    return {
        "interior_L2": float(np.sqrt(np.sum(weights * r * r))),
        "interior_max": float(np.max(np.abs(r))),
    }


def _boundary_residual(traj, n, params) -> dict:
    cur = traj.snapshots[n + 1]
    h = 1.0 / (cur.n - 1)
    kap = discrete_curvature(cur)
    L = cur.total_length
    v = _velocity(traj, n)[0]
    tvec = _vertex_tangents(cur)
    d = cur.points[-1] - cur.points[0]
    gap2 = float(d @ d)
    ks0 = (-2.5 * kap[0] + 4.0 * kap[1] - 1.5 * kap[2]) / h
    ks1 = (2.5 * kap[-1] - 4.0 * kap[-2] + 1.5 * kap[-3]) / h
    rhs_start = -d / gap2 + tvec[0] - (params.epsilon / L) * ks0 * rot90(tvec[0])
    rhs_end = d / gap2 - tvec[-1] + (params.epsilon / L) * ks1 * rot90(tvec[-1])
    return {
        "boundary_start": v[0] - rhs_start,
        "boundary_end": v[-1] - rhs_end,
        "kappa_boundary": (float(abs(kap[0])), float(abs(kap[-1]))),
    }


def _coupling_l2(traj, n) -> float:
    prev = traj.snapshots[n]
    cur = traj.snapshots[n + 1]
    dt = (traj.snapshot_steps[n + 1] - traj.snapshot_steps[n]) * traj.tau
    h = 1.0 / (cur.n - 1)
    L_prev = prev.total_length
    L_cur = cur.total_length
    v = (cur.points - prev.points) / dt
    g_prev = np.diff(prev.points, axis=0) / h
    g_cur = np.diff(cur.points, axis=0) / h
    v_edge = 0.5 * (v[:-1] + v[1:])
    q = np.sum(v_edge * (g_prev + g_cur), axis=1)
    dq = np.diff(q) / h
    kap_prev = discrete_curvature(prev)
    kap_cur = discrete_curvature(cur)
    t_prev = _vertex_tangents(prev)[1:-1]
    t_cur = _vertex_tangents(cur)[1:-1]
    v_int = v[1:-1]
    rhs = (L_prev + L_cur) * (L_cur - L_prev) / dt
    rhs = rhs + L_prev**2 * kap_prev * np.sum(v_int * rot90(t_prev), axis=1)
    rhs = rhs + L_cur**2 * kap_cur * np.sum(v_int * rot90(t_cur), axis=1)
    r = dq - rhs
    return float(np.sqrt(h * float(r @ r)))


def residual_parts(traj, n: int, params) -> dict:
    """Every ResidualReport field of recorded step n -> n+1 from the interior,
    endpoint and coupling residuals computed apart."""
    return {
        "step_index": n,
        **_interior_residual(traj, n, params),
        **_boundary_residual(traj, n, params),
        "coupling_L2": _coupling_l2(traj, n),
    }


def row_form_objective(z: np.ndarray, prev, params, want_grad: bool):
    """F = E + D/tau (and its gradient) at the chart vector z against the
    previous curve ``prev``, computed over (N, 2) point arrays: the kernel's
    earlier form, with the same open-set exceptions."""
    ell = float(z[2])
    if not (ell > 0.0):
        raise ZeroEdgeLength(f"edge length {ell} is not positive")
    n = prev.n
    prev_normals = rot90(prev.tangents)
    theta = z[3:]
    eps, tau = params.epsilon, params.tau

    u = np.column_stack([np.cos(theta), np.sin(theta)])
    p = rot90(u)
    csum = np.zeros((n, 2))  # csum[i] = sum_{j<i} u_j
    np.cumsum(u, axis=0, out=csum[1:])
    x = z[:2] + ell * csum

    d = x[-1] - x[0]
    gap2 = float(d @ d)
    if gap2 <= GAP_FLOOR * GAP_FLOOR:
        raise DegenerateGap(f"endpoint gap {np.sqrt(gap2):.3e} is at or below the floor")
    delta = theta[1:] - theta[:-1]
    one_plus_cos = 1.0 + np.cos(delta)
    if delta.size and one_plus_cos.min() < CUSP_TOL:
        raise CuspAngle("anti-parallel edges inside objective evaluation")
    t_half = np.tan(0.5 * delta)
    c_bend = 2.0 * eps / ell
    bend = c_bend * float(t_half @ t_half)
    energy_val = (n - 1) * ell + bend - 0.5 * float(np.log(gap2))

    dxp = x - prev.points
    mid = 0.5 * (dxp[:-1] + dxp[1:])
    a = (mid * prev_normals).sum(axis=1)
    b = (mid * p).sum(axis=1)
    d_val = (
        0.25 * prev.edge_len * float(a @ a)
        + 0.25 * ell * float(b @ b)
        + 0.5 * float(dxp[0] @ dxp[0])
        + 0.5 * float(dxp[-1] @ dxp[-1])
    )
    f_val = energy_val + d_val / tau
    if not want_grad:
        return f_val, None

    pull = d / gap2
    g_pts = np.zeros((n, 2))
    g_pts[0] += pull
    g_pts[-1] -= pull
    edge_pull = (
        (0.25 * prev.edge_len / tau) * a[:, None] * prev_normals
        + (0.25 * ell / tau) * b[:, None] * p
    )
    g_pts[:-1] += edge_pull
    g_pts[1:] += edge_pull
    g_pts[0] += dxp[0] / tau
    g_pts[-1] += dxp[-1] / tau

    grad = np.empty(n + 2)
    grad[:2] = g_pts.sum(axis=0)
    grad[2] = float((g_pts * csum).sum())
    suffix = g_pts[::-1].cumsum(axis=0)[::-1]  # suffix[j] = sum_{i>=j} g_i
    grad[3:] = ell * (suffix[1:] * p).sum(axis=1)
    grad[2] += (n - 1) - bend / ell + 0.25 * float(b @ b) / tau
    if delta.size:
        w = t_half * (1.0 + t_half * t_half)
        grad[3:-1] -= c_bend * w
        grad[4:] += c_bend * w
    grad[3:] -= (0.5 * ell / tau) * b * (mid * u).sum(axis=1)
    return f_val, grad


def row_form_hessian(z: np.ndarray, prev, params):
    """Generators (diag, off, p, v, border, corner) of the chart Hessian of F
    at z against the PrevFrame ``prev``, assembled over (N-1, 2) edge
    arrays with per-edge suffix sums taken row-wise: the earlier form of
    ``_objective_hessian``."""
    ell = float(z[2])
    n = prev.n
    theta = z[3:]
    tau = params.tau
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    p = rot90(u)
    csum = np.zeros((n, 2))  # csum[i] = sum_{j<i} u_j
    np.cumsum(u, axis=0, out=csum[1:])
    pts = z[:2] + ell * csum
    disp = pts - np.column_stack([prev.x, prev.y])
    mid = 0.5 * (disp[:-1] + disp[1:])
    nt = np.column_stack([prev.nx, prev.ny])
    a = (mid * nt).sum(axis=1)
    b = (mid * p).sum(axis=1)
    d = pts[-1] - pts[0]
    gap2 = float(d @ d)
    k_a = 0.5 * prev.edge_len / tau  # curvature of D/tau in a_e
    k_b = 0.5 * ell / tau            # and in b_e

    # Coulomb and the x_N endpoint term act through x_N - x_1 = l * sum u and
    # x_N: their heading block is l^2 p_j^T m_end p_k, of rank 2.
    m_end = (2.0 / gap2**2) * np.outer(d, d) + (1.0 / tau - 1.0 / gap2) * np.eye(2)
    pull = disp[-1] / tau - d / gap2
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
    after = np.zeros_like(per_edge)
    after[:-1] = np.cumsum(per_edge[:0:-1], axis=0)[::-1]
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
    return diag, -h, p, v, border, corner
