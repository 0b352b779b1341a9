"""Independent reference computations used by the tests.

These deliberately avoid the package's own evaluation paths: the 1-D segment
flow is a scalar root-finding recursion, intersections are brute-force pair
checks, arclength is dense piecewise-linear quadrature, and derivative checks
are plain central differences. The L-BFGS two-loop recursion and the
crossing search over one edge at a time are the simple forms of the
package's compact-form history and blocked crossing search.
"""

import numpy as np


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
