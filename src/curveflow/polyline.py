"""Equal-edge polyline geometry.

A discrete open curve is an ordered list of N planar points whose edges all
have the same length l. This module provides validation, the bijection to
constraint-free reduced coordinates (base point, edge length, edge headings),
turning angles, signed discrete curvature, and resampling of arbitrary
polylines onto the equal-edge manifold.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CuspAngle,
    DegenerateGap,
    TooFewPoints,
    UnequalEdges,
    ZeroEdgeLength,
    ZeroLengthInput,
)

# Relative edge-length spread accepted in externally supplied polylines;
# internally constructed curves are exact to ~1e-16.
EDGE_TOL_EXTERNAL = 1e-9

# 1 + cos(alpha) below this means consecutive edges are anti-parallel and the
# tan(alpha/2) curvature formula blows up.
CUSP_TOL = 1e-12

# Smallest admissible endpoint gap; the log barrier keeps the flow above it.
GAP_FLOOR = 1e-8

# Cap on the chord-equalization passes of resample_equal_arclength.
RESAMPLE_PASSES = 10_000


def rot90(v):
    """Counterclockwise rotation by pi/2: (x, y) -> (-y, x). Works on (..., 2)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def cross2(v, w):
    """Scalar 2D cross product v_x w_y - v_y w_x. Works on (..., 2) arrays."""
    return v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]


@dataclass(frozen=True)
class DiscreteCurve:
    """N ordered planar points with equal edge lengths.

    ``points`` is an (N, 2) read-only array, ``edge_len`` the common edge
    length l > 0 (ZeroEdgeLength otherwise) and finite (ValueError otherwise);
    every edge lies within EDGE_TOL_EXTERNAL*l/2 of l, so the edge lengths
    spread by at most EDGE_TOL_EXTERNAL*l. The total polygonal length is
    (N-1)*l. Instances are immutable values; all operations on them are pure
    functions.
    """

    points: np.ndarray
    edge_len: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be (N, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise TooFewPoints(f"need at least 2 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not (self.edge_len > 0.0):
            raise ZeroEdgeLength(f"edge_len must be positive, got {self.edge_len}")
        if not np.isfinite(self.edge_len):
            raise ValueError("edge_len must be finite")
        lens = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        tol = 0.5 * EDGE_TOL_EXTERNAL * self.edge_len
        if np.any(np.abs(lens - self.edge_len) > tol):
            raise UnequalEdges(
                f"edges deviate from edge_len={self.edge_len} by up to "
                f"{np.max(np.abs(lens - self.edge_len)):.3e}"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edge_len", float(self.edge_len))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def gap(self) -> float:
        """Distance between the two endpoints."""
        return float(np.linalg.norm(self.points[-1] - self.points[0]))

    @property
    def total_length(self) -> float:
        return (self.n - 1) * self.edge_len

    @property
    def edges(self) -> np.ndarray:
        return np.diff(self.points, axis=0)

    @property
    def tangents(self) -> np.ndarray:
        """Unit tangents of the N-1 edges; their CCW normals are rot90 of these."""
        ev = self.edges
        return ev / np.linalg.norm(ev, axis=1, keepdims=True)

    def is_admissible(self) -> bool:
        """True when the endpoints are strictly further apart than GAP_FLOOR."""
        return self.gap > GAP_FLOOR


@dataclass(frozen=True)
class ReducedCoords:
    """Constraint-free chart: base point, edge length, N-1 edge headings.

    Reconstruction is x_{i+1} = x_i + l*(cos theta_i, sin theta_i) starting
    from ``base``; l is positive (ZeroEdgeLength otherwise) and finite
    (ValueError otherwise). Headings are kept unwrapped (no modular reduction) so that
    warm starts across consecutive flow steps vary continuously.
    """

    base: np.ndarray
    edge_len: float
    headings: np.ndarray

    def __post_init__(self):
        base = np.array(self.base, dtype=float).reshape(2)
        headings = np.array(self.headings, dtype=float).reshape(-1)
        if headings.size < 1:
            raise TooFewPoints("need at least one heading (N >= 2)")
        if not (self.edge_len > 0.0):
            raise ZeroEdgeLength(f"edge_len must be positive, got {self.edge_len}")
        if not np.isfinite(self.edge_len):
            raise ValueError("edge_len must be finite")
        base.setflags(write=False)
        headings.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "headings", headings)
        object.__setattr__(self, "edge_len", float(self.edge_len))

    @property
    def n(self) -> int:
        return self.headings.size + 1

    def as_vector(self) -> np.ndarray:
        """Flat coordinate vector (base_x, base_y, l, theta_1..theta_{N-1})."""
        return np.concatenate([self.base, [self.edge_len], self.headings])

    @classmethod
    def from_vector(cls, z) -> "ReducedCoords":
        z = np.asarray(z, dtype=float)
        return cls(base=z[:2], edge_len=float(z[2]), headings=z[3:])


def validate(points) -> DiscreteCurve:
    """Check an external point list and wrap it as a DiscreteCurve.

    The common edge length is the mean edge length, which every edge must
    match as DiscreteCurve requires. Raises TooFewPoints, ZeroEdgeLength,
    UnequalEdges, or DegenerateGap (endpoints at most GAP_FLOOR apart are not
    admissible), checking the edges before the gap.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be (N, 2), got {pts.shape}")
    if pts.shape[0] < 2:
        raise TooFewPoints(f"need at least 2 points, got {pts.shape[0]}")
    lens = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    curve = DiscreteCurve(points=pts, edge_len=float(np.mean(lens)))
    if not curve.is_admissible():
        raise DegenerateGap(
            f"endpoint gap {curve.gap:.3e} is at or below the floor {GAP_FLOOR:g}"
        )
    return curve


def to_reduced(curve: DiscreteCurve) -> ReducedCoords:
    """Chart a curve as (base, edge length, unwrapped headings).

    Headings are atan2 of the edges, unwrapped so consecutive headings differ
    by at most pi.
    """
    ev = curve.edges
    raw = np.arctan2(ev[:, 1], ev[:, 0])
    return ReducedCoords(
        base=curve.points[0], edge_len=curve.edge_len, headings=np.unwrap(raw)
    )


def from_reduced(rc: ReducedCoords) -> DiscreteCurve:
    """Rebuild the point list from reduced coordinates (exactly equal edges)
    by a cumulative sum of the edge vectors from the base point."""
    u = np.column_stack([np.cos(rc.headings), np.sin(rc.headings)])
    pts = np.empty((rc.n, 2))
    pts[0] = rc.base
    np.cumsum(rc.edge_len * u, axis=0, out=pts[1:])
    pts[1:] += rc.base
    return DiscreteCurve(points=pts, edge_len=rc.edge_len)


def turning_angles(curve: DiscreteCurve) -> np.ndarray:
    """Unsigned angle alpha_i in [0, pi] between consecutive edge tangents.

    One value per interior vertex i = 2..N-1 (N-2 values). Needs N >= 3.
    """
    if curve.n < 3:
        raise TooFewPoints("turning angles need N >= 3")
    t = curve.tangents
    dots = np.clip(np.sum(t[:-1] * t[1:], axis=1), -1.0, 1.0)
    return np.arccos(dots)


def discrete_curvature(curve: DiscreteCurve) -> np.ndarray:
    """Signed curvature kappa_i = (2/l) * tan(alpha_i / 2) per interior vertex.

    The sign comes from the 2D cross product of consecutive tangents (positive
    for a left turn). Raises CuspAngle when consecutive edges are anti-parallel
    (1 + <tau_{i-1}, tau_i> < 1e-12), where the formula is singular.
    """
    if curve.n < 3:
        raise TooFewPoints("curvature needs N >= 3")
    t = curve.tangents
    dots = np.sum(t[:-1] * t[1:], axis=1)
    denom = 1.0 + dots
    if np.any(denom < CUSP_TOL):
        raise CuspAngle("anti-parallel consecutive edges (turning angle ~ pi)")
    return (2.0 / curve.edge_len) * cross2(t[:-1], t[1:]) / denom


def _polyline_cumlen(pts: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _spread(lens: np.ndarray) -> float:
    mean = float(np.mean(lens))
    if mean <= 0.0:
        return np.inf
    return float((lens.max() - lens.min()) / mean)


def resample_equal_arclength(points, n: int) -> DiscreteCurve:
    """Resample an arbitrary polyline onto N points with equal chord lengths.

    Points are placed on the input polyline, first and last coinciding with
    the input endpoints exactly. Initial placement is at equal arclength
    spacing; where the input bends, chords come out shorter than arcs, so the
    placement is then corrected by a fixed-point pass (re-spacing the sample
    parameters equally in the cumulative-chord coordinate) until the relative
    edge spread drops below 1e-10. Smooth dense inputs converge in a handful
    of passes; sharp corners take tens. Raises UnequalEdges after
    RESAMPLE_PASSES passes.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be (M, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if n < 2:
        raise TooFewPoints("resampling needs N >= 2")
    cum = _polyline_cumlen(pts)
    total = float(cum[-1])
    if total <= 0.0:
        raise ZeroLengthInput("input polyline has zero length")
    if n == 2:
        return validate(np.array([pts[0], pts[-1]]))

    s = np.linspace(0.0, total, n)
    for _ in range(RESAMPLE_PASSES):
        out = np.column_stack(
            [np.interp(s, cum, pts[:, 0]), np.interp(s, cum, pts[:, 1])]
        )
        lens = np.linalg.norm(np.diff(out, axis=0), axis=1)
        if _spread(lens) <= 1e-10:
            return validate(out)
        q = np.concatenate([[0.0], np.cumsum(lens)])
        s = np.interp(np.linspace(0.0, q[-1], n), q, s)
        s[0], s[-1] = 0.0, total
    raise UnequalEdges(
        f"chord equalization stalled at spread {_spread(lens):.3e}"
    )
