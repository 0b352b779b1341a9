"""Initial curves for the flow experiments, and named parameter presets.

Shapes:

* ``segment``    — straight equal-edge curve of a given length.
* ``sinus``      — graph of sin on [-pi, pi], resampled to equal edges.
* ``gamma``      — a loop with two straight tails that cross once below it:
                   a circle of radius r is joined tangentially to two straight
                   strands through the point at depth 2r under its center, so
                   the strands cross exactly once at that point.
* ``asym_gamma`` — same construction with the left (starting) tail halved.
* ``file``       — whitespace-separated "x y" rows, resampled to N points.

The loop radius, tail lengths and point counts below reproduce the qualitative
regimes of interest: the loop radius 0.35 starts above the equilibrium curl
size sqrt(eps/2) for both eps = 0.1 and eps = 0.01, and N = 120 keeps the
curvature discretization error at the terminal loop radius below a percent
for eps = 0.1.
"""

from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams
from .errors import BadParameters
from .polyline import DiscreteCurve, resample_equal_arclength, validate

DENSE_SAMPLES = 4000


@dataclass(frozen=True)
class Scenario:
    """Initial-curve description; geometry fields are used per ``kind``."""

    kind: str
    n: int
    length: float = 2.0          # segment
    amplitude: float = 1.0       # sinus
    loop_radius: float = 0.35    # gamma shapes
    tail_right: float = 0.8
    tail_left: float | None = None  # defaults to tail_right (half for asym)
    path: str | None = None      # file


def segment_points(length: float, n: int) -> np.ndarray:
    xs = np.linspace(0.0, length, n)
    return np.column_stack([xs, np.zeros(n)])


def sinus_points(amplitude: float = 1.0, samples: int = DENSE_SAMPLES) -> np.ndarray:
    xs = np.linspace(-np.pi, np.pi, samples)
    ys = amplitude * np.sin(xs)
    ys[0] = 0.0
    ys[-1] = 0.0
    return np.column_stack([xs, ys])


def gamma_points(loop_radius: float, tail_left: float, tail_right: float,
                 samples: int = DENSE_SAMPLES) -> np.ndarray:
    """Dense polyline of the loop-with-crossed-tails shape.

    Circle of radius r centered at the origin; the two tangent lines from the
    crossing point P = (0, -2r) touch it at T-+; the curve runs from the left
    tail end through P up to T+, around the circle counterclockwise the long
    way to T-, and back through P out to the right tail end.
    """
    r = loop_radius
    d = 2.0 * r
    p_cross = np.array([0.0, -d])
    t_len = np.sqrt(d * d - r * r)
    ty = -r * r / d
    tx = r * np.sqrt(1.0 - (r / d) ** 2)
    t_plus = np.array([tx, ty])
    t_minus = np.array([-tx, ty])

    u_in = (t_plus - p_cross) / t_len    # points up-right
    u_out = (p_cross - t_minus) / t_len  # points down-right
    start = p_cross - tail_left * u_in
    end = p_cross + tail_right * u_out

    ang_plus = np.arctan2(t_plus[1], t_plus[0])
    ang_minus = np.arctan2(t_minus[1], t_minus[0]) + 2.0 * np.pi
    arc_len = (ang_minus - ang_plus) * r
    total = tail_left + t_len + arc_len + t_len + tail_right

    n_in = max(2, int(round(samples * (tail_left + t_len) / total)))
    n_arc = max(8, int(round(samples * arc_len / total)))
    n_out = max(2, int(round(samples * (t_len + tail_right) / total)))

    seg_in = start + np.linspace(0.0, 1.0, n_in)[:, None] * (t_plus - start)
    angs = np.linspace(ang_plus, ang_minus, n_arc)
    arc = r * np.column_stack([np.cos(angs), np.sin(angs)])
    seg_out = t_minus + np.linspace(0.0, 1.0, n_out)[:, None] * (end - t_minus)
    return np.vstack([seg_in, arc[1:], seg_out[1:]])


def make_scenario(sc: Scenario) -> DiscreteCurve:
    """Build the admissible equal-edge initial curve of a scenario."""
    if sc.n < 2:
        raise BadParameters(f"scenario needs n >= 2, got {sc.n}")
    if sc.kind == "segment":
        if sc.length <= 0:
            raise BadParameters(f"segment length must be positive, got {sc.length}")
        return validate(segment_points(sc.length, sc.n))
    if sc.kind == "sinus":
        if sc.amplitude <= 0:
            raise BadParameters("sinus amplitude must be positive")
        return resample_equal_arclength(sinus_points(sc.amplitude), sc.n)
    if sc.kind in ("gamma", "asym_gamma"):
        if sc.loop_radius <= 0 or sc.tail_right <= 0:
            raise BadParameters("gamma needs positive loop radius and tail")
        left = sc.tail_left
        if left is None:
            left = 0.5 * sc.tail_right if sc.kind == "asym_gamma" else sc.tail_right
        if left <= 0:
            raise BadParameters("gamma left tail must be positive")
        pts = gamma_points(sc.loop_radius, left, sc.tail_right)
        return resample_equal_arclength(pts, sc.n)
    if sc.kind == "file":
        if not sc.path:
            raise BadParameters("file scenario needs a path")
        pts = np.loadtxt(sc.path, dtype=float, ndmin=2)
        if pts.shape[1] != 2:
            raise BadParameters(f"{sc.path}: expected two columns, got {pts.shape[1]}")
        return resample_equal_arclength(pts, sc.n)
    raise BadParameters(f"unknown scenario kind {sc.kind!r}")


@dataclass(frozen=True)
class Preset:
    scenario: Scenario
    params: EnergyParams
    stop_tol: float | None
    max_steps: int | None


PRESETS: dict[str, Preset] = {
    "segment": Preset(
        scenario=Scenario(kind="segment", n=51, length=2.0),
        params=EnergyParams(epsilon=0.01, tau=0.05),
        stop_tol=1e-7,
        max_steps=20000,
    ),
    "sinus": Preset(
        scenario=Scenario(kind="sinus", n=81),
        params=EnergyParams(epsilon=0.01, tau=0.25),
        stop_tol=1e-6,
        max_steps=20000,
    ),
    "gamma": Preset(
        scenario=Scenario(kind="gamma", n=120),
        params=EnergyParams(epsilon=0.1, tau=0.0125),
        stop_tol=1e-6,
        max_steps=60000,
    ),
    "gamma_small_eps": Preset(
        scenario=Scenario(kind="gamma", n=120),
        params=EnergyParams(epsilon=0.01, tau=0.0125),
        stop_tol=1e-6,
        max_steps=60000,
    ),
    "asym_gamma": Preset(
        scenario=Scenario(kind="asym_gamma", n=120),
        params=EnergyParams(epsilon=0.1, tau=0.01),
        stop_tol=1e-6,
        max_steps=120000,
    ),
}
