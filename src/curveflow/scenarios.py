"""Initial curves for the flow experiments, and named parameter presets.

Shapes:

* ``segment``    — straight equal-edge curve of length SEGMENT_LENGTH.
* ``sinus``      — graph of sin on [-pi, pi], resampled to equal edges.
* ``gamma``      — a loop with two straight tails that cross once below it:
                   a circle of radius r is joined tangentially to two straight
                   strands through the point at depth 2r under its center, so
                   the strands cross exactly once at that point.
* ``asym_gamma`` — same construction with the left (starting) tail halved.
* ``file``       — whitespace-separated "x y" rows, resampled to N points.

The loop radius, tail length and point counts below reproduce the qualitative
regimes of interest: LOOP_RADIUS = 0.35 starts above the equilibrium curl
size sqrt(eps/2) for both eps = 0.1 and eps = 0.01, and N = 120 keeps the
curvature discretization error at the terminal loop radius below a percent
for eps = 0.1.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams
from .errors import BadParameters
from .polyline import DiscreteCurve, resample_equal_arclength, validate

DENSE_SAMPLES = 4000
SEGMENT_LENGTH = 2.0
LOOP_RADIUS = 0.35
TAIL = 0.8  # both gamma tails; asym_gamma halves the left (starting) one


@dataclass(frozen=True)
class Scenario:
    """Initial-curve description: a shape ``kind``, N points, and the polyline
    file ``path`` of kind ``file``."""

    kind: str
    n: int
    path: str | None = None


def segment_points(n: int) -> np.ndarray:
    xs = np.linspace(0.0, SEGMENT_LENGTH, n)
    return np.column_stack([xs, np.zeros(n)])


def sinus_points() -> np.ndarray:
    xs = np.linspace(-np.pi, np.pi, DENSE_SAMPLES)
    ys = np.sin(xs)
    ys[0] = 0.0
    ys[-1] = 0.0
    return np.column_stack([xs, ys])


def gamma_points(tail_left: float) -> np.ndarray:
    """Dense polyline of the loop-with-crossed-tails shape.

    Circle of radius r = LOOP_RADIUS centered at the origin; the two tangent
    lines from the crossing point P = (0, -2r) touch it at T-+; the curve runs
    from the left tail end through P up to T+, around the circle
    counterclockwise the long way to T-, and back through P out to the right
    tail end, TAIL beyond P.
    """
    r = LOOP_RADIUS
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
    end = p_cross + TAIL * u_out

    ang_plus = np.arctan2(t_plus[1], t_plus[0])
    ang_minus = np.arctan2(t_minus[1], t_minus[0]) + 2.0 * np.pi
    arc_len = (ang_minus - ang_plus) * r
    total = tail_left + t_len + arc_len + t_len + TAIL

    n_in = max(2, int(round(DENSE_SAMPLES * (tail_left + t_len) / total)))
    n_arc = max(8, int(round(DENSE_SAMPLES * arc_len / total)))
    n_out = max(2, int(round(DENSE_SAMPLES * (t_len + TAIL) / total)))

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
        return validate(segment_points(sc.n))
    if sc.kind == "sinus":
        return resample_equal_arclength(sinus_points(), sc.n)
    if sc.kind == "gamma":
        return resample_equal_arclength(gamma_points(TAIL), sc.n)
    if sc.kind == "asym_gamma":
        return resample_equal_arclength(gamma_points(0.5 * TAIL), sc.n)
    if sc.kind == "file":
        if not sc.path:
            raise BadParameters("file scenario needs a path")
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pts = np.loadtxt(sc.path, dtype=float, ndmin=2)
        if pts.size == 0:
            raise BadParameters(f"{sc.path}: no points")
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
        scenario=Scenario(kind="segment", n=51),
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
