"""Workload definitions and seeded input generation.

Each workload is one ``curveflow run --scenario file`` invocation. The seed
picks a rigid motion (rotation and translation) of a dense preset polyline,
and for the gamma loop a narrow jitter of the loop radius. The program sees
only the written polyline file and the flags below; the geometry here is
built independently of ``curveflow.scenarios`` so that a change to the
program cannot change the benchmark's inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

DENSE_SAMPLES = 4000


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    n: int
    eps: float
    tau: float
    steps: int          # always passed: a file scenario with no cap may never end
    stop_tol: float
    timed_inputs: int   # seeded inputs an untraced run takes, each at least once
    traced_inputs: int  # seeded inputs a traced run takes, each run twice
    extra_args: tuple[str, ...] = ()
    traj_file: str = "file.jsonl"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gamma_loop",
            shape="gamma", n=120, eps=0.1, tau=0.0125,
            steps=5, stop_tol=1e-6, timed_inputs=30, traced_inputs=8,
        ),
        Workload(
            name="sinus_to_rest",
            shape="sinus", n=81, eps=0.01, tau=0.25,
            steps=2000, stop_tol=1e-6, timed_inputs=14, traced_inputs=5,
            extra_args=("--format", "csv", "--diagnostics", "--svg"),
            traj_file="file.csv",
        ),
        Workload(
            name="segment_fine",
            shape="segment", n=481, eps=0.01, tau=0.05,
            steps=5000, stop_tol=1e-7, timed_inputs=11, traced_inputs=4,
        ),
    )
}

# The gamma inputs cycle through a small grid of loop radii around the preset
# 0.35, far above the equilibrium curl size sqrt(eps/2) ~ 0.224 for eps = 0.1,
# so the loop shrinks the same way for every input. A grid (not a continuum)
# lets the final energy be checked against a stored reference per radius.
GAMMA_RADII = (0.346, 0.348, 0.35, 0.352, 0.354)
GAMMA_TAIL = 0.8

# Final energy of gamma_loop per radius, recorded at the seed commit. Rigid
# motions move it by ~3e-9 and a better-converged solver (memory 25 or 50,
# more iterations) by less than 1e-8, so GAMMA_E_TOL still passes both.
GAMMA_E_REF = {
    0.346: 4.471611434214591,
    0.348: 4.483027456136503,
    0.35: 4.494519066102003,
    0.352: 4.5060852032589125,
    0.354: 4.51772469591862,
}
GAMMA_E_TOL = 1e-6


def segment_dense(samples: int = DENSE_SAMPLES) -> np.ndarray:
    xs = np.linspace(0.0, 2.0, samples)
    return np.column_stack([xs, np.zeros(samples)])


def sinus_dense(samples: int = DENSE_SAMPLES) -> np.ndarray:
    xs = np.linspace(-math.pi, math.pi, samples)
    ys = np.sin(xs)
    ys[0] = ys[-1] = 0.0
    return np.column_stack([xs, ys])


def gamma_dense(r: float, tail: float = GAMMA_TAIL,
                samples: int = DENSE_SAMPLES) -> np.ndarray:
    """Loop of radius r centred at the origin, joined tangentially to two
    straight tails that cross once at (0, -2r), one tail on each side."""
    d = 2.0 * r
    cross = np.array([0.0, -d])
    t_len = math.sqrt(d * d - r * r)
    tx, ty = r * math.sqrt(1.0 - (r / d) ** 2), -r * r / d
    t_plus, t_minus = np.array([tx, ty]), np.array([-tx, ty])
    start = cross - tail * (t_plus - cross) / t_len
    end = cross + tail * (cross - t_minus) / t_len
    a0 = math.atan2(ty, tx)
    a1 = math.atan2(ty, -tx) + 2.0 * math.pi
    total = 2.0 * (tail + t_len) + (a1 - a0) * r
    n_tail = max(2, round(samples * (tail + t_len) / total))
    n_arc = max(8, samples - 2 * n_tail)
    lin = np.linspace(0.0, 1.0, n_tail)[:, None]
    angs = np.linspace(a0, a1, n_arc)
    arc = r * np.column_stack([np.cos(angs), np.sin(angs)])
    return np.vstack([start + lin * (t_plus - start), arc[1:],
                      (t_minus + lin * (end - t_minus))[1:]])


def make_input(workload: Workload, seed: int, index: int):
    """Dense polyline number ``index`` of a run with ``seed``, and its gamma
    loop radius (None for other shapes). Same arguments, same points."""
    rng = np.random.default_rng([seed, index, sum(map(ord, workload.name))])
    angle = rng.uniform(0.0, 2.0 * math.pi)
    shift = rng.uniform(-1.0, 1.0, size=2)
    if workload.shape == "gamma":
        # The loop size changes the solver's work; cycling the radii gives
        # every run the same mix of sizes.
        radius = GAMMA_RADII[(seed + index) % len(GAMMA_RADII)]
        pts = gamma_dense(radius)
    else:
        radius = None
        pts = {"segment": segment_dense, "sinus": sinus_dense}[workload.shape]()
    c, s = math.cos(angle), math.sin(angle)
    return pts @ np.array([[c, s], [-s, c]]) + shift, radius


def physical_errors(workload: Workload, radius, energy: float,
                    length: float, crossings: int) -> list[str]:
    """What is physically wrong with a run's final state (empty if nothing)."""
    errors = []
    if workload.shape == "segment" and abs(length - 1.0) > 1e-4:
        errors.append(f"segment final length {length!r} is not ~1")
    if workload.shape == "sinus" and abs(energy - 1.0) > 1e-6:
        errors.append(f"sinus final energy {energy!r} is not ~1")
    if workload.shape == "gamma":
        if crossings != 1:
            errors.append(f"gamma has {crossings} crossings, expected 1")
        ref = GAMMA_E_REF.get(radius)
        if ref is None or abs(energy - ref) > GAMMA_E_TOL:
            errors.append(f"gamma r={radius} final energy {energy!r} vs "
                          f"reference {ref!r}")
    return errors


def write_input(points: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        for x, y in points:
            fh.write(f"{x:.17g} {y:.17g}\n")


def cli_argv(workload: Workload, infile: str, out_dir: str) -> list[str]:
    return [
        "run", "--scenario", "file", "--in", infile,
        "--n", str(workload.n), "--eps", repr(workload.eps),
        "--tau", repr(workload.tau), "--steps", str(workload.steps),
        "--stop-tol", repr(workload.stop_tol), "--grad-tol", "1e-08",
        "--out", out_dir,
        *workload.extra_args,
    ]
