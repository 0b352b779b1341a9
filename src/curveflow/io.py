"""Trajectory serialization (JSONL / CSV) and static SVG rendering.

All numbers are written as decimals with 17 significant digits, which
round-trips IEEE doubles exactly; output bytes are deterministic functions of
the input.
"""

import colorsys
import os

import numpy as np

from .flow import Trajectory
from .polyline import DiscreteCurve

# Width of a rendered SVG in user units; the height follows the aspect ratio.
SVG_WIDTH = 600.0


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _snapshot_record(traj: Trajectory, k: int) -> str:
    step = traj.snapshot_steps[k]
    curve = traj.snapshots[k]
    pts = ",".join(
        f"[{_fmt(p[0])},{_fmt(p[1])}]" for p in curve.points
    )
    return (
        "{"
        f'"t":{_fmt(step * traj.tau)},'
        f'"l":{_fmt(curve.edge_len)},'
        f'"points":[{pts}],'
        f'"E":{_fmt(traj.energies[step])},'
        f'"length":{_fmt(traj.lengths[step])},'
        f'"gap":{_fmt(traj.gaps[step])}'
        "}"
    )


def write_trajectory(traj: Trajectory, path: str, fmt: str = "jsonl") -> None:
    """Write recorded snapshots to ``path``.

    jsonl: one record per snapshot {t, l, points, E, length, gap}.
    csv:   long format "step,i,x,y" plus a sidecar "<path>.scalars.csv" with
           per-snapshot scalars.
    """
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for k in range(len(traj.snapshots)):
                fh.write(_snapshot_record(traj, k) + "\n")
        return
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("step,i,x,y\n")
            for k, curve in enumerate(traj.snapshots):
                step = traj.snapshot_steps[k]
                for i, p in enumerate(curve.points):
                    fh.write(f"{step},{i},{_fmt(p[0])},{_fmt(p[1])}\n")
        sidecar = path + ".scalars.csv"
        with open(sidecar, "w") as fh:
            fh.write("step,t,l,E,length,gap\n")
            for k in range(len(traj.snapshots)):
                step = traj.snapshot_steps[k]
                fh.write(
                    f"{step},{_fmt(step * traj.tau)},"
                    f"{_fmt(traj.snapshots[k].edge_len)},"
                    f"{_fmt(traj.energies[step])},{_fmt(traj.lengths[step])},"
                    f"{_fmt(traj.gaps[step])}\n"
                )
        return
    raise ValueError(f"unknown format {fmt!r} (use 'jsonl' or 'csv')")


def read_trajectory_jsonl(path: str) -> list[dict]:
    """Parse a jsonl trajectory file back into a list of records."""
    import json

    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rec = json.loads(line)
                rec["points"] = np.asarray(rec["points"], dtype=float)
                records.append(rec)
    return records


def _stroke_color(k: int, count: int) -> str:
    """Violet (hue 270) to red (hue 0) by snapshot order."""
    frac = 0.0 if count <= 1 else k / (count - 1)
    hue = 270.0 * (1.0 - frac) / 360.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.85, 0.9)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def render_svg(traj: Trajectory, path: str, stride: int = 1) -> None:
    """Render every ``stride``-th snapshot as an SVG polyline.

    Stroke colors run from violet to red with snapshot order; the viewBox is
    the bounding box of the drawn curves with a 5% margin. Output bytes are a
    deterministic function of the trajectory.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    drawn = traj.snapshots[::stride]
    if drawn[-1] is not traj.snapshots[-1]:
        drawn.append(traj.snapshots[-1])
    allpts = np.vstack([c.points for c in drawn])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * float(span.max())
    x0, y0 = lo - margin
    w, h = (hi - lo) + 2.0 * margin
    stroke = 0.004 * float(max(w, h))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH:.6g}" height="{SVG_WIDTH * h / w:.6g}" '
        f'viewBox="{x0:.9g} {-(y0 + h):.9g} {w:.9g} {h:.9g}">',
    ]
    for k, curve in enumerate(drawn):
        coords = " ".join(
            f"{p[0]:.9g},{-p[1]:.9g}" for p in curve.points  # SVG y runs down
        )
        lines.append(
            f'<polyline fill="none" stroke="{_stroke_color(k, len(drawn))}" '
            f'stroke-width="{stroke:.6g}" points="{coords}"/>'
        )
    lines.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_phase_svgs(traj: Trajectory, out_dir: str, basename: str,
                     stride: int = 1) -> list[str]:
    """Split the snapshots into thirds and render one SVG per phase."""
    count = len(traj.snapshots)
    cuts = [0, count // 3, (2 * count) // 3, count]
    paths = []
    for ph in range(3):
        sub = Trajectory(tau=traj.tau)
        sub.snapshots = traj.snapshots[cuts[ph] : max(cuts[ph + 1], cuts[ph] + 1)]
        sub.snapshot_steps = traj.snapshot_steps[
            cuts[ph] : max(cuts[ph + 1], cuts[ph] + 1)
        ]
        p = os.path.join(out_dir, f"{basename}_phase{ph + 1}.svg")
        render_svg(sub, p, stride=stride)
        paths.append(p)
    return paths
