"""Trajectory serialization (JSONL / CSV) and static SVG rendering.

All numbers are written as decimals with 17 significant digits, which
round-trips IEEE doubles exactly; output bytes are deterministic functions of
the input.
"""

import colorsys
import os
from collections.abc import Sequence

import numpy as np

from .flow import Trajectory
from .polyline import DiscreteCurve

# Width of a rendered SVG in user units; the height follows the aspect ratio.
SVG_WIDTH = 600.0


def _rows(traj: Trajectory):
    """Per snapshot: step, its vertices as (x, y) pairs, t, l, E, length and
    gap, every number a Python float; one snapshot is converted at a time."""
    for step, curve in zip(traj.snapshot_steps, traj.snapshots):
        xs, ys = curve.points.T.tolist()
        yield (step, zip(xs, ys), step * traj.tau, curve.edge_len,
               float(traj.energies[step]), float(traj.lengths[step]),
               float(traj.gaps[step]))


def write_trajectory(traj: Trajectory, path: str, fmt: str = "jsonl") -> None:
    """Write recorded snapshots to ``path``.

    jsonl: one record per snapshot {t, l, points, E, length, gap}.
    csv:   long format "step,i,x,y" plus a sidecar "<path>.scalars.csv" with
           per-snapshot scalars.
    """
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for _, pts, t, ell, e, length, gap in _rows(traj):
                coords = ",".join(f"[{x:.17g},{y:.17g}]" for x, y in pts)
                fh.write(f'{{"t":{t:.17g},"l":{ell:.17g},"points":[{coords}],'
                         f'"E":{e:.17g},"length":{length:.17g},"gap":{gap:.17g}}}\n')
        return
    if fmt == "csv":
        with open(path, "w") as fh, open(path + ".scalars.csv", "w") as side:
            fh.write("step,i,x,y\n")
            side.write("step,t,l,E,length,gap\n")
            for step, pts, t, ell, e, length, gap in _rows(traj):
                fh.write("".join(f"{step},{i},{x:.17g},{y:.17g}\n"
                                 for i, (x, y) in enumerate(pts)))
                side.write(f"{step},{t:.17g},{ell:.17g},{e:.17g},"
                           f"{length:.17g},{gap:.17g}\n")
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


def render_svg(curves: Sequence[DiscreteCurve], path: str, stride: int = 1) -> None:
    """Render every ``stride``-th curve, and the last, as an SVG polyline.

    Stroke colors run from violet to red with curve order; the viewBox is
    the bounding box of the drawn curves with a 5% margin. Output bytes are a
    deterministic function of the curves.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    drawn = list(curves[::stride])
    if (len(curves) - 1) % stride:
        drawn.append(curves[-1])
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
        # SVG y runs down.
        coords = " ".join(f"{x:.9g},{-y:.9g}" for x, y in curve.points.tolist())
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
        p = os.path.join(out_dir, f"{basename}_phase{ph + 1}.svg")
        render_svg(traj.snapshots[cuts[ph] : max(cuts[ph + 1], cuts[ph] + 1)],
                   p, stride=stride)
        paths.append(p)
    return paths
