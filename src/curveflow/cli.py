"""Command-line front end.

Subcommands::

    run       drive a flow scenario and write trajectory / SVG / diagnostics
    resample  resample a polyline file onto N equal-edge points

Exit codes: 0 success, 1 usage or input error, 2 error or bound violation
while the flow runs or writes its outputs.
"""

import argparse
import dataclasses
import os
import sys

from .diagnostics import (
    RESIDUAL_CSV_HEADER,
    RESIDUAL_MIN_POINTS,
    full_residual_report,
    self_intersections,
)
from .energy import EnergyParams
from .errors import BoundViolation, CurveFlowError
from .flow import FlowConfig, run_flow
from .io import render_svg, write_phase_svgs, write_trajectory
from .minimize import SolverOptions
from .scenarios import PRESETS, Preset, Scenario, make_scenario


class UsageError(Exception):
    pass


class FlowFailure(CurveFlowError):
    """An error raised by the flow itself after its input was accepted."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="curveflow", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a flow scenario")
    run_p.add_argument("--scenario", action="append", default=None,
                       choices=sorted(PRESETS) + ["file"],
                       help="preset name; repeat for several scenarios")
    run_p.add_argument("--in", dest="infile", default=None,
                       help="polyline file for --scenario file")
    run_p.add_argument("--n", type=int, default=None, help="vertex count")
    run_p.add_argument("--eps", type=float, default=None, help="bending weight")
    run_p.add_argument("--tau", type=float, default=None, help="time step")
    run_p.add_argument("--steps", type=int, default=None, help="step cap")
    run_p.add_argument("--stop-tol", type=float, default=None,
                       help="terminate when max vertex speed drops below this")
    run_p.add_argument("--out", default=".",
                       help="output directory (default %(default)s)")
    run_p.add_argument("--format", default="jsonl", choices=["jsonl", "csv"],
                       help="trajectory format (default %(default)s)")
    run_p.add_argument("--svg", action="store_true", help="render the flow")
    run_p.add_argument("--svg-stride", type=int, default=None,
                       help="draw every k-th snapshot (default: about 24 drawn)")
    run_p.add_argument("--snapshot-every", type=int, default=1,
                       help="record the curve every k steps (default %(default)s)")
    run_p.add_argument("--diagnostics", action="store_true",
                       help="write per-step residual norms")
    run_p.add_argument("--grad-tol", type=float, default=SolverOptions.grad_tol,
                       help="inner solver stationarity tolerance (default %(default)g)")

    rs_p = sub.add_parser("resample", help="equal-edge resampling of a polyline")
    rs_p.add_argument("--in", dest="infile", required=True)
    rs_p.add_argument("--n", type=int, required=True)
    rs_p.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def _given(value, default):
    return default if value is None else value


def _run_one(name: str, args) -> None:
    if name == "file":
        if not args.infile:
            raise UsageError("--scenario file needs --in FILE")
        if args.steps is None:
            raise UsageError("--scenario file needs --steps")
        preset = Preset(Scenario(kind="file", n=120, path=args.infile),
                        EnergyParams(epsilon=0.01, tau=0.05),
                        stop_tol=None, max_steps=None)
    else:
        preset = PRESETS[name]
    scenario = dataclasses.replace(preset.scenario, n=_given(args.n, preset.scenario.n))
    params = EnergyParams(epsilon=_given(args.eps, preset.params.epsilon),
                          tau=_given(args.tau, preset.params.tau))
    cfg = FlowConfig(
        params=params,
        n_steps=_given(args.steps, preset.max_steps),
        stop_tol=_given(args.stop_tol, preset.stop_tol),
        solver=SolverOptions(grad_tol=args.grad_tol),
        snapshot_every=args.snapshot_every,
    )
    if args.svg_stride is not None and args.svg_stride < 1:
        raise UsageError("--svg-stride must be >= 1")
    if args.diagnostics and scenario.n < RESIDUAL_MIN_POINTS:
        raise UsageError(f"--diagnostics needs --n >= {RESIDUAL_MIN_POINTS}")
    initial = make_scenario(scenario)

    # Errors above are input errors (exit 1); a ValueError from here on is
    # raised by the flow or while writing its outputs (exit 2).
    try:
        traj = run_flow(initial, cfg)
        os.makedirs(args.out, exist_ok=True)
        traj_path = os.path.join(args.out, f"{name}.{args.format}")
        write_trajectory(traj, traj_path, fmt=args.format)
        outputs = [traj_path]
        if args.svg:
            stride = args.svg_stride
            if stride is None:
                stride = max(1, len(traj.snapshots) // 24)
            svg_path = os.path.join(args.out, f"{name}.svg")
            render_svg(traj.snapshots, svg_path, stride=stride)
            outputs.append(svg_path)
            if scenario.kind == "asym_gamma":
                outputs.extend(write_phase_svgs(traj, args.out, name, stride=stride))
        if args.diagnostics:
            diag_path = os.path.join(args.out, f"{name}.diagnostics.csv")
            with open(diag_path, "w") as fh:
                fh.write(RESIDUAL_CSV_HEADER)
                for k in range(len(traj.snapshots) - 1):
                    rep = full_residual_report(traj, k, params)
                    fh.write(rep.csv_row(traj.snapshot_steps[k]))
            outputs.append(diag_path)

        final = traj.final
        print(
            f"[{name}] steps={traj.n_steps} E0={traj.energies[0]:.6f} "
            f"E={traj.energies[-1]:.6f} length={final.total_length:.6f} "
            f"gap={final.gap:.6f} crossings={self_intersections(final)} "
            f"unconverged={sum(not r.converged for r in traj.reports)} "
            f"worst_grad={max(r.final_grad_norm for r in traj.reports):.3e}"
        )
    except ValueError as exc:  # e.g. CuspAngle: not a usage error
        raise FlowFailure(f"{type(exc).__name__}: {exc}") from exc
    for p in outputs:
        print(f"[{name}] wrote {p}")


def cmd_run(args) -> int:
    if not args.scenario:
        raise UsageError("run needs at least one --scenario")
    for name in args.scenario:
        _run_one(name, args)
    return 0


def cmd_resample(args) -> int:
    curve = make_scenario(Scenario(kind="file", n=args.n, path=args.infile))
    text = "".join(f"{x:.17g} {y:.17g}\n" for x, y in curve.points.tolist())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} (N={curve.n}, l={curve.edge_len:.9g})")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand (run, resample)")
        if args.command == "run":
            return cmd_run(args)
        return cmd_resample(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 2
    except CurveFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
