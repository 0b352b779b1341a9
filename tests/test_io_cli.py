import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curveflow.cli
from curveflow import (
    BadParameters,
    BoundViolation,
    CuspAngle,
    EnergyParams,
    FlowConfig,
    PRESETS,
    Scenario,
    SolverOptions,
    Trajectory,
    make_scenario,
    read_trajectory_jsonl,
    render_svg,
    run_flow,
    self_intersections,
    validate,
    write_trajectory,
)
from curveflow.cli import main


@pytest.fixture(scope="module")
def short_traj():
    seg = validate(np.column_stack([np.linspace(0, 2, 15), np.zeros(15)]))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.05),
        n_steps=6,
        solver=SolverOptions(grad_tol=1e-9),
    )
    return run_flow(seg, cfg)


@pytest.fixture(scope="module")
def sinus_traj():
    """A curved flow: no coordinate column is constant."""
    cfg = FlowConfig(params=PRESETS["sinus"].params, n_steps=6)
    return run_flow(make_scenario(Scenario(kind="sinus", n=15)), cfg)


def test_scenarios_all_valid_and_admissible():
    for name, preset in PRESETS.items():
        c = make_scenario(preset.scenario)
        assert c.is_admissible(), name
        assert c.n == preset.scenario.n


def test_scenario_segment_exact():
    c = make_scenario(Scenario(kind="segment", n=3))
    assert np.allclose(c.points, [(0, 0), (1, 0), (2, 0)])


def test_scenario_sinus_endpoints_and_edges():
    c = make_scenario(Scenario(kind="sinus", n=81))
    assert np.allclose(c.points[0], [-np.pi, 0.0])
    assert np.allclose(c.points[-1], [np.pi, 0.0])
    lens = np.linalg.norm(np.diff(c.points, axis=0), axis=1)
    assert (lens.max() - lens.min()) / lens.mean() < 1e-10


def test_scenario_gamma_crossings():
    assert self_intersections(make_scenario(Scenario(kind="gamma", n=120))) == 1
    assert self_intersections(make_scenario(Scenario(kind="asym_gamma", n=120))) == 1


def test_scenario_bad_parameters():
    with pytest.raises(BadParameters):
        make_scenario(Scenario(kind="segment", n=1))
    with pytest.raises(BadParameters):
        make_scenario(Scenario(kind="nope", n=10))
    with pytest.raises(BadParameters):
        make_scenario(Scenario(kind="file", n=10, path=None))


def test_file_scenario_roundtrip(tmp_path):
    p = tmp_path / "poly.txt"
    xs = np.linspace(0, 1, 200)
    np.savetxt(p, np.column_stack([xs, xs**2]))
    c = make_scenario(Scenario(kind="file", n=30, path=str(p)))
    assert c.n == 30
    assert c.is_admissible()


def _snapshot_scalars(traj):
    """(step, t, l, E, length, gap) of every snapshot, as recorded."""
    return [(s, s * traj.tau, c.edge_len, traj.energies[s], traj.lengths[s],
             traj.gaps[s]) for s, c in zip(traj.snapshot_steps, traj.snapshots)]


def test_jsonl_roundtrip_bit_exact(sinus_traj, tmp_path):
    path = str(tmp_path / "traj.jsonl")
    write_trajectory(sinus_traj, path, fmt="jsonl")
    records = read_trajectory_jsonl(path)
    assert len(records) == len(sinus_traj.snapshots)
    for rec, curve in zip(records, sinus_traj.snapshots):
        assert np.array_equal(rec["points"], curve.points)
    assert [(s, r["t"], r["l"], r["E"], r["length"], r["gap"])
            for s, r in zip(sinus_traj.snapshot_steps, records)
            ] == _snapshot_scalars(sinus_traj)


def test_csv_roundtrip_bit_exact(sinus_traj, tmp_path):
    path = str(tmp_path / "traj.csv")
    write_trajectory(sinus_traj, path, fmt="csv")
    header, *rows = open(path).read().splitlines()
    assert header == "step,i,x,y"
    parsed = [(int(s), int(i), float(x), float(y))
              for s, i, x, y in (row.split(",") for row in rows)]
    assert parsed == [
        (step, i, x, y)
        for step, curve in zip(sinus_traj.snapshot_steps, sinus_traj.snapshots)
        for i, (x, y) in enumerate(curve.points.tolist())
    ]
    header, *rows = open(path + ".scalars.csv").read().splitlines()
    assert header == "step,t,l,E,length,gap"
    parsed = [(int(s), *map(float, rest))
              for s, *rest in (row.split(",") for row in rows)]
    assert parsed == _snapshot_scalars(sinus_traj)


def test_csv_row_count(short_traj, tmp_path):
    path = str(tmp_path / "traj.csv")
    write_trajectory(short_traj, path, fmt="csv")
    rows = open(path).read().strip().split("\n")
    n_expected = sum(c.n for c in short_traj.snapshots)
    assert len(rows) == 1 + n_expected  # header + data
    assert os.path.exists(path + ".scalars.csv")


def test_single_snapshot_file(tmp_path):
    seg = validate([(0.0, 0.0), (1.0, 0.0)])
    traj = Trajectory(tau=0.1)
    traj.snapshots.append(seg)
    traj.snapshot_steps.append(0)
    traj.energies.append(1.0)
    traj.lengths.append(1.0)
    traj.gaps.append(1.0)
    path = str(tmp_path / "one.jsonl")
    write_trajectory(traj, path)
    assert len(read_trajectory_jsonl(path)) == 1
    svg = str(tmp_path / "one.svg")
    render_svg(traj.snapshots, svg)
    assert open(svg).read().count("<polyline") == 1


def test_svg_deterministic_and_strided(short_traj, tmp_path):
    p1 = str(tmp_path / "a.svg")
    p2 = str(tmp_path / "b.svg")
    render_svg(short_traj.snapshots, p1)
    render_svg(short_traj.snapshots, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    text = open(p1).read()
    assert text.count("<polyline") == len(short_traj.snapshots)
    p3 = str(tmp_path / "c.svg")
    render_svg(short_traj.snapshots, p3, stride=2)
    drawn = len(short_traj.snapshots[::2])
    if (len(short_traj.snapshots) - 1) % 2 != 0:
        drawn += 1
    assert open(p3).read().count("<polyline") == drawn


def test_svg_color_ramp(short_traj, tmp_path):
    import re

    p = str(tmp_path / "ramp.svg")
    render_svg(short_traj.snapshots, p)
    strokes = re.findall(r'stroke="#(..)(..)(..)"', open(p).read())
    first = [int(h, 16) for h in strokes[0]]
    last = [int(h, 16) for h in strokes[-1]]
    # violet start: blue dominates red; red end: red dominates blue
    assert first[2] > first[0]
    assert last[0] > last[2]
    assert last[1] == last[2]  # pure red hue


def test_phase_svgs(short_traj, tmp_path):
    from curveflow.io import write_phase_svgs

    paths = write_phase_svgs(short_traj, str(tmp_path), "flow")
    assert len(paths) == 3
    for p in paths:
        assert "<polyline" in open(p).read()


@pytest.mark.parametrize("count", [1, 2, 7])
def test_phase_svgs_draw_exactly_their_third(sinus_traj, tmp_path, count):
    from curveflow.io import write_phase_svgs

    snapshots = sinus_traj.snapshots[:count]
    traj = Trajectory(tau=sinus_traj.tau, snapshots=snapshots,
                      snapshot_steps=sinus_traj.snapshot_steps[:count])
    paths = write_phase_svgs(traj, str(tmp_path), "flow", stride=1)
    cuts = [0, count // 3, (2 * count) // 3, count]
    for k, p in enumerate(paths):
        third = snapshots[cuts[k] : max(cuts[k + 1], cuts[k] + 1)]
        polys = re.findall(r'points="([^"]*)"', open(p).read())
        assert len(polys) == len(third)
        for coords, curve in zip(polys, third):
            drawn = np.array([pair.split(",") for pair in coords.split()], dtype=float)
            assert np.allclose(drawn, curve.points * [1.0, -1.0], rtol=1e-8, atol=1e-8)
    assert third[-1] is snapshots[-1]


def test_cli_run_segment(tmp_path):
    code = main([
        "run", "--scenario", "segment", "--n", "21", "--steps", "30",
        "--out", str(tmp_path), "--svg",
    ])
    assert code == 0
    assert (tmp_path / "segment.jsonl").exists()
    assert (tmp_path / "segment.svg").exists()


def test_cli_run_without_scenario_is_usage_error():
    assert main(["run"]) == 1


def test_cli_unknown_flag_is_usage_error():
    assert main(["run", "--bogus"]) == 1


def test_cli_missing_subcommand(capsys):
    assert main([]) == 1
    assert "missing subcommand (run, resample)" in capsys.readouterr().err


def test_cli_resample(tmp_path):
    src = tmp_path / "in.txt"
    np.savetxt(src, np.column_stack([np.linspace(0, 3, 50), np.zeros(50)]))
    dst = tmp_path / "out.txt"
    code = main(["resample", "--in", str(src), "--n", "7", "--out", str(dst)])
    assert code == 0
    pts = np.loadtxt(dst)
    assert pts.shape == (7, 2)
    lens = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert (lens.max() - lens.min()) / lens.mean() < 1e-9


def test_cli_format_and_snapshot_every(tmp_path):
    code = main([
        "run", "--scenario", "segment", "--n", "15", "--format", "csv",
        "--snapshot-every", "5", "--steps", "5", "--out", str(tmp_path),
    ])
    assert code == 0
    scalars = (tmp_path / "segment.csv.scalars.csv").read_text().strip()
    steps = [int(line.split(",")[0]) for line in scalars.split("\n")[1:]]
    assert steps == [0, 5]


def test_cli_diagnostics_output(tmp_path):
    code = main([
        "run", "--scenario", "segment", "--n", "21", "--steps", "5",
        "--out", str(tmp_path), "--diagnostics",
    ])
    assert code == 0
    diag = (tmp_path / "segment.diagnostics.csv").read_text().strip().split("\n")
    assert len(diag) == 6  # header + 5 steps
    assert diag[0].startswith("snapshot_step,interior_L2")


def test_cli_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "curveflow.cli", "run"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


def test_cli_output_is_independent_of_blas_threads(tmp_path):
    # The solver's matrix-vector products and batched block solves go through
    # BLAS and LAPACK; their thread count must not change a single output
    # byte. These five gamma steps take Newton directions.
    preset = PRESETS["gamma"]
    traj = run_flow(make_scenario(preset.scenario),
                    FlowConfig(params=preset.params, n_steps=5))
    assert all(r.n_newton > 0 for r in traj.reports)
    src = str(Path(curveflow.cli.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "curveflow.cli", "run", "--scenario", "gamma",
             "--steps", "5", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256((out / "gamma.jsonl").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_cli_run_segment_to_unit_length(tmp_path, capsys):
    code = main([
        "run", "--scenario", "segment", "--n", "51", "--eps", "0.01",
        "--tau", "0.05", "--stop-tol", "1e-7", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert "unconverged=0 worst_grad=" in summary
    worst = float(summary.rsplit("worst_grad=", 1)[1])
    assert 0.0 < worst <= 1e-8  # every step met the default --grad-tol
    recs = read_trajectory_jsonl(str(tmp_path / "segment.jsonl"))
    assert abs(recs[-1]["length"] - 1.0) < 1e-2


def test_cli_run_sinus_svg_layout(tmp_path):
    code = main([
        "run", "--scenario", "sinus", "--tau", "0.25", "--eps", "0.01",
        "--out", str(tmp_path), "--svg", "--svg-stride", "1",
    ])
    assert code == 0
    text = (tmp_path / "sinus.svg").read_text()
    polys = [
        seg.split('points="')[1].split('"')[0]
        for seg in text.split("<polyline")[1:]
    ]

    def parse(coords):
        return np.array([list(map(float, p.split(","))) for p in coords.split()])

    first = parse(polys[0])
    last = parse(polys[-1])
    # first drawn curve is the sinus (unit amplitude), last is near straight
    assert np.ptp(first[:, 1]) > 1.5
    chord = last[-1] - last[0]
    u = chord / np.linalg.norm(chord)
    rel = last - last[0]
    assert np.max(np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])) < 0.01


def test_cli_two_scenarios(tmp_path):
    code = main([
        "run", "--scenario", "segment", "--scenario", "sinus",
        "--steps", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "segment.jsonl").exists()
    assert (tmp_path / "sinus.jsonl").exists()


@pytest.mark.parametrize("error, message", [
    (CuspAngle("anti-parallel edges"), "anti-parallel edges"),
    (BoundViolation("energy increased", 3, {}), "bound violation"),
    (None, "io error"),  # --out names an existing regular file
], ids=["cusp", "bound_violation", "io_error"])
def test_cli_flow_error_exits_two(tmp_path, monkeypatch, capsys, error, message):
    def fail(*args, **kwargs):
        raise error

    out = tmp_path
    if error is None:
        out = tmp_path / "taken"
        out.write_text("")
    else:
        monkeypatch.setattr(curveflow.cli, "run_flow", fail)
    code = main(["run", "--scenario", "segment", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "usage" not in err.lower()


def test_cli_post_flow_error_exits_two(tmp_path, monkeypatch, capsys):
    def cusp(*args, **kwargs):
        raise CuspAngle("anti-parallel edges")

    monkeypatch.setattr(curveflow.cli, "full_residual_report", cusp)
    code = main([
        "run", "--scenario", "segment", "--n", "21", "--steps", "3",
        "--out", str(tmp_path), "--diagnostics",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "anti-parallel edges" in err
    assert "usage" not in err.lower()


@pytest.mark.parametrize(
    "flags",
    [["--svg-stride", "0"], ["--snapshot-every", "0"], ["--diagnostics", "--n", "4"]],
    ids=["--svg-stride", "--snapshot-every", "--diagnostics"],
)
def test_cli_bad_output_flag_exits_one_before_the_flow(tmp_path, monkeypatch, flags):
    def never(*args, **kwargs):
        raise AssertionError("the flow must not start")

    monkeypatch.setattr(curveflow.cli, "run_flow", never)
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", "segment", "--steps", "3", "--out", str(out),
        "--svg", *flags,
    ])
    assert code == 1
    assert not out.exists()


def test_cli_file_with_degenerate_gap_exits_one(tmp_path):
    src = tmp_path / "in.txt"
    np.savetxt(src, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 1e-9)])
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", "file", "--in", str(src), "--n", "21",
        "--steps", "3", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--eps", "--tau"])
def test_cli_non_finite_parameter_exits_one(tmp_path, flag):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "segment", "--steps", "3", "--out", str(out),
                 flag, "inf"])
    assert code == 1
    assert not out.exists()


def test_cli_resample_coincident_points_exits_one(tmp_path):
    src = tmp_path / "in.txt"
    np.savetxt(src, [(1.0, 2.0)] * 4)
    out = tmp_path / "out.txt"
    assert main(["resample", "--in", str(src), "--n", "5", "--out", str(out)]) == 1
    assert not out.exists()


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("curveflow ")]
    assert len(commands) >= 6
    parser = curveflow.cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_kernel_pieces_are_public_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("The kernel pieces are importable on their own:", 1)[1]
    names = re.findall(r"`(\w+)`", sentence.split(".", 1)[0])
    assert len(names) >= 10
    assert set(names) <= set(curveflow.__all__)
    for name in curveflow.__all__:
        assert hasattr(curveflow, name), name


def test_grad_tol_flag_defaults_to_solver_options():
    args = curveflow.cli.build_parser().parse_args(["run", "--scenario", "segment"])
    assert args.grad_tol == SolverOptions().grad_tol


def test_cli_file_scenario_needs_step_cap(tmp_path):
    src = tmp_path / "in.txt"
    np.savetxt(src, np.column_stack([np.linspace(0, 3, 50), np.zeros(50)]))
    code = main([
        "run", "--scenario", "file", "--in", str(src), "--stop-tol", "1e-6",
        "--out", str(tmp_path),
    ])
    assert code == 1


def test_cli_check_is_not_a_subcommand(capsys):
    assert main(["check"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("usage: curveflow")


@pytest.mark.parametrize("command", [
    ["run", "--scenario", "file", "--steps", "1"],
    ["resample"],
])
def test_cli_one_column_polyline_file_exits_one(tmp_path, command):
    src = tmp_path / "in.txt"
    np.savetxt(src, np.linspace(0, 3, 50))
    out = tmp_path / "out"
    code = main([*command, "--in", str(src), "--n", "7", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_cli_resample_empty_input_is_usage_error(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["resample", "--in", str(empty), "--n", "5"]) == 1
