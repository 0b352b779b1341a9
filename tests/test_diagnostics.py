import numpy as np
import pytest

from curveflow import (
    PRESETS,
    EnergyParams,
    FlowConfig,
    ReducedCoords,
    Scenario,
    SolverOptions,
    TooFewPoints,
    fd_gradient_check,
    fd_hessian_check,
    from_reduced,
    full_residual_report,
    loop_diameter,
    make_scenario,
    run_flow,
    self_intersections,
    to_reduced,
    validate,
)
from curveflow.diagnostics import _orient, crossing_pairs

from oracles import (
    brute_force_crossings,
    crossing_pairs_by_rows,
    random_open_curve,
    residual_parts,
)


def straight_segment(length, n):
    pts = np.column_stack([np.linspace(0, length, n), np.zeros(n)])
    return validate(pts)


def test_fd_check_at_stationary_point():
    seg = straight_segment(1.0, 12)
    err = fd_gradient_check(to_reduced(seg), seg, EnergyParams(0.05, 0.1))
    assert err < 1e-7


def test_fd_check_random_configurations():
    rng = np.random.default_rng(41)
    params = EnergyParams(epsilon=0.05, tau=0.1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 41))
        base, edge_len, headings = random_open_curve(rng, n)
        prev = from_reduced(ReducedCoords(base, edge_len, headings))
        cand = ReducedCoords(
            base + rng.uniform(-0.03, 0.03, 2),
            edge_len * float(rng.uniform(0.95, 1.05)),
            headings + rng.uniform(-0.08, 0.08, n - 1),
        )
        worst = max(worst, fd_gradient_check(cand, prev, params))
    assert worst < 1e-6


def test_fd_check_without_bending_path():
    # epsilon ~ 0 isolates the Coulomb + length + dissipation gradients
    rng = np.random.default_rng(42)
    params = EnergyParams(epsilon=1e-300, tau=0.1)
    base, edge_len, headings = random_open_curve(rng, 15)
    prev = from_reduced(ReducedCoords(base, edge_len, headings))
    cand = ReducedCoords(base, edge_len, headings + rng.uniform(-0.05, 0.05, 14))
    assert fd_gradient_check(cand, prev, params) < 1e-6


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fd_hessian_check_on_presets(name):
    # Small N, and a candidate moved off prev so that every term of D is live.
    preset = PRESETS[name]
    prev = make_scenario(Scenario(preset.scenario.kind, 12))
    rng = np.random.default_rng(43)
    rc = to_reduced(prev)
    cand = ReducedCoords(
        rc.base + rng.uniform(-0.03, 0.03, 2),
        rc.edge_len * float(rng.uniform(0.95, 1.05)),
        rc.headings + rng.uniform(-0.08, 0.08, prev.n - 1),
    )
    assert fd_hessian_check(cand, prev, preset.params) < 1e-6


@pytest.fixture(scope="module")
def shrink_traj():
    seg = straight_segment(2.0, 21)
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.05),
        n_steps=10,
        solver=SolverOptions(grad_tol=1e-10),
    )
    return run_flow(seg, cfg)


def test_interior_residual_straight_flow(shrink_traj):
    rep = full_residual_report(shrink_traj, 0, EnergyParams(0.01, 0.05))
    assert rep.interior_max < 1e-8
    assert rep.interior_L2 < 1e-8


def test_interior_residual_stationary_zero():
    seg = straight_segment(1.0, 15)
    cfg = FlowConfig(params=EnergyParams(epsilon=0.01, tau=0.05), n_steps=1,
                     solver=SolverOptions(grad_tol=1e-9))
    traj = run_flow(seg, cfg)
    rep = full_residual_report(traj, 0, EnergyParams(0.01, 0.05))
    assert rep.interior_max < 1e-10


def test_boundary_residual_stationary_unit_segment():
    seg = straight_segment(1.0, 15)
    cfg = FlowConfig(params=EnergyParams(epsilon=0.01, tau=0.05), n_steps=1,
                     solver=SolverOptions(grad_tol=1e-9))
    traj = run_flow(seg, cfg)
    rep = full_residual_report(traj, 0, EnergyParams(0.01, 0.05))
    assert np.linalg.norm(rep.boundary_start) < 1e-7
    assert np.linalg.norm(rep.boundary_end) < 1e-7
    assert rep.kappa_boundary[0] < 1e-10


def test_boundary_residual_first_shrink_step(shrink_traj):
    rep = full_residual_report(shrink_traj, 0, EnergyParams(0.01, 0.05))
    assert np.linalg.norm(rep.boundary_start) < 0.1
    assert np.linalg.norm(rep.boundary_end) < 0.1


def test_residuals_require_five_points():
    seg = straight_segment(1.0, 4)
    cfg = FlowConfig(params=EnergyParams(epsilon=0.01, tau=0.05), n_steps=1,
                     solver=SolverOptions(grad_tol=1e-9))
    traj = run_flow(seg, cfg)
    with pytest.raises(TooFewPoints):
        full_residual_report(traj, 0, EnergyParams(0.01, 0.05))


def test_full_report_is_finite_on_sinus():
    sin_curve = make_scenario(Scenario(kind="sinus", n=41))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.25),
        n_steps=5,
        solver=SolverOptions(grad_tol=1e-8),
    )
    traj = run_flow(sin_curve, cfg)
    for k in range(4):
        rep = full_residual_report(traj, k, cfg.params)
        assert np.isfinite(rep.interior_L2)
        assert np.isfinite(rep.interior_max)
        assert np.isfinite(rep.coupling_L2)
        assert np.all(np.isfinite(rep.boundary_start))
        assert np.all(np.isfinite(rep.boundary_end))


@pytest.mark.parametrize("kind, n, every", [("sinus", 41, 1), ("gamma", 60, 3)])
def test_full_report_matches_three_part_reference(kind, n, every):
    # One pass over the arrival curve gives the same bits as the interior,
    # endpoint and coupling residuals computed apart, also across thinned
    # snapshots (dt = every * tau, and a shorter last one).
    preset = PRESETS[kind]
    cfg = FlowConfig(params=preset.params, n_steps=13, snapshot_every=every)
    traj = run_flow(make_scenario(Scenario(kind=kind, n=n)), cfg)
    assert len(traj.snapshots) >= 5
    for k in range(len(traj.snapshots) - 1):
        rep = full_residual_report(traj, k, cfg.params)
        ref = residual_parts(traj, k, cfg.params)
        assert rep.step_index == ref["step_index"] == k
        assert rep.interior_L2 == ref["interior_L2"]
        assert rep.interior_max == ref["interior_max"]
        assert np.array_equal(rep.boundary_start, ref["boundary_start"])
        assert np.array_equal(rep.boundary_end, ref["boundary_end"])
        assert rep.kappa_boundary == ref["kappa_boundary"]
        assert rep.coupling_L2 == ref["coupling_L2"]


def test_self_intersections_straight():
    assert self_intersections(straight_segment(1.0, 10)) == 0


def test_self_intersections_figure_zigzag():
    from curveflow import resample_equal_arclength

    zig = resample_equal_arclength([(0, 0), (2, 0), (2, 1), (0, -1)], 40)
    n_pkg = self_intersections(zig)
    n_ref = brute_force_crossings(zig.points)
    assert n_pkg == n_ref
    assert n_pkg >= 1


def test_self_intersections_gamma_matches_brute_force():
    g = make_scenario(Scenario(kind="gamma", n=120))
    assert self_intersections(g) == 1
    assert brute_force_crossings(g.points) == 1
    a = make_scenario(Scenario(kind="asym_gamma", n=120))
    assert self_intersections(a) == 1


def test_self_intersections_random_matches_brute_force():
    rng = np.random.default_rng(43)
    for _ in range(40):
        base, edge_len, headings = random_open_curve(rng, 20, min_gap=1e-3)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        assert self_intersections(c) == brute_force_crossings(c.points)


def test_crossing_pairs_match_edge_by_edge_search():
    # Blocks of rows against every partner list the same pairs in the same
    # order as the search over one edge at a time, also past one block.
    curves = [make_scenario(Scenario(kind=kind, n=n))
              for kind in ("gamma", "asym_gamma", "sinus", "segment") for n in (5, 120)]
    rng = np.random.default_rng(44)
    for n in (4, 17, 40, 90):
        for _ in range(5):
            headings = np.cumsum(rng.uniform(-2.5, 2.5, n - 1))
            steps = np.column_stack([np.cos(headings), np.sin(headings)])
            curves.append(validate(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])))
    found = 0
    for c in curves:
        pairs = crossing_pairs(c)
        assert pairs == crossing_pairs_by_rows(c.points, _orient)
        found += len(pairs)
    assert found > 50


def test_loop_diameter_gamma():
    g = make_scenario(Scenario(kind="gamma", n=120))
    pairs = crossing_pairs(g)
    assert len(pairs) == 1
    d = loop_diameter(g)
    # the loop encloses the tangent circle: diameter above 2r, below total size
    assert 0.7 < d < 1.2
    assert loop_diameter(straight_segment(1.0, 8)) == 0.0
