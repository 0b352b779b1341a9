"""Acceptance suite: the package's end-to-end exit criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The long preset flows run once per session and are shared between criteria.
"""

import time

import numpy as np
import pytest

from curveflow import (
    EnergyParams,
    FlowConfig,
    ReducedCoords,
    Scenario,
    SolverOptions,
    discrete_curvature,
    fd_gradient_check,
    from_reduced,
    full_residual_report,
    loop_diameter,
    make_scenario,
    run_flow,
    self_intersections,
    validate,
)

from oracles import random_open_curve, segment_flow_oracle

pytestmark = pytest.mark.slow

# Solver settings for the long preset runs: the defaults, stationarity at
# 1e-8. The acceptance thresholds below do not depend on it.
RUN_OPTS = SolverOptions()


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE {num}] {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _timed_flow(initial, cfg):
    t0 = time.perf_counter()
    traj = run_flow(initial, cfg)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def segment_run():
    initial = make_scenario(Scenario(kind="segment", n=51))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.05),
        n_steps=20000,
        stop_tol=1e-7,
        solver=RUN_OPTS,
    )
    return _timed_flow(initial, cfg)


@pytest.fixture(scope="module")
def sinus_run():
    initial = make_scenario(Scenario(kind="sinus", n=81))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.25),
        n_steps=20000,
        stop_tol=1e-6,
        solver=RUN_OPTS,
    )
    return _timed_flow(initial, cfg)


@pytest.fixture(scope="module")
def gamma_run():
    initial = make_scenario(Scenario(kind="gamma", n=120))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.1, tau=0.0125),
        n_steps=60000,
        stop_tol=1e-6,
        solver=RUN_OPTS,
    )
    return _timed_flow(initial, cfg)


@pytest.fixture(scope="module")
def gamma_small_eps_run():
    initial = make_scenario(Scenario(kind="gamma", n=120))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.0125),
        n_steps=60000,
        stop_tol=1e-6,
        solver=RUN_OPTS,
    )
    return _timed_flow(initial, cfg)


@pytest.fixture(scope="module")
def asym_gamma_run():
    initial = make_scenario(Scenario(kind="asym_gamma", n=120))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.1, tau=0.01),
        n_steps=120000,
        stop_tol=1e-6,
        solver=RUN_OPTS,
    )
    return _timed_flow(initial, cfg)


@pytest.fixture(scope="module")
def all_preset_runs(segment_run, sinus_run, gamma_run, gamma_small_eps_run,
                    asym_gamma_run):
    return {
        "segment": segment_run,
        "sinus": sinus_run,
        "gamma[eps=0.1]": gamma_run,
        "gamma[eps=0.01]": gamma_small_eps_run,
        "asym_gamma": asym_gamma_run,
    }


def test_criterion_1_unit_segment_attractor(segment_run):
    traj, wall = segment_run
    lengths = np.asarray(traj.lengths)
    oracle = segment_flow_oracle(2.0, 0.05, traj.n_steps)
    per_step_dev = float(np.max(np.abs(lengths - oracle)))
    ok = (
        abs(traj.final.total_length - 1.0) < 1e-2
        and bool(np.all(np.diff(lengths) <= 1e-12))
        and per_step_dev < 1e-4
        and wall < 30.0
    )
    _report(
        1,
        "unit-segment attractor",
        ok,
        f"final length {traj.final.total_length:.6f}, oracle dev "
        f"{per_step_dev:.2e}, {traj.n_steps} steps in {wall:.1f}s",
    )


def test_criterion_2_energy_monotonicity(all_preset_runs):
    total_wall = 0.0
    worst_rise = -np.inf
    worst_diss_excess = -np.inf
    for name, (traj, wall) in all_preset_runs.items():
        total_wall += wall
        e = np.asarray(traj.energies)
        tol = 1e-10 * (1.0 + abs(e[0]))
        worst_rise = max(worst_rise, float(np.max(np.diff(e))) - tol)
        worst_diss_excess = max(
            worst_diss_excess, sum(traj.diss_over_tau) - (e[0] + 1e-8)
        )
    ok = worst_rise <= 0.0 and worst_diss_excess <= 0.0 and total_wall < 300.0
    _report(
        2,
        "energy monotonicity and dissipation sum",
        ok,
        f"max energy rise over tol {worst_rise:.2e}, dissipation excess "
        f"{worst_diss_excess:.2e}, total {total_wall:.0f}s",
    )


def test_criterion_3_apriori_bounds(all_preset_runs):
    violations = 0
    for name, (traj, _) in all_preset_runs.items():
        e0 = traj.energies[0]
        gaps = np.asarray(traj.gaps)
        lengths = np.asarray(traj.lengths)
        if np.any(gaps > lengths + 1e-12):
            violations += 1
        if np.any(lengths > 2.0 * (e0 + 1.0)):
            violations += 1
        eps = {"segment": 0.01, "sinus": 0.01, "gamma[eps=0.1]": 0.1,
               "gamma[eps=0.01]": 0.01, "asym_gamma": 0.1}[name]
        for c in traj.snapshots:
            bend = 0.5 * eps * c.edge_len * float(
                np.sum(discrete_curvature(c) ** 2)
            )
            if bend > e0 + 1.0:
                violations += 1
                break
    _report(3, "a-priori bounds on every run", violations == 0,
            f"{violations} violations")


def test_criterion_4_gradient_oracle():
    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    ok = worst < 1e-6 and wall < 10.0
    _report(4, "analytic gradient vs finite differences", ok,
            f"max rel err {worst:.2e} in {wall:.1f}s")


def test_criterion_5_sinus_straightening(sinus_run):
    traj, wall = sinus_run
    fin = traj.final
    chord = fin.points[-1] - fin.points[0]
    u = chord / np.linalg.norm(chord)
    rel = fin.points - fin.points[0]
    dev = float(np.max(np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])))
    kap = discrete_curvature(fin)
    kb = max(abs(float(kap[0])), abs(float(kap[-1])))
    e = np.asarray(traj.energies)
    ok = (
        dev < 0.05
        and kb < 1e-2
        and bool(np.all(np.diff(e) < 0))
        and wall < 60.0
    )
    _report(5, "sinus straightening", ok,
            f"chord dev {dev:.2e}, boundary kappa {kb:.2e}, "
            f"{traj.n_steps} steps in {wall:.1f}s")


def test_criterion_6_gamma_epsilon_dependence(gamma_run, gamma_small_eps_run):
    traj_big, wall_big = gamma_run
    traj_small, wall_small = gamma_small_eps_run
    fin_big = traj_big.final
    fin_small = traj_small.final
    crossings_big = self_intersections(fin_big)
    crossings_small = self_intersections(fin_small)
    d_big = loop_diameter(fin_big)
    d_small = loop_diameter(fin_small)
    ok = (
        crossings_big == 1
        and crossings_small == 1
        and d_small < d_big
        and (wall_big + wall_small) < 300.0
    )
    _report(6, "gamma loop size shrinks with epsilon", ok,
            f"crossings {crossings_big}/{crossings_small}, loop diameters "
            f"{d_big:.4f} (eps=0.1) vs {d_small:.4f} (eps=0.01), "
            f"{wall_big + wall_small:.0f}s")


def test_criterion_7_asym_gamma_unfolds(asym_gamma_run):
    traj, wall = asym_gamma_run
    fin = traj.final
    crossings = self_intersections(fin)
    ok = (
        crossings == 0
        and abs(fin.total_length - 1.0) < 5e-2
        and wall < 600.0
    )
    _report(7, "asymmetric gamma unfolds to a unit segment", ok,
            f"crossings {crossings}, final length {fin.total_length:.4f}, "
            f"{traj.n_steps} steps in {wall:.1f}s")


def test_criterion_8_residual_refinement():
    t0 = time.perf_counter()
    initial = make_scenario(Scenario(kind="sinus", n=81))
    t_phys = 2.0
    interior = {}
    coupling = {}
    for tau in (0.25, 0.125):
        steps = int(round(t_phys / tau))
        cfg = FlowConfig(
            params=EnergyParams(epsilon=0.01, tau=tau),
            n_steps=steps + 1,
            solver=RUN_OPTS,
        )
        traj = run_flow(initial, cfg)
        rep = full_residual_report(traj, steps, cfg.params)
        interior[tau] = rep.interior_L2
        coupling[tau] = rep.coupling_L2
    r_int = interior[0.125] / interior[0.25]
    r_cpl = coupling[0.125] / coupling[0.25]
    wall = time.perf_counter() - t0
    ok = r_int < 0.75 and r_cpl < 0.75 and wall < 120.0
    _report(8, "PDE residuals shrink under tau refinement", ok,
            f"interior ratio {r_int:.3f}, coupling ratio {r_cpl:.3f}, "
            f"{wall:.1f}s")


def test_criterion_9_equivariance_and_determinism(segment_run):
    initial = make_scenario(Scenario(kind="sinus", n=81))
    mirrored = validate(initial.points * np.array([1.0, -1.0]))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.25),
        n_steps=12,
        solver=RUN_OPTS,
    )
    t1 = run_flow(initial, cfg)
    t2 = run_flow(mirrored, cfg)
    mirror_dev = max(
        float(np.max(np.abs(a.points * np.array([1.0, -1.0]) - b.points)))
        for a, b in zip(t1.snapshots, t2.snapshots)
    )

    traj_ref, _ = segment_run
    cfg_seg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.05),
        n_steps=20000,
        stop_tol=1e-7,
        solver=RUN_OPTS,
    )
    traj_rep = run_flow(make_scenario(Scenario(kind="segment", n=51)),
                        cfg_seg)
    identical = len(traj_rep.snapshots) == len(traj_ref.snapshots) and all(
        np.array_equal(a.points, b.points)
        for a, b in zip(traj_ref.snapshots, traj_rep.snapshots)
    )
    ok = mirror_dev <= 1e-9 and identical
    _report(9, "mirror equivariance and bit-determinism", ok,
            f"mirror dev {mirror_dev:.1e}, repeat identical {identical}")
