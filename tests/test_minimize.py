import numpy as np
import pytest

import curveflow.minimize
from curveflow import (
    PRESETS,
    CuspAngle,
    EnergyParams,
    FlowConfig,
    ReducedCoords,
    Scenario,
    SolverOptions,
    assert_cone_condition,
    energy,
    from_reduced,
    make_scenario,
    minimize_step,
    objective_gradient,
    run_flow,
    to_reduced,
    validate,
)

from oracles import random_open_curve, segment_step_oracle, two_loop_direction

# The tolerance these tests check against, tighter than the SolverOptions default.
TIGHT = SolverOptions(grad_tol=1e-9)


def straight_segment(length, n):
    pts = np.column_stack([np.linspace(0, length, n), np.zeros(n)])
    return validate(pts)


def test_stationary_unit_segment_is_fixed_point():
    seg = straight_segment(1.0, 21)
    nxt, rep = minimize_step(seg, EnergyParams(epsilon=0.01, tau=0.05), TIGHT)
    assert rep.converged
    assert rep.stop_reason == "converged"
    assert rep.iterations <= 3
    assert np.max(np.abs(nxt.points - seg.points)) < 1e-7


def test_step_matches_scalar_oracle():
    seg = straight_segment(2.0, 21)
    params = EnergyParams(epsilon=0.01, tau=0.05)
    nxt, rep = minimize_step(seg, params, SolverOptions(grad_tol=1e-10))
    expected = segment_step_oracle(2.0, 0.05)
    assert nxt.total_length == pytest.approx(expected, abs=1e-6)
    assert 1.0 < nxt.total_length < 2.0
    # stays exactly straight
    assert np.ptp(to_reduced(nxt).headings) == 0.0
    assert rep.f_final <= energy(seg, params).total


def test_descent_and_report_consistency():
    rng = np.random.default_rng(31)
    params = EnergyParams(epsilon=0.05, tau=0.1)
    for _ in range(10):
        base, edge_len, headings = random_open_curve(rng, 15)
        prev = from_reduced(ReducedCoords(base, edge_len, headings))
        nxt, rep = minimize_step(prev, params, TIGHT)
        assert rep.f_final <= rep.f_initial
        assert rep.f_initial == pytest.approx(energy(prev, params).total, rel=1e-12)
        if rep.converged:
            assert rep.final_grad_norm <= 1e-9
        # stationarity of the returned point
        grad = objective_gradient(to_reduced(nxt), prev, params)
        assert np.max(np.abs(grad)) == pytest.approx(rep.final_grad_norm, rel=1e-6)


def test_scheme_monotonicity_chain():
    rng = np.random.default_rng(32)
    params = EnergyParams(epsilon=0.05, tau=0.1)
    for _ in range(10):
        base, edge_len, headings = random_open_curve(rng, 12)
        prev = from_reduced(ReducedCoords(base, edge_len, headings))
        e_prev = energy(prev, params).total
        nxt, rep = minimize_step(prev, params, TIGHT)
        e_next = energy(nxt, params).total
        assert rep.f_final <= e_prev + 1e-10 * (1 + abs(e_prev))
        assert e_next <= rep.f_final + 1e-10 * (1 + abs(e_prev))


def test_determinism():
    rng = np.random.default_rng(33)
    base, edge_len, headings = random_open_curve(rng, 18)
    prev = from_reduced(ReducedCoords(base, edge_len, headings))
    params = EnergyParams(epsilon=0.02, tau=0.05)
    a, ra = minimize_step(prev, params, TIGHT)
    b, rb = minimize_step(prev, params, TIGHT)
    assert np.array_equal(a.points, b.points)
    assert ra == rb


def test_step_commutes_with_reversal_and_rigid_motions():
    rng = np.random.default_rng(35)
    params = EnergyParams(epsilon=0.05, tau=0.1)
    compared = 0
    for _ in range(10):
        base, edge_len, headings = random_open_curve(rng, 12)
        prev = from_reduced(ReducedCoords(base, edge_len, headings))
        ang = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        shift = rng.uniform(-3, 3, 2)
        nxt, rep = minimize_step(prev, params, TIGHT)
        cases = [
            (prev.points[::-1], lambda pts: pts[::-1]),
            (prev.points @ rot.T + shift, lambda pts: (pts - shift) @ rot),
        ]
        for moved, undo in cases:
            other, rep_other = minimize_step(validate(moved), params, TIGHT)
            if rep.converged and rep_other.converged:
                assert np.max(np.abs(undo(other.points) - nxt.points)) < 1e-8
                compared += 1
    assert compared > 0


def test_rejected_trial_is_shrunk(monkeypatch):
    real = curveflow.minimize._objective_raw
    calls = []

    def cusp_on_first_trial(*args):
        calls.append(args)
        if len(calls) == 2:  # call 1 evaluates prev, call 2 is the first trial
            raise CuspAngle("injected")
        return real(*args)

    monkeypatch.setattr(curveflow.minimize, "_objective_raw", cusp_on_first_trial)
    seg = straight_segment(2.0, 21)
    nxt, rep = minimize_step(seg, EnergyParams(epsilon=0.01, tau=0.05), TIGHT)
    assert len(calls) > 2
    assert rep.f_final <= rep.f_initial
    assert nxt.total_length < seg.total_length
    # A trial outside the open set halves alpha along the same direction.
    z0, z1, z2 = (args[0] for args in calls[:3])
    np.testing.assert_allclose(z2 - z0, 0.5 * (z1 - z0), rtol=0,
                               atol=1e-12 * np.max(np.abs(z1 - z0)))


def test_rejected_finite_trial_backtracks_to_the_quadratic_minimizer(monkeypatch):
    real = curveflow.minimize._objective_raw
    calls = []

    def recording(z, *args):
        f, g = real(z, *args)
        calls.append((z, f, g))
        return f, g

    monkeypatch.setattr(curveflow.minimize, "_objective_raw", recording)
    minimize_step(straight_segment(2.0, 21), EnergyParams(epsilon=0.01, tau=0.05), TIGHT)
    (z0, f0, g0), (z1, f1, _), (z2, _, _) = calls[:3]
    step = z1 - z0
    slope = float(g0 @ step)
    assert f1 > f0 + curveflow.minimize._ARMIJO_C1 * slope  # the first trial fails Armijo
    ratio = float((z2 - z0) @ step) / float(step @ step)
    np.testing.assert_allclose(z2 - z0, ratio * step, rtol=0,
                               atol=1e-12 * np.max(np.abs(step)))
    # The next alpha is the quadratic's minimizer clamped to [0.1, 0.5]
    # times the first; here the clamp at 0.1 applies, where halving gave 0.5.
    expected = min(max(-0.5 * slope / (f1 - f0 - slope), 0.1), 0.5)
    assert ratio == pytest.approx(expected, rel=1e-9)
    assert expected < 0.5


def test_next_alpha_is_the_clamped_quadratic_minimizer_or_a_halving():
    next_alpha = curveflow.minimize._next_alpha
    # q(t) = -t + c t^2 through q(2) = f_trial has its minimizer at 1 / (2c);
    # f_trial = 0.5 gives c = 0.625.
    assert next_alpha(2.0, 0.0, -1.0, 0.5) == pytest.approx(0.8)
    assert next_alpha(2.0, 0.0, -1.0, 100.0) == pytest.approx(0.2)  # clamped below
    assert next_alpha(2.0, 0.0, -1.0, -1.9) == pytest.approx(1.0)   # clamped above
    for f_trial in (-2.0, -3.0, np.nan, np.inf):  # no positive curvature, not finite
        assert next_alpha(2.0, 0.0, -1.0, f_trial) == 1.0


def test_evaluations_are_iterations_plus_backtracks_on_segment_steps():
    # Measured: at most 2 backtracks in every step at N = 51 and N = 481.
    preset = PRESETS["segment"]
    for n in (51, 481):
        cfg = FlowConfig(params=preset.params, n_steps=preset.max_steps,
                         stop_tol=preset.stop_tol)
        traj = run_flow(make_scenario(Scenario("segment", n)), cfg)
        for rep in traj.reports:
            assert rep.converged
            assert rep.n_evals == 1 + rep.iterations + rep.n_backtracks
            assert rep.n_backtracks <= 2


def test_compact_history_matches_two_loop_recursion():
    # Appends up to the full capacity, then a clear() and appends again.
    capacity = curveflow.minimize._NEWTON_AFTER
    rng = np.random.default_rng(36)
    for size in (7, 60, 150):
        a = rng.normal(size=(size, size))
        hess = a @ a.T / size + np.eye(size)
        history = curveflow.minimize._History(size)
        pairs = []
        for k in range(2 * capacity):
            g = rng.normal(size=size)
            if k == capacity:
                history.clear()
                pairs.clear()
                assert np.array_equal(history.direction(g), -g)
            s = rng.normal(size=size)
            y = hess @ s + 0.1 * rng.normal(size=size)
            history.append(s, y, float(s @ y))
            pairs.append((s, y))
            expected = two_loop_direction(g, pairs)
            assert len(history) == len(pairs)
            np.testing.assert_allclose(history.direction(g), expected,
                                       rtol=1e-10, atol=1e-10 * np.max(np.abs(expected)))


def test_zero_step_clears_history_and_converges(monkeypatch):
    # A direction so short that the accepted step rounds to zero in w: the
    # solve drops its curvature pairs and goes on from steepest descent.
    real = curveflow.minimize._History.direction
    held = []

    def vanishing_third(self, g):
        held.append(len(self))
        d = real(self, g)
        return d * 1e-300 if len(held) == 3 else d

    monkeypatch.setattr(curveflow.minimize._History, "direction", vanishing_third)
    seg = straight_segment(2.0, 21)
    nxt, rep = minimize_step(seg, EnergyParams(epsilon=0.01, tau=0.05), TIGHT)
    assert held[2] > 0 and held[3] == 0
    assert rep.stop_reason == "converged"
    assert nxt.total_length == pytest.approx(segment_step_oracle(2.0, 0.05), abs=1e-6)


def test_max_iters_returns_partial_result(monkeypatch):
    monkeypatch.setattr(curveflow.minimize, "_MAX_ITERS", 2)
    seg = straight_segment(2.0, 31)
    params = EnergyParams(epsilon=0.01, tau=0.05)
    nxt, rep = minimize_step(seg, params, TIGHT)
    assert not rep.converged
    assert rep.stop_reason == "cap"
    assert rep.iterations == 2
    assert rep.n_evals >= 3
    assert rep.f_final <= rep.f_initial


@pytest.mark.parametrize("name", ["gamma", "sinus", "asym_gamma", "gamma_small_eps"])
def test_first_flow_steps_converge(name):
    # Near grad_tol the Armijo decrease sits below the rounding of F; the
    # line search must still reach the tolerance on every step.
    preset = PRESETS[name]
    cfg = FlowConfig(params=preset.params, n_steps=10)
    traj = run_flow(make_scenario(preset.scenario), cfg)
    assert [r.stop_reason for r in traj.reports] == ["converged"] * 10


def test_stiff_steps_finish_with_newton_and_easy_steps_never_switch():
    preset = PRESETS["gamma"]
    traj = run_flow(make_scenario(preset.scenario),
                    FlowConfig(params=preset.params, n_steps=3))
    for rep in traj.reports:
        assert rep.converged
        assert rep.n_newton > 0
        assert rep.iterations - rep.n_newton == curveflow.minimize._NEWTON_AFTER
    preset = PRESETS["segment"]
    traj = run_flow(make_scenario(preset.scenario),
                    FlowConfig(params=preset.params, n_steps=20))
    assert all(r.converged and r.n_newton == 0 for r in traj.reports)


@pytest.mark.parametrize("fault", ["singular", "uphill"])
def test_failed_newton_direction_falls_back_to_steepest_descent(monkeypatch, fault):
    real = curveflow.minimize.newton_direction

    def faulty(hess, g):
        if fault == "singular":
            raise np.linalg.LinAlgError("injected")
        return -real(hess, g)

    monkeypatch.setattr(curveflow.minimize, "newton_direction", faulty)
    monkeypatch.setattr(curveflow.minimize, "_MAX_ITERS", 30)
    preset = PRESETS["gamma"]
    _, rep = minimize_step(make_scenario(preset.scenario), preset.params)
    assert rep.stop_reason == "cap"
    assert rep.iterations == 30
    assert rep.n_newton == 0
    assert rep.f_final < rep.f_initial


@pytest.mark.slow
def test_gamma_at_n477_converges_every_step():
    # L-BFGS alone ended step 164 of this run on zero_step at gradient 2e-7.
    preset = PRESETS["gamma"]
    cfg = FlowConfig(params=preset.params, n_steps=preset.max_steps,
                     stop_tol=preset.stop_tol)
    traj = run_flow(make_scenario(Scenario("gamma", 477)), cfg)
    assert traj.n_steps < preset.max_steps
    assert [(k + 1, r.stop_reason) for k, r in enumerate(traj.reports)
            if not r.converged] == []


def test_cone_condition():
    seg = straight_segment(1.0, 5)
    assert assert_cone_condition(seg, seg)
    flipped = validate(seg.points[::-1])
    assert not assert_cone_condition(flipped, seg)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(grad_tol=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(grad_tol=0.0)
