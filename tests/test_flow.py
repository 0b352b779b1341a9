import numpy as np
import pytest

import curveflow.flow
from curveflow import (
    BoundViolation,
    DiscreteCurve,
    EnergyParams,
    FlowConfig,
    IndexOutOfRange,
    Scenario,
    SolverOptions,
    coupling_residual,
    energy,
    make_scenario,
    run_flow,
    validate,
    velocity,
)
from curveflow.polyline import GAP_FLOOR

from oracles import segment_flow_oracle


def straight_segment(length, n):
    pts = np.column_stack([np.linspace(0, length, n), np.zeros(n)])
    return validate(pts)


@pytest.fixture(scope="module")
def segment_traj():
    seg = straight_segment(2.0, 21)
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.05),
        n_steps=2000,
        stop_tol=1e-7,
        solver=SolverOptions(grad_tol=1e-9),
    )
    return run_flow(seg, cfg)


def test_config_requires_termination_rule():
    with pytest.raises(TypeError):
        FlowConfig(params=EnergyParams(epsilon=0.1, tau=0.1), stop_tol=1e-6)
    with pytest.raises(ValueError):
        FlowConfig(params=EnergyParams(epsilon=0.1, tau=0.1), n_steps=0)


def test_stationary_initial_terminates_immediately():
    seg = straight_segment(1.0, 15)
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.05), n_steps=50, stop_tol=1e-7,
        solver=SolverOptions(grad_tol=1e-9),
    )
    traj = run_flow(seg, cfg)
    assert traj.n_steps == 1
    assert np.max(np.abs(traj.final.points - seg.points)) < 1e-7


def test_segment_flow_matches_oracle(segment_traj):
    traj = segment_traj
    oracle = segment_flow_oracle(2.0, 0.05, traj.n_steps)
    assert np.max(np.abs(np.asarray(traj.lengths) - oracle)) < 1e-6
    assert abs(traj.final.total_length - 1.0) < 1e-2
    lengths = np.asarray(traj.lengths)
    assert np.all(np.diff(lengths) <= 1e-12)


def test_energy_monotone_and_dissipation_sum(segment_traj):
    traj = segment_traj
    e = np.asarray(traj.energies)
    assert np.all(np.diff(e) <= 1e-10 * (1 + abs(e[0])))
    assert sum(traj.diss_over_tau) <= e[0] + 1e-8


def test_apriori_bounds_along_run(segment_traj):
    traj = segment_traj
    e0 = traj.energies[0]
    for k, c in enumerate(traj.snapshots):
        assert traj.gaps[traj.snapshot_steps[k]] <= traj.lengths[
            traj.snapshot_steps[k]
        ] + 1e-12
        assert c.total_length <= 2.0 * (e0 + 1.0)


def test_cone_violation_carries_bound_details(monkeypatch):
    # A step that reverses the curve leaves the tangent cone; the violation
    # reports the same numbers as every other bound check.
    def reversing_step(prev, params, opts=None):
        return validate(prev.points[::-1]), None

    monkeypatch.setattr(curveflow.flow, "minimize_step", reversing_step)
    seg = straight_segment(2.0, 15)
    cfg = FlowConfig(params=EnergyParams(epsilon=0.01, tau=0.05), n_steps=3)
    with pytest.raises(BoundViolation, match="tangent cone") as exc:
        run_flow(seg, cfg)
    assert exc.value.step == 1
    details = exc.value.details
    assert set(details) == {"E_prev", "E_next", "gap", "length", "bend",
                            "sum_D_over_tau"}
    assert details["gap"] == pytest.approx(seg.gap)
    assert details["length"] == pytest.approx(seg.total_length)
    assert details["sum_D_over_tau"] > 0.0


def test_gap_at_floor_is_a_bound_violation():
    # The flow's gap bound rejects exactly the curves is_admissible rejects:
    # a gap equal to GAP_FLOOR is not admissible.
    curve = DiscreteCurve([(0, 0), (GAP_FLOOR, 0)], edge_len=GAP_FLOOR)
    assert curve.gap == GAP_FLOOR
    assert not curve.is_admissible()
    breakdown = energy(curve, EnergyParams(epsilon=0.01, tau=0.05))
    e = breakdown.total
    with pytest.raises(BoundViolation, match="endpoint gap"):
        curveflow.flow._check_bounds(1, e, breakdown, curve, curve, e, 0.0, 0.0)


@pytest.mark.parametrize("case, message", [
    ("energy", "energy increased"),
    ("length", "length bound exceeded"),
    ("bending", "bending bound exceeded"),
    ("dissipation", "summed dissipation exceeds E0"),
])
def test_each_runtime_bound_is_a_bound_violation(case, message):
    # A quarter circle with a large bending weight, so that its bending term
    # exceeds half its length; each case sets E_prev, E0 and sum D/tau so
    # that exactly its bound fails, and the bounds checked before it hold.
    angles = np.linspace(0.0, 0.5 * np.pi, 11)
    curve = validate(np.column_stack([np.cos(angles), np.sin(angles)]))
    breakdown = energy(curve, EnergyParams(epsilon=2.0, tau=0.05))
    e, length, bend = breakdown.total, curve.total_length, breakdown.bending_term
    assert 0.5 * length < bend < e
    e_prev, e0, diss_sum = {
        "energy": (e - 1.0, e, 0.0),
        "length": (e, 0.5 * length - 1.0 - 1e-6, 0.0),
        "bending": (e, 0.5 * (0.5 * length + bend) - 1.0, 0.0),
        "dissipation": (e, e, e + 1.0),
    }[case]
    with pytest.raises(BoundViolation, match=message) as exc:
        curveflow.flow._check_bounds(7, e_prev, breakdown, curve, curve, e0, diss_sum,
                                     0.0)
    assert exc.value.step == 7


def test_step_above_the_energy_chain_is_a_bound_violation(monkeypatch):
    # A faked step from a length-2 segment to the centred length-1.9 one
    # lowers E, but E_next + D/tau exceeds E_prev by about 1.3e-3.
    seg = straight_segment(2.0, 21)
    shorter = validate(seg.points * [0.95, 1.0] + [0.05, 0.0])
    params = EnergyParams(epsilon=0.01, tau=0.05)
    e_prev, e_next = energy(seg, params).total, energy(shorter, params).total
    d_over_tau = curveflow.flow.dissipation(shorter, seg) / params.tau
    assert e_next < e_prev < e_next + d_over_tau < e_prev + 2e-3

    def faked_step(prev, params, opts):
        return shorter, None

    monkeypatch.setattr(curveflow.flow, "minimize_step", faked_step)
    with pytest.raises(BoundViolation, match="energy chain") as exc:
        run_flow(seg, FlowConfig(params=params, n_steps=1))
    assert exc.value.step == 1
    assert exc.value.details["E_next"] == e_next


def test_velocity_stationary_and_reconstruction(segment_traj):
    traj = segment_traj
    vel = velocity(traj, 0)
    rebuilt = (
        vel.v_tan[:, None] * vel.vertex_tangents
        + vel.v_norm[:, None] * np.column_stack(
            [-vel.vertex_tangents[:, 1], vel.vertex_tangents[:, 0]]
        )
    )
    assert np.max(np.abs(rebuilt - vel.v)) < 1e-12
    # straight shrink: purely tangential motion
    assert np.max(np.abs(vel.v_norm)) < 1e-9


def test_velocity_index_out_of_range(segment_traj):
    with pytest.raises(IndexOutOfRange):
        velocity(segment_traj, len(segment_traj.snapshots) - 1)


def test_coupling_residual_straight_flow(segment_traj):
    res = coupling_residual(segment_traj, 0)
    assert res.max_norm < 1e-8
    res_mid = coupling_residual(segment_traj, 5)
    assert res_mid.max_norm < 1e-8


def test_coupling_residual_stationary_is_zero():
    seg = straight_segment(1.0, 15)
    cfg = FlowConfig(params=EnergyParams(epsilon=0.01, tau=0.05), n_steps=2,
                     solver=SolverOptions(grad_tol=1e-9))
    traj = run_flow(seg, cfg)
    assert np.max(np.abs(velocity(traj, 0).v)) < 1e-6
    res = coupling_residual(traj, 0)
    assert res.max_norm < 1e-9


def test_snapshot_thinning():
    seg = straight_segment(2.0, 15)
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.05),
        n_steps=20,
        snapshot_every=7,
        solver=SolverOptions(grad_tol=1e-9),
    )
    traj = run_flow(seg, cfg)
    assert traj.snapshot_steps == [0, 7, 14, 20]
    assert len(traj.energies) == 21
    assert traj.n_steps == 20
    # velocity between thinned snapshots uses the actual time gap
    vel = velocity(traj, 0)
    expected = (traj.snapshots[1].points - traj.snapshots[0].points) / (7 * 0.05)
    assert np.allclose(vel.v, expected)


def test_mirror_equivariance_and_determinism():
    sin_curve = make_scenario(Scenario(kind="sinus", n=31))
    mirrored = validate(sin_curve.points * np.array([1.0, -1.0]))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.25),
        n_steps=10,
        solver=SolverOptions(grad_tol=1e-9),
    )
    t1 = run_flow(sin_curve, cfg)
    t2 = run_flow(mirrored, cfg)
    t3 = run_flow(sin_curve, cfg)
    for a, b, c in zip(t1.snapshots, t2.snapshots, t3.snapshots):
        assert np.max(np.abs(a.points * np.array([1.0, -1.0]) - b.points)) <= 1e-9
        assert np.array_equal(a.points, c.points)


def test_sinus_straightens_quickly():
    sin_curve = make_scenario(Scenario(kind="sinus", n=41))
    cfg = FlowConfig(
        params=EnergyParams(epsilon=0.01, tau=0.25),
        n_steps=2000,
        stop_tol=1e-5,
        solver=SolverOptions(grad_tol=1e-8),
    )
    traj = run_flow(sin_curve, cfg)
    fin = traj.final
    chord = fin.points[-1] - fin.points[0]
    u = chord / np.linalg.norm(chord)
    rel = fin.points - fin.points[0]
    dev = np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])
    assert dev.max() < 0.05
    e = np.asarray(traj.energies)
    assert np.all(np.diff(e) < 0)
