import numpy as np
import pytest

from curveflow import (
    CuspAngle,
    DegenerateGap,
    EnergyParams,
    MismatchedN,
    ReducedCoords,
    ZeroEdgeLength,
    dissipation,
    energy,
    from_reduced,
    objective,
    objective_gradient,
    to_reduced,
    validate,
)

from curveflow.energy import (
    PrevFrame,
    _objective_hessian,
    _objective_raw,
    newton_direction,
)
from curveflow.polyline import GAP_FLOOR
from oracles import (
    central_difference,
    dense_chart_hessian,
    random_open_curve,
    row_form_hessian,
    row_form_objective,
)

PARAMS = EnergyParams(epsilon=0.1, tau=0.1)


def unit_segment(n=11):
    pts = np.column_stack([np.linspace(0, 1, n), np.zeros(n)])
    return validate(pts)


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(epsilon=0.0, tau=0.1)
    with pytest.raises(ValueError):
        EnergyParams(epsilon=0.1, tau=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            EnergyParams(epsilon=bad, tau=0.1)
        with pytest.raises(ValueError):
            EnergyParams(epsilon=0.1, tau=bad)
    with pytest.warns(UserWarning):
        EnergyParams(epsilon=0.1, tau=1.5)


@pytest.mark.parametrize("n", [2, 5, 11, 40])
def test_energy_unit_segment(n):
    eb = energy(unit_segment(n), PARAMS)
    assert eb.total == pytest.approx(1.0, abs=1e-12)
    assert eb.length_term == pytest.approx(1.0)
    assert eb.bending_term == pytest.approx(0.0, abs=1e-20)
    assert eb.coulomb_term == pytest.approx(0.0, abs=1e-12)


def test_energy_segment_length_two():
    c = validate([(0, 0), (1, 0), (2, 0)])
    eb = energy(c, PARAMS)
    assert eb.total == pytest.approx(2.0 - np.log(2.0))


def test_energy_l_shape():
    c = validate([(0, 0), (1, 0), (1, 1)])
    eb = energy(c, EnergyParams(epsilon=0.1, tau=0.1))
    assert eb.length_term == pytest.approx(2.0)
    assert eb.bending_term == pytest.approx(0.2)
    assert eb.coulomb_term == pytest.approx(-np.log(np.sqrt(2.0)))
    assert eb.total == pytest.approx(2.2 - np.log(np.sqrt(2.0)))
    assert eb.total == pytest.approx(
        eb.length_term + eb.bending_term + eb.coulomb_term, rel=1e-14
    )


def test_energy_rigid_motion_invariance():
    rng = np.random.default_rng(21)
    for _ in range(30):
        base, edge_len, headings = random_open_curve(rng, 14)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        ang = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = validate(c.points @ rot.T + rng.uniform(-3, 3, 2))
        assert energy(moved, PARAMS).total == pytest.approx(
            energy(c, PARAMS).total, abs=1e-10
        )


def test_energy_reversal_invariance():
    rng = np.random.default_rng(22)
    for _ in range(30):
        base, edge_len, headings = random_open_curve(rng, 14)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        rev = validate(c.points[::-1])
        assert energy(rev, PARAMS).total == pytest.approx(
            energy(c, PARAMS).total, rel=1e-12
        )


def test_energy_nonnegative_and_unit_segment_minimal():
    rng = np.random.default_rng(23)
    for _ in range(300):
        base, edge_len, headings = random_open_curve(rng, 10, min_gap=1e-3)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        assert energy(c, PARAMS).total >= 1.0 - 1e-12


def test_energy_degenerate_gap():
    # equal edges but coincident endpoints: equilateral "triangle" loop
    pts = [(0, 0), (1, 0), (0.5, np.sqrt(3) / 2), (0, 0)]
    from curveflow.polyline import DiscreteCurve

    c = DiscreteCurve(points=np.asarray(pts, float), edge_len=1.0)
    with pytest.raises(DegenerateGap):
        energy(c, PARAMS)


def test_objective_rejects_points_outside_the_open_set():
    two = PrevFrame(validate([(0, 0), (1, 0)]))
    for ell in (0.0, -1.0):
        with pytest.raises(ZeroEdgeLength):
            _objective_raw(np.array([0.0, 0.0, ell, 0.3]), two, PARAMS, True)
    # N = 2: the gap equals l
    for ell in (0.5 * GAP_FLOOR, GAP_FLOOR):
        with pytest.raises(DegenerateGap):
            _objective_raw(np.array([0.0, 0.0, ell, 0.3]), two, PARAMS, True)
    f, _ = _objective_raw(np.array([0.0, 0.0, 2 * GAP_FLOOR, 0.3]), two, PARAMS, False)
    assert np.isfinite(f)
    # anti-parallel third edge; the gap stays l
    four = PrevFrame(validate([(0, 0), (1, 0), (2, 0), (3, 0)]))
    with pytest.raises(CuspAngle):
        _objective_raw(np.array([0.0, 0.0, 1.0, 0.0, 0.0, np.pi]), four, PARAMS, True)


@pytest.mark.parametrize("n", [2, 3, 51, 120, 481])
def test_objective_kernel_matches_row_form_reference(n):
    rng = np.random.default_rng(200 + n)
    params = EnergyParams(epsilon=0.05, tau=0.0125)
    for _ in range(10):
        base, edge_len, headings = random_open_curve(rng, n)
        prev = from_reduced(ReducedCoords(base, edge_len, headings))
        z = np.concatenate([
            base + rng.uniform(-0.03, 0.03, 2),
            [edge_len * rng.uniform(0.95, 1.05)],
            headings + rng.uniform(-0.08, 0.08, n - 1),
        ])
        f_ref, g_ref = row_form_objective(z, prev, params, True)
        f, g = _objective_raw(z, PrevFrame(prev), params, True)
        assert abs(f - f_ref) <= 1e-15 * (1.0 + abs(f_ref))
        assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))
        assert _objective_raw(z, PrevFrame(prev), params, False) == (f, None)


def test_objective_kernel_raises_as_row_form_reference():
    four = validate([(0, 0), (1, 0), (2, 0), (3, 0)])
    outside = [
        (ZeroEdgeLength, [0.0, 0.0, 0.0, 0.0, 0.1, 0.2]),
        (DegenerateGap, [0.0, 0.0, 1.0, 0.0, 2 * np.pi / 3, 4 * np.pi / 3]),
        (CuspAngle, [0.0, 0.0, 1.0, 0.0, 0.0, np.pi]),
        (CuspAngle, [0.0, 0.0, 1.0, 0.0, 0.0, np.pi - 1e-6]),  # 1 + cos = 5e-13
    ]
    for error, z in outside:
        z = np.array(z)
        with pytest.raises(error):
            row_form_objective(z, four, PARAMS, True)
        with pytest.raises(error):
            _objective_raw(z, PrevFrame(four), PARAMS, True)
    # 1 + cos = 2e-12, just above CUSP_TOL: both evaluate.
    z = np.array([0.0, 0.0, 1.0, 0.0, 0.0, np.pi - 2e-6])
    f_ref, _ = row_form_objective(z, four, PARAMS, False)
    f, _ = _objective_raw(z, PrevFrame(four), PARAMS, False)
    assert f == pytest.approx(f_ref, rel=1e-15)


def test_dissipation_identity_is_zero():
    rng = np.random.default_rng(24)
    for _ in range(20):
        base, edge_len, headings = random_open_curve(rng, 9)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        assert dissipation(c, c) == 0.0


def test_dissipation_translated_two_point_segment():
    a = validate([(0, 0), (1, 0)])
    b = validate([(0, 0.1), (1, 0.1)])
    assert dissipation(b, a) == pytest.approx(1.5 * 0.1**2)


def test_dissipation_symmetry():
    rng = np.random.default_rng(25)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        b1, l1, h1 = random_open_curve(rng, n, min_gap=1e-3)
        b2, l2, h2 = random_open_curve(rng, n, min_gap=1e-3)
        ca = from_reduced(ReducedCoords(b1, l1, h1))
        cb = from_reduced(ReducedCoords(b2, l2, h2))
        d_ab = dissipation(ca, cb)
        d_ba = dissipation(cb, ca)
        assert d_ab == pytest.approx(d_ba, rel=1e-12)
        assert d_ab >= 0.0


def test_dissipation_reversal_invariance():
    # reversing the point order of both curves must not change D: a chiral
    # discretization here makes loops drift along the curve during flows
    rng = np.random.default_rng(35)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        b1, l1, h1 = random_open_curve(rng, n, min_gap=1e-3)
        b2, l2, h2 = random_open_curve(rng, n, min_gap=1e-3)
        ca = from_reduced(ReducedCoords(b1, l1, h1))
        cb = from_reduced(ReducedCoords(b2, l2, h2))
        ca_r = validate(ca.points[::-1])
        cb_r = validate(cb.points[::-1])
        assert dissipation(ca_r, cb_r) == pytest.approx(
            dissipation(ca, cb), rel=1e-12
        )


def test_dissipation_rigid_motion_invariance():
    rng = np.random.default_rng(26)
    for _ in range(20):
        b1, l1, h1 = random_open_curve(rng, 8)
        b2, l2, h2 = random_open_curve(rng, 8)
        ca = from_reduced(ReducedCoords(b1, l1, h1))
        cb = from_reduced(ReducedCoords(b2, l2, h2))
        ang = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        shift = rng.uniform(-2, 2, 2)
        ca2 = validate(ca.points @ rot.T + shift)
        cb2 = validate(cb.points @ rot.T + shift)
        assert dissipation(ca2, cb2) == pytest.approx(dissipation(ca, cb), abs=1e-10)


def test_dissipation_mismatched_n():
    with pytest.raises(MismatchedN):
        dissipation(unit_segment(5), unit_segment(6))


def test_objective_at_prev_equals_energy():
    rng = np.random.default_rng(27)
    for _ in range(20):
        base, edge_len, headings = random_open_curve(rng, 10)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        f = objective(to_reduced(c), c, PARAMS)
        assert f == pytest.approx(energy(c, PARAMS).total, rel=1e-12)


def test_objective_translated_segment_example():
    prev = validate([(0, 0), (1, 0)])
    cand = to_reduced(validate([(0, 0.1), (1, 0.1)]))
    f = objective(cand, prev, EnergyParams(epsilon=0.01, tau=0.25))
    assert f == pytest.approx(1.0 + 0.015 / 0.25)


def test_objective_nonnegative():
    rng = np.random.default_rng(28)
    params = EnergyParams(epsilon=0.02, tau=0.3)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        b1, l1, h1 = random_open_curve(rng, n, min_gap=1e-3)
        b2, l2, h2 = random_open_curve(rng, n, min_gap=1e-3)
        prev = from_reduced(ReducedCoords(b1, l1, h1))
        cand = ReducedCoords(b2, l2, h2)
        assert objective(cand, prev, params) >= 0.0


def test_gradient_zero_at_global_minimizer():
    seg = unit_segment(15)
    grad = objective_gradient(to_reduced(seg), seg, EnergyParams(0.05, 0.1))
    assert np.max(np.abs(grad)) < 1e-10


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(29)
    params = EnergyParams(epsilon=0.05, tau=0.1)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        b1, l1, h1 = random_open_curve(rng, n)
        prev = from_reduced(ReducedCoords(b1, l1, h1))
        cand = ReducedCoords(
            b1 + rng.uniform(-0.05, 0.05, 2),
            l1 * float(rng.uniform(0.9, 1.1)),
            h1 + rng.uniform(-0.1, 0.1, n - 1),
        )
        z0 = cand.as_vector()

        def f_of(z):
            return objective(ReducedCoords.from_vector(z), prev, params)

        fd = central_difference(f_of, z0, 1e-6)
        grad = objective_gradient(cand, prev, params)
        scale = np.maximum(np.abs(grad), np.abs(fd))
        err = np.abs(grad - fd) / np.where(scale > 1e-8, scale, 1.0)
        assert np.max(err) < 1e-6


def test_gradient_rotation_direction_at_straight_curve():
    # rotating all headings together leaves length and bending flat (exactly,
    # for any epsilon), and the Coulomb term is flat at a straight curve, so
    # the directional derivative along it is pure dissipation
    prev = unit_segment(12)
    cand = to_reduced(validate(prev.points + np.array([0.02, 0.03])))
    z0 = cand.as_vector()
    d = np.zeros_like(z0)
    d[3:] = 1.0
    h = 1e-6

    derivs = []
    for eps in (1e-300, 0.05, 5.0):
        params = EnergyParams(epsilon=eps, tau=0.2)

        def f_of(z):
            return objective(ReducedCoords.from_vector(z), prev, params)

        fd_dir = (f_of(z0 + h * d) - f_of(z0 - h * d)) / (2 * h)
        grad_dir = float(objective_gradient(cand, prev, params) @ d)
        assert grad_dir == pytest.approx(fd_dir, rel=1e-6)
        derivs.append(grad_dir)
    assert derivs[0] != 0.0
    # independent of the bending weight: bending contributes nothing
    assert derivs[0] == pytest.approx(derivs[1], rel=1e-12)
    assert derivs[0] == pytest.approx(derivs[2], rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 32, 33, 34, 51, 64, 65, 66, 120, 250, 481, 961])
def test_newton_direction_matches_dense_solve(n):
    rng = np.random.default_rng(100 + n)
    base, edge_len, headings = random_open_curve(rng, n)
    frame = PrevFrame(from_reduced(ReducedCoords(base, edge_len, headings)))
    z = np.concatenate([
        base + rng.uniform(-0.03, 0.03, 2),
        [edge_len * rng.uniform(0.95, 1.05)],
        headings + rng.uniform(-0.08, 0.08, n - 1),
    ])
    _, grad = _objective_raw(z, frame, PARAMS, True)
    hess = _objective_hessian(z, frame, PARAMS)
    dense = dense_chart_hessian(hess)
    x = rng.normal(size=n + 2)
    np.testing.assert_allclose(hess.matvec(x), dense @ x, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(dense @ x)))
    expected = -np.linalg.solve(dense, grad)
    np.testing.assert_allclose(newton_direction(hess, grad), expected, rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(expected)))


@pytest.mark.parametrize("j", [0, 31, 32, 70, 118])
def test_singular_heading_block_raises(j):
    # Heading j gets a zero row and column, so the heading block is exactly
    # singular: the solve must raise, not return a non-finite direction.
    rng = np.random.default_rng(400)
    n = 120
    base, edge_len, headings = random_open_curve(rng, n)
    frame = PrevFrame(from_reduced(ReducedCoords(base, edge_len, headings)))
    z = np.concatenate([base, [edge_len], headings + rng.uniform(-0.08, 0.08, n - 1)])
    _, grad = _objective_raw(z, frame, PARAMS, True)
    hess = _objective_hessian(z, frame, PARAMS)
    hess.diag[j] = hess.p[j] = hess.v[j] = 0.0
    hess.off[max(j - 1, 0):j + 1] = 0.0
    assert np.linalg.matrix_rank(dense_chart_hessian(hess)[3:, 3:]) == n - 2
    with pytest.raises(np.linalg.LinAlgError):
        newton_direction(hess, grad)


@pytest.mark.parametrize("n", [2, 3, 5, 51, 120, 481])
def test_hessian_generators_match_row_form(n):
    rng = np.random.default_rng(300 + n)
    base, edge_len, headings = random_open_curve(rng, n)
    frame = PrevFrame(from_reduced(ReducedCoords(base, edge_len, headings)))
    z = np.concatenate([
        base + rng.uniform(-0.03, 0.03, 2),
        [edge_len * rng.uniform(0.95, 1.05)],
        headings + rng.uniform(-0.08, 0.08, n - 1),
    ])
    for got, ref in zip(_objective_hessian(z, frame, PARAMS),
                        row_form_hessian(z, frame, PARAMS)):
        assert got.shape == ref.shape
        if ref.size:
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-14 * np.max(np.abs(ref)))
