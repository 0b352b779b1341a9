import numpy as np
import pytest

from curveflow import (
    CuspAngle,
    DegenerateGap,
    DiscreteCurve,
    ReducedCoords,
    TooFewPoints,
    UnequalEdges,
    ZeroEdgeLength,
    ZeroLengthInput,
    discrete_curvature,
    from_reduced,
    resample_equal_arclength,
    to_reduced,
    turning_angles,
    validate,
)
from oracles import polyline_arclength, random_open_curve


def test_validate_collinear_segment():
    c = validate([(0, 0), (1, 0), (2, 0)])
    assert c.edge_len == pytest.approx(1.0)
    assert c.gap == pytest.approx(2.0)
    assert c.total_length == pytest.approx(2.0)


def test_validate_rejects_unequal_edges():
    with pytest.raises(UnequalEdges):
        validate([(0, 0), (1, 0), (1, 1.5)])


def test_validate_rejects_coincident_endpoints():
    with pytest.raises(DegenerateGap):
        validate([(0, 0), (1, 0), (0, 0)])


def test_validate_rejects_gap_at_floor():
    # equal edges, endpoints 1e-9 apart: inside the floor, but not coincident
    pts = [(0.0, 0.0), (0.5e-9, 1.0), (1e-9, 0.0)]
    with pytest.raises(DegenerateGap):
        validate(pts)
    edge_len = float(np.hypot(0.5e-9, 1.0))
    assert not DiscreteCurve(points=pts, edge_len=edge_len).is_admissible()
    assert validate([(0.0, 0.0), (0.5e-7, 1.0), (1e-7, 0.0)]).is_admissible()


def test_curve_rejects_zero_edge_length():
    with pytest.raises(ZeroEdgeLength):
        DiscreteCurve(points=[(0, 0), (0, 0)], edge_len=0.0)


def test_curve_rejects_infinite_edge_length():
    with pytest.raises(ValueError, match="edge_len must be finite"):
        DiscreteCurve(points=[(0, 0), (1, 0), (2, 0)], edge_len=float("inf"))


def test_reduced_coords_reject_infinite_edge_length():
    # Built, it made objective() return NaN with numpy warnings.
    with pytest.raises(ValueError, match="edge_len must be finite"):
        ReducedCoords(base=[0, 0], edge_len=float("inf"), headings=[0.0, 0.0])


def test_validate_rejects_coincident_points():
    with pytest.raises(ZeroEdgeLength):
        validate([(1, 2), (1, 2), (1, 2)])


def test_resample_rejects_zero_length_input():
    with pytest.raises(ZeroLengthInput):
        resample_equal_arclength([(1, 2), (1, 2), (1, 2)], 5)


def test_validate_rejects_single_point():
    with pytest.raises(TooFewPoints):
        validate([(0, 0)])


def test_reduced_roundtrip_segment():
    c = validate([(0, 0), (1, 0), (2, 0)])
    rc = to_reduced(c)
    assert np.allclose(rc.base, [0, 0])
    assert rc.edge_len == pytest.approx(1.0)
    assert np.allclose(rc.headings, [0.0, 0.0])


def test_from_reduced_right_angle():
    rc = ReducedCoords(base=[0, 0], edge_len=1.0, headings=[0.0, np.pi / 2])
    c = from_reduced(rc)
    assert np.allclose(c.points, [(0, 0), (1, 0), (1, 1)], atol=1e-15)


def test_reduced_roundtrip_random_curves():
    rng = np.random.default_rng(3)
    for _ in range(50):
        base, edge_len, headings = random_open_curve(rng, 20)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        back = from_reduced(to_reduced(c))
        assert np.max(np.abs(back.points - c.points)) < 1e-12


def test_headings_are_unwrapped():
    rng = np.random.default_rng(4)
    for _ in range(20):
        base, edge_len, headings = random_open_curve(rng, 15)
        rc = to_reduced(from_reduced(ReducedCoords(base, edge_len, headings)))
        assert np.max(np.abs(np.diff(rc.headings))) <= np.pi + 1e-12


def test_turning_angles_straight_and_corner():
    assert turning_angles(validate([(0, 0), (1, 0), (2, 0)]))[0] == pytest.approx(0.0)
    corner = validate([(0, 0), (1, 0), (1, 1)])
    assert turning_angles(corner)[0] == pytest.approx(np.pi / 2)


def test_turning_angle_120_degrees():
    # second edge turns by 120 degrees: tangents (1,0) and (-1/2, sqrt(3)/2)
    pts = [(0, 0), (1, 0), (1 - np.cos(np.pi / 3), np.sin(np.pi / 3))]
    alpha = turning_angles(validate(pts))[0]
    t0 = np.array([1.0, 0.0])
    t1 = np.array(pts[2]) - np.array(pts[1])
    expected = np.arccos(np.dot(t0, t1) / np.linalg.norm(t1))
    assert alpha == pytest.approx(expected, abs=1e-14)
    assert alpha == pytest.approx(2 * np.pi / 3)


def test_turning_angles_need_three_points():
    with pytest.raises(TooFewPoints):
        turning_angles(validate([(0, 0), (1, 0)]))


def test_curvature_straight_is_zero():
    c = validate([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert np.allclose(discrete_curvature(c), 0.0)


def test_curvature_right_angle_left_turn():
    c = validate([(0, 0), (1, 0), (1, 1)])
    kap = discrete_curvature(c)
    assert kap[0] == pytest.approx(2.0 * np.tan(np.pi / 4))
    # right turn flips the sign
    cr = validate([(0, 0), (1, 0), (1, -1)])
    assert discrete_curvature(cr)[0] == pytest.approx(-2.0)


def circle_chord_curve(radius, chord, n):
    dtheta = 2 * np.arcsin(chord / (2 * radius))
    angles = dtheta * np.arange(n)
    return validate(radius * np.column_stack([np.cos(angles), np.sin(angles)]))


def test_curvature_circle_convergence():
    # equal-chord sampling of a circle: kappa = 1/(R cos(asin(l/2R))) exactly,
    # approaching 1/R quadratically as l -> 0
    kap1 = discrete_curvature(circle_chord_curve(1.0, 0.1, 30))
    exact = 1.0 / np.cos(np.arcsin(0.05))
    assert np.max(np.abs(kap1 - exact)) < 1e-12
    assert np.max(np.abs(kap1 - 1.0)) < 1.3e-3
    kap2 = discrete_curvature(circle_chord_curve(1.0, 0.05, 30))
    err1 = np.max(np.abs(kap1 - 1.0))
    err2 = np.max(np.abs(kap2 - 1.0))
    assert err2 < 0.3 * err1  # second order in the chord length


def test_curvature_cusp_raises():
    with pytest.raises(CuspAngle):
        discrete_curvature(validate([(0, 0), (1, 0), (2, 0), (1, 1e-13)]))


def test_curvature_rigid_motion_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        base, edge_len, headings = random_open_curve(rng, 12)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        ang = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        shift = rng.uniform(-5, 5, 2)
        moved = validate(c.points @ rot.T + shift)
        assert np.max(np.abs(discrete_curvature(moved) - discrete_curvature(c))) < 1e-10
        # reflection flips the sign
        refl = validate(c.points * np.array([1.0, -1.0]))
        assert np.max(np.abs(discrete_curvature(refl) + discrete_curvature(c))) < 1e-10


def test_curvature_matches_turning_angle_identity():
    rng = np.random.default_rng(12)
    for _ in range(25):
        base, edge_len, headings = random_open_curve(rng, 15)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        kap = discrete_curvature(c)
        alpha = turning_angles(c)
        # arccos roundoff near alpha = 0 dominates the comparison error
        assert np.max(
            np.abs(np.abs(kap) * c.edge_len - 2 * np.tan(alpha / 2))
        ) < 5e-12


def test_gap_bounded_by_length_property():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        base, edge_len, headings = random_open_curve(rng, 8, min_gap=1e-3)
        c = from_reduced(ReducedCoords(base, edge_len, headings))
        assert c.gap <= c.total_length + 1e-12


def test_resample_straight_input():
    c = resample_equal_arclength([(0, 0), (2, 0), (3, 0)], 4)
    assert np.allclose(c.points, [(0, 0), (1, 0), (2, 0), (3, 0)], atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_resample_rejects_non_finite_points(bad):
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)])
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="points must be finite") as info:
        resample_equal_arclength(pts, 10)
    assert not isinstance(info.value, UnequalEdges)


def test_resample_two_points():
    c = resample_equal_arclength([(0, 0), (1, 1), (3, 0)], 2)
    assert np.allclose(c.points, [(0, 0), (3, 0)])


def test_resample_sine_graph():
    xs = np.linspace(-np.pi, np.pi, 4001)
    ys = np.sin(xs)
    ys[0] = ys[-1] = 0.0
    dense = np.column_stack([xs, ys])
    c = resample_equal_arclength(dense, 81)
    assert np.array_equal(c.points[0], dense[0])
    assert np.array_equal(c.points[-1], dense[-1])
    lens = np.linalg.norm(np.diff(c.points, axis=0), axis=1)
    assert (lens.max() - lens.min()) / lens.mean() < 1e-10
    # chords of a smooth curve undershoot its arclength only quadratically
    total = polyline_arclength(dense)
    assert c.total_length < total
    assert c.total_length > total * (1 - 2e-4)


def test_resample_preserves_endpoints_and_covers_input():
    ts = np.linspace(0, 1, 500)
    wav = np.column_stack([ts * 3, 0.3 * np.sin(7 * ts) + 0.1 * ts])
    c = resample_equal_arclength(wav, 50)
    assert np.array_equal(c.points[0], wav[0])
    assert np.array_equal(c.points[-1], wav[-1])
