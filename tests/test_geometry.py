import math

import numpy as np
import pytest

import dubinsguard as dg
from conftest import make_state
from dubinsguard.geometry import aim_point


# The paper's definitions, kept here as oracles for the library's closed
# forms: the potential, the evasion disk it bounds, and the alignment
# predicate.


def _potential(x, x_p, x_e, alpha):
    """||x - x_p|| - alpha * ||x - x_e||: positive inside the evasion
    region, zero on its boundary circle."""
    return math.hypot(x[0] - x_p[0], x[1] - x_p[1]) - alpha * math.hypot(
        x[0] - x_e[0], x[1] - x_e[1]
    )


def _evasion_region(x_p, x_e, alpha):
    """Center and radius of the open disk of points the evader reaches
    strictly before the pursuer."""
    x_p = np.asarray(x_p, dtype=float)
    x_e = np.asarray(x_e, dtype=float)
    a2 = alpha * alpha
    center = (a2 * x_e - x_p) / (a2 - 1.0)
    return center, alpha * float(np.linalg.norm(x_p - x_e)) / (a2 - 1.0)


def _orientation_holds(state, p, tol):
    """The pursuer heading matches the interception angle within ``tol``."""
    return abs(dg.heading_error(state, p)) <= tol


def test_potential_examples():
    # at the evader's own position only the first term survives
    assert _potential((0, 1), (0, 2), (0, 1), 2.0) == pytest.approx(1.0)
    # at the pursuer's position only the (negated) second term survives
    assert _potential((0, 2), (0, 2), (0, 1), 2.0) == pytest.approx(-2.0)
    # hand-picked boundary point
    assert _potential((0, 0), (0, 2), (0, 1), 2.0) == pytest.approx(0.0)


def test_potential_vanishes_on_boundary_circle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x_p = rng.normal(size=2) * 2
        x_e = x_p + rng.normal(size=2)
        if np.linalg.norm(x_p - x_e) < 1e-3:
            continue
        alpha = rng.uniform(1.2, 8.0)
        center, radius = _evasion_region(x_p, x_e, alpha)
        scale = 1e-9 * (1.0 + float(np.linalg.norm(x_p - x_e)))
        ts = rng.uniform(0, 2 * math.pi, size=50)
        for t in ts:
            z = center + radius * np.array([math.cos(t), math.sin(t)])
            assert abs(_potential(z, x_p, x_e, alpha)) <= scale


def test_evasion_region_examples():
    center, radius = _evasion_region((0, 2), (0, 1), 2.0)
    assert center == pytest.approx([0, 2 / 3])
    assert radius == pytest.approx(2 / 3)
    center, radius = _evasion_region((0, 3), (0, 1), 2.0)
    assert center == pytest.approx([0, 1 / 3])
    assert radius == pytest.approx(4 / 3)
    # large ratio shrinks the region onto the evader
    center, radius = _evasion_region((1, 0), (0, 0), 100.0)
    assert radius == pytest.approx(100 / 9999)
    assert center == pytest.approx([0, 0], abs=2e-4)


def test_aim_point_and_interception_reject_coincident():
    with pytest.raises(ValueError, match="coincide"):
        aim_point(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 2.0)
    with pytest.raises(ValueError, match="coincide"):
        dg.interception((1, 1), (1, 1), 2.0)


def test_interception_examples():
    d = dg.interception((0, 2), (0, 1), 2.0)
    assert d.point == pytest.approx([0.0, 0.0], abs=1e-15)
    assert d.angle == pytest.approx(3 * math.pi / 2)
    assert d.clearance == pytest.approx(0.0, abs=1e-15)

    d = dg.interception((0, 0), (0, 3), 6.3)
    assert d.point == pytest.approx([0.0, 2.5891], abs=1e-4)
    assert d.angle == pytest.approx(math.pi / 2)

    d = dg.interception((0, 3), (0, 1), 2.0)
    assert d.point == pytest.approx([0.0, -1.0])
    assert d.clearance == pytest.approx(-1.0)


def test_interception_offset_and_boundary_membership():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x_p = rng.normal(size=2) * 2
        x_e = x_p + rng.normal(size=2)
        dist = float(np.linalg.norm(x_p - x_e))
        if dist < 1e-3:
            continue
        alpha = rng.uniform(1.2, 8.0)
        d = dg.interception(x_p, x_e, alpha)
        assert d.offset[0] == 0.0
        assert d.offset[1] == pytest.approx(
            -alpha * dist / (alpha**2 - 1), rel=1e-12
        )
        assert abs(_potential(d.point, x_p, x_e, alpha)) <= 1e-9 * (1.0 + dist)


def test_interception_point_is_argmin_over_closed_region():
    rng = np.random.default_rng(13)
    x_p, x_e, alpha = np.array([0.4, 1.7]), np.array([-0.3, 1.1]), 3.0
    center, radius = _evasion_region(x_p, x_e, alpha)
    target = dg.interception(x_p, x_e, alpha)
    for _ in range(1000):
        t = rng.uniform(0, 2 * math.pi)
        rad = radius * math.sqrt(rng.uniform(0, 1))
        z = center + rad * np.array([math.cos(t), math.sin(t)])
        assert dg.goal_value(z) >= target.clearance - 1e-9


def test_er_goal_distance_examples():
    assert dg.er_goal_distance((0, 2), (0, 1), 2.0) == pytest.approx(0.0, abs=1e-15)
    assert dg.er_goal_distance((0, 3), (0, 1), 2.0) == -math.inf
    assert dg.er_goal_distance((0, 5), (0, 4), 2.0) == pytest.approx(3.0)


def test_er_goal_distance_matches_center_minus_radius():
    rng = np.random.default_rng(14)
    for _ in range(300):
        x_p = rng.normal(size=2) * 2
        x_e = x_p + rng.normal(size=2)
        if np.linalg.norm(x_p - x_e) < 1e-3:
            continue
        alpha = rng.uniform(1.2, 8.0)
        center, radius = _evasion_region(x_p, x_e, alpha)
        gap = center[1] - radius
        value = dg.er_goal_distance(x_p, x_e, alpha)
        if gap >= 0:
            assert value == pytest.approx(gap, rel=1e-12)
        else:
            assert value == -math.inf


def test_separation_predicate():
    assert dg.separation_holds(make_state(0, 2, 0.0, 0, 1), dg.GameParams(2, 1, 1, 0.1))
    assert not dg.separation_holds(
        make_state(0, 3, 0.0, 0, 1), dg.GameParams(2, 1, 1, 0.1)
    )


def test_orientation_predicate():
    p = dg.GameParams(2, 1, 1, 0.1)
    data = dg.interception((0, 2), (0, 1), p.alpha)
    tol = 1e-6
    exact = make_state(0, 2, data.angle, 0, 1)
    assert _orientation_holds(exact, p, tol)
    opposite = make_state(0, 2, dg.wrap_angle(data.angle + math.pi), 0, 1)
    assert not _orientation_holds(opposite, p, tol)
    inside_band = make_state(0, 2, dg.wrap_angle(data.angle + tol / 2), 0, 1)
    assert _orientation_holds(inside_band, p, tol)
    # certify_win makes the same test at the library's band
    for state in (exact, opposite, inside_band):
        assert dg.certify_win(state, p).evidence.io == _orientation_holds(
            state, p, dg.IO_TOL
        )


def test_turn_direction_takes_the_shorter_sweep():
    assert dg.turn_direction(0.5) == 1.0
    assert dg.turn_direction(-0.5) == -1.0
    assert dg.turn_direction(math.pi - 2e-9) == 1.0
    assert dg.turn_direction(-math.pi + 2e-9) == -1.0
    # within OPPOSITE_TOL of exactly opposite both sweeps are equal up to
    # float noise, and the car turns clockwise
    for err in (math.pi, -math.pi, math.pi - 5e-10, -math.pi + 5e-10):
        assert dg.turn_direction(err) == -1.0


def test_horizontal_translation_equivariance():
    rng = np.random.default_rng(15)
    for _ in range(100):
        x_p = rng.normal(size=2) * 2
        x_e = x_p + rng.normal(size=2)
        if np.linalg.norm(x_p - x_e) < 1e-3:
            continue
        alpha = rng.uniform(1.2, 8.0)
        shift = np.array([rng.normal() * 5, 0.0])
        base = dg.interception(x_p, x_e, alpha)
        moved = dg.interception(x_p + shift, x_e + shift, alpha)
        assert moved.point == pytest.approx(base.point + shift, abs=1e-9)
        assert moved.clearance == pytest.approx(base.clearance, abs=1e-12)


def test_aim_point_readers_equal_their_interception_definitions():
    # interception is the paper-facing reference; the predicates and the
    # strategies read the same point through aim_point and must agree with
    # it bit for bit
    def unit(vec):
        return vec / math.hypot(vec[0], vec[1])

    rng = np.random.default_rng(23)
    seen_separated = set()
    for _ in range(400):
        x_p = np.array([rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0)])
        x_e = x_p + rng.normal(size=2) * rng.uniform(0.01, 1.5)
        if np.linalg.norm(x_p - x_e) < 1e-6:
            continue
        p = dg.GameParams.from_alpha(
            v_p=0.3, alpha=float(rng.uniform(1.05, 10.0)), kappa=0.0625, r=0.1
        )
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        state = make_state(x_p[0], x_p[1], theta, x_e[0], x_e[1])
        data = dg.interception(x_p, x_e, p.alpha)

        assert dg.heading_error(state, p) == dg.wrap_to_pi(data.angle - theta)
        separated = dg.separation_holds(state, p)
        assert separated == (data.clearance >= 0.0)
        seen_separated.add(separated)
        assert np.array_equal(
            dg.pursuit_simple(x_p, x_e, p.alpha), unit(data.point - x_p)
        )
        assert np.array_equal(dg.evader_optimal(state, p), unit(data.point - x_e))
    assert seen_separated == {True, False}
