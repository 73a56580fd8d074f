import dataclasses
import functools
import math

import numpy as np
import pytest

import dubinsguard as dg
from conftest import aligned_state, make_state, pair_floats
from dubinsguard.certificates import (
    ANCHOR_DRIFT_CAP,
    ClearanceAnchor,
    _rollout_positions,
    _witness_clearance,
    _witness_margin,
    _wrapped_error,
)
from dubinsguard.geometry import aim_point, lowest_point
from dubinsguard.strategies import two_step_command


def _reference_relaxed_oracle(x_c, x_e, alpha, kappa, grid):
    """A feasible value of the relaxed problem, so at or above its minimum:
    the lowest cell of a ``meshgrid`` of both boundary angles, polished by
    alternating golden-section descent."""
    cx, cy = float(x_c[0]), float(x_c[1])
    ex, ey = float(x_e[0]), float(x_e[1])
    reach = 2.0 * math.pi * kappa / alpha

    def objective(theta_p, theta_e):
        xp = cx + kappa * np.cos(theta_p)
        yp = cy + kappa * np.sin(theta_p)
        xe = ex + reach * np.cos(theta_e)
        ye = ey + reach * np.sin(theta_e)
        return lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), alpha)[1]

    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    tp, te = np.meshgrid(angles, angles, indexing="ij")
    vals = objective(tp, te)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    theta_p, theta_e = float(angles[i]), float(angles[j])
    window = 2.0 * (2.0 * math.pi / grid)
    for _ in range(8):
        theta_p, _ = dg.golden_max(
            lambda t: -float(objective(t, theta_e)), theta_p - window, theta_p + window, tol=1e-12
        )
        theta_e, _ = dg.golden_max(
            lambda t: -float(objective(theta_p, t)), theta_e - window, theta_e + window, tol=1e-12
        )
        window *= 0.5
    return min(float(objective(theta_p, theta_e)), float(vals[i, j]))


def _reference_rollout_oracle(state, p, grid):
    """The rollout oracle with its first event location: a scan of every
    time step, then one scalar 60-halving bisection per heading and fired
    test, and each event's clearance on floats.  Returns the value, the
    event times, the number of capture brackets and the number of headings
    on which both tests fired in the same step."""
    dist0 = float(np.linalg.norm(np.subtract(state.pursuer.pos, state.evader.pos)))
    err0 = dg.heading_error(*pair_floats(state), p.alpha)
    bound = dg.adjust_time_bound(state, p)
    sign = bound.turn_sign
    dt = bound.duration / 2000.0
    horizon = 2.0 * math.pi * p.kappa / p.v_p
    steps = int(math.ceil(horizon / dt)) + 1
    headings = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    cos_h, sin_h = np.cos(headings), np.sin(headings)
    active = np.ones(grid, dtype=bool)
    prev_err, prev_gap, prev_t = np.full(grid, err0), np.full(grid, dist0 - p.r), 0.0
    best, event_times = math.inf, np.full(grid, np.nan)
    captures = both = 0

    def refine(cos_e, sin_e, t_lo, t_hi, capture):
        def event(s):
            xp, yp, tp, xe, ye = _rollout_positions(state, p, sign, s, cos_e, sin_e)
            if capture:
                return np.hypot(xp - xe, yp - ye) - p.r
            return float(_wrapped_error(xp, yp, tp, xe, ye, p.alpha))

        f_lo = event(t_lo)
        for _ in range(60):
            mid = 0.5 * (t_lo + t_hi)
            f_mid = event(mid)
            if f_mid == 0.0:
                return mid
            if (f_mid > 0.0) == (f_lo > 0.0):
                t_lo, f_lo = mid, f_mid
            else:
                t_hi = mid
        return 0.5 * (t_lo + t_hi)

    for k in range(1, steps + 1):
        t = min(k * dt, horizon)
        xp, yp, tp, xe, ye = _rollout_positions(state, p, sign, t, cos_h, sin_h)
        err = _wrapped_error(xp, yp, tp, xe, ye, p.alpha)
        gap = np.hypot(xp - xe, yp - ye) - p.r
        io_hit = active & (np.sign(err) != np.sign(prev_err)) & (
            np.abs(err) + np.abs(prev_err) < math.pi
        )
        cap_hit = active & (gap <= 0.0) & (prev_gap > 0.0)
        captures += int(cap_hit.sum())
        both += int((io_hit & cap_hit).sum())
        for idx in np.flatnonzero(io_hit | cap_hit):
            cos_e, sin_e = cos_h[idx], sin_h[idx]
            t_event = math.inf
            if io_hit[idx]:
                t_event = refine(cos_e, sin_e, prev_t, t, capture=False)
            if cap_hit[idx]:
                t_event = min(t_event, refine(cos_e, sin_e, prev_t, t, capture=True))
            xs, ys, _, xes, yes = map(
                float, _rollout_positions(state, p, sign, t_event, cos_e, sin_e)
            )
            dist = np.hypot(xs - xes, ys - yes)
            best = min(best, lowest_point(xs, ys, xes, yes, dist, p.alpha)[1])
            event_times[idx] = t_event
            active[idx] = False
        if not active.any():
            break
        prev_err, prev_gap, prev_t = err, gap, t
        if t >= horizon:
            break
    return best, event_times, captures, both


def _sixty_halvings(state, p, sign, cos_e, sin_e, t_lo, t_hi, capture):
    """``_bisect_events`` without its stop at the fixed point: always 60
    joint halvings."""

    def event(s):
        xp, yp, tp, xe, ye = _rollout_positions(state, p, sign, s, cos_e, sin_e)
        if capture:
            return np.hypot(xp - xe, yp - ye) - p.r
        return _wrapped_error(xp, yp, tp, xe, ye, p.alpha)

    lo_positive = event(t_lo) > 0.0
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        f_mid = event(mid)
        zero = f_mid == 0.0
        lo_moves = (f_mid > 0.0) == lo_positive
        t_lo = np.where(lo_moves | zero, mid, t_lo)
        t_hi = np.where(lo_moves & ~zero, t_hi, mid)
    return 0.5 * (t_lo + t_hi)


def _oracle_corpora(paper):
    """Trial states as ``oracle-compare --trials 1 --seed S`` draws them for
    S = 0..15, and near-capture states from one seeded stream."""
    trials = [dg.sample_adjust_feasible_state(np.random.default_rng(s), paper) for s in range(16)]
    rng = np.random.default_rng(57)
    near = [dg.sample_adjust_feasible_state(rng, paper, d_range=(0.11, 0.2)) for _ in range(4)]
    return trials, near


def _horizon_case():
    """A state and parameters whose rollout leaves some evader headings
    without any event: the evader starts 0.0025 from the car's turning
    centre, and the capture radius is small."""
    p = dg.GameParams.from_alpha(v_p=0.3, alpha=3.0, kappa=0.0625, r=0.01)
    return make_state(0.0, 0.5, 0.0, 0.0, 0.56), p


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _sound(closed, lower, tol=1e-9):
    """A value at or above the oracle's proven lower end, by at most ``tol``
    (1 + |lower|): for the closed form, its soundness and its precision."""
    return lower <= closed <= lower + tol * (1.0 + abs(lower))


#: Speed ratios of the relaxed oracle's corpus, from near 1 to a fast car.
_ORACLE_ALPHAS = (1.05, 1.3, 2.0, 6.3, 15.0, 60.0)


@functools.cache
def _alpha_corpus():
    """(turn centre, evader, alpha, kappa) of 15 seeded states at each of
    ``_ORACLE_ALPHAS``, with r = 0.1 and r/kappa 1e-3 above max(h(alpha),
    heading-adjust ratio)."""
    cases = []
    for alpha in _ORACLE_ALPHAS:
        demand = max(dg.curvature_demand(alpha), dg.heading_adjust_ratio(alpha))
        p = dg.GameParams.from_alpha(v_p=0.3, alpha=alpha, kappa=0.1 / (demand * 1.001), r=0.1)
        rng = np.random.default_rng(int(alpha * 100))
        for _ in range(15):
            state = dg.sample_adjust_feasible_state(rng, p)
            cases.append((dg.adjust_time_bound(state, p).turn_center, state.evader.pos, alpha, p.kappa))
    return cases


@functools.cache
def _jump_corpus(paper, grid):
    """Rollout cases with their ``_reference_rollout_oracle`` at ``grid``:
    the oracle corpora first, then the horizon case and two states from one
    seeded stream at each of three parameter sets away from the paper's:
    nearly equal speeds with a wide capture radius (alpha 1.2), a fast car
    (alpha 20) and a small capture radius (alpha 2, r 0.02)."""
    trials, near = _oracle_corpora(paper)
    cases = [(state, paper) for state in trials + near] + [_horizon_case()]
    for alpha, kappa, r in ((1.2, 0.05, 0.5), (20.0, 0.2, 0.05), (2.0, 0.1, 0.02)):
        p = dg.GameParams.from_alpha(v_p=0.3, alpha=alpha, kappa=kappa, r=r)
        rng = np.random.default_rng(7)
        for _ in range(2):
            cases.append((dg.sample_adjust_feasible_state(rng, p, d_range=(1.2 * r, r + 1.0)), p))
    return [(state, p, _reference_rollout_oracle(state, p, grid)) for state, p in cases]


class TestParameterCurves:
    def test_closed_form_bound_values(self):
        assert dg.curvature_demand_bound(2.0) == pytest.approx(3.0)
        assert dg.curvature_demand_bound(6.3) == pytest.approx(0.412958, abs=1e-6)
        assert dg.curvature_demand_bound(1000.0) < 0.003

    def test_demand_between_known_bounds(self):
        for alpha in (1.5, 2.0, 6.3, 10.0):
            h = dg.curvature_demand(alpha)
            assert h <= dg.curvature_demand_bound(alpha) + 1e-9
            # value of the objective at the bottom of the circle
            assert h >= 1.0 / (alpha - 1.0) - 1e-9
        assert 0.18868 <= dg.curvature_demand(6.3) <= 0.41296

    def test_demand_memo_is_bounded_and_exact(self):
        from dubinsguard import certificates

        alphas = [1.5 + 0.01 * k for k in range(1000)]
        values = [dg.curvature_demand(alpha) for alpha in alphas]
        assert dg.curvature_demand.cache_info().currsize <= 256
        for alpha, value in zip(alphas[::37], values[::37]):
            _, uncached = dg.max_on_circle(
                lambda x, y: certificates._demand_objective(x, y, alpha)
            )
            assert value == uncached

    def test_demand_rejects_unit_ratio(self):
        with pytest.raises(ValueError):
            dg.curvature_demand(1.0)

    def test_adjust_ratio_value(self):
        assert dg.heading_adjust_ratio(6.3) == pytest.approx(1.595987, abs=1e-6)

    def test_feasibility_checks_at_reference_parameters(self):
        assert dg.intercept_feasible(0.1, 0.0625, 6.3)
        assert dg.adjust_feasible(0.1, 0.0625, 6.3)
        assert dg.two_step_feasible(0.1, 0.0625, 6.3)
        assert not dg.intercept_feasible(0.01, 1.0, 6.3)
        assert not dg.adjust_feasible(0.01, 1.0, 6.3)
        assert not dg.two_step_feasible(0.01, 1.0, 6.3)

    def test_feasibility_strictness_on_boundary(self):
        alpha = 2.0
        kappa = 1.0
        r = kappa * dg.curvature_demand(alpha)
        assert dg.intercept_feasible(r, kappa, alpha)  # non-strict
        assert not dg.two_step_feasible(r, kappa, alpha)  # strict

    def test_adjust_check_is_strict_on_the_ratio(self):
        # r / kappa equals the ratio exactly in floats, so only a strict
        # comparison refuses it
        r = dg.heading_adjust_ratio(3.0)
        assert r / 1.0 == 2.6666666666666665 == dg.heading_adjust_ratio(3.0)
        assert not dg.adjust_feasible(r, 1.0, 3.0)
        assert dg.adjust_feasible(math.nextafter(r, math.inf), 1.0, 3.0)


class TestClassifyRegion:
    def test_reference_parameters_above_all_curves(self):
        region = dg.classify_region(0.1, 0.0625, 6.3)
        rk = 0.1 / 0.0625
        assert rk >= region.curvature_demand
        assert rk >= region.curvature_bound
        assert rk > region.adjust_ratio
        assert region.label is dg.RegionLabel.II

    def test_below_all_curves(self):
        region = dg.classify_region(0.5, 1.0, 2.0)
        assert region.label is dg.RegionLabel.V
        assert 0.5 < region.curvature_demand
        assert 0.5 < region.adjust_ratio

    def test_bound_above_ratio_below_crossing(self):
        # below the crossing ratio the closed-form bound curve dominates
        region = dg.classify_region(1.0, 1.0, 1.2)
        assert region.curvature_bound == pytest.approx(35.0)
        assert region.adjust_ratio == pytest.approx((2.2) ** 2 / (1.2 * 0.2))
        assert region.curvature_bound > region.adjust_ratio

    def test_label_is_pure_function_of_comparisons(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            alpha = float(rng.uniform(1.05, 10.0))
            r = float(rng.uniform(0.01, 5.0))
            kappa = float(rng.uniform(0.01, 2.0))
            region = dg.classify_region(r, kappa, alpha)
            rk = r / kappa
            above_bound = rk >= region.curvature_bound
            above_demand = rk >= region.curvature_demand or above_bound
            above_ratio = rk > region.adjust_ratio
            if above_bound:
                want = dg.RegionLabel.II if above_ratio else dg.RegionLabel.I
            elif above_demand:
                want = dg.RegionLabel.IV if above_ratio else dg.RegionLabel.III
            else:
                want = dg.RegionLabel.V
            assert region.label is want
            assert region.curvature_demand > 0
            assert region.curvature_bound > 0
            assert region.adjust_ratio > 0


    def test_checks_and_label_agree_on_the_demand_curve(self):
        # r = kappa*h(alpha) and its two float neighbours: intercept_feasible
        # and the label decide r >= kappa*h(alpha) by the same comparison
        def check(r, kappa, alpha):
            label = dg.classify_region(r, kappa, alpha).label
            assert dg.intercept_feasible(r, kappa, alpha) == (label is not dg.RegionLabel.V)
            two_step = label in (dg.RegionLabel.II, dg.RegionLabel.IV)
            assert dg.two_step_feasible(r, kappa, alpha) == two_step

        check(0.9655499111747188, 0.7, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            alpha = float(rng.uniform(1.05, 20.0))
            kappa = float(rng.uniform(1e-3, 10.0))
            r = kappa * dg.curvature_demand(alpha)
            for r_k in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)):
                check(r_k, kappa, alpha)


class TestAdjustTimeBound:
    def test_hand_worked_geometry(self):
        p = dg.GameParams.from_alpha(v_p=1.0, alpha=6.3, kappa=1.0, r=0.1)
        state = make_state(0, 0, 0.0, 0, 3)
        bound = dg.adjust_time_bound(state, p)
        assert bound.turn_center == pytest.approx([0.0, 1.0], abs=1e-12)
        assert bound.center_bearing == pytest.approx(math.pi / 2)
        assert bound.evader_bearing == pytest.approx(math.pi / 2)
        assert bound.wraps == 1
        assert bound.duration == pytest.approx(math.pi)

    def test_reversed_heading(self):
        p = dg.GameParams.from_alpha(v_p=1.0, alpha=6.3, kappa=1.0, r=0.1)
        state = make_state(0, 0, math.pi, 0, 3)
        bound = dg.adjust_time_bound(state, p)
        assert bound.turn_sign == -1.0
        assert 0.0 < bound.duration <= 2 * math.pi
        assert bound.duration == pytest.approx(math.pi)
        assert bound.wraps in (0, 1)

    def test_rotation_about_pursuer_leaves_duration_unchanged(self):
        p = dg.GameParams.from_alpha(v_p=1.0, alpha=4.0, kappa=0.7, r=0.1)
        rng = np.random.default_rng(52)
        for _ in range(50):
            theta_p = rng.uniform(0, 2 * math.pi)
            offset = rng.uniform(0.5, 3.0) * np.array(
                [math.cos(rng.uniform(0, 2 * math.pi)), math.sin(rng.uniform(0, 2 * math.pi))]
            )
            pivot = np.array([0.3, 1.5])
            base = make_state(pivot[0], pivot[1], theta_p, *(pivot + offset))
            phi = rng.uniform(0, 2 * math.pi)
            try:
                base_bound = dg.adjust_time_bound(base, p)
            except ValueError:
                continue
            rot = np.array(
                [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
            )
            turned = make_state(
                pivot[0],
                pivot[1],
                dg.wrap_angle(theta_p + phi),
                *(pivot + rot @ offset),
            )
            turned_bound = dg.adjust_time_bound(turned, p)
            # the duration depends only on the bearing difference, which is
            # rotation invariant as long as the turn direction is unchanged
            # (the aim point tracks the fixed goal direction, so a rotation
            # can legitimately flip which way the pursuer turns)
            if turned_bound.turn_sign == base_bound.turn_sign:
                assert turned_bound.duration == pytest.approx(
                    base_bound.duration, abs=1e-9
                )

    def test_bound_range_and_center_distance(self, paper):
        rng = np.random.default_rng(53)
        for _ in range(200):
            state = dg.sample_adjust_feasible_state(rng, paper)
            bound = dg.adjust_time_bound(state, paper)
            assert 0.0 < bound.duration <= 2 * math.pi * paper.kappa / paper.v_p + 1e-15
            assert bound.wraps in (0, 1)
            center_dist = float(np.linalg.norm(np.subtract(bound.turn_center, state.pursuer.pos)))
            assert center_dist == pytest.approx(paper.kappa, rel=1e-12)

    def test_rejects_aligned_state(self, paper):
        state = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        with pytest.raises(ValueError):
            dg.adjust_time_bound(state, paper)

    def test_zero_sweep_bounds_a_full_turn(self):
        # the evader level with the turn centre, to its right, and the car
        # turning counter-clockwise from heading pi/2: swept == 0.0 in
        # floats, so the car already sits on the point of its circle
        # nearest the evader without being aligned.  Alignment is then only
        # guaranteed on the next pass there, one full turning period later,
        # not at once
        p = dg.GameParams.from_alpha(v_p=1.0, alpha=2.0, kappa=1.0, r=0.1)
        cy = 1.0 + p.kappa * math.sin(math.pi)
        bound = dg.adjust_time_bound(make_state(0.0, 1.0, 0.5 * math.pi, -0.5, cy), p)
        assert bound.turn_sign == 1.0 and bound.turn_center == (-1.0, cy)
        assert bound.center_bearing == math.pi and bound.evader_bearing == 0.0
        assert bound.wraps == 1
        assert bound.duration == 2 * math.pi * p.kappa / p.v_p


class TestAdjustScope:
    def test_hand_worked_examples(self):
        p = dg.GameParams.from_alpha(v_p=1.0, alpha=6.3, kappa=1.0, r=0.1)
        assert dg.adjust_time_bound(make_state(0, 0, 0.0, 0, 3), p).scope_gap > 0.0
        assert dg.adjust_time_bound(make_state(0, 0, 0.0, 0, 2.4), p).scope_gap < 0.0

    def test_margin_value(self):
        # the pi-duration example: threshold is kappa + pi / sqrt(alpha^2-1)
        p = dg.GameParams.from_alpha(v_p=1.0, alpha=6.3, kappa=1.0, r=0.1)
        state = make_state(0, 0, 0.0, 0, 3)
        bound = dg.adjust_time_bound(state, p)
        threshold = p.kappa + p.v_p * bound.duration / math.sqrt(p.alpha**2 - 1)
        assert threshold == pytest.approx(1.5051, abs=1e-4)
        gap = float(np.linalg.norm(np.subtract(bound.turn_center, state.evader.pos)))
        assert bound.scope_gap == gap - threshold

    def test_scope_is_strict_at_equality(self):
        # an evader whose center distance equals the scope radius kappa +
        # v_p * duration / sqrt(alpha^2 - 1) in floats: it must lie strictly
        # outside the scope ball, so only a strict comparison refuses it.
        # The pair is separated, unaligned and beyond capture, so the
        # certificate reaches the scope test
        p = dg.GameParams(v_p=5.0, v_e=4.0, kappa=1.0, r=0.1)
        x_e = (2.0, 6.128327671926378)
        bound = dg.adjust_time_bound(make_state(0.0, 1.0, 0.0, *x_e), p)
        gap = float(np.linalg.norm(np.subtract(bound.turn_center, x_e)))
        assert gap == p.kappa + p.v_p * bound.duration / math.sqrt(p.alpha**2 - 1.0)
        assert bound.scope_gap == 0.0
        evidence = dg.certify_win(make_state(0.0, 1.0, 0.0, *x_e), p).evidence
        assert evidence.sc and not evidence.io and evidence.beyond_capture
        assert evidence.scope_ok is False
        beyond = (2.0, math.nextafter(x_e[1], math.inf))
        assert dg.adjust_time_bound(make_state(0.0, 1.0, 0.0, *beyond), p).scope_gap > 0.0
        assert dg.certify_win(make_state(0.0, 1.0, 0.0, *beyond), p).evidence.scope_ok is True


class TestRelaxationSextic:
    def test_frozen_coefficients(self):
        poly = dg.relaxation_sextic((0, 5), (0, 0), 2.0, 1.0)
        pi = math.pi
        expected = (
            9 * (2 * pi + 1) ** 2,
            45 * (4 * pi + 2),
            225 - 10 * (2 * pi + 1) ** 2,
            -25 * (8 * pi + 4),
            (2 * pi + 1) ** 2 - 250,
            5 * (4 * pi + 2),
            25.0,
        )
        assert poly.coeffs == pytest.approx(expected, rel=1e-12)

    def test_length_scaling_homogeneity(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            x_c = rng.normal(size=2) * 2
            x_e = rng.normal(size=2) * 2
            if np.linalg.norm(x_c - x_e) < 0.1:
                continue
            alpha = rng.uniform(1.2, 6.0)
            kappa = rng.uniform(0.05, 1.0)
            s = rng.uniform(0.5, 3.0)
            base = dg.relaxation_sextic(x_c, x_e, alpha, kappa)
            scaled = dg.relaxation_sextic(x_c * s, x_e * s, alpha, kappa * s)
            assert scaled.coeffs == pytest.approx(
                tuple(c * s * s for c in base.coeffs), rel=1e-9
            )

    def test_equal_heights_kill_odd_coefficients(self):
        poly = dg.relaxation_sextic((0.8, 0.0), (-0.8, 0.0), 3.0, 0.5)
        coeffs = poly.coeffs
        assert coeffs[1] == 0.0 and coeffs[3] == 0.0 and coeffs[5] == 0.0


def _near_vertical_corpus(rng, n):
    """Pair states whose turn center sits straight above or below the
    evader, half of them exactly and the rest off by 1e-12 to 1e-3, with
    the speed ratio in [1.2, 2] for every other state and in [2, 150] for
    the rest, kappa in {1/16, 0.2, 1} and r/kappa 1% above the two-step
    threshold.  ``certify_win`` takes every state to the sextic: each is
    separated, unaligned, beyond capture and in scope, and the witness does
    not refute it.  Returns (x_p, theta, x_e, params) tuples."""
    corpus = []
    while len(corpus) < n:
        lo, hi = (1.2, 2.0) if len(corpus) % 2 else (2.0, 150.0)
        alpha = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        kappa = float(rng.choice([0.0625, 0.2, 1.0]))
        ratio = max(dg.curvature_demand(alpha), dg.heading_adjust_ratio(alpha))
        p = dg.GameParams.from_alpha(v_p=1.0, alpha=alpha, kappa=kappa, r=1.01 * kappa * ratio)
        x_p, theta = (rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)), rng.uniform(0.0, 2 * math.pi)
        dx = 0.0 if rng.integers(2) else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -3)
        dy = rng.choice([-1.0, 1.0]) * (p.r + kappa) * rng.uniform(1.0, 4.0)
        # place the evader from the turn center of a provisional state, and
        # keep it only if its own turn is the same
        center = dg.adjust_time_bound(make_state(*x_p, theta, x_p[0], x_p[1] + dy), p).turn_center
        x_e = (center[0] + dx, center[1] + dy)
        aim_y = aim_point(x_p, x_e, alpha)[1]
        err = dg.heading_error(x_p, theta, x_e, alpha)
        if aim_y < 0.0 or abs(err) <= dg.IO_TOL or math.dist(x_p, x_e) <= p.r:
            continue
        bound = dg.adjust_time_bound(make_state(*x_p, theta, *x_e), p, err)
        witness = _witness_clearance(center, x_e, alpha, kappa)[0]
        if bound.turn_center == center and bound.scope_gap > 0.0:
            if witness >= -_witness_margin(alpha, kappa):
                corpus.append((x_p, theta, x_e, p))
    return corpus


class TestRelaxedClearance:
    @pytest.mark.parametrize(
        "solve",
        [dg.relaxed_clearance_from_centers, dg.relaxed_oracle_from_centers, dg.relaxation_sextic],
    )
    def test_centers_must_be_finite_points(self, solve):
        # a NaN center used to reach the eigenvalue solver or give a NaN
        # clearance, and a third coordinate was dropped
        with pytest.raises(ValueError, match="non-finite"):
            solve((math.nan, 0.5), (0.0, 1.0), 3.0, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            solve((0.0, 0.5), (0.0, math.inf), 3.0, 0.1)
        with pytest.raises(ValueError, match="shape"):
            solve((0.0, 0.5, 7.0), (0.0, 1.0), 3.0, 0.1)

    def test_axisymmetric_case_stays_on_axis(self):
        # a vertical center takes the side sign 1; its on-axis minimizer is
        # the bracket end alpha + 1, where the horizontal displacements are 0
        sol = dg.relaxed_clearance_from_centers((0, 5), (0, 0), 2.0, 1.0)
        assert sol.sigma == 1
        assert sol.multiplier == 3.0
        assert sol.pursuer_point[0] == 0.0
        assert sol.evader_point[0] == 0.0
        assert _sound(sol.clearance, dg.relaxed_oracle_from_centers((0, 5), (0, 0), 2.0, 1.0))

    def test_generic_case_sign_law(self):
        sol = dg.relaxed_clearance_from_centers((1, 5), (0, 0), 2.0, 1.0)
        assert sol.sigma == 1
        assert sol.pursuer_point[0] > 1.0
        assert sol.evader_point[0] < 0.0
        assert sol.pursuer_point[0] - sol.evader_point[0] > 0.0

    def test_closed_form_matches_oracle_on_random_states(self, paper):
        rng = np.random.default_rng(55)
        for _ in range(20):
            state = dg.sample_adjust_feasible_state(rng, paper)
            sol = dg.solve_relaxed_clearance(state, paper)
            assert _sound(sol.clearance, dg.relaxed_clearance_oracle(state, paper))
            assert paper.alpha - 1.0 <= sol.multiplier <= paper.alpha + 1.0
        for args in _alpha_corpus():
            lower = dg.relaxed_oracle_from_centers(*args)
            assert _sound(dg.relaxed_clearance_from_centers(*args).clearance, lower), args

    def test_solution_invariants(self, paper):
        rng = np.random.default_rng(56)
        reach = 2 * math.pi * paper.kappa / paper.alpha
        for _ in range(40):
            state = dg.sample_adjust_feasible_state(rng, paper)
            bound = dg.adjust_time_bound(state, paper)
            sol = dg.solve_relaxed_clearance(state, paper)
            # active constraints
            assert float(
                np.linalg.norm(np.subtract(sol.evader_point, state.evader.pos))
            ) == pytest.approx(reach, rel=1e-9)
            assert float(
                np.linalg.norm(np.subtract(sol.pursuer_point, bound.turn_center))
            ) == pytest.approx(paper.kappa, rel=1e-9)
            # common-sign law
            sigma = sol.sigma
            assert sigma == (-1 if bound.turn_center[0] < state.evader.pos[0] else 1)
            if bound.turn_center[0] != state.evader.pos[0]:
                assert sigma * (sol.pursuer_point[0] - bound.turn_center[0]) > 0
                assert sigma * (state.evader.pos[0] - sol.evader_point[0]) > 0
                assert sigma * (sol.pursuer_point[0] - sol.evader_point[0]) > 0
            # stationarity residual, recomputed here with both multipliers
            lam2 = sol.multiplier
            lam1 = paper.alpha * lam2
            diff = np.subtract(sol.pursuer_point, sol.evader_point)
            dist = float(np.linalg.norm(diff))
            u_e = np.subtract(sol.evader_point, state.evader.pos) / reach
            u_p = np.subtract(sol.pursuer_point, bound.turn_center) / paper.kappa
            res = np.array(
                [
                    paper.alpha * diff[0] / dist + lam1 * u_e[0],
                    paper.alpha * diff[1] / dist + lam1 * u_e[1] + paper.alpha**2,
                    -paper.alpha * diff[0] / dist + lam2 * u_p[0],
                    -paper.alpha * diff[1] / dist + lam2 * u_p[1] - 1.0,
                ]
            )
            assert float(np.max(np.abs(res))) < 1e-6

    def test_vertical_center_matches_the_oracle(self):
        # the turn center straight below the evader, its minimum at an
        # interior root off the axis: on one side sign, with both bracket
        # ends as candidates, the closed form finds the minimum
        args = (0.3267063158833985, 0.06492744446875265), (0.3267063158833985, 0.8473599249944499)
        sol = dg.relaxed_clearance_from_centers(*args, 2.4, 0.2)
        assert _sound(sol.clearance, dg.relaxed_oracle_from_centers(*args, 2.4, 0.2))
        assert abs(sol.clearance - 0.171291934618373) <= 1e-12

    def test_near_vertical_corpus_stays_at_or_below_the_oracle(self):
        # the closed form sits at the minimum, which the oracle's lower end
        # bounds from below and a feasible reference value from above; every
        # state solves, a root next to a bracket end included
        for x_p, theta, x_e, p in _near_vertical_corpus(np.random.default_rng(29), 80):
            center = dg.adjust_time_bound(make_state(*x_p, theta, *x_e), p).turn_center
            sol = dg.relaxed_clearance_from_centers(center, x_e, p.alpha, p.kappa)
            lower = dg.relaxed_oracle_from_centers(center, x_e, p.alpha, p.kappa)
            assert _sound(sol.clearance, lower), (x_p, theta, x_e, p)
            assert lower <= _reference_relaxed_oracle(center, x_e, p.alpha, p.kappa, 180)

    def test_reconstruction_failure_raises(self, monkeypatch):
        # with no polynomial roots available, the endpoint fallbacks of a
        # generic (off-axis) geometry fail the stationarity filter and the
        # solver must report the failure instead of inventing a value
        from dubinsguard import certificates

        monkeypatch.setattr(certificates, "real_roots", lambda *a, **k: [])
        with pytest.raises(dg.KKTReconstructionError):
            certificates.relaxed_clearance_from_centers((1, 5), (0, 0), 2.0, 1.0)

    def test_a_missed_minimiser_root_raises(self, paper, monkeypatch):
        # withholding only the minimiser's root leaves no candidate
        # stationary on both circles: the solve reports the miss instead of
        # returning another candidate's value, and the pair gets no
        # certificate
        from dubinsguard import certificates

        real = certificates.real_roots
        trials, near = _oracle_corpora(paper)
        states = trials + near
        cases = [
            (dg.adjust_time_bound(state, paper).turn_center, state.evader.pos, paper.alpha, paper.kappa)
            for state in states
        ]
        for k, args in enumerate(cases + _alpha_corpus()):
            lam = dg.relaxed_clearance_from_centers(*args).multiplier
            assert args[2] - 1.0 < lam < args[2] + 1.0
            with monkeypatch.context() as patch:
                patch.setattr(certificates, "real_roots", lambda *a, **kw: [x for x in real(*a, **kw) if x != lam])
                with pytest.raises(dg.KKTReconstructionError):
                    dg.relaxed_clearance_from_centers(*args)
                if k < len(states):
                    cert = dg.certify_win(states[k], paper)
                    assert cert.kind is dg.CertificateKind.NONE and cert.evidence.solver_failed


class TestRelaxedOracle:
    def test_boundary_optimum_concavity(self):
        # pushing the best boundary pair strictly inside both disks can only
        # increase the objective (concave objective, minimum at extreme points)
        x_c, x_e, alpha, kappa = (0.3, 4.0), (0.0, 0.0), 2.0, 1.0
        reach = 2 * math.pi * kappa / alpha

        def objective(rho_p, theta_p, rho_e, theta_e):
            xp = x_c[0] + rho_p * math.cos(theta_p)
            yp = x_c[1] + rho_p * math.sin(theta_p)
            xe = x_e[0] + rho_e * math.cos(theta_e)
            ye = x_e[1] + rho_e * math.sin(theta_e)
            return alpha**2 * ye - yp - alpha * math.hypot(xp - xe, yp - ye)

        angles = np.linspace(0, 2 * math.pi, 360, endpoint=False)
        best = min(
            (objective(kappa, tp, reach, te), tp, te)
            for tp in angles
            for te in angles
        )
        _, tp, te = best
        for shrink in (0.99, 0.9, 0.5):
            assert objective(kappa * shrink, tp, reach * shrink, te) >= best[0]

    def test_lower_end_is_below_a_fine_lattice(self):
        # every lattice value is feasible, so none is below the lower end;
        # at spacing 2 pi / 720 the lowest is within 1e-4 of it
        reach = math.pi
        angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)[:, None]
        xp, yp = 1.0 + np.cos(angles), 5.0 + np.sin(angles)
        xe, ye = reach * np.cos(angles.T), reach * np.sin(angles.T)
        lattice = lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), 2.0)[1].min()
        lower = dg.relaxed_oracle_from_centers((1, 5), (0, 0), 2.0, 1.0)
        assert lower <= lattice < lower + 1e-4

    def test_lower_end_sits_just_below_the_reference(self, paper):
        # the oracle corpora, the horizon case, the states at three parameter
        # sets away from the paper's and the speed-ratio corpus: the
        # reference's polished value is feasible, and within 1e-8 of the
        # minimum
        cases = [
            (dg.adjust_time_bound(state, p).turn_center, state.evader.pos, p.alpha, p.kappa)
            for state, p, _ in _jump_corpus(paper, 180)
        ]
        for args in cases + _alpha_corpus():
            lower = dg.relaxed_oracle_from_centers(*args)
            assert _sound(_reference_relaxed_oracle(*args, grid=180), lower, tol=1e-8), args


class TestRolloutOracle:
    def test_terminal_states_give_infinity(self, paper):
        aligned = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        assert dg.rollout_clearance_oracle(aligned, paper, grid=8) == math.inf
        captured = make_state(0, 0.5, 0.3, 0.05, 0.5)
        assert dg.rollout_clearance_oracle(captured, paper, grid=8) == math.inf

    def test_sandwich_and_event_time_bound(self, paper):
        rng = np.random.default_rng(57)
        for _ in range(8):
            state = dg.sample_adjust_feasible_state(rng, paper, d_range=(0.3, 0.9))
            sol = dg.solve_relaxed_clearance(state, paper)
            bound = dg.adjust_time_bound(state, paper)
            value, times = dg.rollout_clearance_oracle(
                state, paper, grid=180, return_times=True
            )
            # the relaxed lower end, the closed form, then the rollout
            assert _sound(sol.clearance, dg.relaxed_clearance_oracle(state, paper))
            assert sol.clearance <= value + 1e-3
            assert np.isfinite(times).all()
            assert float(np.nanmax(times)) <= bound.duration + 1e-6


    def test_batched_bisection_matches_scalar_reference(self, paper):
        # the trial states hold no capture event at all; the near-capture
        # states exercise capture brackets and headings where both tests
        # fire in one scan step, which take the earlier time
        trials, near = _oracle_corpora(paper)
        counts = []
        for state, _, reference in _jump_corpus(paper, 180)[: len(trials + near)]:
            value, times = dg.rollout_clearance_oracle(state, paper, grid=180, return_times=True)
            want, want_times, captures, both = reference
            assert abs(value - want) <= 1e-12
            assert np.array_equal(np.isnan(times), np.isnan(want_times))
            np.testing.assert_allclose(times, want_times, rtol=0.0, atol=1e-12)
            counts.append((captures, both))
        assert sum(c for c, _ in counts[: len(trials)]) == 0
        assert sum(c for c, _ in counts[len(trials) :]) > 100
        assert sum(b for _, b in counts[len(trials) :]) >= 1


    def test_bisection_stops_each_bracket_at_an_exact_zero(self, paper, monkeypatch):
        # with the event value replaced by s - cos_e and the roots passed as
        # cosines, the first bracket meets its root at the first midpoint,
        # the second at the second, and the third never does; collapsing the
        # two stopped brackets must not disturb the third
        from dubinsguard import certificates

        def positions(state, p, sign, s, cos_e, sin_e):
            return (s - cos_e,) * 5

        monkeypatch.setattr(certificates, "_rollout_positions", positions)
        monkeypatch.setattr(certificates, "_wrapped_error", lambda xp, *rest: xp)
        roots = np.array([0.0, 0.0, 1.0 / 3.0])
        t_lo, t_hi = np.array([-1.0, -1.0, 0.0]), np.array([1.0, 3.0, 1.0])
        found = certificates._bisect_events(None, paper, 1.0, roots, roots, t_lo, t_hi, False)
        assert found[0] == 0.0 and found[1] == 0.0
        assert abs(found[2] - 1.0 / 3.0) < 1e-15

    def test_bisection_stops_at_its_fixed_point(self, paper, monkeypatch):
        # bit for bit the 60 halvings on every bracket the oracle bisects
        # over the jump corpus, capture brackets included; on the
        # oracle-compare trial states no bracket changes after halving 41-45,
        # so no call evaluates more than 47 times
        from dubinsguard import certificates

        bisect = certificates._bisect_events
        calls, evaluations, per_call = [], [0], []

        def recorded(*args):
            calls.append(args)
            return bisect(*args)

        monkeypatch.setattr(certificates, "_bisect_events", recorded)
        for state, p, _ in _jump_corpus(paper, 180):
            dg.rollout_clearance_oracle(state, p, grid=180, return_times=True)
        assert any(args[-1] for args in calls) and not all(args[-1] for args in calls)
        for args in calls:
            assert np.array_equal(_bits(bisect(*args)), _bits(_sixty_halvings(*args)))

        def positions(*args):
            evaluations[0] += 1
            return _rollout_positions(*args)

        def counted(*args):
            before = evaluations[0]
            found = bisect(*args)
            per_call.append(evaluations[0] - before)
            return found

        monkeypatch.setattr(certificates, "_rollout_positions", positions)
        monkeypatch.setattr(certificates, "_bisect_events", counted)
        for seed in range(12):
            state = dg.sample_adjust_feasible_state(np.random.default_rng(seed), paper)
            for return_times in (False, True):
                dg.rollout_clearance_oracle(state, paper, grid=360, return_times=return_times)
        assert len(per_call) == 24 and max(per_call) <= 47

    @pytest.mark.parametrize("grid", [180, 360])
    def test_pruned_value_equals_the_reference(self, paper, grid):
        # without return_times only the headings that can hold the minimum
        # are bisected; the value stays the one every heading's event gives
        for state, p, (want, _, _, _) in _jump_corpus(paper, grid):
            assert _bits(dg.rollout_clearance_oracle(state, p, grid=grid)) == _bits(want)

    def test_pruned_value_on_the_trial_states(self, paper, monkeypatch):
        # the states oracle-compare --trials 1 --seed S draws for S < 200;
        # under a tenth of their headings are bisected
        from dubinsguard import certificates

        bisect = certificates._bisect_events
        bisected = []

        def recorded(state, p, sign, cos_e, *rest):
            bisected.append(cos_e.size)
            return bisect(state, p, sign, cos_e, *rest)

        for seed in range(200):
            state = dg.sample_adjust_feasible_state(np.random.default_rng(seed), paper)
            full, _ = dg.rollout_clearance_oracle(state, paper, grid=360, return_times=True)
            with monkeypatch.context() as m:
                m.setattr(certificates, "_bisect_events", recorded)
                value = dg.rollout_clearance_oracle(state, paper, grid=360)
            assert _bits(value) == _bits(full)
        assert len(bisected) == 200 and sum(bisected) <= 0.1 * 200 * 360

    def test_pruning_keeps_headings_that_are_not_lowest_at_the_bracket_end(
        self, paper, monkeypatch
    ):
        # a synthetic rollout: on every heading the heading error crosses
        # zero at the same instant, inside the scan step [300 dt, 301 dt],
        # and the evader sits straight above the car at a height y whose aim
        # height moves at 0.9 times its bound 2 v_p / (alpha - 1): falling
        # where cos_e > 0, rising where cos_e < 0.  At the step's end
        # heading 0 is lowest, at the event the opposite heading: without
        # the slack the pruning keeps heading 0 alone and misses the minimum
        from dubinsguard import certificates

        state = dg.sample_adjust_feasible_state(np.random.default_rng(0), paper)
        err0 = dg.heading_error(*pair_floats(state), paper.alpha)
        dt = dg.adjust_time_bound(state, paper).duration / 2000.0
        t_hi, omega = 301.0 * dt, abs(err0) / (300.37 * dt)
        # the aim height of the evader at height y above the car is
        # y alpha / (alpha + 1)
        rate = 2.0 * paper.v_p / (paper.alpha - 1.0) * (paper.alpha + 1.0) / paper.alpha

        def y(s, cos_e):
            return 0.5 - 0.9 * rate * cos_e * (s - t_hi) + 0.1 * rate * dt * (1.0 - cos_e)

        def positions(state, p, sign, s, cos_e, sin_e):
            zeros = np.zeros(np.broadcast(s, cos_e).shape)
            return zeros, zeros, s + zeros, zeros, y(s, cos_e) + zeros

        def error(xp, yp, tp, xe, ye, alpha, dist=None):
            return math.copysign(1.0, err0) * (abs(err0) - omega * tp)

        monkeypatch.setattr(certificates, "_rollout_positions", positions)
        monkeypatch.setattr(certificates, "_wrapped_error", error)
        monkeypatch.setattr(certificates, "_error_rate_bound", lambda p: (2.0 * omega, 0.0))
        full, times = dg.rollout_clearance_oracle(state, paper, grid=90, return_times=True)
        cos_e = np.cos(np.linspace(0.0, 2.0 * math.pi, 90, endpoint=False))
        assert np.all(times == times[0]) and 300.0 * dt < times[0] < t_hi
        assert np.argmin(y(t_hi, cos_e)) == 0 and np.argmin(y(times, cos_e)) == 45
        assert _bits(dg.rollout_clearance_oracle(state, paper, grid=90)) == _bits(full)

    @pytest.mark.parametrize("grid", [180, 360])
    def test_jump_scan_equals_the_per_step_reference(self, paper, grid):
        # values and event times bit for bit, NaN pattern included: a jump
        # over a firing step moves a bracket and so an event time
        for state, p, (want, want_times, _, _) in _jump_corpus(paper, grid):
            value, times = dg.rollout_clearance_oracle(state, p, grid=grid, return_times=True)
            assert _bits(value) == _bits(want)
            assert np.array_equal(_bits(times), _bits(want_times))

    def test_a_halved_rate_bound_breaks_the_equality(self, paper, monkeypatch):
        # the mutation check of the test above: with half the heading
        # error's true rate bound, jumps cross events on that corpus
        from dubinsguard import certificates

        true_bound = certificates._error_rate_bound
        monkeypatch.setattr(
            certificates, "_error_rate_bound", lambda p: tuple(0.5 * c for c in true_bound(p))
        )
        mismatches = 0
        for grid in (180, 360):
            for state, p, (want, want_times, _, _) in _jump_corpus(paper, grid):
                value, times = dg.rollout_clearance_oracle(state, p, grid=grid, return_times=True)
                mismatches += _bits(value) != _bits(want) or not np.array_equal(
                    _bits(times), _bits(want_times)
                )
        assert mismatches >= 1

    def test_jump_scan_evaluates_few_headings(self, paper, monkeypatch):
        # a scan of every step evaluates each heading at every step up to
        # its event at t, at least floor(t / dt) times; the jump scan
        # evaluates once per round each heading it passes to _quiet_steps
        from dubinsguard import certificates

        evaluated = []

        def spy(err, gap, p, dt):
            evaluated.append(err.size)
            return quiet_steps(err, gap, p, dt)

        quiet_steps = certificates._quiet_steps
        monkeypatch.setattr(certificates, "_quiet_steps", spy)
        per_step = 0
        for seed in range(12):
            state = dg.sample_adjust_feasible_state(np.random.default_rng(seed), paper)
            _, times = dg.rollout_clearance_oracle(state, paper, grid=360, return_times=True)
            dt = dg.adjust_time_bound(state, paper).duration / 2000.0
            assert np.isfinite(times).all()
            per_step += int(np.floor(times / dt).sum())
        assert sum(evaluated) <= 0.05 * per_step

    def test_headings_without_event_scan_to_the_horizon(self, monkeypatch):
        # the evader starts beside the car's turning centre: on 66 of 360
        # headings it is neither caught nor crossed by the heading error
        # within one turning period, so the scan runs to the clamped horizon
        from dubinsguard import certificates

        state, p = _horizon_case()
        horizon = 2.0 * math.pi * p.kappa / p.v_p
        scanned = []

        def spy(state, p, sign, s, cos_e, sin_e):
            scanned.append(float(np.max(s)))
            return _rollout_positions(state, p, sign, s, cos_e, sin_e)

        monkeypatch.setattr(certificates, "_rollout_positions", spy)
        value, times = dg.rollout_clearance_oracle(state, p, grid=360, return_times=True)
        want, want_times, captures, _ = _reference_rollout_oracle(state, p, 360)
        assert max(scanned) == horizon
        assert int(np.isnan(times).sum()) == 66 and captures > 0
        assert np.array_equal(np.isnan(times), np.isnan(want_times))
        assert abs(value - want) <= 1e-12
        np.testing.assert_allclose(times, want_times, rtol=0.0, atol=1e-12)

class TestCertifyWin:
    def test_aligned_separated_pair_is_intercept(self, paper):
        state = aligned_state(0, 0.75, 0.0, 0.30, paper.alpha)
        cert = dg.certify_win(state, paper)
        assert cert.kind is dg.CertificateKind.INTERCEPT
        assert cert.evidence.sc and cert.evidence.io

    def test_unaligned_far_pair_is_two_step(self, paper):
        state = make_state(4.7, 0.65, 0.0, 5.2, 0.32)
        cert = dg.certify_win(state, paper)
        assert cert.kind is dg.CertificateKind.TWO_STEP
        assert cert.evidence.sc and not cert.evidence.io
        assert cert.evidence.clearance is not None and cert.evidence.clearance >= 0
        assert cert.evidence.adjust_duration is not None

    def test_two_step_pair_reaches_the_bound_once_through_its_module_binding(
        self, paper, monkeypatch
    ):
        # the benchmark traces the bound by wrapping this binding, so the
        # certificate must reach the bound through it, and only once
        from dubinsguard import certificates

        calls, bound = [], certificates.adjust_time_bound
        monkeypatch.setattr(
            certificates, "adjust_time_bound", lambda *args: calls.append(args) or bound(*args)
        )
        state = make_state(4.7, 0.65, 0.0, 5.2, 0.32)
        cert = dg.certify_win(state, paper)
        assert cert.kind is dg.CertificateKind.TWO_STEP
        assert len(calls) == 1 and calls[0][0] is state
        assert cert.evidence.adjust_duration == bound(state, paper).duration

    def test_separation_failure_is_none(self):
        p = dg.GameParams(2.0, 1.0, 1.0, 0.1)
        state = make_state(0, 3, 0.0, 0, 1)
        cert = dg.certify_win(state, p)
        assert cert.kind is dg.CertificateKind.NONE
        height = aim_point(state.pursuer.pos, state.evader.pos, p.alpha)[1]
        assert cert.evidence.separation == height < 0.0

    def test_separation_is_the_signed_aim_height(self):
        signs = set()
        for state, p in _certify_corpus(np.random.default_rng(93), 300):
            height = aim_point(state.pursuer.pos, state.evader.pos, p.alpha)[1]
            for motion in ("dubins", "simple"):
                ev = dg.certify_win(state, dataclasses.replace(p, motion=motion)).evidence
                assert ev.separation == height
                assert ev.sc == (height >= 0.0)
            signs.add(height >= 0.0)
        assert signs == {True, False}

    def test_zero_clearance_is_a_two_step_certificate(self, paper, monkeypatch):
        # the clearance test is non-strict: a worst-case aim point exactly
        # on the goal line keeps the open evasion region out of the open
        # goal half-plane
        from dataclasses import replace

        from dubinsguard import certificates

        solve = certificates.relaxed_clearance_from_centers
        monkeypatch.setattr(
            certificates,
            "relaxed_clearance_from_centers",
            lambda *args: replace(solve(*args), clearance=0.0),
        )
        cert = dg.certify_win(make_state(4.7, 0.65, 0.0, 5.2, 0.32), paper)
        assert cert.evidence.clearance == 0.0
        assert cert.kind is dg.CertificateKind.TWO_STEP

    def test_error_of_exactly_io_tol_is_aligned(self, paper):
        # the alignment band is closed.  The bearing is about 2.5e-6, so
        # theta = bearing - IO_TOL is exact and the heading error is IO_TOL
        # exactly: an aligned intercept certificate, and the phase machine
        # switches to intercepting
        x_p, x_e = (0.0, 0.5), (0.5, 0.580385472229)
        theta = dg.interception(x_p, x_e, paper.alpha).angle - dg.IO_TOL
        assert dg.heading_error(x_p, theta, x_e, paper.alpha) == dg.IO_TOL
        cert = dg.certify_win(make_state(*x_p, theta, *x_e), paper)
        assert cert.evidence.io and cert.kind is dg.CertificateKind.INTERCEPT
        _, mode = two_step_command(x_p, theta, x_e, (0.0, -1.0), paper, dg.TwoStepState())
        assert mode.phase is dg.Phase.INTERCEPTING

    def test_pair_at_exactly_the_capture_radius_is_not_beyond_capture(self, paper):
        # dist == r holds exactly in floats.  The two-step route needs the
        # pair strictly beyond capture range; a pair on the capture circle
        # counts as captured (``detect_crossing`` takes a value sitting on
        # the threshold as crossed), so it is no two-step certificate
        state = make_state(0.0, 0.5, 1.0, 0.1, 0.5)
        cert = dg.certify_win(state, paper)
        assert cert.evidence.dist == paper.r
        assert cert.evidence.sc and not cert.evidence.io
        assert cert.evidence.beyond_capture is False
        assert cert.kind is dg.CertificateKind.NONE

    def test_simple_motion_needs_separation_only(self):
        p = dg.GameParams(2.0, 1.0, 1.0, 0.1, motion="simple")
        good = dg.certify_win(make_state(0, 2, 0.0, 0, 1), p)
        assert good.kind is dg.CertificateKind.INTERCEPT
        bad = dg.certify_win(make_state(0, 3, 0.0, 0, 1), p)
        assert bad.kind is dg.CertificateKind.NONE

    @pytest.mark.parametrize("motion", ["simpel", "Dubins", "", None])
    def test_unknown_motion_is_refused(self, motion):
        # a misspelt motion must not certify the pair as a car: neither a
        # pair's constants nor a scenario's pursuer can carry it
        message = f"unknown motion kind {motion!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            dg.GameParams(2.0, 1.0, 1.0, 0.1, motion=motion)
        pursuers = [
            dg.PursuerSpec(state=dg.PursuerState(pos=(x, 2.0), theta=0.0), motion=m, v=2.0)
            for x, m in ((0.0, "dubins"), (3.0, motion))
        ]
        evaders = [dg.EvaderSpec(state=dg.EvaderState(pos=(0.0, 1.0)))]
        with pytest.raises(ValueError, match=rf"^invalid scenario: pursuers\[1\]: {message}$"):
            dg.Scenario(pursuers=pursuers, evaders=evaders)


class TestTurnRule:
    """The certificates bound the turn the car makes: near-opposite
    headings, where the shorter sweep is decided by float noise, are the
    states on which a second turn rule could disagree with the strategy."""

    def test_exactly_opposite_state_bounds_the_clockwise_turn(self, paper):
        # heading error exactly pi: the car turns clockwise, and the
        # clearance of that turn is negative, so no certificate is issued
        # (the counter-clockwise turn would have cleared by +6.557e-4).  The
        # screen refutes the pair at a feasible point of the clockwise turn,
        # so the certificate's clearance is that point's, between the
        # closed form and -margin
        state = make_state(
            -0.27057586891169283,
            0.5708685990021566,
            1.8662926706621672,
            -0.12676656193627223,
            0.16656105340535715,
        )
        assert dg.heading_error(*pair_floats(state), paper.alpha) == math.pi
        assert dg.heading_adjust(*pair_floats(state), paper) == -1.0
        assert dg.adjust_time_bound(state, paper).turn_sign == -1.0
        cert = dg.certify_win(state, paper)
        assert cert.kind is dg.CertificateKind.NONE
        assert cert.evidence.scope_ok and cert.evidence.two_step_ok
        solved = dg.solve_relaxed_clearance(state, paper).clearance
        assert solved == pytest.approx(-2.2057e-4, abs=1e-8)
        assert solved <= cert.evidence.clearance < -_witness_margin(paper.alpha, paper.kappa)

    @pytest.mark.parametrize("delta", [0.0, 5e-10, -5e-10, 2e-9])
    def test_bound_strategy_and_phase_machine_turn_alike(self, paper, delta):
        rng = np.random.default_rng(91)
        u_e = np.array([1.0, 0.0])
        for _ in range(250):
            base = dg.sample_adjust_feasible_state(rng, paper)
            x_p, x_e = base.pursuer.pos, base.evader.pos
            bearing = dg.interception(x_p, x_e, paper.alpha).angle
            theta = dg.wrap_angle(bearing + math.pi - delta)
            state = make_state(x_p[0], x_p[1], theta, x_e[0], x_e[1])
            sign = dg.adjust_time_bound(state, paper).turn_sign
            assert dg.heading_adjust(*pair_floats(state), paper) == sign
            command, mode = two_step_command(
                *pair_floats(state), tuple(u_e.tolist()), paper, dg.TwoStepState()
            )
            assert mode.phase is dg.Phase.ADJUSTING
            assert command == sign


def _certify_corpus(rng, n):
    """Seeded pairs for the invariance checks: random positions, a third of
    the headings snapped onto the aim point, and per-pair speed ratio,
    turning radius and capture radius."""
    pairs = []
    for _ in range(n):
        p = dg.GameParams.from_alpha(
            v_p=0.3, alpha=rng.uniform(1.5, 8.0), kappa=rng.uniform(0.01, 0.1), r=rng.uniform(0.01, 0.12)
        )
        x_p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.5)])
        bearing = rng.uniform(0, 2 * math.pi)
        x_e = x_p + rng.uniform(0.15, 1.0) * np.array([math.cos(bearing), math.sin(bearing)])
        theta = rng.uniform(0, 2 * math.pi)
        if rng.uniform() < 1 / 3:
            theta = dg.interception(x_p, x_e, p.alpha).angle
        pairs.append((make_state(x_p[0], x_p[1], theta, x_e[0], x_e[1]), p))
    return pairs


class TestCertifyInvariance:
    def test_mirror_keeps_the_kind(self):
        kinds = set()
        for state, p in _certify_corpus(np.random.default_rng(58), 800):
            (px, py), (ex, ey) = state.pursuer.pos, state.evader.pos
            mirror = make_state(-px, py, math.pi - state.pursuer.theta, -ex, ey)
            kind = dg.certify_win(state, p).kind
            assert dg.certify_win(mirror, p).kind is kind
            kinds.add(kind)
        assert kinds == set(dg.CertificateKind)

    def test_scaling_lengths_keeps_the_kind(self):
        kinds = set()
        for state, p in _certify_corpus(np.random.default_rng(59), 800):
            scaled_p = dg.GameParams(v_p=p.v_p, v_e=p.v_e, kappa=2 * p.kappa, r=2 * p.r)
            (px, py), (ex, ey) = 2 * np.asarray(state.pursuer.pos), 2 * np.asarray(state.evader.pos)
            scaled = make_state(px, py, state.pursuer.theta, ex, ey)
            kind = dg.certify_win(state, p).kind
            assert dg.certify_win(scaled, scaled_p).kind is kind
            kinds.add(kind)
        assert kinds == set(dg.CertificateKind)

    def test_growing_the_capture_radius_keeps_every_certificate(self):
        # radii stay below the corpus's smallest pair distance (0.15), so no
        # pair is inside a grown capture disk; growing r crosses both the
        # demand curve and the heading-adjust ratio for most pairs
        gained = 0
        for state, p in _certify_corpus(np.random.default_rng(60), 400):
            certified = False
            for r in (0.005, 0.02, 0.05, 0.1, 0.149):
                grown = dg.GameParams(v_p=p.v_p, v_e=p.v_e, kappa=p.kappa, r=r)
                now = dg.certify_win(state, grown).kind is not dg.CertificateKind.NONE
                assert now or not certified
                gained += now and not certified and r > 0.005
                certified = now
        assert gained > 100


#: Speed ratios of the screen's corpora, from near 1, where the witness
#: refutes almost every pair, to 40, where almost every pair is certified.
_SCREEN_ALPHAS = (1.05, 1.3, 2.0, 6.3, 15.0, 40.0)


@functools.lru_cache(maxsize=None)
def _screen_corpus(alpha):
    """Seeded states for the two-step screen at speed ratio ``alpha``, with
    r = 0.1 and r/kappa 1e-3 above max(h(alpha), heading-adjust ratio):
    (params, sampled states, near-boundary states).  A near-boundary state
    is a sampled one translated down by s, bisected until the closed-form
    clearance, which falls by exactly s, lies in [0, 1e-9]; its heading,
    turn and scope are the sampled state's."""
    demand = max(dg.curvature_demand(alpha), dg.heading_adjust_ratio(alpha))
    p = dg.GameParams.from_alpha(v_p=0.3, alpha=alpha, kappa=0.1 / (demand * 1.001), r=0.1)
    rng = np.random.default_rng(int(alpha * 100))
    states = [dg.sample_adjust_feasible_state(rng, p) for _ in range(200)]

    def shifted(state, s):
        (px, py), (ex, ey) = state.pursuer.pos, state.evader.pos
        return make_state(px, py - s, state.pursuer.theta, ex, ey - s)

    near = []
    for state in states[:25]:
        value = dg.solve_relaxed_clearance(state, p).clearance
        lo, hi = value - 1e-6, value + 1e-6
        while True:
            mid = shifted(state, 0.5 * (lo + hi))
            value = dg.solve_relaxed_clearance(mid, p).clearance
            if 0.0 <= value <= 1e-9:
                break
            lo, hi = (0.5 * (lo + hi), hi) if value > 0.0 else (lo, 0.5 * (lo + hi))
        near.append(mid)
    return p, states, near


class TestWitnessScreen:
    """The two-step branch refutes a pair whose relaxed objective is below
    -margin at one feasible point before it solves the sextic: a minimum is
    never above a value it takes, so the screen can only withhold a
    certificate the closed form would not issue."""

    @pytest.mark.parametrize("alpha", _SCREEN_ALPHAS)
    def test_witness_is_feasible_and_never_below_the_closed_form(self, alpha):
        p, states, near = _screen_corpus(alpha)
        reach = 2.0 * math.pi * p.kappa / alpha
        refuted = 0
        for state in states + near:
            center = dg.adjust_time_bound(state, p).turn_center
            witness, x_p, x_e = _witness_clearance(center, state.evader.pos, alpha, p.kappa)
            assert math.dist(x_p, center) == pytest.approx(p.kappa, rel=0, abs=1e-14)
            assert math.dist(x_e, state.evader.pos) == pytest.approx(reach, rel=0, abs=1e-14)
            solved = dg.relaxed_clearance_from_centers(center, state.evader.pos, alpha, p.kappa)
            assert witness >= solved.clearance
            refuted += witness < -_witness_margin(alpha, p.kappa)
        assert (refuted > 0) == (alpha < 40.0)

    @pytest.mark.parametrize("alpha", _SCREEN_ALPHAS)
    def test_screen_never_refutes_a_non_negative_closed_form(self, alpha):
        p, _, near = _screen_corpus(alpha)
        for state in near:
            cert = dg.certify_win(state, p)
            assert cert.evidence.scope_ok and cert.evidence.two_step_ok
            assert cert.kind is dg.CertificateKind.TWO_STEP
            assert cert.evidence.clearance == dg.solve_relaxed_clearance(state, p).clearance

    def test_a_screen_that_never_refutes_changes_no_kind(self, monkeypatch):
        corpus = _certify_corpus(np.random.default_rng(61), 800)
        for alpha in _SCREEN_ALPHAS:
            p, states, near = _screen_corpus(alpha)
            corpus += [(state, p) for state in states + near]
        screened = [dg.certify_win(s, p) for s, p in corpus]
        monkeypatch.setattr(
            "dubinsguard.certificates._witness_margin", lambda alpha, kappa: math.inf
        )
        solved = [dg.certify_win(s, p) for s, p in corpus]
        assert [c.kind for c in screened] == [c.kind for c in solved]
        refuted = 0
        for (_, p), a, b in zip(corpus, screened, solved):
            if a.evidence != b.evidence:
                # only a refuted pair's clearance differs: a witness above the
                # closed form, below -margin; it has no solve to anchor on
                refuted += 1
                assert a.kind is dg.CertificateKind.NONE and not a.evidence.solver_failed
                margin = _witness_margin(p.alpha, p.kappa)
                assert b.evidence.clearance <= a.evidence.clearance < -margin
                assert a.evidence.anchor is None and b.evidence.anchor is not None
                same = dataclasses.replace(
                    a.evidence, clearance=b.evidence.clearance, anchor=b.evidence.anchor
                )
                assert same == b.evidence
        # every pair these corpora lose at the sextic is refuted before it
        lost = sum(
            c.kind is dg.CertificateKind.NONE and c.evidence.clearance is not None for c in solved
        )
        assert refuted == lost >= 40
        # no pair of these corpora fails the solver, refuted or not
        assert not any(c.evidence.solver_failed for c in solved)


def _anchored_corpus():
    """Two-step states at speed ratios 2 to 40 whose closed-form clearance
    is at least 0.01, each with its parameters and its solve's anchor."""
    corpus = []
    for alpha in _SCREEN_ALPHAS[2:]:
        p, states, _ = _screen_corpus(alpha)
        for state in states:
            cert = dg.certify_win(state, p)
            if cert.kind is dg.CertificateKind.TWO_STEP and cert.evidence.clearance >= 0.01:
                corpus.append((state, p, cert.evidence.anchor))
    return corpus


class TestClearanceAnchor:
    """A two-step pair's last solve carries its clearance, less the
    objective's Lipschitz bound times the move of the two centres and twice
    the witness margin, while that is at least 0 and the move within the
    cap."""

    def test_a_solve_anchors_at_its_centre_evader_and_clearance(self, paper):
        state = make_state(4.7, 0.65, 0.0, 5.2, 0.32)
        cert = dg.certify_win(state, paper)
        anchor = cert.evidence.anchor
        assert anchor == ClearanceAnchor(
            dg.adjust_time_bound(state, paper).turn_center, (5.2, 0.32), cert.evidence.clearance
        )
        assert not cert.evidence.clearance_carried

    def test_the_carried_bound_is_below_every_solve_within_its_drift(self):
        # the evader moves straight down, where the minimum falls fastest,
        # and the turn centre moves in a random direction: a bound with half
        # the Lipschitz factor lies above the solve
        rng = np.random.default_rng(31)
        corpus = _anchored_corpus()
        assert len(corpus) >= 100
        for _, p, anchor in corpus:
            alpha, margin = p.alpha, _witness_margin(p.alpha, p.kappa)
            for share in (0.0, 0.5, 1.0):
                step = 0.9 * ANCHOR_DRIFT_CAP * (alpha - 1.0) / alpha
                turn = rng.uniform(0.0, 2.0 * math.pi)
                (cx, cy), (ex, ey) = anchor.center, anchor.evader
                x_c = (cx + share * step * math.cos(turn), cy + share * step * math.sin(turn))
                x_e = (ex, ey - (1.0 - share) * step)
                moved = math.dist(x_c, anchor.center) + alpha * math.dist(x_e, anchor.evader)
                drift = moved / (alpha - 1.0)
                carried = anchor.carry(x_c, x_e, alpha, margin)
                solved = dg.relaxed_clearance_from_centers(x_c, x_e, alpha, p.kappa).clearance
                assert carried == anchor.clearance - drift - 2.0 * margin
                assert solved - 2.0 * drift - 4.0 * margin <= carried <= solved

    def test_an_anchor_within_twice_the_margin_of_zero_is_solved_again(self):
        for state, p, anchor in _anchored_corpus()[::10]:
            margin = _witness_margin(p.alpha, p.kappa)
            low = dataclasses.replace(anchor, clearance=1.99 * margin)
            cert = dg.certify_win(state, p, low)
            assert not cert.evidence.clearance_carried
            assert cert.evidence.anchor == anchor
            high = dataclasses.replace(anchor, clearance=2.01 * margin)
            cert = dg.certify_win(state, p, high)
            assert cert.kind is dg.CertificateKind.TWO_STEP
            assert cert.evidence.clearance_carried and cert.evidence.anchor is high
            assert cert.evidence.clearance == high.clearance - 2.0 * margin

    def test_an_anchor_past_the_cap_is_solved_again(self):
        for state, p, anchor in _anchored_corpus()[::10]:
            margin = _witness_margin(p.alpha, p.kappa)
            ex, ey = anchor.evader
            for factor, carries in ((0.99, True), (1.01, False)):
                # the same state, anchored as if the evader had moved
                moved = dataclasses.replace(
                    anchor, evader=(ex + factor * ANCHOR_DRIFT_CAP * (p.alpha - 1.0) / p.alpha, ey)
                )
                cert = dg.certify_win(state, p, moved)
                assert cert.kind is dg.CertificateKind.TWO_STEP
                assert cert.evidence.clearance_carried is carries
                if carries:
                    assert cert.evidence.clearance == pytest.approx(
                        anchor.clearance - factor * ANCHOR_DRIFT_CAP - 2.0 * margin, rel=0, abs=1e-15
                    )
                else:
                    assert cert.evidence.anchor == anchor

    def test_an_anchor_carries_a_near_end_pair_below_its_solve(self):
        # off-axis pairs whose minimiser's root lies within 1e-9 of a bracket
        # end but off it, where the root's rounding is magnified through phi:
        # each solves to TWO_STEP, and on an anchor within the cap, here the
        # solve at the exactly vertical centre, it is TWO_STEP on a carried
        # bound at or below that solve
        carried = 0
        for x_p, theta, x_e, p in _near_vertical_corpus(np.random.default_rng(29), 80):
            state = make_state(*x_p, theta, *x_e)
            center = dg.adjust_time_bound(state, p).turn_center
            lam = dg.relaxed_clearance_from_centers(center, x_e, p.alpha, p.kappa).multiplier
            if center[0] == x_e[0] or not 0.0 < min(lam - p.alpha + 1.0, p.alpha + 1.0 - lam) <= 1e-9:
                continue
            unanchored = dg.certify_win(state, p)
            assert unanchored.kind is dg.CertificateKind.TWO_STEP
            assert not unanchored.evidence.solver_failed
            vertical = (center[0], x_e[1])
            solved = dg.relaxed_clearance_from_centers(center, vertical, p.alpha, p.kappa).clearance
            anchor = ClearanceAnchor(center, vertical, solved)
            cert = dg.certify_win(state, p, anchor)
            assert cert.kind is dg.CertificateKind.TWO_STEP
            assert cert.evidence.clearance_carried and cert.evidence.anchor is anchor
            assert 0.0 <= cert.evidence.clearance <= unanchored.evidence.clearance
            carried += 1
        assert carried == 16

    def test_the_carry_is_decided_before_any_solve(self, monkeypatch):
        # a pair whose solve would fail is still TWO_STEP on an anchor
        # within the cap
        from dubinsguard import certificates

        state, p, anchor = _anchored_corpus()[0]

        def failing(*args):
            raise certificates.KKTReconstructionError("no KKT point")

        monkeypatch.setattr(certificates, "relaxed_clearance_from_centers", failing)
        cert = dg.certify_win(state, p, anchor)
        assert cert.kind is dg.CertificateKind.TWO_STEP
        assert cert.evidence.clearance_carried and not cert.evidence.solver_failed
        assert cert.evidence.clearance == anchor.clearance - 2.0 * _witness_margin(p.alpha, p.kappa)

    def test_a_refuted_or_failed_pair_carries_nothing(self, monkeypatch):
        from dubinsguard import certificates

        state, p, anchor = _anchored_corpus()[0]
        # a witness below -margin refutes the pair before any anchor is read
        monkeypatch.setattr(certificates, "_witness_clearance", lambda *args: (-1.0, None, None))
        cert = dg.certify_win(state, p, dataclasses.replace(anchor, clearance=1.0))
        assert cert.kind is dg.CertificateKind.NONE
        assert cert.evidence.anchor is None and not cert.evidence.clearance_carried
        monkeypatch.undo()

        def failing(*args):
            raise certificates.KKTReconstructionError("no KKT point")

        monkeypatch.setattr(certificates, "relaxed_clearance_from_centers", failing)
        far = dataclasses.replace(anchor, evader=(anchor.evader[0] + 1.0, anchor.evader[1]))
        cert = dg.certify_win(state, p, far)
        assert cert.kind is dg.CertificateKind.NONE and cert.evidence.solver_failed
        assert cert.evidence.anchor is None
        # ``build_graph`` drops the failed pair's anchor, and keeps the others
        kept = dataclasses.replace(anchor, clearance=-1.0)
        anchors = {(0, 0): far, (0, 1): kept}
        dg.build_graph({(0, 0): state}, {(0, 0): p}, 1, anchors)
        assert anchors == {(0, 1): kept}
