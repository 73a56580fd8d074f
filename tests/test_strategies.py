import math

import numpy as np
import pytest

import dubinsguard as dg
from conftest import (
    aligned_state,
    bare_intercept_run,
    make_state,
    pair_floats,
    reference_evader_optimal,
    reference_pursuit_intercept,
    reference_two_step,
)
from dubinsguard.geometry import aim_bearing, aim_point
from dubinsguard.strategies import _gains, two_step_command


class TestPursuitSimple:
    def test_vertical_examples(self):
        assert dg.pursuit_simple((0, 2), (0, 1), 2.0) == pytest.approx([0, -1])
        assert dg.pursuit_simple((0, 0), (0, 3), 6.3) == pytest.approx([0, 1])

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x_p = rng.normal(size=2)
            x_e = x_p + rng.normal(size=2)
            if np.linalg.norm(x_p - x_e) < 1e-3:
                continue
            alpha = rng.uniform(1.2, 6.0)
            u = dg.pursuit_simple(x_p, x_e, alpha)
            mirrored = dg.pursuit_simple(x_p * [-1, 1], x_e * [-1, 1], alpha)
            assert mirrored == pytest.approx(np.multiply(u, [-1, 1]), abs=1e-12)


class TestInterceptGains:
    def test_vertical_offset(self):
        p = dg.GameParams(v_p=2.0, v_e=1.0, kappa=0.5, r=0.1)
        vx, vy, bias = _gains((0.0, 1.0), (0.0, 0.0), p.alpha, p.kappa)
        assert [vx, vy] == pytest.approx([1 / 6, 0.0], abs=1e-15)
        assert bias == pytest.approx(0.0, abs=1e-15)

    def test_horizontal_offset(self):
        p = dg.GameParams(v_p=2.0, v_e=1.0, kappa=0.5, r=0.1)
        vx, vy, bias = _gains((1.0, 0.0), (0.0, 0.0), p.alpha, p.kappa)
        assert [vx, vy] == pytest.approx([0.0, -0.2], abs=1e-15)
        assert bias == pytest.approx(-2 / 5**1.5, abs=1e-15)

    def test_pursuer_below_evader(self):
        p = dg.GameParams(v_p=2.0, v_e=1.0, kappa=0.5, r=0.1)
        vx, vy, bias = _gains((0.0, 0.0), (0.0, 1.0), p.alpha, p.kappa)
        assert [vx, vy] == pytest.approx([-0.5, 0.0], abs=1e-15)
        assert bias == pytest.approx(0.0, abs=1e-15)

    def test_rejects_coincident(self):
        p = dg.GameParams(v_p=2.0, v_e=1.0, kappa=0.5, r=0.1)
        with pytest.raises(ValueError):
            _gains((1.0, 1.0), (1.0, 1.0), p.alpha, p.kappa)

    def test_magnitude_bound_under_feasible_parameters(self, paper):
        # worst-case |turn command| over all unit evader controls is
        # ||vec|| + |bias|; must stay admissible whenever the pair is at
        # least a capture radius apart
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(10_000):
            x_p = rng.uniform(-1, 1, size=2)
            bearing = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(paper.r, 2.0)
            x_e = x_p + dist * np.array([math.cos(bearing), math.sin(bearing)])
            vx, vy, bias = _gains(tuple(x_p), tuple(x_e), paper.alpha, paper.kappa)
            worst = max(worst, float(np.linalg.norm([vx, vy])) + abs(bias))
        assert worst <= 1.0 + 1e-9


class TestPursuitIntercept:
    def test_vertical_config_responses(self):
        p = dg.GameParams(v_p=2.0, v_e=1.0, kappa=0.5, r=0.1)
        assert dg.pursuit_intercept((0, 1), (0, 0), (1, 0), p) == pytest.approx(1 / 6)
        # evader running straight down the common axis: pure pursuit line
        assert dg.pursuit_intercept((0, 1), (0, 0), (0, -1), p) == pytest.approx(0.0)

    def test_clamp_diagnostics(self):
        # grossly infeasible parameters force |command| > 1
        p = dg.GameParams(v_p=2.0, v_e=1.0, kappa=50.0, r=0.1)
        diag = dg.ClampDiagnostics()
        u = dg.pursuit_intercept((0, 1), (0, 0), (1, 0), p, diag)
        assert abs(u) <= 1.0
        assert diag.events == 1
        assert diag.max_excess > 1e-9


class TestHeadingAdjust:
    def _state_with_error(self, delta):
        data = dg.interception((0, 2), (1, 1), 3.0)
        return pair_floats(make_state(0, 2, dg.wrap_angle(data.angle - delta), 1, 1))

    def test_turns_toward_shorter_sweep(self):
        p = dg.GameParams(3.0, 1.0, 1.0, 0.1)
        assert dg.heading_adjust(*self._state_with_error(math.pi / 4), p) == 1.0
        assert dg.heading_adjust(*self._state_with_error(-math.pi / 4), p) == -1.0

    def test_opposite_heading_turns_clockwise(self):
        p = dg.GameParams(3.0, 1.0, 1.0, 0.1)
        assert dg.heading_adjust(*self._state_with_error(math.pi), p) == -1.0


class TestTwoStep:
    def test_already_aligned_goes_straight_to_intercept(self, paper):
        state = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        u_e = dg.evader_optimal(state.pursuer.pos, state.evader.pos, paper.alpha)
        mode = dg.TwoStepState()
        u, mode = two_step_command(*pair_floats(state), u_e, paper, mode)
        assert mode.phase is dg.Phase.INTERCEPTING
        assert u == pytest.approx(
            dg.pursuit_intercept(state.pursuer.pos, state.evader.pos, u_e, paper)
        )

    def test_unaligned_returns_bang_command(self, paper):
        data = dg.interception((0, 0.9), (0.3, 0.4), paper.alpha)
        state = make_state(0, 0.9, dg.wrap_angle(data.angle + 1.0), 0.3, 0.4)
        mode = dg.TwoStepState()
        u, mode = two_step_command(*pair_floats(state), (0, -1), paper, mode)
        assert u in (-1.0, 1.0)
        assert mode.phase is dg.Phase.ADJUSTING
        assert mode.last_error is not None

    def test_zero_crossing_triggers_transition(self, paper):
        data = dg.interception((0, 0.9), (0.3, 0.4), paper.alpha)
        before = make_state(0, 0.9, dg.wrap_angle(data.angle - 1e-4), 0.3, 0.4)
        after = make_state(0, 0.9, dg.wrap_angle(data.angle + 1e-4), 0.3, 0.4)
        mode = dg.TwoStepState()
        _, mode = two_step_command(*pair_floats(before), (0, -1), paper, mode)
        assert mode.phase is dg.Phase.ADJUSTING
        _, mode = two_step_command(*pair_floats(after), (0, -1), paper, mode)
        assert mode.phase is dg.Phase.INTERCEPTING

    def test_transition_happens_once(self, paper):
        state = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        u_e = dg.evader_optimal(state.pursuer.pos, state.evader.pos, paper.alpha)
        mode = dg.TwoStepState(phase=dg.Phase.INTERCEPTING)
        _, mode2 = two_step_command(*pair_floats(state), u_e, paper, mode)
        assert mode2 is mode

    def test_infeasible_parameters_keep_adjusting(self, paper):
        # aligned, but r < kappa * h(alpha): the tracking command is not
        # admissible, so the car must not switch
        tiny_r = dg.GameParams.from_alpha(
            v_p=paper.v_p, alpha=paper.alpha, kappa=paper.kappa, r=1e-3
        )
        assert not dg.intercept_feasible(tiny_r.r, tiny_r.kappa, tiny_r.alpha)
        state = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        u, mode = two_step_command(*pair_floats(state), (0, -1), tiny_r, dg.TwoStepState())
        assert mode.phase is dg.Phase.ADJUSTING
        assert mode.last_error is not None
        assert abs(mode.last_error) <= dg.IO_TOL
        assert u in (-1.0, 1.0)

    def test_intercepting_records_clamps_on_the_given_diagnostics(self):
        p = dg.GameParams(v_p=2.0, v_e=1.0, kappa=50.0, r=0.1)
        diag = dg.ClampDiagnostics()
        mode = dg.TwoStepState(phase=dg.Phase.INTERCEPTING)
        u, _ = two_step_command((0.0, 1.0), 0.0, (0.0, 0.0), (1, 0), p, mode, diag)
        assert abs(u) <= 1.0
        assert diag.events == 1
        assert diag.max_excess > 1e-9

    def test_adjusting_command_is_the_heading_adjust_law(self, paper):
        rng = np.random.default_rng(41)
        for _ in range(200):
            x_p = rng.uniform(-1, 1, size=2)
            x_e = x_p + rng.uniform(0.2, 1.0) * rng.normal(size=2)
            state = make_state(x_p[0], x_p[1], rng.uniform(0, 2 * math.pi), x_e[0], x_e[1])
            u, mode = two_step_command(*pair_floats(state), (0, -1), paper, dg.TwoStepState())
            if mode.phase is dg.Phase.ADJUSTING:
                assert u == dg.heading_adjust(*pair_floats(state), paper)
                assert mode.last_error == dg.heading_error(*pair_floats(state), paper.alpha)


class TestEvaderStrategies:
    def test_optimal_examples(self):
        p2 = dg.GameParams(2.0, 1.0, 1.0, 0.1)
        assert dg.evader_optimal((0, 2), (0, 1), p2.alpha) == pytest.approx([0, -1])
        p63 = dg.GameParams.from_alpha(0.3, 6.3, 0.0625, 0.1)
        assert dg.evader_optimal((0, 0), (0, 3), p63.alpha) == pytest.approx([0, -1])

    def test_optimal_mirror_symmetry(self):
        p = dg.GameParams(2.0, 1.0, 1.0, 0.1)
        u = dg.evader_optimal((0.5, 2), (0.2, 1), p.alpha)
        m = dg.evader_optimal((-0.5, 2), (-0.2, 1), p.alpha)
        assert m == pytest.approx(np.multiply(u, [-1, 1]), abs=1e-12)

    def test_constant_examples(self):
        assert dg.evader_constant(3 * math.pi / 2) == pytest.approx([0, -1])
        assert dg.evader_constant(0.0) == pytest.approx([1, 0])
        assert dg.evader_constant(math.pi) == pytest.approx([-1, 0], abs=1e-15)

    def test_random_goal_heads_downward_and_is_deterministic(self):
        a = dg.evader_random_goal(np.random.default_rng(5))
        b = dg.evader_random_goal(np.random.default_rng(5))
        assert a == b
        rng = np.random.default_rng(6)
        for _ in range(1000):
            assert math.sin(dg.evader_random_goal(rng)) < 0

    def test_random_goal_mean_descent_rate(self):
        rng = np.random.default_rng(7)
        samples = [math.sin(dg.evader_random_goal(rng)) for _ in range(10_000)]
        assert np.mean(samples) == pytest.approx(-2 / math.pi, abs=0.02)


class TestInterceptDynamics:
    """Discrete-time behavior of the interception-tracking strategy."""

    def test_clearance_conserved_against_best_response(self, paper):
        state = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        dt = 1e-4
        rhos, us, errs, captured = bare_intercept_run(
            state, paper, dt, 10_000, lambda x_p, x_e: dg.evader_optimal(x_p, x_e, paper.alpha)
        )
        assert captured is None
        drift = max(abs(r - rhos[0]) for r in rhos)
        assert drift <= 10 * dt
        assert max(abs(u) for u in us) <= 1 + 1e-9

    def test_clearance_monotone_against_constant_headings(self, paper):
        state = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        dt = 1e-3
        rng = np.random.default_rng(41)
        for _ in range(20):
            heading = rng.uniform(0, 2 * math.pi)
            rhos, _, _, _ = bare_intercept_run(
                state, paper, dt, 1000, dg.evader_constant(heading)
            )
            drops = [b - a for a, b in zip(rhos, rhos[1:])]
            assert min(drops, default=0.0) >= -10 * dt * dt

    def test_alignment_persists(self, paper):
        # without any snap the wrapped error must stay within ten alignment
        # tolerances over a full time unit
        state = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
        rng = np.random.default_rng(42)
        for _ in range(5):
            heading = rng.uniform(0, 2 * math.pi)
            _, _, errs, _ = bare_intercept_run(
                state,
                paper,
                1e-4,
                10_000,
                dg.evader_constant(heading),
                snap_band=None,
            )
            assert max(errs) <= 10 * dg.IO_TOL

    def test_adjustment_alignment_progress(self, paper):
        # full-rate heading adjustment: the alignment cosine never decreases
        # until the error crosses zero, for any constant evader heading
        rng = np.random.default_rng(43)
        for _ in range(5):
            state = dg.sample_adjust_feasible_state(rng, paper, d_range=(0.35, 1.0))
            heading = rng.uniform(0, 2 * math.pi)
            u_e = dg.evader_constant(heading)
            ps, es = state.pursuer, state.evader
            dt = 1e-3
            q_prev = None
            last_err = None
            for _step in range(2000):
                err = dg.heading_error(ps.pos, ps.theta, es.pos, paper.alpha)
                crossed = (
                    last_err is not None
                    and (err > 0) != (last_err > 0)
                    and abs(err) < 0.5 * math.pi
                    and abs(last_err) < 0.5 * math.pi
                )
                if abs(err) <= 1e-6 or crossed:
                    break
                q = math.cos(err)
                if q_prev is not None:
                    assert q >= q_prev - 1e-12
                q_prev = q
                last_err = err
                u = dg.heading_adjust(ps.pos, ps.theta, es.pos, paper)
                x, y, theta = dg.step_pursuer(*ps.pos, ps.theta, u, dt, paper.v_p, paper.kappa)
                ps = dg.PursuerState(pos=(x, y), theta=theta)
                es = dg.EvaderState(pos=dg.step_evader(*es.pos, u_e, dt, paper.v_e))
            else:
                pytest.fail("alignment not reached within the horizon")


class TestFloatCoreMatchesReference:
    # the float-level phase machine, intercept command and evader best
    # response give the pre-float strategies' commands, phase states and
    # clamp records bit for bit
    @staticmethod
    def _corpus(paper):
        rng = np.random.default_rng(73)
        tiny_r = dg.GameParams(v_p=paper.v_p, v_e=paper.v_e, kappa=paper.kappa, r=1e-3)
        modes = [dg.TwoStepState(), dg.TwoStepState(dg.Phase.INTERCEPTING)]
        modes += [dg.TwoStepState(last_error=e) for e in (1e-3, -1e-3, 0.4, -0.4, 2.0, -2.0)]
        for k in range(150):
            x_p = rng.uniform(-1, 1, size=2)
            # some evaders close enough for the tracking command to clamp
            x_e = x_p + rng.normal(scale=0.15 if k % 4 else 0.01, size=2)
            p = tiny_r if k % 7 == 0 else paper
            x, y, _ = aim_point(x_p, x_e, p.alpha)
            aim = aim_bearing(x_p, x, y)
            offsets = [0.0, 5e-7, -5e-7, 2e-6, math.pi, rng.uniform(-math.pi, math.pi)]
            offsets += [math.pi + d for d in (1e-10, -1e-10, 2e-9, -2e-9, 1e-12)]
            a = rng.uniform(0, 2 * math.pi)
            u_e = rng.uniform(0, 1) * np.array([math.cos(a), math.sin(a)])
            for off in offsets:
                theta = dg.wrap_angle(aim + off)
                for mode in modes:
                    yield make_state(*x_p, theta, *x_e), u_e, p, mode

    def test_two_step(self, paper):
        diags = [dg.ClampDiagnostics() for _ in range(2)]
        phases = set()
        for state, u_e, p, mode in self._corpus(paper):
            want = reference_two_step(state, u_e, p, mode, diags[0])
            car = state.pursuer
            got = two_step_command(
                car.pos, car.theta, state.evader.pos, tuple(u_e.tolist()), p, mode, diags[1]
            )
            assert type(got[0]) is float
            assert repr(got) == repr(want)
            phases.add((mode.phase, want[1].phase))
        assert len(phases) == 3
        assert diags[0].events > 0
        clamps = [(d.events, d.max_excess) for d in diags]
        assert clamps[1] == clamps[0]

    def test_pursuit_intercept(self, paper):
        for state, u_e, p, mode in self._corpus(paper):
            if mode != dg.TwoStepState():
                continue
            want = reference_pursuit_intercept(state, u_e, p)
            x_p, x_e = state.pursuer.pos, state.evader.pos
            got = dg.pursuit_intercept(x_p, x_e, tuple(u_e.tolist()), p)
            assert type(got) is float and repr(got) == repr(want)
            assert repr(dg.pursuit_intercept(x_p, x_e, u_e, p)) == repr(want)

    def test_evader_optimal(self):
        # float tuples, as the simulator passes them, and arrays alike
        rng = np.random.default_rng(74)
        for k in range(2000):
            x_p = rng.uniform(-2, 2, size=2)
            x_e = x_p + rng.normal(scale=1.0 if k % 3 else 1e-3, size=2)
            p = dg.GameParams.from_alpha(
                v_p=0.3, alpha=float(rng.uniform(1.05, 12.0)), kappa=0.0625, r=0.1
            )
            state = make_state(*x_p, 0.0, *x_e)
            want = repr(tuple(reference_evader_optimal(state, p).tolist()))
            x_p_f, _, x_e_f = pair_floats(state)
            assert repr(dg.evader_optimal(x_p_f, x_e_f, p.alpha)) == want
            assert repr(dg.evader_optimal(x_p, x_e, p.alpha)) == want
