import collections
import dataclasses
import functools
import importlib.util
import math
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import dubinsguard as dg
from conftest import aligned_state, er_goal_distance
from dubinsguard import certificates, sim
from dubinsguard.geometry import aim_bearing, aim_point, lowest_point


def test_detect_crossing_examples():
    assert dg.detect_crossing(2.0, 0.0, 1.0) == pytest.approx(0.5)
    assert dg.detect_crossing(0.5, 0.4, 1.0) is None
    # sitting exactly on the threshold counts as crossed immediately
    assert dg.detect_crossing(1.0, 1.0, 1.0) == 0.0
    assert dg.detect_crossing(1.0, 2.0, 1.5) is None


def _pursuer(x, y, theta, motion="dubins"):
    return dg.PursuerSpec(
        state=dg.PursuerState(pos=(x, y), theta=theta),
        motion=motion,
        v=0.3,
        kappa=0.0625,
        r=0.1,
    )


def _evader(x, y, strategy="optimal", heading=None):
    return dg.EvaderSpec(
        state=dg.EvaderState(pos=(x, y)),
        v=0.3 / 6.3,
        strategy=strategy,
        heading=heading,
    )


def _aligned_duel(strategy="optimal", heading=None):
    """1v1 with separation and alignment holding at the start."""
    data = dg.interception((0.0, 0.95), (0.35, 0.40), 6.3)
    return dg.Scenario(
        pursuers=(_pursuer(0.0, 0.95, data.angle),),
        evaders=(_evader(0.35, 0.40, strategy, heading),),
        seed=3,
    )


def _clearances(result, sc):
    p = sc.pair_params(0, 0)
    rows_p = result.trajectories["P1"]
    rows_e = result.trajectories["E1"]
    out = []
    for rp, re in zip(rows_p, rows_e):
        out.append(er_goal_distance((rp[1], rp[2]), (re[1], re[2]), p.alpha))
    return out


class TestAlignedDuel:
    def test_capture_and_clearance_never_lost(self):
        sc = _aligned_duel()
        cfg = dg.SimConfig(dt=1e-3, max_time=6.0)
        result = dg.run(sc, cfg)
        assert result.outcome == {0: "captured"}
        assert not result.horizon_exceeded
        clear = _clearances(result, sc)
        assert clear[-1] >= clear[0] - 10 * cfg.dt
        assert result.clamp_events == 0

    def test_pursuer_turn_commands_recorded_and_admissible(self):
        sc = _aligned_duel()
        result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=6.0))
        commands = [row[4] for row in result.trajectories["P1"] if row[4] is not None]
        assert commands
        assert max(abs(u) for u in commands) <= 1 + 1e-9

    def test_deterministic_rerun_is_bit_identical(self):
        sc = _aligned_duel(strategy="random_goal")
        cfg = dg.SimConfig(dt=1e-3, max_time=6.0)
        assert dg.run(sc, cfg) == dg.run(sc, cfg)

    def test_capture_time_stable_under_dt_halving(self):
        sc = _aligned_duel()
        t_coarse = next(
            e.t for e in dg.run(sc, dg.SimConfig(dt=1e-3, max_time=6.0)).events
            if e.kind == "capture"
        )
        t_fine = next(
            e.t for e in dg.run(sc, dg.SimConfig(dt=5e-4, max_time=6.0)).events
            if e.kind == "capture"
        )
        assert abs(t_coarse - t_fine) < 5e-3

    def test_capture_event_is_on_the_capture_circle(self):
        sc = _aligned_duel()
        result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=6.0))
        final_p = result.trajectories["P1"][-1]
        final_e = result.trajectories["E1"][-1]
        dist = math.hypot(final_p[1] - final_e[1], final_p[2] - final_e[2])
        assert dist <= 0.1 + 1e-9


class TestTwoStepDuel:
    def _scenario(self, heading):
        sc = dg.Scenario(
            pursuers=(_pursuer(4.7, 0.65, 0.0),),
            evaders=(_evader(5.2, 0.32, "constant", heading),),
            seed=0,
        )
        p = sc.pair_params(0, 0)
        state = dg.JointState(pursuer=sc.pursuers[0].state, evader=sc.evaders[0].state)
        cert = dg.certify_win(state, p)
        assert cert.kind is dg.CertificateKind.TWO_STEP
        return sc, dg.adjust_time_bound(state, p).duration

    @pytest.mark.parametrize("heading", [4.0, 5.2, 0.7])
    def test_alignment_before_bound_and_no_goal_arrival(self, heading):
        sc, duration = self._scenario(heading)
        cfg = dg.SimConfig(dt=1e-3, max_time=8.0)
        result = dg.run(sc, cfg)
        io_events = [e for e in result.events if e.kind == "io_achieved"]
        assert io_events
        assert io_events[0].t <= duration + cfg.dt
        assert all(e.kind != "goal_arrival" for e in result.events)
        assert result.outcome == {0: "captured"}


class TestMultiplayerMechanics:
    def test_horizon_exceeded_reported(self):
        sc = _aligned_duel()
        result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=0.05))
        assert result.horizon_exceeded
        assert result.outcome == {0: "active"}

    def test_timestamps_strictly_increasing(self):
        sc = _aligned_duel(strategy="random_goal")
        result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=1.0))
        for series in result.trajectories.values():
            ts = [row[0] for row in series]
            assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_simple_motion_pursuer_captures(self):
        sc = dg.Scenario(
            pursuers=(_pursuer(0.0, 0.95, 0.0, motion="simple"),),
            evaders=(_evader(0.35, 0.40, "optimal"),),
            seed=0,
        )
        result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=6.0))
        assert result.outcome == {0: "captured"}

    def test_sticky_matching_runs(self):
        sc = _aligned_duel(strategy="random_goal")
        cfg = dg.SimConfig(dt=1e-3, max_time=6.0, sticky=True)
        result = dg.run(sc, cfg)
        assert result.outcome == {0: "captured"}

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError, match=r"evaders\[0\]: not in play region"):
            dg.Scenario(
                pursuers=(_pursuer(0, 1, 0.0),),
                evaders=(_evader(0.0, -1.0),),
                seed=0,
            )

    def test_goal_arrival_detected_for_undefended_evader(self):
        # pursuer far away and slow to engage; evader dives straight down
        sc = dg.Scenario(
            pursuers=(_pursuer(30.0, 0.5, 0.0),),
            evaders=(_evader(0.0, 0.05, "constant", heading=4.71238898038469),),
            seed=0,
        )
        result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=3.0))
        arrivals = [e for e in result.events if e.kind == "goal_arrival"]
        assert result.outcome == {0: "reached_goal"}
        assert len(arrivals) == 1
        final_e = result.trajectories["E1"][-1]
        assert final_e[2] <= 1e-12


class TestGoldenNarrative:
    def test_leftover_pair_adjusts_aligns_then_captures(self):
        # the initially uncertified pair must play out as: heading
        # adjustment, alignment achieved, interception, capture - in that
        # order, with the certificate appearing once aligned
        from importlib import resources
        from dubinsguard.cli import load_scenario

        with resources.as_file(
            resources.files("dubinsguard") / "scenarios" / "5v5_paper.json"
        ) as path:
            sc = load_scenario(path)
        result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=8.0, matching_period=20))
        io_t = next(
            e.t for e in result.events
            if e.kind == "io_achieved" and e.pursuer == 1 and e.evader == 4
        )
        capture_t = next(
            e.t for e in result.events
            if e.kind == "capture" and e.pursuer == 1 and e.evader == 4
        )
        certified_t = next(
            t for t, matched, _ in result.matching_history if (1, 4) in matched
        )
        assert 0.0 < io_t <= certified_t <= capture_t
        # while adjusting the pursuer holds a full-rate turn command
        adjust_commands = [
            row[4]
            for row in result.trajectories["P2"]
            if row[4] is not None and row[0] < io_t and row[5] == "adjust"
        ]
        assert adjust_commands
        assert all(u in (-1.0, 1.0) for u in adjust_commands)


#: Events of the bundled 5v5 at dt=1e-3, max_time=8, matching_period=20, as
#: (kind, pursuer, evader, t), recorded before the simulator drove its cars
#: through the strategies' shared phase machine (now
#: ``strategies.two_step_command``).  P3 and P4 start aligned on certified
#: pairs, so their entries into interception are logged at t = 0.
GOLDEN_5V5_P20_EVENTS = [
    ("matching_changed", None, None, 0.0),
    ("io_achieved", 2, 2, 0.0),
    ("io_achieved", 3, 1, 0.0),
    ("io_achieved", 4, 0, 0.1520000000000001),
    ("io_achieved", 0, 3, 0.1530000000000001),
    ("io_achieved", 1, 4, 0.6400000000000005),
    ("matching_changed", None, None, 0.6600000000000005),
    ("capture", 3, 1, 1.3272629540227086),
    ("capture", 2, 2, 1.3393631027665764),
    ("matching_changed", None, None, 1.3399999999999632),
    ("capture", 0, 3, 1.6624673646456394),
    ("matching_changed", None, None, 1.6799999999999258),
    ("io_achieved", 2, 0, 1.6829999999999254),
    ("io_achieved", 3, 0, 1.6849999999999252),
    ("io_achieved", 0, 0, 1.8089999999999116),
    ("capture", 4, 0, 1.8855138391329977),
    ("capture", 1, 4, 1.8983869036620542),
]


def test_bundled_5v5_reproduces_its_recorded_events():
    from dubinsguard.cli import load_scenario

    with resources.as_file(
        resources.files("dubinsguard") / "scenarios" / "5v5_paper.json"
    ) as path:
        sc = load_scenario(path)
    result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=8.0, matching_period=20))
    got = [(e.kind, e.pursuer, e.evader) for e in result.events]
    assert got == [event[:3] for event in GOLDEN_5V5_P20_EVENTS]
    times = [e.t for e in result.events]
    assert times == pytest.approx([event[3] for event in GOLDEN_5V5_P20_EVENTS], abs=1e-9)


class TestCertifiedPairsNeverLoseGoal:
    def test_randomized_corpus(self, paper):
        # any pair certified for direct interception at the start never
        # exhibits a goal arrival, whatever constant heading the evader runs
        rng = np.random.default_rng(71)
        runs = 0
        trials = 0
        while runs < 100 and trials < 1000:
            trials += 1
            px = rng.uniform(-1, 1)
            py = rng.uniform(0.3, 1.2)
            ex = px + rng.uniform(-0.6, 0.6)
            ey = max(0.05, py + rng.uniform(-0.8, -0.1))
            try:
                state = aligned_state(px, py, ex, ey, paper.alpha)
            except ValueError:
                continue
            cert = dg.certify_win(state, paper)
            if cert.kind is not dg.CertificateKind.INTERCEPT:
                continue
            heading = rng.uniform(0, 2 * math.pi)
            try:
                sc = dg.Scenario(
                    pursuers=(
                        dg.PursuerSpec(
                            state=state.pursuer, v=0.3, kappa=0.0625, r=0.1
                        ),
                    ),
                    evaders=(
                        dg.EvaderSpec(
                            state=state.evader,
                            v=0.3 / 6.3,
                            strategy="constant",
                            heading=heading,
                        ),
                    ),
                    seed=runs,
                )
            except ValueError:
                continue
            result = dg.run(
                sc, dg.SimConfig(dt=2e-3, max_time=2.5, matching_period=5)
            )
            assert all(e.kind != "goal_arrival" for e in result.events)
            # separation is maintained throughout the run
            rows_p = result.trajectories["P1"]
            rows_e = result.trajectories["E1"]
            for rp, re in zip(rows_p[::25], rows_e[::25]):
                assert (
                    er_goal_distance((rp[1], rp[2]), (re[1], re[2]), paper.alpha)
                    >= -1e-9
                )
            runs += 1
        assert runs == 100


def _scalar_captures(prev, dist, radii, active):
    """Per-pair reference for ``detect_captures``: earliest crossing per
    evader, the first pursuer on equal fractions."""
    found = {}
    for j in range(prev.shape[1]):
        if not active[j]:
            continue
        for i in range(prev.shape[0]):
            frac = dg.detect_crossing(float(prev[i, j]), float(dist[i, j]), radii[i])
            if frac is not None and (j not in found or frac < found[j][0]):
                found[j] = (frac, i)
    return found


class TestDetectCaptures:
    @pytest.mark.parametrize("n_p,n_e", [(3, 5), (5, 3), (4, 4)])
    def test_matches_the_per_pair_loop(self, n_p, n_e):
        rng = np.random.default_rng(100 * n_p + n_e)
        for _ in range(200):
            radii = rng.choice([0.05, 0.1, 0.15], size=n_p)
            prev = rng.uniform(0.0, 0.25, (n_p, n_e))
            dist = prev - rng.uniform(-0.05, 0.15, (n_p, n_e))
            # distances exactly on the capture circle, before and after
            on = rng.random((n_p, n_e)) < 0.2
            prev[on] = np.broadcast_to(radii[:, None], (n_p, n_e))[on]
            on = rng.random((n_p, n_e)) < 0.2
            dist[on] = np.broadcast_to(radii[:, None], (n_p, n_e))[on]
            active = rng.random(n_e) < 0.8
            got = dg.detect_captures(prev, dist, radii, active)
            assert got == _scalar_captures(prev, dist, radii, active)
            assert all(type(f) is float and type(i) is int for f, i in got.values())

    def test_equal_fractions_go_to_the_lowest_pursuer(self):
        radii = np.array([0.1, 0.2, 0.1, 0.1])
        prev = np.full((4, 2), 1.0)
        dist = np.full((4, 2), 1.0)
        prev[[2, 3], 0] = 0.3
        dist[[2, 3], 0] = 0.05
        prev[[1, 3], 1] = [0.2, 0.1]  # both already on their circles: fraction 0
        dist[[1, 3], 1] = [0.15, 0.1]
        active = np.array([True, True])
        got = dg.detect_captures(prev, dist, radii, active)
        assert got[0] == (pytest.approx(0.8), 2)
        assert got[1] == (0.0, 1)
        assert got == _scalar_captures(prev, dist, radii, active)

    def test_inactive_evaders_are_skipped(self):
        radii = np.array([0.1])
        got = dg.detect_captures(
            np.array([[0.2, 0.2]]), np.array([[0.0, 0.0]]), radii, np.array([False, True])
        )
        assert got == {1: (0.5, 0)}


def test_pair_distances_equal_norm_bit_for_bit():
    rng = np.random.default_rng(8)
    p_pos = rng.uniform(-40.0, 40.0, (7, 2))
    e_pos = rng.uniform(-40.0, 40.0, (11, 2)) * rng.uniform(0.0, 1.0, (11, 1))
    dist = dg.pair_distances(p_pos, e_pos)
    assert dist.shape == (7, 11)
    for i in range(7):
        for j in range(11):
            assert dist[i, j] == np.linalg.norm(p_pos[i] - e_pos[j])


def _head_on_duel():
    """A car diving straight at an evader that climbs straight at it."""
    return dg.Scenario(
        pursuers=(
            dg.PursuerSpec(
                state=dg.PursuerState(pos=(0.0, 5.0), theta=1.5 * math.pi),
                v=1.0,
                kappa=1.0,
                r=0.1,
            ),
        ),
        evaders=(
            dg.EvaderSpec(
                state=dg.EvaderState(pos=(0.0, 2.05)),
                v=0.2,
                strategy="constant",
                heading=0.5 * math.pi,
            ),
        ),
        seed=0,
    )


class TestMatchingPeriod:
    @pytest.mark.parametrize("period", [0, -3, 1.5, 2.0, True, "2", None])
    def test_anything_but_a_positive_integer_is_refused(self, period):
        # a period of 1.5 would refresh at steps 0, 3, 6, ...
        with pytest.raises(ValueError, match=re.escape(f"got {period!r}")):
            dg.SimConfig(matching_period=period)

    def test_a_numpy_integer_is_accepted(self):
        sc = _aligned_duel()
        plain = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=0.2, matching_period=3))
        numpy = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=0.2, matching_period=np.int64(3)))
        assert numpy == plain
        assert len(plain.matching_history) == 67


class TestStepSizeGuard:
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_dt_that_can_jump_the_capture_disk_is_refused(self, dt):
        # (v_p + v_e) * dt >= r: at dt = 1.0 the pursuer used to pass
        # through the evader unseen and the run ended horizon_exceeded
        with pytest.raises(ValueError, match=f"dt={dt:g}"):
            dg.run(_head_on_duel(), dg.SimConfig(dt=dt, max_time=20.0))

    def test_dt_closing_exactly_one_capture_radius_is_refused(self):
        # (0.3 + 0.1) * 0.25 == 0.1 exactly in floats.  The guard refuses a
        # closing of at least one capture radius per step, the limit
        # included; one ulp of dt below it is accepted
        v_p, v_e, r, dt = 0.3, 0.1, 0.1, 0.25
        assert (v_p + v_e) * dt == r
        sc = dg.Scenario(
            pursuers=(
                dg.PursuerSpec(
                    state=dg.PursuerState(pos=(0.0, 2.0), theta=0.0), v=v_p, kappa=0.0625, r=r
                ),
            ),
            evaders=(dg.EvaderSpec(state=dg.EvaderState(pos=(1.0, 1.0)), v=v_e),),
            seed=0,
        )
        with pytest.raises(ValueError, match="too large"):
            sim._validate(sc, dg.SimConfig(dt=dt, max_time=1.0))
        sim._validate(sc, dg.SimConfig(dt=math.nextafter(dt, 0.0), max_time=1.0))

    def test_accepted_dt_captures_head_on(self):
        result = dg.run(_head_on_duel(), dg.SimConfig(dt=0.01, max_time=20.0))
        captures = [e for e in result.events if e.kind == "capture"]
        assert [(e.pursuer, e.evader) for e in captures] == [(0, 0)]
        # closing speed 1.2 over the gap 5 - 2.05 - 0.1
        assert captures[0].t == pytest.approx(2.375, abs=1e-4)


def _mixed_team():
    """4v6 with mixed capture radii and evader strategies; evader 5 plays
    ``optimal`` with no pursuer assigned at first, so it flees its nearest
    pursuer."""
    pursuers = [
        (0.0, 0.9, 4.9, 0.1),
        (1.2, 1.0, 4.2, 0.08),
        (2.5, 0.8, 5.0, 0.12),
        (3.6, 1.1, 3.9, 0.09),
    ]
    evaders = [
        (0.3, 0.35, "optimal", None),
        (1.0, 0.5, "constant", 4.0),
        (1.9, 0.3, "optimal", None),
        (2.8, 0.45, "random_goal", None),
        (3.3, 0.6, "constant", 4.4),
        (4.2, 0.4, "optimal", None),
    ]
    return dg.Scenario(
        pursuers=tuple(
            dg.PursuerSpec(
                state=dg.PursuerState(pos=(x, y), theta=th), v=0.3, kappa=0.0625, r=r
            )
            for x, y, th, r in pursuers
        ),
        evaders=tuple(
            dg.EvaderSpec(
                state=dg.EvaderState(pos=(x, y)), v=0.3 / 6.3, strategy=s, heading=h
            )
            for x, y, s, h in evaders
        ),
        seed=11,
    )


class TestMixedTeamGame:
    @pytest.fixture(scope="class")
    def played(self):
        sc = _mixed_team()
        cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=10)
        return sc, cfg, dg.run(sc, cfg)

    def test_deterministic(self, played):
        sc, cfg, result = played
        assert dg.run(sc, cfg) == result

    def test_outcome(self, played):
        _, _, result = played
        assert not result.horizon_exceeded
        assert result.outcome == {j: "captured" for j in range(6)}
        captures = [e for e in result.events if e.kind == "capture"]
        assert [(e.pursuer, e.evader) for e in captures] == [
            (3, 4), (0, 0), (1, 2), (0, 1), (2, 3), (3, 5)
        ]
        expected_t = [1.94939238, 2.05652965, 3.54770856, 3.86332014, 4.37980873, 5.49678221]
        assert [e.t for e in captures] == pytest.approx(expected_t, abs=1e-6)

    def test_an_optimal_evader_flees_its_nearest_pursuer(self, played):
        _, _, result = played
        capture_t = {e.evader: e.t for e in result.events if e.kind == "capture"}
        untargeted = any(
            t < capture_t[5] and 5 not in {j for _, j in matched + opportunistic}
            for t, matched, opportunistic in result.matching_history
        )
        assert untargeted

    def test_captures_lie_on_the_capture_circle(self, played):
        sc, _, result = played
        for e in result.events:
            if e.kind != "capture":
                continue
            rows = result.trajectories[f"P{e.pursuer + 1}"]
            k = max(n for n, row in enumerate(rows) if row[0] <= e.t)
            frac = (e.t - rows[k][0]) / (rows[k + 1][0] - rows[k][0])
            px = rows[k][1] + frac * (rows[k + 1][1] - rows[k][1])
            py = rows[k][2] + frac * (rows[k + 1][2] - rows[k][2])
            ev = result.trajectories[f"E{e.evader + 1}"][-1]
            dist = math.hypot(px - ev[1], py - ev[2])
            assert dist == pytest.approx(sc.pursuers[e.pursuer].r, abs=1e-8)


def test_every_step_moves_each_car_and_each_active_evader_once(monkeypatch):
    # run steps the agents through sim's own step_pursuer/step_evader
    # bindings, once per car and once per active evader in each step, cars
    # first; tools that time the simulator per step rely on these calls
    calls = []

    def counted(tag, step):
        def wrapper(*args):
            calls.append(tag)
            return step(*args)

        return wrapper

    monkeypatch.setattr(sim, "step_pursuer", counted("p", sim.step_pursuer))
    monkeypatch.setattr(sim, "step_evader", counted("e", sim.step_evader))
    sc = _mixed_team()
    result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=2.5, matching_period=10))
    assert sum(e.kind == "capture" for e in result.events) == 2

    e_rows = [result.trajectories[f"E{j + 1}"] for j in range(len(sc.evaders))]
    n_steps = len(e_rows[0]) - 1
    expected = "".join(
        "p" * len(sc.pursuers) + "e" * sum(rows[k][6] == "active" for rows in e_rows)
        for k in range(n_steps)
    )
    assert "".join(calls) == expected


def test_optimal_evaders_build_no_pair_state_outside_assign(monkeypatch):
    # the evaders' best response runs on the float positions: the only
    # JointState objects a game builds are the win graph's, in assign
    built = {"assign": 0, "elsewhere": 0}
    where = ["elsewhere"]
    assign, joint_state = sim._Game.assign, sim.JointState

    def tracked_assign(self):
        where[0] = "assign"
        try:
            assign(self)
        finally:
            where[0] = "elsewhere"

    def counted(*args, **kwargs):
        built[where[0]] += 1
        return joint_state(*args, **kwargs)

    monkeypatch.setattr(sim._Game, "assign", tracked_assign)
    monkeypatch.setattr(sim, "JointState", counted)
    sc = _mixed_team()
    result = dg.run(sc, dg.SimConfig(dt=1e-3, max_time=0.5, matching_period=10))
    optimal = [j for j, spec in enumerate(sc.evaders) if spec.strategy == "optimal"]
    assert all(result.trajectories[f"E{j + 1}"][-2][6] == "active" for j in optimal)
    assert built["assign"] > 0
    assert built["elsewhere"] == 0


def _bundled_5v5():
    from dubinsguard.cli import load_scenario

    with resources.as_file(
        resources.files("dubinsguard") / "scenarios" / "5v5_paper.json"
    ) as path:
        return load_scenario(path)


def _contested_team(seed=11, n=5):
    """Seeded game on overlapping lanes: evaders spread over a strip
    sqrt(n) wide, each with a pursuer 0.2-0.5 above it and within 0.3 of it
    in x, so most pursuers have several evaders within reach.  Pursuers 0
    and 3 use simple motion; evaders starting inside a capture disk are
    dropped."""
    rng = np.random.default_rng(seed)
    half = math.sqrt(n) / 2.0
    evaders = [(rng.uniform(-half, half), rng.uniform(0.2, 0.6)) for _ in range(n)]
    pursuers = [
        (ex + rng.uniform(-0.3, 0.3), ey + rng.uniform(0.2, 0.5), rng.uniform(0, 2 * math.pi))
        for ex, ey in evaders
    ]
    kept = [
        (ex, ey)
        for ex, ey in evaders
        if all(math.hypot(ex - px, ey - py) > 0.1 for px, py, _ in pursuers)
    ]
    strategies = ("optimal", "constant", "random_goal")
    return dg.Scenario(
        pursuers=tuple(
            _pursuer(px, py, th, motion="simple" if i % 3 == 0 else "dubins")
            for i, (px, py, th) in enumerate(pursuers)
        ),
        evaders=tuple(
            _evader(ex, ey, strategies[j % 3], heading=rng.uniform(3.6, 5.8))
            for j, (ex, ey) in enumerate(kept)
        ),
        seed=seed,
    )


def _climbing_duels():
    """Two far-apart lanes, a car in one and a simple-motion pursuer in the
    other, each straight above an evader that climbs toward it: each aim
    height rises at exactly the window bound 2 v_p / (alpha - 1), from about
    -0.33 through 0, so a window any longer than the bound skips refreshes
    at which the pair has separation."""
    up = 0.5 * math.pi
    return dg.Scenario(
        pursuers=(_pursuer(0.0, 3.0, 1.5 * math.pi), _pursuer(10.0, 3.0, 0.0, motion="simple")),
        evaders=(_evader(0.0, 0.2, "constant", heading=up), _evader(10.0, 0.2, "constant", heading=up)),
        seed=0,
    )


def _active_pairs(game):
    """The pairs of ``game`` with an evader in play."""
    return [(i, j) for i in range(game.n_p) for j in range(game.n_e) if game.status[j] == sim.ACTIVE]


def _replay_windows(monkeypatch, sc, cfg):
    """Play the game checking, at every refresh, every pair that the
    simulator holds on a separation window instead of certifying it: each
    must lack separation there.  Returns the result and the counts of
    windowed (skipped) and screened-out pair evaluations."""
    counts = {"skipped": 0, "screened": 0}
    offered = set()
    assign, build_graph = sim._Game.assign, sim.build_graph

    def checked_assign(self):
        offered.clear()
        assign(self)  # moves no agent
        for i, j in _active_pairs(self):
            if (i, j) in offered or self.records[i, j][2] != "window":
                continue
            height = aim_point(self.p_xy[i], self.e_xy[j], self.params[(i, j)].alpha)[1]
            assert height < 0.0, (self.t, i, j)
            counts["skipped"] += 1

    def recording_build_graph(pair_states, *args):
        offered.update(pair_states)
        graph = build_graph(pair_states, *args)
        counts["screened"] += len(graph.screened)
        return graph

    monkeypatch.setattr(sim._Game, "assign", checked_assign)
    monkeypatch.setattr(sim, "build_graph", recording_build_graph)
    return dg.run(sc, cfg), counts


class TestSeparationWindows:
    def test_windows_read_the_shared_rate_bound_and_it_is_tight(self, monkeypatch):
        # a bound 1 % below ``geometry.aim_height_rate`` keeps the climbing
        # pairs out of a refresh at which they already have separation
        rate = sim.aim_height_rate
        monkeypatch.setattr(sim, "aim_height_rate", lambda v_p, alpha: 0.99 * rate(v_p, alpha))
        cfg = dg.SimConfig(dt=1e-3, max_time=10.0)
        with pytest.raises(AssertionError):
            _replay_windows(monkeypatch, _climbing_duels(), cfg)

    @pytest.mark.parametrize(
        "scenario, period, sticky",
        [
            (_bundled_5v5, 1, False),
            (_bundled_5v5, 20, False),
            (_bundled_5v5, 1, True),
            (_mixed_team, 10, False),
            (_contested_team, 5, False),
            (_climbing_duels, 1, False),
        ],
        ids=["5v5-p1", "5v5-p20", "5v5-p1-sticky", "4v6-p10", "contested-p5", "climbing-p1"],
    )
    def test_windowed_pairs_lack_separation(self, monkeypatch, scenario, period, sticky):
        sc = scenario()
        cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=period, sticky=sticky)
        result, counts = _replay_windows(monkeypatch, sc, cfg)
        assert not result.horizon_exceeded
        assert counts["skipped"] > 0
        if scenario is _bundled_5v5 and period == 1:
            assert counts["skipped"] >= 0.99 * (counts["skipped"] + counts["screened"])

    def test_contested_game_is_unchanged_without_windows(self, monkeypatch):
        sc = _contested_team()
        assert any(spec.motion == "simple" for spec in sc.pursuers)
        cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=5)
        windowed = dg.run(sc, cfg)
        monkeypatch.setattr(sim, "WINDOW_MARGIN", math.inf)
        unwindowed, counts = _replay_windows(monkeypatch, sc, cfg)
        assert counts["skipped"] == 0
        assert unwindowed == windowed
        assert sum(e.kind == "capture" for e in windowed.events) >= 2


def _mixed_5v5():
    """The bundled 5v5 with evaders 1 and 2 optimal, evader 3 constant at
    heading 4.5 and pursuer 5 on simple motion."""
    sc = _bundled_5v5()
    evaders = list(sc.evaders)
    for j in (0, 1):
        evaders[j] = dataclasses.replace(evaders[j], strategy="optimal")
    evaders[2] = dataclasses.replace(evaders[2], strategy="constant", heading=4.5)
    pursuers = list(sc.pursuers)
    pursuers[4] = dataclasses.replace(pursuers[4], motion="simple")
    return dataclasses.replace(sc, pursuers=tuple(pursuers), evaders=tuple(evaders))


def test_simple_motion_pursuer_steps_along_its_recorded_heading():
    # a simple-motion pursuer moves by the evaders' step: each step goes
    # v dt along the recorded heading u, and the next row's heading is u
    sc = _mixed_5v5()
    dt, v = 1e-3, sc.pursuers[4].v
    result = dg.run(sc, dg.SimConfig(dt=dt, max_time=8.0))
    assert sum(e.kind == "capture" for e in result.events) == 5
    rows = result.trajectories["P5"]
    stepped = 0
    for (_, x, y, _, u, mode, _, _), (_, x1, y1, theta1, *_) in zip(rows, rows[1:]):
        assert mode == "simple"
        if u is None:
            assert (x1, y1) == (x, y)
            continue
        stepped += 1
        assert theta1 == dg.wrap_angle(u)
        assert abs(x1 - x - v * dt * math.cos(u)) <= 1e-12
        assert abs(y1 - y - v * dt * math.sin(u)) <= 1e-12
    assert stepped > 1000


class TestOneRematchingPass:
    """Every refresh matches once: a plain refresh matches the whole graph,
    a sticky one first keeps each previously matched pair that is still an
    edge."""

    @staticmethod
    def _refreshes(monkeypatch, sc, cfg):
        """Play the game; returns, per refresh, the edge-key set of the win
        graph (the active pairs whose records are edges), the key set
        matched and the refresh's matching.  A refresh that reuses the last
        one's result matches the key set that one matched."""
        built, matched = [], []
        assign = sim._Game.assign

        def recording_assign(self):
            assign(self)
            built.append({key for key in _active_pairs(self) if self.records[key][1]})
            matched.append(set(self.last_match[0]))

        monkeypatch.setattr(sim._Game, "assign", recording_assign)
        result = dg.run(sc, cfg)
        history = [dict(pairs) for _, pairs, _ in result.matching_history]
        assert len(built) == len(matched) == len(history)
        return list(zip(built, matched, history))

    @staticmethod
    def _max_matching(n_p, keys):
        return dg.max_matching(dg.WinGraph(n_p, dict.fromkeys(keys)))

    def test_only_an_equal_edge_key_set_reuses_its_matching(self, monkeypatch):
        calls, max_matching = [], sim.max_matching
        monkeypatch.setattr(sim, "max_matching", lambda g: calls.append(g) or max_matching(g))
        game = sim._Game(_bundled_5v5(), dg.SimConfig())
        straight, crossed = {(0, 0), (1, 1)}, {(0, 1), (1, 0)}
        assert game.match(straight) == {0: 0, 1: 1}
        assert game.match(set(straight)) == {0: 0, 1: 1}
        assert len(calls) == 1
        assert calls[0].edges == dict.fromkeys(straight)
        assert game.match(crossed) == {0: 1, 1: 0}
        assert game.match(set()) == {}
        assert len(calls) == 3

    @pytest.mark.parametrize("seed, n", [(11, 5), (13, 8)])
    def test_plain_refresh_matches_the_whole_graph(self, monkeypatch, seed, n):
        cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=5)
        refreshes = self._refreshes(monkeypatch, _contested_team(seed, n), cfg)
        n_p = len(_contested_team(seed, n).pursuers)
        for graph, matched_graph, matching in refreshes:
            assert matched_graph == graph
            assert matching == self._max_matching(n_p, graph)

    @pytest.mark.parametrize("seed, n", [(11, 5), (13, 8)])
    def test_sticky_refresh_keeps_the_pairs_still_edges(self, monkeypatch, seed, n):
        cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=5, sticky=True)
        previous, kept_some, differs = {}, 0, 0
        n_p = len(_contested_team(seed, n).pursuers)
        refreshes = self._refreshes(monkeypatch, _contested_team(seed, n), cfg)
        for graph, matched_graph, matching in refreshes:
            kept = {i: j for i, j in previous.items() if (i, j) in graph}
            assert kept.items() <= matching.items()
            assert (matched_graph == graph) == (not kept)
            assert matched_graph == {
                (i, j) for i, j in graph if i not in kept and j not in kept.values()
            }
            kept_some += bool(kept)
            differs += matching != self._max_matching(n_p, graph)
            previous = matching
        assert kept_some > 0 and differs > 0


def _replay_carried(monkeypatch, sc, cfg):
    """Play the game certifying every intercepting car's own pair that the
    simulator tests with ``intercepts`` anyway, by ``certify_win`` on a
    ``JointState`` of the game's floats: a carried pair must be INTERCEPT,
    with the aim height and heading error that the test read as its
    evidence, bit for bit, and its aim height, recomputed from the
    positions, at least 0; a pair the test refuses must not be INTERCEPT.
    Returns the result and the number of carried keys summed over the
    refreshes, the ones that hold them from an earlier test included."""
    carried, games = [0], []
    assign, intercepts = sim._Game.assign, sim.intercepts

    def recording_assign(self):
        games.append(self)
        assign(self)
        carried[0] += sum(self.records[key][2] == "intercept" for key in _active_pairs(self))

    def checked(aim, theta, p):
        g = games[-1]
        (i,) = [i for i in range(g.n_p) if g.snap_aim[i] is aim]
        j = g.target[i]
        x_p, x_e = g.p_xy[i], g.e_xy[j]
        assert theta == g.theta[i] and p is g.params[i, j]
        cert = dg.certify_win(dg.JointState(dg.PursuerState(x_p, theta), dg.EvaderState(x_e)), p)
        if not intercepts(aim, theta, p):
            assert cert.kind is not dg.CertificateKind.INTERCEPT
            return False
        assert cert.kind is dg.CertificateKind.INTERCEPT
        assert cert.evidence.separation == aim[1]
        assert cert.evidence.heading_err == dg.wrap_to_pi(aim[2] - theta)
        dist = math.hypot(x_p[0] - x_e[0], x_p[1] - x_e[1])
        assert lowest_point(*x_p, *x_e, dist, p.alpha)[1] >= 0.0
        return True

    monkeypatch.setattr(sim._Game, "assign", recording_assign)
    monkeypatch.setattr(sim, "intercepts", checked)
    return dg.run(sc, cfg), carried[0]


@pytest.mark.parametrize(
    "scenario, period, sticky",
    [
        (_bundled_5v5, 1, False),
        (_bundled_5v5, 20, False),
        (_bundled_5v5, 1, True),
        (_mixed_5v5, 1, False),
        (_contested_team, 5, False),
        (_contested_team, 1, True),
    ],
    ids=["5v5-p1", "5v5-p20", "5v5-p1-sticky", "mixed-p1", "contested-p5", "contested-p1-sticky"],
)
def test_carried_certificates_equal_certify_win_and_change_nothing(
    monkeypatch, scenario, period, sticky
):
    # with no pair carried and every refresh matched afresh, the game is
    # the one that certifies and matches everything, bit for bit
    sc = scenario()
    cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=period, sticky=sticky)
    played, carried = _replay_carried(monkeypatch, sc, cfg)
    assert carried > 0
    if scenario is _bundled_5v5 and period == 1:
        assert carried >= 7000
    monkeypatch.setattr(sim, "intercepts", lambda aim, theta, p: False)
    monkeypatch.setattr(
        sim._Game,
        "match",
        lambda self, keys: sim.max_matching(sim.WinGraph(self.n_p, dict.fromkeys(keys))),
    )
    assert dg.run(sc, cfg) == played


def test_carried_pairs_build_no_evidence(monkeypatch):
    # on the bundled 5v5 re-matched every step, evidence is built only for
    # the pairs that reach ``build_graph``: 363 of them, the ledger holding
    # the others
    counts = {"evidence": 0, "certified": 0}
    evidence, build_graph = certificates.CertificateEvidence, sim.build_graph

    def counted_evidence(*args, **kwargs):
        counts["evidence"] += 1
        return evidence(*args, **kwargs)

    def counted_build_graph(pair_states, *args):
        counts["certified"] += len(pair_states)
        return build_graph(pair_states, *args)

    monkeypatch.setattr(certificates, "CertificateEvidence", counted_evidence)
    monkeypatch.setattr(sim, "build_graph", counted_build_graph)
    result = dg.run(_bundled_5v5(), dg.SimConfig(dt=1e-3, max_time=8.0))
    assert sum(e.kind == "capture" for e in result.events) == 5
    assert counts["evidence"] == counts["certified"] <= 400


def _count_refutations(monkeypatch):
    """Count, from now on, the two-step pairs whose witness refutes them:
    the witness evaluations that neither a sextic solve nor a carried
    anchor follows, and the refreshes at which a pair is held on an earlier
    refutation instead (``certificates._refuted_steps``)."""
    counts = {"_witness_clearance": 0, "relaxed_clearance_from_centers": 0, "carried": 0, "held": 0}

    def counted(name):
        fn = getattr(certificates, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_witness_clearance", "relaxed_clearance_from_centers"):
        monkeypatch.setattr(certificates, name, counted(name))
    carry = certificates.ClearanceAnchor.carry

    def counted_carry(self, *args):
        out = carry(self, *args)
        counts["carried"] += out is not None
        return out

    monkeypatch.setattr(certificates.ClearanceAnchor, "carry", counted_carry)
    assign = sim._Game.assign

    def counted_assign(self):
        n, before = self.n_steps, dict(self.records)
        assign(self)
        held = (before.get(key, sim._NO_RECORD) for key in _active_pairs(self))
        counts["held"] += sum(expiry > n and reason == "refuted" for expiry, _, reason in held)

    monkeypatch.setattr(sim._Game, "assign", counted_assign)
    return lambda: (
        counts["_witness_clearance"] - counts["relaxed_clearance_from_centers"] - counts["carried"] + counts["held"]
    )


@pytest.mark.parametrize(
    "scenario, period, sticky",
    [
        (_bundled_5v5, 1, False),
        (_bundled_5v5, 20, False),
        (_bundled_5v5, 1, True),
        (_contested_team, 5, False),
    ],
    ids=["5v5-p1", "5v5-p20", "5v5-p1-sticky", "contested-p5"],
)
def test_a_screen_that_never_refutes_plays_the_same_game(monkeypatch, scenario, period, sticky):
    # the two-step screen withholds only certificates the sextic withholds
    # too, so a game that solves every sextic, and so holds no pair on a
    # refutation, is the same game, bit for bit
    sc = scenario()
    cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=period, sticky=sticky)
    refuted = _count_refutations(monkeypatch)
    played = dg.run(sc, cfg)
    assert refuted() >= (600 if scenario is _bundled_5v5 and period == 1 else 1)
    monkeypatch.setattr(certificates, "_witness_margin", lambda alpha, kappa: math.inf)
    before = refuted()
    assert dg.run(sc, cfg) == played
    assert refuted() == before


@pytest.mark.parametrize("period", [1, 20])
def test_carried_pairs_are_the_intercepting_cars_at_their_snap_aims(monkeypatch, period):
    # at every refresh the own pair of each intercepting car with its
    # target is carried as an intercept edge exactly when ``intercepts``
    # holds at the current floats, with the aim those floats give, bit for
    # bit; no other pair is.  Targets are captured between refreshes: their
    # cars still intercept an evader no longer in play, whose pair is not
    # recorded
    assign = sim._Game.assign
    counts = {"carried": 0, "orphaned": 0}

    def checked(self):
        own = {}  # read before ``assign`` retargets any car
        for i, (j, phase) in enumerate(zip(self.target, self.phases)):
            if phase is None or phase.phase is not dg.Phase.INTERCEPTING:
                continue
            if self.status[j] != sim.ACTIVE:
                counts["orphaned"] += 1
                continue
            x_p, x_e, p = self.p_xy[i], self.e_xy[j], self.params[i, j]
            x, y, _ = aim_point(x_p, x_e, p.alpha)
            aim = x, y, aim_bearing(x_p, x, y)
            assert self.snap_aim[i] == aim, self.t
            own[i, j] = certificates.intercepts(aim, self.theta[i], p)
        assign(self)  # moves no agent
        carried = {key for key in _active_pairs(self) if self.records[key][2] == "intercept"}
        assert carried == {key for key, holds in own.items() if holds}, self.t
        counts["carried"] += len(carried)

    monkeypatch.setattr(sim._Game, "assign", checked)
    cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=period)
    result = dg.run(_bundled_5v5(), cfg)
    assert sum(e.kind == "capture" for e in result.events) == 5
    assert counts["carried"] > 0 and counts["orphaned"] > 0


def _checked_leftovers(monkeypatch):
    """Check, at every refresh with an unmatched pursuer, that the game's
    leftover targets are those ``assign`` picks from the pair distances of
    the positions at the refresh.  Returns the (kept pairs, targets) of
    those refreshes, and the index among them of each refresh at which the
    game called ``assign``."""
    game_assign, assign = sim._Game.assign, sim.assign
    refreshes, calls = [], []

    def checked_game_assign(self):
        game_assign(self)
        t, pairs, opportunistic = self.matching_history[-1]
        kept = dict(pairs)
        if len(kept) < self.n_p:
            active = [j for j in range(self.n_e) if self.status[j] == sim.ACTIVE]
            fresh = assign(kept, sim.pair_distances(np.array(self.p_xy), np.array(self.e_xy)), active)
            assert opportunistic == tuple(sorted(fresh.items())), t
            refreshes.append((kept, fresh))

    def counted_assign(*args):
        calls.append(len(refreshes))
        return assign(*args)

    monkeypatch.setattr(sim._Game, "assign", checked_game_assign)
    monkeypatch.setattr(sim, "assign", counted_assign)
    return refreshes, calls


@pytest.mark.parametrize(
    "scenario, period, most_calls",
    [(_bundled_5v5, 1, 10), (lambda: _contested_team(13, 8), 5, 40)],
    ids=["bundled_5v5_p1", "contested_13_8_p5"],
)
def test_leftover_pursuers_read_the_current_pair_distances(monkeypatch, scenario, period, most_calls):
    # at every refresh, one that carries its leftover targets included, the
    # leftover pursuers chase what ``assign`` picks from the distances of
    # the positions at the refresh; ``assign`` itself runs only when the
    # targets are not proven unchanged (5 of 1,212 such refreshes on the
    # 5v5, 38 of 306 on the contested game)
    refreshes, calls = _checked_leftovers(monkeypatch)
    dg.run(scenario(), dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=period))
    doubled = [any(j in kept.values() for j in targets.values()) for kept, targets in refreshes]
    assert len(doubled) > 100 and any(doubled)
    assert 0 < len(calls) <= most_calls


class TestNearestSteps:
    RHO = sim.QUIET_ROUNDING * (1.0 + 4.0 * 2.0)  # the allowance at scale 2

    def test_a_tie_gives_no_step(self):
        steps = np.array([1e-3, 1e-3])
        assert sim._nearest_steps(np.array([[1.0, 1.0, 2.0], [0.5, 3.0, 4.0]]), steps, 2.0) == 0
        assert sim._nearest_steps(np.array([[2.0, 1.0, 1.0], [0.5, 3.0, 4.0]]), steps, 2.0) == 0

    def test_a_pool_of_one_never_expires(self):
        assert sim._nearest_steps(np.array([[0.3], [2.0]]), np.array([1e-3, 1e-3]), 2.0) == sys.maxsize

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_a_margin_just_above_or_below_the_bound_moves_the_count_by_one(self, n):
        # the margin of the first row stays strictly positive for n steps
        # when it exceeds 2 rho + 2 n (step + rho); the second row's, with a
        # larger step and margin, binds nowhere
        step, rho = 3e-4, self.RHO
        bound = 2.0 * rho + 2.0 * n * (step + rho)
        steps = np.array([step, 10.0 * step])
        for scaled, count in ((1.0 + 1e-6, n), (1.0 - 1e-6, n - 1)):
            margin = bound * scaled
            dist = np.array([[1.5, 1.5 + margin, 1.9], [5.0, 0.1, 0.1 + 20.0 * margin]])
            assert sim._nearest_steps(dist, steps, 2.0) == count


def _swap_game():
    """A car that no certificate covers (r < kappa h(alpha)), heading along
    the line of two evaders that run the same way, away from the nearer one
    behind it and at the farther one ahead: the margin between them shrinks
    at nearly the full rate 2 (v_p + v_e) of ``_nearest_steps``' bound,
    from 0.6 to 0 in about 20 steps."""
    car = dg.PursuerSpec(
        state=dg.PursuerState(pos=(0.0, 5.0), theta=0.0), motion="dubins", v=1.0, kappa=1.0, r=0.05
    )
    evaders = tuple(
        dg.EvaderSpec(state=dg.EvaderState(pos=(x, 5.0)), v=0.5, strategy="constant", heading=math.pi)
        for x in (-1.0, 1.6)
    )
    return dg.Scenario(pursuers=(car,), evaders=evaders, seed=0)


def test_a_carried_leftover_target_swaps_at_the_step_a_fresh_assign_does(monkeypatch):
    sc = _swap_game()
    p = sc.pair_params(0, 0)
    assert p.r < p.kappa * certificates.curvature_demand(p.alpha)
    refreshes, calls = _checked_leftovers(monkeypatch)
    dg.run(sc, dg.SimConfig(dt=0.01, max_time=0.5))
    assert len(refreshes) == 50 and all(kept == {} for kept, _ in refreshes)
    targets = [nearest[0] for _, nearest in refreshes]
    assert targets == [0] * 21 + [1] * 29
    # the first hold, 17 of the 0.6 / (2 ((v_p + v_e) dt + kappa
    # CAR_STEP_ROUNDING)) = 17.9 steps, ends 3 steps short of the swap;
    # shorter ones follow
    assert calls[:5] == [0, 18, 20, 21, 22] and len(calls) < 12


def _uncovered_game(rng):
    """Three cars that no certificate covers (r < kappa h(alpha)) among
    five evaders, constant or optimal, scattered over a 4 x 3 box well
    above the goal: every car is a leftover pursuer at every refresh."""
    cars = tuple(
        dg.PursuerSpec(
            state=dg.PursuerState(
                pos=(rng.uniform(-2.0, 2.0), rng.uniform(3.0, 6.0)), theta=rng.uniform(0, 2 * math.pi)
            ),
            motion="dubins",
            v=1.0,
            kappa=float(rng.choice([0.3, 1.0, 3.0])),
            r=0.05,
        )
        for _ in range(3)
    )
    evaders = []
    while len(evaders) < 5:
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(3.0, 6.0)
        if all(math.dist((x, y), car.state.pos) > car.r for car in cars):
            strategy, heading = str(rng.choice(["constant", "optimal"])), rng.uniform(0, 2 * math.pi)
            evaders.append(
                dg.EvaderSpec(state=dg.EvaderState(pos=(x, y)), v=0.5, strategy=strategy, heading=heading)
            )
    return dg.Scenario(pursuers=cars, evaders=tuple(evaders), seed=int(rng.integers(100)))


def test_leftover_targets_of_uncovered_cars_equal_a_fresh_assign(monkeypatch):
    # cars turning at full rate among evaders running every way: their
    # nearest evaders change often, and each change comes at the refresh a
    # fresh ``assign`` makes it
    rng = np.random.default_rng(35)
    refreshes, calls = _checked_leftovers(monkeypatch)
    for _ in range(12):
        dg.run(_uncovered_game(rng), dg.SimConfig(dt=0.01, max_time=3.0))
    changed = sum(a != b for (_, a), (_, b) in zip(refreshes, refreshes[1:]))
    assert len(refreshes) > 3000 and changed > 50 and len(calls) < len(refreshes) // 2


def _interception_entries(monkeypatch, sc, cfg):
    """Play the game recording, as (t, pursuer, evader), every car that
    enters interception at a refresh or at its controls: its phase is
    intercepting after the stage, and was not, or was against another
    target, before it."""
    entries = []

    def watched(stage):
        def wrapper(self, *args):
            before = [(ph.phase if ph else None, j) for ph, j in zip(self.phases, self.target)]
            out = stage(self, *args)
            for i, (phase, target) in enumerate(before):
                now = self.phases[i]
                entered = phase is not dg.Phase.INTERCEPTING or target != self.target[i]
                if now is not None and now.phase is dg.Phase.INTERCEPTING and entered:
                    entries.append((self.t, i, self.target[i]))
            return out

        return wrapper

    monkeypatch.setattr(sim._Game, "assign", watched(sim._Game.assign))
    monkeypatch.setattr(sim._Game, "pursuer_controls", watched(sim._Game.pursuer_controls))
    return dg.run(sc, cfg), entries


@pytest.mark.parametrize(
    "scenario, period, sticky",
    [
        (_bundled_5v5, 1, False),
        (_bundled_5v5, 20, False),
        (_bundled_5v5, 1, True),
        (_mixed_5v5, 1, False),
        (lambda: _contested_team(13, 8), 5, False),
        (lambda: _contested_team(13, 8), 5, True),
    ],
    ids=["5v5-p1", "5v5-p20", "5v5-p1-sticky", "mixed-p1", "contested-p5", "contested-p5-sticky"],
)
def test_every_entry_into_interception_is_an_io_achieved_event(
    monkeypatch, scenario, period, sticky
):
    # the phase machine is the one way in, so each entry snaps and logs,
    # a retargeted car's entry included
    cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=period, sticky=sticky)
    result, entries = _interception_entries(monkeypatch, scenario(), cfg)
    logged = [(e.t, e.pursuer, e.evader) for e in result.events if e.kind == "io_achieved"]
    assert entries == logged
    assert len(entries) >= 2


def _team_lanes():
    """The benchmark's seeded 20v20 lanes game, seed 1
    (``perfbench/workloads.team_scenario``)."""
    from dubinsguard.cli import parse_scenario

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return parse_scenario(workloads.team_scenario(1))


@pytest.mark.parametrize(
    "scenario, period",
    [
        (_bundled_5v5, 1),
        (_mixed_5v5, 1),
        (lambda: _contested_team(13, 8), 5),
        (_team_lanes, 100),
    ],
    ids=["5v5-p1", "mixed-p1", "contested-13-8-p5", "team-lanes-p100"],
)
def test_quiet_steps_and_anchors_play_the_same_game(monkeypatch, scenario, period):
    # both skips are proven: a game that computes the pair distances and
    # tests captures at every step, and solves every two-step pair, is the
    # same game, bit for bit
    sc = scenario()
    cfg = dg.SimConfig(dt=1e-3, max_time=20.0, matching_period=period)
    counts = {"steps": 0, "quiet": 0, "carried": 0}
    detect, build_graph = sim._Game.detect, sim.build_graph

    def counted_detect(self):
        counts["steps"] += 1
        counts["quiet"] += self.quiet > 0
        detect(self)

    def counted_build_graph(*args):
        graph = build_graph(*args)
        counts["carried"] += sum(c.evidence.clearance_carried for c in graph.edges.values())
        return graph

    monkeypatch.setattr(sim._Game, "detect", counted_detect)
    monkeypatch.setattr(sim, "build_graph", counted_build_graph)
    played = dg.run(sc, cfg)
    assert counts["quiet"] > counts["steps"] // 4
    # at a longer period the pairs move past the anchors' drift cap
    assert (counts["carried"] > 100) == (period == 1)
    monkeypatch.setattr(sim, "_quiet_steps", lambda *args: 0)
    monkeypatch.setattr(sim, "_nearest_steps", lambda *args: 0)
    monkeypatch.setattr(sim, "build_graph", lambda states, params, n_p, anchors: build_graph(states, params, n_p))
    assert dg.run(sc, cfg) == played


@pytest.mark.parametrize(
    "scenario, period, max_time, builds, quiet",
    [
        (_bundled_5v5, 1, 8.0, 42, 1_885),
        (_bundled_5v5, 20, 8.0, 43, 1_885),
        (_team_lanes, 100, 20.0, 72, 752),
    ],
    ids=["5v5-p1", "5v5-p20", "team-lanes-p100"],
)
def test_quiet_steps_leave_the_pair_distances_unbuilt(
    monkeypatch, scenario, period, max_time, builds, quiet
):
    # the pair-distance array is built at a screen, at the end of a run of
    # quiet steps and when a refresh reads it, never at the other quiet
    # steps: 42 counts of quiet steps on the 5v5, 71 on the lanes game; the
    # 5v5's refreshes read none at period 1 and one at period 20, where the
    # leftover targets are taken anew 5 and 3 times
    sc = scenario()
    counts = {"builds": 0, "quiet": 0}
    pair_distances, detect = sim.pair_distances, sim._Game.detect

    def counted_pair_distances(p_pos, e_pos):
        counts["builds"] += 1
        return pair_distances(p_pos, e_pos)

    def counted_detect(self):
        counts["quiet"] += self.quiet > 0
        detect(self)

    monkeypatch.setattr(sim, "pair_distances", counted_pair_distances)
    monkeypatch.setattr(sim._Game, "detect", counted_detect)
    dg.run(sc, dg.SimConfig(dt=1e-3, max_time=max_time, matching_period=period))
    assert counts == {"builds": builds, "quiet": quiet}


def _walk_scenario(rng):
    """Two cars and two simple-motion pursuers among ten evaders, scattered
    over a 4 x 3 box well above the goal."""
    pursuers = [
        dataclasses.replace(
            _pursuer(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 4.0), rng.uniform(0, 2 * math.pi), motion),
            r=r,
        )
        for motion, r in (("dubins", 0.1), ("dubins", 0.1), ("simple", 0.12), ("simple", 0.1))
    ]
    evaders = []
    while len(evaders) < 10:
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(1.0, 4.0)
        if all(math.dist((x, y), spec.state.pos) > spec.r for spec in pursuers):
            evaders.append(_evader(x, y, "constant", heading=0.0))
    return dg.Scenario(pursuers=tuple(pursuers), evaders=tuple(evaders), seed=0)


def test_no_quiet_step_hides_a_capture():
    # random walks at the largest dt the guard accepts, cars on turn
    # commands down to the smallest (whose float steps overshoot their
    # arcs), the others often running at each other head on: the capture
    # test on each step's distances finds nothing at a step the game skips
    rng = np.random.default_rng(31)
    quiet = captured = 0
    for _ in range(12):
        sc = _walk_scenario(rng)
        v_e = max(spec.v for spec in sc.evaders)
        dt = min(spec.r / (spec.v + v_e) for spec in sc.pursuers)
        while True:
            try:
                sim._validate(sc, dg.SimConfig(dt=dt))
                break
            except ValueError:
                dt = math.nextafter(dt, 0.0)
        game = sim._Game(sc, dg.SimConfig(dt=dt, max_time=1e9))
        prev = game.distances().copy()
        for _ in range(300):
            active = [j for j in range(game.n_e) if game.status[j] == sim.ACTIVE]
            if not active:
                break
            p_controls = []
            for i, spec in enumerate(sc.pursuers):
                if spec.motion == "dubins":
                    turn = rng.choice([1.0, 0.3, 1.01e-12, 3e-12])
                    p_controls.append(float(rng.choice([-1.0, 1.0]) * turn))
                    continue
                bearing = rng.uniform(0, 2 * math.pi)
                if rng.random() < 0.5:
                    (px, py), (ex, ey) = game.p_xy[i], game.e_xy[active[int(np.argmin(prev[i, active]))]]
                    bearing = math.atan2(ey - py, ex - px)
                p_controls.append(((math.cos(bearing), math.sin(bearing)), bearing))
            e_controls = [None] * game.n_e
            for j in active:
                bearing = rng.uniform(0, 2 * math.pi)
                if rng.random() < 0.3:
                    (px, py), (ex, ey) = game.p_xy[int(np.argmin(prev[:, j]))], game.e_xy[j]
                    bearing = math.atan2(py - ey, px - ex)
                e_controls[j] = ((math.cos(bearing), math.sin(bearing)), bearing)
            game.integrate(p_controls, e_controls)
            now = sim.pair_distances(np.array(game.p_xy), np.array(game.e_xy))
            in_play = np.array([status == sim.ACTIVE for status in game.status])
            hits = sim.detect_captures(prev, now, game.radii, in_play)
            skipped, before = game.quiet > 0, len(game.events)
            game.detect()
            quiet += skipped
            assert not (skipped and hits)
            assert set(hits) <= {e.evader for e in game.events[before:]}
            captured += sum(e.kind == "capture" for e in game.events[before:])
            prev = now
            game.t += dt
    assert quiet > 500 and captured > 30


@pytest.mark.parametrize(
    "scenario, period, sticky",
    [
        (_bundled_5v5, 1, False),
        (_mixed_5v5, 1, False),
        (_contested_team, 1, True),
        (functools.partial(_contested_team, 13, 8), 1, False),
    ],
    ids=["5v5-p1", "mixed-p1", "contested-p1-sticky", "contested13-p1"],
)
def test_carried_clearances_replay_as_solves_of_the_same_kind(monkeypatch, scenario, period, sticky):
    # every two-step clearance carried from an anchor, solved again without
    # one: the same kind, and the carried bound within its proven distance
    # of the solve: at most 2 margins above, 2 caps and 4 margins below
    from dubinsguard import matching

    certify_win, carried = matching.certify_win, []

    def replayed(state, p, anchor=None):
        cert = certify_win(state, p, anchor)
        if cert.evidence.clearance_carried:
            solved = certify_win(state, p)
            assert not solved.evidence.clearance_carried
            assert solved.kind is cert.kind is dg.CertificateKind.TWO_STEP
            margin = certificates._witness_margin(p.alpha, p.kappa)
            low = solved.evidence.clearance - 2.0 * certificates.ANCHOR_DRIFT_CAP - 4.0 * margin
            assert low <= cert.evidence.clearance <= solved.evidence.clearance + 2.0 * margin
            carried.append(cert.evidence.clearance)
        return cert

    monkeypatch.setattr(matching, "certify_win", replayed)
    cfg = dg.SimConfig(dt=1e-3, max_time=10.0, matching_period=period, sticky=sticky)
    result = dg.run(scenario(), cfg)
    assert sum(e.kind == "capture" for e in result.events) >= 5
    assert len(carried) >= 100 and min(carried) >= 0.0


def test_each_float_step_stays_within_the_quiet_counts_bound():
    # ``_quiet_steps`` bounds how far a pair closes in one step: each agent
    # moves at most v dt, a car up to kappa * CAR_STEP_ROUNDING more (its
    # tiny turn commands overshoot the arc), and each one half the rounding
    # allowance more, at any scale of coordinates
    rng = np.random.default_rng(32)
    dt, v_p, v_e, kappa = 0.25, 0.3, 0.1, 0.0625
    overshoot = {"car": 0.0, "simple": 0.0}
    for _ in range(20000):
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        x, y = rng.uniform(-scale, scale, 2)
        allowance = 0.5 * sim.QUIET_ROUNDING * (1.0 + scale)
        u = float(rng.choice([-1.0, 1.0]) * rng.choice([1.0, 0.3, 1e-9, 3e-12, 1.01e-12, 0.0]))
        xp, yp, _ = dg.step_pursuer(x, y, rng.uniform(0.0, 2.0 * math.pi), u, dt, v_p, kappa)
        moved = math.hypot(xp - x, yp - y) - v_p * dt
        assert moved <= kappa * sim.CAR_STEP_ROUNDING + allowance
        overshoot["car"] = max(overshoot["car"], moved)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        xe, ye = dg.step_evader(x, y, (math.cos(heading), math.sin(heading)), dt, v_e)
        moved = math.hypot(xe - x, ye - y) - v_e * dt
        assert moved <= allowance
        overshoot["simple"] = max(overshoot["simple"], moved)
    assert overshoot["car"] > 1e-6 and overshoot["simple"] > 0.0


def _replay_ledger(monkeypatch, sc, cfg, watched=None):
    """Play the game certifying, at every refresh, whether it reuses the
    last one's result or records pairs anew, every active pair by a fresh
    ``certify_win`` on a ``JointState`` of the game's floats, with no
    anchor: each pair's record must be an edge exactly when that
    certificate is not NONE, and every matched pair an edge.  Returns the
    result and the records read, counted by reason, with the refreshes
    that reused their result under "reused".  ``watched``, a dict keyed by
    pair, collects that pair's (step, record, certificate) per refresh."""
    counts = collections.Counter()
    assign = sim._Game.assign

    def checked(self):
        reused = self.n_steps < self.due
        assign(self)  # moves no agent
        counts["reused"] += reused
        for i, j in _active_pairs(self):
            record = self.records[i, j]
            state = dg.JointState(dg.PursuerState(self.p_xy[i], self.theta[i]), dg.EvaderState(self.e_xy[j]))
            cert = dg.certify_win(state, self.params[i, j])
            assert record[1] == (cert.kind is not dg.CertificateKind.NONE), (self.t, i, j, record, cert.kind)
            counts[record[2]] += 1
            if watched is not None and (i, j) in watched:
                watched[i, j].append((self.n_steps, record, cert))
        assert all(self.records[key][1] for key in self.matching_history[-1][1])

    monkeypatch.setattr(sim._Game, "assign", checked)
    return dg.run(sc, cfg), counts


@pytest.mark.parametrize(
    "scenario, period, sticky, max_time",
    [
        (_bundled_5v5, 1, False, 8.0),
        (_bundled_5v5, 5, False, 8.0),
        (_bundled_5v5, 20, False, 8.0),
        (_bundled_5v5, 1, True, 8.0),
        (_mixed_5v5, 1, False, 8.0),
        (_mixed_5v5, 1, True, 8.0),
        (functools.partial(_contested_team, 13, 8), 1, False, 10.0),
        (_contested_team, 1, True, 10.0),
        (_team_lanes, 100, False, 20.0),
    ],
    ids=["5v5-p1", "5v5-p5", "5v5-p20", "5v5-p1-sticky", "mixed-p1", "mixed-p1-sticky",
         "contested13-p1", "contested-p1-sticky", "team-lanes-p100"],
)
def test_every_record_is_a_fresh_certificates_edge(monkeypatch, scenario, period, sticky, max_time):
    # the ledger's records are proofs: at every refresh, one that reuses
    # the last result included, each active pair's record gives the edge or
    # non-edge a fresh certificate gives
    cfg = dg.SimConfig(dt=1e-3, max_time=max_time, matching_period=period, sticky=sticky)
    result, counts = _replay_ledger(monkeypatch, scenario(), cfg)
    assert sum(e.kind == "capture" for e in result.events) >= 5
    assert counts["window"] > 0
    if scenario is _bundled_5v5 and period == 1:
        # at most 450 of the 1,899 refreshes record pairs anew (196), and
        # every reason is read
        assert len(result.matching_history) - counts["reused"] <= 450
        assert counts["refuted"] > 0 and counts["intercept"] > 0


def _climbing_refuted_duel():
    """A car turning clockwise toward a two-step target up to its left, and
    an evader straight below it that climbs.  The pair below turns the other
    way, so its turn centre runs at 2 v_p along the car's heading, nearly
    down: its witness rises at 0.93 of ``certificates._refuted_steps``'
    drift bound (2 v_p dt + kappa snap + alpha v_e dt) / (alpha - 1), from
    -0.049 to -0.002 in 17 steps, and the pair is TWO_STEP from step 18."""
    car = dg.PursuerSpec(state=dg.PursuerState(pos=(0.0, 2.4), theta=4.4), motion="dubins", v=1.0, kappa=0.05, r=0.6)
    evaders = (
        dg.EvaderSpec(state=dg.EvaderState(pos=(-2.2, 3.8)), v=0.5, strategy="constant", heading=math.pi),
        dg.EvaderSpec(state=dg.EvaderState(pos=(0.0, 1.35)), v=0.5, strategy="constant", heading=0.5 * math.pi),
    )
    return dg.Scenario(pursuers=(car,), evaders=evaders, seed=0)


def test_a_refuted_pair_is_held_only_while_its_witness_cannot_reach_zero(monkeypatch):
    # the pair below is held on its refutation, its last hold ending at
    # the step it turns TWO_STEP; a hold twice as long would still read it
    # as no edge there
    watched = {(0, 1): []}
    cfg = dg.SimConfig(dt=1e-3, max_time=0.05)
    _replay_ledger(monkeypatch, _climbing_refuted_duel(), cfg, watched)
    rows = watched[0, 1]
    flip = next(n for n, _, cert in rows if cert.kind is not dg.CertificateKind.NONE)
    assert flip == 18
    assert all(record[2] == "refuted" for n, record, _ in rows if n < flip)
    assert all(cert.kind is dg.CertificateKind.TWO_STEP for n, _, cert in rows if n >= flip)
    witness = [cert.evidence.clearance for n, _, cert in rows if n < flip]
    p = _climbing_refuted_duel().pair_params(0, 1)
    bound = (2.0 * p.v_p * cfg.dt + p.kappa * sim.SNAP_FACTOR * sim.IO_TOL + p.alpha * p.v_e * cfg.dt) / (p.alpha - 1.0)
    assert witness[0] < -0.04 and 0.9 * bound < (witness[-1] - witness[0]) / (flip - 1) < bound
    # the records before the flip: the last refutation held up to it
    expiries = sorted({record[0] for n, record, _ in rows if n < flip})
    assert expiries[-1] == flip

