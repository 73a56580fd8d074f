"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Run with ``pytest -v -s tests/test_acceptance.py``.
"""

import json
import math
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

import dubinsguard as dg
from dubinsguard import cli
from conftest import (
    adjacency,
    aligned_state,
    bare_intercept_run,
    brute_force_matching_size,
    er_goal_distance,
)
from test_certificates import _reference_relaxed_oracle

REFERENCE = dg.GameParams.from_alpha(v_p=0.3, alpha=6.3, kappa=0.0625, r=0.1)


@contextmanager
def report(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] FAIL ({elapsed:6.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS ({elapsed:6.2f}s) {description}")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded budget {budget}s"


def test_criterion_01_reference_parameter_checks():
    from dubinsguard import certificates

    certificates.curvature_demand.cache_clear()
    with report(1, "reference parameters pass both feasibility checks", budget=1.0):
        assert dg.curvature_demand_bound(6.3) == pytest.approx(0.412958, abs=1e-6)
        assert dg.heading_adjust_ratio(6.3) == pytest.approx(1.595987, abs=1e-6)
        assert dg.intercept_feasible(0.1, 0.0625, 6.3)
        assert dg.two_step_feasible(0.1, 0.0625, 6.3)


def test_criterion_02_demand_bounds():
    with report(2, "curvature demand within its closed-form bounds", budget=10.0):
        for alpha in np.geomspace(1.05, 20.0, 100):
            alpha = float(alpha)
            h = dg.curvature_demand(alpha)
            assert h <= dg.curvature_demand_bound(alpha) + 1e-9
            assert h >= 1.0 / (alpha - 1.0) - 1e-9


def _aligned_duel_scenario():
    data = dg.interception((0.0, 0.95), (0.35, 0.40), 6.3)
    return dg.Scenario(
        pursuers=(
            dg.PursuerSpec(
                state=dg.PursuerState(pos=(0.0, 0.95), theta=data.angle),
                v=0.3,
                kappa=0.0625,
                r=0.1,
            ),
        ),
        evaders=(
            dg.EvaderSpec(
                state=dg.EvaderState(pos=(0.35, 0.40)), v=0.3 / 6.3, strategy="optimal"
            ),
        ),
        seed=1,
    )


def test_criterion_03_clearance_conservation_against_best_response():
    with report(3, "clearance conserved against the best-response evader"):
        sc = _aligned_duel_scenario()
        cfg = dg.SimConfig(dt=1e-4, max_time=1.0)
        result = dg.run(sc, cfg)
        p = sc.pair_params(0, 0)
        rows_p = result.trajectories["P1"]
        rows_e = result.trajectories["E1"]
        base = er_goal_distance(
            (rows_p[0][1], rows_p[0][2]), (rows_e[0][1], rows_e[0][2]), p.alpha
        )
        for rp, re in zip(rows_p, rows_e):
            clearance = er_goal_distance((rp[1], rp[2]), (re[1], re[2]), p.alpha)
            assert abs(clearance - base) <= 1e-3
        commands = [row[4] for row in rows_p if row[4] is not None]
        assert len(commands) >= 10_000
        assert max(abs(u) for u in commands) <= 1 + 1e-9


def test_criterion_04_clearance_monotone_against_constant_headings():
    with report(4, "clearance never decreases against constant headings"):
        state = aligned_state(0.0, 0.95, 0.35, 0.40, REFERENCE.alpha)
        rng = np.random.default_rng(101)
        for _ in range(20):
            heading = rng.uniform(0, 2 * math.pi)
            clearances, _, _, _ = bare_intercept_run(
                state,
                REFERENCE,
                1e-4,
                10_000,
                dg.evader_constant(heading),
            )
            worst = min(
                (b - a for a, b in zip(clearances, clearances[1:])), default=0.0
            )
            assert worst >= -1e-6


def test_criterion_05_heading_adjustment_reaches_alignment_in_time():
    with report(5, "full-rate adjustment aligns within its time bound"):
        assert dg.adjust_feasible(REFERENCE.r, REFERENCE.kappa, REFERENCE.alpha)
        rng = np.random.default_rng(102)
        dt = 1e-3
        for _ in range(100):
            state = dg.sample_adjust_feasible_state(
                rng, REFERENCE, d_range=(0.35, 1.0)
            )
            bound = dg.adjust_time_bound(state, REFERENCE)
            heading = rng.uniform(0, 2 * math.pi)
            u_e = dg.evader_constant(heading)
            ps, es = state.pursuer, state.evader
            q_prev = None
            last_err = None
            t_aligned = None
            for step in range(int(bound.duration / dt) + 3):
                err = dg.heading_error(ps.pos, ps.theta, es.pos, REFERENCE.alpha)
                crossed = (
                    last_err is not None
                    and (err > 0) != (last_err > 0)
                    and abs(err) < 0.5 * math.pi
                    and abs(last_err) < 0.5 * math.pi
                )
                if abs(err) <= 1e-6 or crossed:
                    t_aligned = step * dt
                    break
                q = math.cos(err)
                if q_prev is not None:
                    assert q >= q_prev - 1e-12
                q_prev = q
                last_err = err
                assert (
                    float(np.linalg.norm(np.subtract(ps.pos, es.pos))) > REFERENCE.r
                ), "captured before alignment"
                command = dg.heading_adjust(ps.pos, ps.theta, es.pos, REFERENCE)
                x, y, theta = dg.step_pursuer(
                    *ps.pos, ps.theta, command, dt, REFERENCE.v_p, REFERENCE.kappa
                )
                ps = dg.PursuerState(pos=(x, y), theta=theta)
                es = dg.EvaderState(pos=dg.step_evader(*es.pos, u_e, dt, REFERENCE.v_e))
            assert t_aligned is not None
            assert t_aligned <= bound.duration + dt


def test_criterion_06_closed_form_matches_relaxed_oracle():
    with report(6, "closed-form clearance sits at the relaxed oracle's lower end", budget=60.0):
        rng = np.random.default_rng(103)
        reach = 2 * math.pi * REFERENCE.kappa / REFERENCE.alpha
        for _ in range(100):
            state = dg.sample_adjust_feasible_state(rng, REFERENCE)
            bound = dg.adjust_time_bound(state, REFERENCE)
            sol = dg.solve_relaxed_clearance(state, REFERENCE)
            # the oracle proves a lower bound on the minimum; the feasible
            # reference value bounds it from above
            lower = dg.relaxed_clearance_oracle(state, REFERENCE)
            assert lower <= sol.clearance <= lower + 1e-9 * (1 + abs(lower))
            args = (bound.turn_center, state.evader.pos, REFERENCE.alpha, REFERENCE.kappa)
            assert lower <= _reference_relaxed_oracle(*args, grid=180)
            # solution invariants: active constraints, sign law, multiplier
            # bracket, stationarity residual
            assert float(
                np.linalg.norm(np.subtract(sol.evader_point, state.evader.pos))
            ) == pytest.approx(reach, rel=1e-9)
            assert float(
                np.linalg.norm(np.subtract(sol.pursuer_point, bound.turn_center))
            ) == pytest.approx(REFERENCE.kappa, rel=1e-9)
            assert REFERENCE.alpha - 1 <= sol.multiplier <= REFERENCE.alpha + 1
            sigma = -1 if bound.turn_center[0] < state.evader.pos[0] else 1
            assert sol.sigma == sigma
            if bound.turn_center[0] != state.evader.pos[0]:
                assert sigma * (sol.pursuer_point[0] - bound.turn_center[0]) > 0
                assert sigma * (state.evader.pos[0] - sol.evader_point[0]) > 0
                assert sigma * (sol.pursuer_point[0] - sol.evader_point[0]) > 0
            lam2 = sol.multiplier
            lam1 = REFERENCE.alpha * lam2
            diff = np.subtract(sol.pursuer_point, sol.evader_point)
            dist = float(np.linalg.norm(diff))
            u_e = np.subtract(sol.evader_point, state.evader.pos) / reach
            u_p = np.subtract(sol.pursuer_point, bound.turn_center) / REFERENCE.kappa
            residual = max(
                abs(REFERENCE.alpha * diff[0] / dist + lam1 * u_e[0]),
                abs(
                    REFERENCE.alpha * diff[1] / dist
                    + lam1 * u_e[1]
                    + REFERENCE.alpha**2
                ),
                abs(-REFERENCE.alpha * diff[0] / dist + lam2 * u_p[0]),
                abs(-REFERENCE.alpha * diff[1] / dist + lam2 * u_p[1] - 1.0),
            )
            assert residual < 1e-6


def test_criterion_07_closed_form_below_rollout_oracle():
    with report(7, "closed-form bound sits below the rollout oracle", budget=120.0):
        rng = np.random.default_rng(104)
        for _ in range(50):
            state = dg.sample_adjust_feasible_state(rng, REFERENCE)
            sol = dg.solve_relaxed_clearance(state, REFERENCE)
            rollout = dg.rollout_clearance_oracle(state, REFERENCE, grid=720)
            assert sol.clearance <= rollout + 1e-3


def test_criterion_08_matching_optimality():
    with report(8, "augmenting-path matching equals exhaustive search"):
        rng = np.random.default_rng(105)
        dummy = dg.certify_win(
            dg.JointState(
                pursuer=dg.PursuerState(pos=(0, 2), theta=0.0),
                evader=dg.EvaderState(pos=(0, 1)),
            ),
            dg.GameParams(2.0, 1.0, 1.0, 0.1, motion="simple"),
        )
        for _ in range(200):
            n_p = int(rng.integers(1, 9))
            n_e = int(rng.integers(1, 9))
            density = rng.uniform(0.1, 0.9)
            edges = {
                (i, j): dummy
                for i in range(n_p)
                for j in range(n_e)
                if rng.uniform() < density
            }
            graph = dg.WinGraph(n_pursuers=n_p, edges=edges)
            matching = dg.max_matching(graph)
            assert len(set(matching.values())) == len(matching)
            for i, j in matching.items():
                assert (i, j) in edges
            assert len(matching) == brute_force_matching_size(n_p, adjacency(graph))


def test_criterion_09_golden_run():
    with report(9, "bundled 5v5 run: 4+1 certificates, 5 captures, repeatable", budget=10.0):
        with resources.as_file(
            resources.files("dubinsguard") / "scenarios" / "5v5_paper.json"
        ) as path:
            sc = cli.load_scenario(path)
        cfg = dg.SimConfig(dt=1e-3, max_time=8.0, matching_period=20)
        result = dg.run(sc, cfg)

        # four certified pairs at the start, exactly the intended ones
        t0, matched0, opportunistic0 = result.matching_history[0]
        assert t0 == 0.0
        assert matched0 == ((0, 3), (2, 2), (3, 1), (4, 0))
        assert opportunistic0 == ((1, 4),)

        # the leftover pair certifies mid-run and joins the matching
        certified_later = [
            t for t, matched, _ in result.matching_history if (1, 4) in matched
        ]
        assert certified_later and certified_later[0] > 0.0

        assert result.outcome == {j: "captured" for j in range(5)}
        captures = [e for e in result.events if e.kind == "capture"]
        assert len(captures) == 5
        assert not any(e.kind == "goal_arrival" for e in result.events)
        assert not result.horizon_exceeded

        rerun = dg.run(sc, cfg)
        assert rerun == result


def test_criterion_10_region_sweep(tmp_path):
    with report(10, "region sweep: demand below bound, curve crossing located"):
        out = tmp_path / "regions.csv"
        code = cli.main(
            [
                "sweep-regions",
                "--alpha-min",
                "1.05",
                "--alpha-max",
                "10",
                "--samples",
                "500",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
        assert len(rows) == 500
        for _alpha, h_alpha, h_bar, _ratio in rows:
            assert h_alpha <= h_bar + 1e-9

        # bracket the bound/ratio crossing from the sweep, then refine
        def gap(alpha):
            return dg.curvature_demand_bound(alpha) - dg.heading_adjust_ratio(alpha)

        bracket = None
        for (a0, _, b0, r0), (a1, _, b1, r1) in zip(rows, rows[1:]):
            if (b0 - r0) * (b1 - r1) <= 0:
                bracket = (a0, a1)
                break
        assert bracket is not None
        lo, hi = bracket
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert crossing == pytest.approx(1.4655712, abs=1e-5)
        header_alpha0 = float(lines[0].split("=")[1])
        assert header_alpha0 == pytest.approx(crossing, abs=1e-6)
