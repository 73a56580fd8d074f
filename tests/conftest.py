import math

import numpy as np
import pytest

import dubinsguard as dg
from dubinsguard.geometry import aim_point, goal_gap


@pytest.fixture(scope="session")
def paper():
    """Parameter set of the reference experiment: r=0.1, kappa=0.0625,
    v_p=0.3, speed ratio 6.3."""
    return dg.GameParams.from_alpha(v_p=0.3, alpha=6.3, kappa=0.0625, r=0.1)


def make_state(px, py, theta, ex, ey) -> dg.JointState:
    return dg.JointState(
        pursuer=dg.PursuerState(pos=np.array([px, py]), theta=theta),
        evader=dg.EvaderState(pos=np.array([ex, ey])),
    )


def aligned_state(px, py, ex, ey, alpha) -> dg.JointState:
    """State with the pursuer heading snapped exactly to the interception
    angle."""
    data = dg.interception((px, py), (ex, ey), alpha)
    return make_state(px, py, data.angle, ex, ey)


def er_goal_distance(x_p, x_e, alpha: float) -> float:
    """Reference: distance between the closed evasion disk and the goal
    half-plane, -inf once the interiors intersect (``geometry.goal_gap`` of
    the pair's aim height)."""
    return goal_gap(float(aim_point(x_p, x_e, alpha)[1]))


def adjacency(graph: dg.WinGraph) -> dict[int, list[int]]:
    """Reference: every pursuer's evader neighbours in ascending order."""
    return {
        i: sorted(j for (k, j) in graph.edges if k == i) for i in range(graph.n_pursuers)
    }


def bare_intercept_run(
    state: dg.JointState,
    p: dg.GameParams,
    dt: float,
    steps: int,
    evader_control,
    snap_band: float = 1e-5,
):
    """Roll the interception-tracking strategy forward against a given
    evader control law; mirrors the simulator's per-step snap protocol.

    Returns (clearances, controls, heading_errors, capture_time).
    """
    ps, es = state.pursuer, state.evader
    clearances = [er_goal_distance(ps.pos, es.pos, p.alpha)]
    controls = []
    errors = [abs(dg.heading_error(dg.JointState(pursuer=ps, evader=es), p))]
    captured = None
    for k in range(steps):
        pair = dg.JointState(pursuer=ps, evader=es)
        u_e = evader_control(pair)
        u_p = dg.pursuit_intercept(pair, u_e, p)
        controls.append(u_p)
        ps = dg.step_pursuer(ps, u_p, dt, p)
        es = dg.step_evader(es, u_e, dt, p)
        if float(np.linalg.norm(ps.pos - es.pos)) <= p.r:
            captured = (k + 1) * dt
            break
        if snap_band is not None:
            data = dg.interception(ps.pos, es.pos, p.alpha)
            if 0.0 < abs(dg.wrap_to_pi(data.angle - ps.theta)) <= snap_band:
                ps = dg.PursuerState(pos=ps.pos, theta=data.angle)
        pair = dg.JointState(pursuer=ps, evader=es)
        clearances.append(er_goal_distance(ps.pos, es.pos, p.alpha))
        errors.append(abs(dg.heading_error(pair, p)))
    return clearances, controls, errors, captured


def brute_force_matching_size(n_pursuers: int, adjacency: dict[int, list[int]]) -> int:
    """Exhaustive maximum-matching cardinality via bitmask recursion."""
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == n_pursuers:
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        score = best(i + 1, used)
        for j in adjacency.get(i, []):
            bit = 1 << j
            if not used & bit:
                score = max(score, 1 + best(i + 1, used | bit))
        memo[key] = score
        return score

    return best(0, 0)
