import math
from dataclasses import replace

import numpy as np
import pytest

import dubinsguard as dg
from dubinsguard.geometry import aim_bearing, aim_point
from dubinsguard.model import STRAIGHT_EPS, _as_point


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


def goal_gap(height: float) -> float:
    """Reference: distance between the goal half-plane and a closed evasion
    disk whose aim point sits at ``height``; -inf once the interiors
    intersect, a marker of lost separation rather than a length."""
    return height if height >= 0.0 else -math.inf


def er_goal_distance(x_p, x_e, alpha: float) -> float:
    """Reference: ``goal_gap`` of the pair's aim height."""
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

    ``evader_control`` is either the evader's fixed control (x, y) or a map
    from the pair's positions ``(x_p, x_e)`` to its control.  The pair is
    stepped on floats, through ``strategies.pursuit_intercept`` and the
    model's step kernels, as the simulator steps it.

    Returns (clearances, controls, heading_errors, capture_time).
    """
    x_p, theta, x_e = pair_floats(state)
    fixed = None if callable(evader_control) else _as_point(evader_control)
    clearances = [er_goal_distance(x_p, x_e, p.alpha)]
    controls = []
    errors = [abs(dg.heading_error(x_p, theta, x_e, p.alpha))]
    captured = None
    for k in range(steps):
        u_e = fixed if fixed is not None else _as_point(evader_control(x_p, x_e))
        u_p = dg.pursuit_intercept(x_p, x_e, u_e, p)
        controls.append(u_p)
        px, py, theta = dg.step_pursuer(*x_p, theta, u_p, dt, p.v_p, p.kappa)
        x_p = (px, py)
        x_e = dg.step_evader(*x_e, u_e, dt, p.v_e)
        if math.hypot(x_p[0] - x_e[0], x_p[1] - x_e[1]) <= p.r:
            captured = (k + 1) * dt
            break
        x, y, _ = aim_point(x_p, x_e, p.alpha)
        angle = aim_bearing(x_p, x, y)
        if snap_band is not None and 0.0 < abs(dg.wrap_to_pi(angle - theta)) <= snap_band:
            theta = angle
        clearances.append(goal_gap(y))
        errors.append(abs(dg.wrap_to_pi(angle - theta)))
    return clearances, controls, errors, captured


def pair_floats(state: dg.JointState):
    """A pair state as the float kernels take it: (x_p, theta, x_e)."""
    return state.pursuer.pos, state.pursuer.theta, state.evader.pos


def reference_step_pursuer(
    s: dg.PursuerState, u_p: float, dt: float, p: dg.GameParams
) -> dg.PursuerState:
    """``model.step_pursuer`` as it was on validated states, before it
    became a float kernel: the reference the kernel must match bit for
    bit."""
    if not (math.isfinite(u_p) and math.isfinite(dt)):
        raise ValueError("non-finite control or time step")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x, y = float(s.pos[0]), float(s.pos[1])
    theta = s.theta
    if abs(u_p) < STRAIGHT_EPS:
        step = p.v_p * dt
        return dg.PursuerState(
            pos=np.array([x + step * math.cos(theta), y + step * math.sin(theta)]),
            theta=theta,
        )
    rad = p.kappa / u_p
    theta_new = theta + p.v_p * u_p * dt / p.kappa
    return dg.PursuerState(
        pos=np.array(
            [
                x + rad * (math.sin(theta_new) - math.sin(theta)),
                y - rad * (math.cos(theta_new) - math.cos(theta)),
            ]
        ),
        theta=dg.wrap_angle(theta_new),
    )


def reference_step_evader(s: dg.EvaderState, u_e, dt: float, p: dg.GameParams) -> dg.EvaderState:
    """``model.step_evader`` as it was on validated states."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u = np.array(_as_point(u_e))
    norm = math.hypot(u[0], u[1])
    if norm > 1.0 + 1e-12:
        raise ValueError(f"evader control must lie in the unit disk, |u| = {norm}")
    return dg.EvaderState(pos=np.asarray(s.pos) + p.v_e * dt * u)


def reference_pursuit_intercept(state: dg.JointState, u_e, p: dg.GameParams, diag=None) -> float:
    """``strategies.pursuit_intercept`` as it was, with the gains on numpy
    arrays."""
    x_p, y_p = float(state.pursuer.pos[0]), float(state.pursuer.pos[1])
    x_e, y_e = float(state.evader.pos[0]), float(state.evader.pos[1])
    alpha = p.alpha
    dx = x_p - x_e
    dy = y_p - y_e
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        raise ValueError("pursuer and evader positions coincide")
    shared = p.kappa * (alpha * dist + dy)
    denom = (alpha * alpha + 1.0) * dist + 2.0 * alpha * dy
    vec = np.array([shared * dy / (dist * dist * denom), -shared * dx / (dist * dist * denom)])
    bias = -alpha * shared * dx / (dist**1.5 * denom**1.5)
    u_e = np.asarray(u_e, dtype=float)
    u = float(vec[0] * u_e[0] + vec[1] * u_e[1] + bias)
    if u > 1.0 or u < -1.0:
        if diag is not None:
            diag.record(abs(u) - 1.0)
        u = max(-1.0, min(1.0, u))
    return u


def reference_evader_optimal(state: dg.JointState, p: dg.GameParams) -> np.ndarray:
    """``strategies.evader_optimal`` as it was on validated states."""
    x, y, _ = aim_point(state.pursuer.pos, state.evader.pos, p.alpha)
    vec = np.array([x, y]) - state.evader.pos
    return vec / math.hypot(vec[0], vec[1])


def reference_two_step(state: dg.JointState, u_e, p: dg.GameParams, mode, diag=None):
    """``strategies.two_step`` as it was on validated states."""
    if mode.phase is dg.Phase.INTERCEPTING:
        return reference_pursuit_intercept(state, u_e, p, diag), mode
    x_p = state.pursuer.pos
    x, y, _ = aim_point(x_p, state.evader.pos, p.alpha)
    err = dg.wrap_to_pi(aim_bearing(x_p, x, y) - state.pursuer.theta)
    aligned = abs(err) <= dg.IO_TOL
    if not aligned and mode.last_error is not None:
        aligned = (
            (err > 0.0) != (mode.last_error > 0.0)
            and abs(err) < 0.5 * math.pi
            and abs(mode.last_error) < 0.5 * math.pi
        )
    if aligned and dg.intercept_feasible(p.r, p.kappa, p.alpha):
        return reference_pursuit_intercept(state, u_e, p, diag), dg.TwoStepState(
            dg.Phase.INTERCEPTING
        )
    return dg.turn_direction(err), replace(mode, last_error=err)


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


def reference_fmt(value) -> str:
    """Reference cell format of the trajectory CSV: empty for None, floats
    at 9 significant digits, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def reference_write_trajectory_csv(result, fh):
    """Reference trajectory writer: every row of every step formatted cell
    by cell and written on its own."""
    agents = sorted(result.trajectories, key=lambda name: (name[0] == "P", int(name[1:])))
    labels = [f"{agent},{'pursuer' if agent[0] == 'P' else 'evader'}" for agent in agents]
    fh.write("t,agent,kind,x,y,theta,u,status,target\n")
    for step in zip(*(result.trajectories[agent] for agent in agents), strict=True):
        for label, (t, x, y, theta, u, _mode, status, target) in zip(labels, step):
            target_name = "" if target is None else f"E{target + 1}"
            fh.write(
                f"{reference_fmt(t)},{label},{reference_fmt(x)},{reference_fmt(y)},"
                f"{reference_fmt(theta)},{reference_fmt(u)},{status},{target_name}\n"
            )
