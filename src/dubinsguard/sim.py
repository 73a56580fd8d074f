"""Receding-horizon multiplayer game loop.

Every step (or every ``matching_period`` steps) the win graph over all
active pairs is rebuilt, a maximum matching assigns pursuers to evaders, and
leftover pursuers chase the nearest unmatched evader.  Evader controls are
computed first and fed to the pursuer strategies; both teams are integrated
exactly under zero-order-hold controls; capture and goal-arrival crossings
are located by linear interpolation inside the step.  The pair distances are
one ``(n_p, n_e)`` array per step, shared by the capture screen and by the
nearest-pursuer choice of ``optimal`` evaders.  A ``dt`` long enough for a
pursuer and an evader to close a capture radius in one step is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .certificates import CertificateKind, intercept_feasible
from .geometry import heading_error, interception
from .matching import assign, build_graph, max_matching
from .model import (
    DUBINS,
    EvaderState,
    GameParams,
    JointState,
    PursuerState,
    Scenario,
    step_evader,
    step_pursuer,
    validate_scenario,
)
from .strategies import (
    ClampDiagnostics,
    evader_constant,
    evader_optimal,
    evader_random_goal,
    heading_adjust,
    pursuit_intercept,
    pursuit_simple,
)

ACTIVE = "active"
CAPTURED = "captured"
REACHED_GOAL = "reached_goal"

MODE_INTERCEPT = "intercept"
MODE_ADJUST = "adjust"
MODE_SIMPLE = "simple"

#: Heading drift band inside which the interception-tracking mode re-snaps
#: the stored heading to the interception angle after each step.  The
#: continuous strategy keeps the alignment invariant exactly; the snap
#: removes the O(dt^2) integration noise that would otherwise accumulate.
SNAP_FACTOR = 10.0


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    max_time: float = 20.0
    matching_period: int = 1
    io_tol: float = 1e-6
    sticky: bool = False
    seed: int | None = None

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.max_time < self.dt:
            raise ValueError("max_time must be at least dt")
        if self.matching_period < 1:
            raise ValueError("matching_period must be >= 1")


@dataclass(frozen=True)
class Event:
    t: float
    kind: str
    pursuer: int | None = None
    evader: int | None = None
    detail: tuple = ()


@dataclass
class SimResult:
    trajectories: dict[str, list[tuple]]
    events: list[Event]
    outcome: dict[int, str]
    matching_history: list[tuple[float, tuple, tuple]]
    horizon_exceeded: bool
    clamp_events: int
    clamp_max_excess: float


def detect_crossing(prev: float, nxt: float, threshold: float) -> float | None:
    """Fraction of the step at which a decreasing quantity crosses the
    threshold; None when it does not.  A value already sitting exactly on
    the threshold counts as crossed at fraction 0."""
    if nxt > threshold or prev < threshold:
        return None
    if prev == nxt:
        return 0.0
    return (prev - threshold) / (prev - nxt)


def pair_distances(p_pos: np.ndarray, e_pos: np.ndarray) -> np.ndarray:
    """Distance of every pursuer to every evader, an ``(n_p, n_e)`` array.

    Each entry is ``sqrt(d . d)`` through the same dot product that
    ``np.linalg.norm`` takes for a 1-D vector, so it equals
    ``np.linalg.norm(p - e)`` bit for bit; ``np.hypot`` and
    ``sqrt(dx*dx + dy*dy)`` can differ from it in the last place.
    """
    d = p_pos[:, None, :] - e_pos[None, :, :]
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def detect_captures(
    prev: np.ndarray, dist: np.ndarray, radii: np.ndarray, active: np.ndarray
) -> dict[int, tuple[float, int]]:
    """Capture crossings of one step over all pairs.

    ``prev`` and ``dist`` are the ``(n_p, n_e)`` pair distances at the start
    and the end of the step, ``radii`` the pursuers' capture radii and
    ``active`` a boolean mask of the evaders in play.  Returns, for every
    active evader that entered a capture disk, ``(fraction, pursuer)`` of the
    earliest crossing by ``detect_crossing``'s rule; on equal fractions the
    lowest pursuer index wins.
    """
    r = radii[:, None]
    hit = (dist <= r) & (prev >= r) & active
    found: dict[int, tuple[float, int]] = {}
    # np.nonzero walks the hits row by row, so pursuers come in index order
    for i, j in zip(*np.nonzero(hit)):
        i, j = int(i), int(j)
        frac = detect_crossing(float(prev[i, j]), float(dist[i, j]), float(radii[i]))
        if j not in found or frac < found[j][0]:
            found[j] = (frac, i)
    return found


def _positions(states) -> np.ndarray:
    return np.array([s.pos for s in states])


def run(sc: Scenario, cfg: SimConfig) -> SimResult:
    """Play the scenario out; returns trajectories, events and outcomes.

    Terminates when no active evader remains in the play region or the time
    horizon is exceeded (reported via ``horizon_exceeded``, not raised).
    Deterministic: identical inputs give identical results bit for bit.

    Captures are detected from the pair distances at the ends of each step.
    A ``dt`` with ``(v_i + max_j v_e_j) * dt >= r_i`` for some pursuer ``i``
    is refused (``ValueError``): a head-on pass could then jump the capture
    disk between two steps.  At an accepted ``dt`` a grazing pass whose chord
    through the capture disk is shorter than one step can still be missed.
    """
    if not sc.pursuers or not sc.evaders:
        raise ValueError("scenario needs at least one pursuer and one evader")
    violations = validate_scenario(sc)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(violations))
    v_e_max = max(spec.v for spec in sc.evaders)
    for i, spec in enumerate(sc.pursuers):
        closing = (spec.v + v_e_max) * cfg.dt
        if closing >= spec.r:
            raise ValueError(
                f"dt={cfg.dt:g} is too large: pursuer {i} and the fastest evader "
                f"close up to {closing:g} in one step, not less than its capture "
                f"radius r={spec.r:g}"
            )

    n_p = len(sc.pursuers)
    n_e = len(sc.evaders)
    rng = np.random.default_rng(sc.seed if cfg.seed is None else cfg.seed)

    pursuers = [spec.state for spec in sc.pursuers]
    evaders = [spec.state for spec in sc.evaders]
    e_status = [ACTIVE] * n_e
    e_heading: list[float | None] = []
    for j, spec in enumerate(sc.evaders):
        if spec.strategy == "constant":
            e_heading.append(float(spec.heading))
        elif spec.strategy == "random_goal":
            e_heading.append(evader_random_goal(evaders[j].pos, rng))
        else:
            e_heading.append(None)

    params: dict[tuple[int, int], GameParams] = {
        (i, j): sc.pair_params(i, j) for i in range(n_p) for j in range(n_e)
    }
    motion = {i: sc.pursuers[i].motion for i in range(n_p)}
    # Stepping reads only an agent's own constants: its speed, and for a car
    # its turning radius.
    p_own = [SimpleNamespace(v_p=spec.v, kappa=spec.kappa) for spec in sc.pursuers]
    e_own = [SimpleNamespace(v_e=spec.v) for spec in sc.evaders]
    radii = np.array([spec.r for spec in sc.pursuers])

    target: list[int | None] = [None] * n_p
    mode = [MODE_SIMPLE if motion[i] != DUBINS else MODE_ADJUST for i in range(n_p)]
    last_err: list[float | None] = [None] * n_p

    diag = ClampDiagnostics()
    events: list[Event] = []
    matching_history: list[tuple[float, tuple, tuple]] = []
    trajectories: dict[str, list[tuple]] = {}
    for i in range(n_p):
        trajectories[f"P{i + 1}"] = []
    for j in range(n_e):
        trajectories[f"E{j + 1}"] = []

    prev_matched: dict[int, int] = {}
    matched: dict[int, int] = {}
    opportunistic: dict[int, int] = {}

    def refresh_assignment(t: float):
        nonlocal matched, opportunistic, prev_matched, target, mode, last_err
        active = [j for j in range(n_e) if e_status[j] == ACTIVE]
        pair_states = {
            (i, j): JointState(pursuer=pursuers[i], evader=evaders[j])
            for i in range(n_p)
            for j in active
        }
        graph = build_graph(pair_states, params, n_p, n_e, motion)
        if cfg.sticky:
            kept = {
                i: j
                for i, j in matched.items()
                if (i, j) in graph.edges and e_status[j] == ACTIVE
            }
            residual_edges = {
                (i, j): c
                for (i, j), c in graph.edges.items()
                if i not in kept and j not in kept.values()
            }
            residual = type(graph)(
                n_pursuers=n_p, n_evaders=n_e, edges=residual_edges
            )
            new_matched = dict(kept)
            new_matched.update(max_matching(residual))
        else:
            new_matched = max_matching(graph)
        assignment = assign(
            graph,
            new_matched,
            [pursuers[i].pos for i in range(n_p)],
            {j: evaders[j].pos for j in active},
        )
        matched = assignment.matched
        opportunistic = assignment.opportunistic
        if matched != prev_matched:
            events.append(
                Event(
                    t=t,
                    kind="matching_changed",
                    detail=tuple(sorted(matched.items())),
                )
            )
            prev_matched = dict(matched)
        matching_history.append(
            (t, tuple(sorted(matched.items())), tuple(sorted(opportunistic.items())))
        )
        for i in range(n_p):
            new_target = matched.get(i, opportunistic.get(i))
            if new_target != target[i]:
                target[i] = new_target
                last_err[i] = None
                if motion[i] != DUBINS:
                    mode[i] = MODE_SIMPLE
                elif (i, new_target) in graph.edges and graph.edges[
                    (i, new_target)
                ].kind is CertificateKind.INTERCEPT:
                    mode[i] = MODE_INTERCEPT
                else:
                    mode[i] = MODE_ADJUST

    t = 0.0
    step_index = 0
    horizon_exceeded = False
    # Pair distances at the current positions: computed before the loop and
    # after each step's integration and heading re-snap.  Evaders leaving
    # play are then moved to their event points, but their columns are
    # never read again.
    e_pos = _positions(evaders)
    dist = pair_distances(_positions(pursuers), e_pos)

    while True:
        if step_index % cfg.matching_period == 0:
            refresh_assignment(t)

        # Evasion team first: the pursuit side observes these controls.
        assigned_to: dict[int, int] = {}
        for i in range(n_p):
            if target[i] is not None and target[i] not in assigned_to:
                assigned_to[target[i]] = i
        e_controls: list[np.ndarray | None] = [None] * n_e
        for j in range(n_e):
            if e_status[j] != ACTIVE:
                continue
            spec = sc.evaders[j]
            if spec.strategy == "optimal":
                i_ref = assigned_to.get(j)
                if i_ref is None:
                    i_ref = int(np.argmin(dist[:, j]))  # first nearest pursuer
                e_controls[j] = evader_optimal(
                    JointState(pursuer=pursuers[i_ref], evader=evaders[j]),
                    params[(i_ref, j)],
                )
            else:
                e_controls[j] = evader_constant(e_heading[j])

        p_controls: list[float | np.ndarray | None] = [None] * n_p
        for i in range(n_p):
            j = target[i]
            if j is None or e_status[j] != ACTIVE:
                p_controls[i] = None if motion[i] != DUBINS else 0.0
                continue
            pair = JointState(pursuer=pursuers[i], evader=evaders[j])
            pr = params[(i, j)]
            if motion[i] != DUBINS:
                p_controls[i] = pursuit_simple(pursuers[i].pos, evaders[j].pos, pr.alpha)
                continue
            if mode[i] == MODE_ADJUST:
                err = heading_error(pair, pr)
                aligned = abs(err) <= cfg.io_tol
                if not aligned and last_err[i] is not None:
                    aligned = (
                        (err > 0.0) != (last_err[i] > 0.0)
                        and abs(err) < 0.5 * math.pi
                        and abs(last_err[i]) < 0.5 * math.pi
                    )
                # switching to interception tracking also needs the
                # curvature-feasibility parameter check
                if aligned and not intercept_feasible(pr.r, pr.kappa, pr.alpha):
                    aligned = False
                if aligned:
                    snapped = interception(pursuers[i].pos, evaders[j].pos, pr.alpha)
                    pursuers[i] = PursuerState(pos=pursuers[i].pos, theta=snapped.angle)
                    pair = JointState(pursuer=pursuers[i], evader=evaders[j])
                    mode[i] = MODE_INTERCEPT
                    last_err[i] = None
                    events.append(Event(t=t, kind="io_achieved", pursuer=i, evader=j))
                else:
                    last_err[i] = err
            if mode[i] == MODE_INTERCEPT:
                p_controls[i] = pursuit_intercept(pair, e_controls[j], pr, diag)
            else:
                p_controls[i] = heading_adjust(pair, pr)

        for i in range(n_p):
            u = p_controls[i]
            if motion[i] == DUBINS:
                row_u = u
                theta = pursuers[i].theta
            else:
                row_u = None if u is None else math.atan2(u[1], u[0])
                theta = pursuers[i].theta
            trajectories[f"P{i + 1}"].append(
                (
                    t,
                    float(pursuers[i].pos[0]),
                    float(pursuers[i].pos[1]),
                    theta,
                    row_u,
                    mode[i],
                    ACTIVE,
                    target[i],
                )
            )
        for j in range(n_e):
            u = e_controls[j]
            row_u = None if u is None else math.atan2(u[1], u[0])
            trajectories[f"E{j + 1}"].append(
                (
                    t,
                    float(evaders[j].pos[0]),
                    float(evaders[j].pos[1]),
                    None,
                    row_u,
                    sc.evaders[j].strategy,
                    e_status[j],
                    None,
                )
            )

        prev_dist, prev_e_pos = dist, e_pos

        # Integrate under zero-order hold.
        for i in range(n_p):
            u = p_controls[i]
            if motion[i] == DUBINS:
                pursuers[i] = step_pursuer(pursuers[i], u, cfg.dt, p_own[i])
            elif u is not None:
                pursuers[i] = PursuerState(
                    pos=pursuers[i].pos + p_own[i].v_p * cfg.dt * u,
                    theta=math.atan2(u[1], u[0]),
                )
        for j in range(n_e):
            if e_status[j] == ACTIVE and e_controls[j] is not None:
                evaders[j] = step_evader(evaders[j], e_controls[j], cfg.dt, e_own[j])

        # Re-snap the alignment invariant against integration drift.
        for i in range(n_p):
            j = target[i]
            if (
                motion[i] == DUBINS
                and mode[i] == MODE_INTERCEPT
                and j is not None
                and e_status[j] == ACTIVE
            ):
                pair = JointState(pursuer=pursuers[i], evader=evaders[j])
                err = heading_error(pair, params[(i, j)])
                if 0.0 < abs(err) <= SNAP_FACTOR * cfg.io_tol:
                    data = interception(
                        pursuers[i].pos, evaders[j].pos, params[(i, j)].alpha
                    )
                    pursuers[i] = PursuerState(pos=pursuers[i].pos, theta=data.angle)

        # Event detection: capture before goal arrival, earlier fraction wins.
        e_pos = _positions(evaders)
        dist = pair_distances(_positions(pursuers), e_pos)
        active = np.array([status == ACTIVE for status in e_status])
        captures = detect_captures(prev_dist, dist, radii, active)
        for j in range(n_e):
            if e_status[j] != ACTIVE:
                continue
            cap_frac, cap_by = captures.get(j, (None, None))
            goal_frac = detect_crossing(float(prev_e_pos[j, 1]), float(e_pos[j, 1]), 0.0)
            if cap_frac is not None and (goal_frac is None or cap_frac <= goal_frac):
                t_event = t + cap_frac * cfg.dt
                e_status[j] = CAPTURED
                evaders[j] = EvaderState(
                    pos=prev_e_pos[j] + cap_frac * (evaders[j].pos - prev_e_pos[j])
                )
                events.append(Event(t=t_event, kind="capture", pursuer=cap_by, evader=j))
            elif goal_frac is not None:
                t_event = t + goal_frac * cfg.dt
                e_status[j] = REACHED_GOAL
                evaders[j] = EvaderState(
                    pos=prev_e_pos[j] + goal_frac * (evaders[j].pos - prev_e_pos[j])
                )
                events.append(Event(t=t_event, kind="goal_arrival", evader=j))

        t += cfg.dt
        step_index += 1
        if all(status != ACTIVE for status in e_status):
            break
        if t >= cfg.max_time - 1e-15:
            horizon_exceeded = True
            break

    for i in range(n_p):
        trajectories[f"P{i + 1}"].append(
            (
                t,
                float(pursuers[i].pos[0]),
                float(pursuers[i].pos[1]),
                pursuers[i].theta,
                None,
                mode[i],
                ACTIVE,
                target[i],
            )
        )
    for j in range(n_e):
        trajectories[f"E{j + 1}"].append(
            (
                t,
                float(evaders[j].pos[0]),
                float(evaders[j].pos[1]),
                None,
                None,
                sc.evaders[j].strategy,
                e_status[j],
                None,
            )
        )

    return SimResult(
        trajectories=trajectories,
        events=events,
        outcome={j: e_status[j] for j in range(n_e)},
        matching_history=matching_history,
        horizon_exceeded=horizon_exceeded,
        clamp_events=diag.events,
        clamp_max_excess=diag.max_excess,
    )
