"""Receding-horizon multiplayer game loop.

``run`` checks its ``dt`` against the scenario, then repeats five stages
over one per-game state object until no evader is in play or the horizon is
reached:

- assign: every step (or every ``matching_period`` steps) the win graph over
  the active pairs is rebuilt, a maximum matching of what its kept pairs
  leave (``sticky``: the previous pairs still edges) assigns pursuers to
  evaders, and leftover pursuers chase the nearest unmatched evader (the
  nearest evader when every one is held); certificates are read only as
  edge keys, and the graph matched holds bare keys.  One pass over the active pairs skips those whose separation
  window is open (see ``WINDOW_MARGIN``): no pair in a window could be an
  edge, so the graph is the one a full rebuild would give.  It carries an
  intercepting car's own pair as a bare edge key when ``intercepts`` holds
  at the car's last re-snap aim, and hands the rest to ``build_graph``,
  which runs only when some pair is left, with each pair's last two-step
  solve (``anchors``), which it may carry instead of solving again (see
  ``run`` for where a carried pair can differ from a new solve).  An
  unchanged edge-key set reuses its matching (bundled 5v5, period 1: 7,166
  keys carried, ``build_graph`` in 648 of 1,899 refreshes for 980 pairs,
  64 sextic solves for 307 two-step certificates, 6 ``max_matching``
  calls);
- controls: evader controls first, then the pursuers', which observe them.
  Every car runs ``strategies.two_step_command``, the one adjust-then-
  intercept phase machine and the only way into interception; the simulator
  snaps a car's heading when its phase switches, and logs ``io_achieved``;
- record: one trajectory row per agent;
- integrate: each car, and each active simple-motion agent, moves exactly
  under its zero-order-hold control, one ``model.step_pursuer`` or
  ``step_evader`` call each, and intercepting cars are re-snapped against
  drift, each car keeping its last re-snap's aim;
- detect: capture and goal-arrival crossings are located by linear
  interpolation inside the step.  After each capture screen, the steps
  that provably end with every active pair outside its capture disk are
  counted (``_quiet_steps``); they test goal crossings only.

Agent state is plain floats: positions and controls are ``(x, y)`` float
pairs, the library's one point type, stepped by the float kernels of
``model`` and ``strategies``.  A scenario's state positions are such pairs
already, so they are read as they are, and the validated state objects of
the win graph, built only for agents with a pair neither windowed nor
carried, take the pairs without conversion.  Arrays appear
only where all pairs are batched: the pair distances are one ``(n_p, n_e)``
array from ``model.pair_distances``, shared by the capture screen, the
nearest-pursuer choice of ``optimal`` evaders and the leftover pursuers'
nearest evader.  It is computed at the steps the capture screen runs, at
the last of a run of quiet steps, and when a refresh with an unmatched
pursuer or an ``optimal`` evader without a pursuer asks for it.  A ``dt``
long enough for a pursuer and an evader to close a capture radius in one
step is refused.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import IO_TOL, aim_bearing, aim_height_rate, aim_point
from .matching import WinGraph, assign, build_graph, carried_edges, max_matching
from .model import (
    DUBINS,
    STRAIGHT_EPS,
    EvaderState,
    JointState,
    PursuerState,
    Scenario,
    _positive,
    pair_distances,
    step_evader,
    step_pursuer,
    wrap_angle,
    wrap_to_pi,
)
from .strategies import (
    ClampDiagnostics,
    Phase,
    TwoStepState,
    evader_constant,
    evader_optimal,
    evader_random_goal,
    pursuit_simple,
    two_step_command,
)

ACTIVE = "active"
CAPTURED = "captured"
REACHED_GOAL = "reached_goal"

#: Heading drift band, in units of ``IO_TOL``, inside which an intercepting
#: car's stored heading is re-snapped to the interception angle after each
#: step.  The continuous strategy keeps the alignment invariant exactly; the
#: snap removes the O(dt^2) integration noise that would otherwise accumulate.
SNAP_FACTOR = 10.0

#: Margin, in units of aim height, that a separation window keeps.  A pair
#: reported at aim height y < 0 still lacks separation, with an aim height
#: below -WINDOW_MARGIN, for (-y - WINDOW_MARGIN) / ``aim_height_rate`` of
#: game time: its window.  The margin absorbs the rounding of the heights.
WINDOW_MARGIN = 1e-12

#: Bound, per unit of turning radius, on how far a car's float step can end
#: beyond the arc it integrates: ``model.step_pursuer`` scales differences
#: of sines, each a few ulps off, by a turn radius of up to kappa /
#: STRAIGHT_EPS.  At the smallest turn commands the overshoot reaches about
#: 2e-4 kappa per step.
CAR_STEP_ROUNDING = 8.0 * sys.float_info.epsilon / STRAIGHT_EPS

#: Relative rounding allowance of the capture-quiet count (``_quiet_steps``).
QUIET_ROUNDING = 16.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    max_time: float = 20.0
    matching_period: int = 1
    sticky: bool = False

    def __post_init__(self):
        _positive("dt", self.dt)
        if not (math.isfinite(self.max_time) and self.max_time >= self.dt):
            raise ValueError(f"max_time must be finite and at least dt, got {self.max_time}")
        period = self.matching_period
        if isinstance(period, bool) or not (isinstance(period, (int, np.integer)) and period >= 1):
            raise ValueError(f"matching_period must be an integer >= 1, got {period!r}")


@dataclass(frozen=True)
class Event:
    t: float
    kind: str
    pursuer: int | None = None
    evader: int | None = None
    detail: tuple = ()


@dataclass
class SimResult:
    """``trajectories``: one row ``(t, x, y, theta, u, mode, status, target)``
    per agent (``P1``.., ``E1``..) per step; the k-th rows of all agents
    share one ``t``, which strictly increases."""

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


def _with_heading(u: tuple[float, float]) -> tuple[tuple[float, float], float]:
    """A simple-motion control as (unit control, heading)."""
    return u, math.atan2(u[1], u[0])


def _validate(sc: Scenario, cfg: SimConfig) -> list[float]:
    """Refuse a ``dt`` at which a pursuer and an evader can close a capture
    radius in one step; returns each pursuer's closing per step, (v_i +
    max_j v_e_j) * dt."""
    v_e_max = max(spec.v for spec in sc.evaders)
    closing = [(spec.v + v_e_max) * cfg.dt for spec in sc.pursuers]
    for i, (spec, step) in enumerate(zip(sc.pursuers, closing)):
        if step >= spec.r:
            raise ValueError(
                f"dt={cfg.dt:g} is too large: pursuer {i} and the fastest evader "
                f"close up to {step:g} in one step, not less than its capture "
                f"radius r={spec.r:g}"
            )
    return closing


def _quiet_steps(dist: np.ndarray, radii: np.ndarray, steps: np.ndarray, scale: float) -> int:
    """How many coming steps provably end with every pair of ``dist`` (the
    pair distances at the current positions) outside its capture disk.

    One step closes pursuer ``i`` and any evader by at most ``steps[i]``, so
    a pair with gap g = dist - r stays outside for g / steps[i] steps.  A
    rounding allowance of QUIET_ROUNDING * (1 + 4 scale), ``scale`` the
    largest coordinate in play, is taken off each gap and added to each
    step: it covers the rounding of the distances and of the positions a
    step writes, as no agent moves farther than the largest distance,
    itself below 3 scale, before the count runs out."""
    if dist.size == 0:
        return 0
    rounding = QUIET_ROUNDING * (1.0 + 4.0 * scale)
    slack = (dist - radii[:, None] - rounding) / (steps[:, None] + rounding)
    return max(0, math.floor(float(slack.min())))


class _Game:
    """State of one game in play, with one method per simulator stage.

    Agents are plain floats: ``p_xy[i]`` and ``e_xy[j]`` are (x, y) tuples,
    ``theta[i]`` is pursuer ``i``'s heading in [0, 2*pi) and ``phases[i]``
    its ``TwoStepState``, None for a simple-motion pursuer.
    """

    def __init__(self, sc: Scenario, cfg: SimConfig):
        closing = _validate(sc, cfg)
        self.sc = sc
        self.cfg = cfg
        self.n_p = n_p = len(sc.pursuers)
        self.n_e = n_e = len(sc.evaders)
        rng = np.random.default_rng(sc.seed)

        self.p_xy = [spec.state.pos for spec in sc.pursuers]
        self.theta = [spec.state.theta for spec in sc.pursuers]
        self.e_xy = [spec.state.pos for spec in sc.evaders]
        self.status = [ACTIVE] * n_e
        # Per game, the (unit control, recorded heading) of every evader
        # that holds a constant heading; None for an ``optimal`` one.
        self.e_fixed: list[tuple | None] = []
        for spec in sc.evaders:
            if spec.strategy == "optimal":
                self.e_fixed.append(None)
                continue
            constant = spec.strategy == "constant"
            heading = spec.heading if constant else evader_random_goal(rng)
            self.e_fixed.append(_with_heading(evader_constant(heading)))

        self.params = {(i, j): sc.pair_params(i, j) for i in range(n_p) for j in range(n_e)}
        # Game time until which each pair the graph reported without
        # separation provably stays so, and each pair's last two-step solve
        # (``build_graph``'s anchors).
        self.unseparated_until: dict[tuple[int, int], float] = {}
        self.anchors: dict = {}
        self.radii = np.array([spec.r for spec in sc.pursuers])
        # How far each pursuer and an evader can close in one float step.
        self.steps = np.array(
            [c + spec.kappa * CAR_STEP_ROUNDING for c, spec in zip(closing, sc.pursuers)]
        )

        self.target: list[int | None] = [None] * n_p
        self.phases: list[TwoStepState | None] = [
            TwoStepState() if spec.motion == DUBINS else None for spec in sc.pursuers
        ]
        self.matched: dict[int, int] = {}
        self.snap_aim: list[tuple | None] = [None] * n_p  # see ``integrate``
        self.last_match: tuple = (None, {})  # edge-key set, its matching

        self.t = 0.0
        self.diag = ClampDiagnostics()
        self.events: list[Event] = []
        self.matching_history: list[tuple[float, tuple, tuple]] = []
        self.p_rows: list[list[tuple]] = [[] for _ in range(n_p)]
        self.e_rows: list[list[tuple]] = [[] for _ in range(n_e)]
        # Pair distances at the current positions, or None after a quiet
        # step (see ``detect``), until ``distances`` is asked for them.
        # Evaders leaving play are moved to their event points after the
        # distances are taken, but their columns are never read again.
        self.dist: np.ndarray | None = None
        # Coming steps that provably end with no capture.
        self.quiet = 0
        self.measure()
        # Evader positions at the start of the step, set by ``integrate``.
        self.e_start = self.e_xy

    def assign(self):
        """Rebuild the win graph over the active pairs outside their windows,
        carrying the intercepting cars' pairs, re-match and retarget the
        pursuers.  A car with a new target restarts its phase machine and
        enters interception at once when the new pair is aligned and feasible."""
        n_p, t, until = self.n_p, self.t, self.unseparated_until
        active = [j for j in range(self.n_e) if self.status[j] == ACTIVE]
        carry, rest = {}, []
        for i, (own, phase) in enumerate(zip(self.target, self.phases)):
            if phase is None or phase.phase is not Phase.INTERCEPTING:
                own = None
            for j in active:
                if until.get((i, j), t) > t:
                    continue
                if j == own:
                    carry[i, j] = self.theta[i], self.snap_aim[i]
                else:
                    rest.append((i, j))
        carried = carried_edges(carry, self.params)
        rest += carry.keys() - carried
        edges = carried
        if rest:
            pursuers = {i: PursuerState(self.p_xy[i], self.theta[i]) for i, _ in rest}
            evaders = {j: EvaderState(pos=self.e_xy[j]) for _, j in rest}
            pair_states = {(i, j): JointState(pursuers[i], evaders[j]) for i, j in rest}
            graph = build_graph(pair_states, self.params, n_p, self.anchors)
            for key, height in graph.screened.items():
                p = self.params[key]
                until[key] = t + (-height - WINDOW_MARGIN) / aim_height_rate(p.v_p, p.alpha)
            edges = carried | graph.edges.keys()
        kept = {}
        if self.cfg.sticky:  # the graph holds active evaders only
            kept = {i: j for i, j in self.matched.items() if (i, j) in edges}
        if kept:
            held = set(kept.values())
            edges = {k for k in edges if k[0] not in kept and k[1] not in held}
        kept.update(self.match(edges))
        opportunistic = assign(kept, self.distances(), active) if len(kept) < n_p else {}
        pairs = tuple(sorted(kept.items()))
        if kept != self.matched:
            self.events.append(Event(t=t, kind="matching_changed", detail=pairs))
            self.matched = kept
        self.matching_history.append((t, pairs, tuple(sorted(opportunistic.items()))))
        for i in range(n_p):
            new_target = kept.get(i, opportunistic.get(i))
            if new_target == self.target[i]:
                continue
            self.target[i] = new_target
            if self.phases[i] is not None:
                self.phases[i] = TwoStepState()

    def match(self, keys: set) -> dict[int, int]:
        """``max_matching`` of the graph over the edge keys ``keys``, reused
        while that set is unchanged."""
        if keys != self.last_match[0]:
            self.last_match = keys, max_matching(WinGraph(self.n_p, dict.fromkeys(keys)))
        return self.last_match[1]

    def live_target(self, i: int) -> int | None:
        """Pursuer ``i``'s target, if that evader is still in play."""
        j = self.target[i]
        return j if j is not None and self.status[j] == ACTIVE else None

    def evader_controls(self) -> list[tuple | None]:
        """(unit control, recorded heading) of every active evader, None for
        the others.  An ``optimal`` evader flees its first assigned
        pursuer, or else its first nearest one."""
        assigned_to: dict[int, int] = {}
        for i, j in enumerate(self.target):
            if j is not None:
                assigned_to.setdefault(j, i)
        controls: list[tuple | None] = []
        for j, fixed in enumerate(self.e_fixed):
            if self.status[j] != ACTIVE:
                controls.append(None)
            elif fixed is not None:
                controls.append(fixed)
            else:
                i = assigned_to.get(j)
                if i is None:
                    i = int(np.argmin(self.distances()[:, j]))
                u = evader_optimal(self.p_xy[i], self.e_xy[j], self.params[(i, j)].alpha)
                controls.append(_with_heading(u))
        return controls

    def aim(self, i: int, j: int) -> tuple[float, float, float]:
        """Aim point (x, y) of car ``i`` against evader ``j`` and the
        interception angle toward it: the heading both snaps set."""
        x_p = self.p_xy[i]
        x, y, _ = aim_point(x_p, self.e_xy[j], self.params[(i, j)].alpha)
        return x, y, aim_bearing(x_p, x, y)

    def pursuer_controls(self, e_controls) -> list[float | tuple | None]:
        """Turn commands of the cars (0.0 without a live target) and, as for
        evaders, (unit control, heading) of the others (None without one)."""
        controls: list[float | tuple | None] = []
        for i, phase in enumerate(self.phases):
            j = self.live_target(i)
            if j is None:
                controls.append(None if phase is None else 0.0)
                continue
            pr = self.params[(i, j)]
            if phase is None:
                u = pursuit_simple(self.p_xy[i], self.e_xy[j], pr.alpha)
                controls.append(_with_heading(u))
                continue
            u, self.phases[i] = two_step_command(
                self.p_xy[i], self.theta[i], self.e_xy[j], e_controls[j][0], pr, phase, self.diag
            )
            if self.phases[i].phase is not phase.phase:
                self.theta[i] = self.aim(i, j)[2]
                self.events.append(Event(t=self.t, kind="io_achieved", pursuer=i, evader=j))
            controls.append(u)
        return controls

    def record(self, p_controls, e_controls):
        """Append one trajectory row per agent at the current time."""
        t = self.t
        for i, (x, y) in enumerate(self.p_xy):
            phase, u = self.phases[i], p_controls[i]
            if phase is None:
                u, mode = None if u is None else u[1], "simple"
            else:
                mode = "intercept" if phase.phase is Phase.INTERCEPTING else "adjust"
            self.p_rows[i].append((t, x, y, self.theta[i], u, mode, ACTIVE, self.target[i]))
        for j, (x, y) in enumerate(self.e_xy):
            c, strategy = e_controls[j], self.sc.evaders[j].strategy
            u = None if c is None else c[1]
            self.e_rows[j].append((t, x, y, None, u, strategy, self.status[j], None))

    def integrate(self, p_controls, e_controls):
        """Advance both teams one step under zero-order hold, and re-snap the
        intercepting cars against drift, each keeping its re-snap's aim in
        ``snap_aim``: nothing in play moves between the re-snap and the next
        refresh, so that refresh reads the aim at the current floats."""
        dt = self.cfg.dt
        for i, (spec, u) in enumerate(zip(self.sc.pursuers, p_controls)):
            x, y = self.p_xy[i]
            if self.phases[i] is not None:
                x, y, self.theta[i] = step_pursuer(x, y, self.theta[i], u, dt, spec.v, spec.kappa)
                self.p_xy[i] = (x, y)
            elif u is not None:
                self.p_xy[i] = step_evader(x, y, u[0], dt, spec.v)
                self.theta[i] = wrap_angle(u[1])
        self.e_start = self.e_xy[:]
        for j, (spec, c) in enumerate(zip(self.sc.evaders, e_controls)):
            if c is not None:
                self.e_xy[j] = step_evader(*self.e_xy[j], c[0], dt, spec.v)

        for i, phase in enumerate(self.phases):
            j = self.live_target(i)
            if j is None or phase is None or phase.phase is not Phase.INTERCEPTING:
                continue
            self.snap_aim[i] = aim = self.aim(i, j)
            if 0.0 < abs(wrap_to_pi(aim[2] - self.theta[i])) <= SNAP_FACTOR * IO_TOL:
                self.theta[i] = aim[2]

    def distances(self) -> np.ndarray:
        """The pair distances at the current positions."""
        if self.dist is None:
            self.dist = pair_distances(np.array(self.p_xy), np.array(self.e_xy))
        return self.dist

    def measure(self) -> np.ndarray:
        """Compute the pair distances at the current positions, and count
        the coming steps that provably end with no active pair in a capture
        disk (``_quiet_steps``)."""
        p_pos, e_pos = np.array(self.p_xy), np.array(self.e_xy)
        self.dist = pair_distances(p_pos, e_pos)
        active = [j for j in range(self.n_e) if self.status[j] == ACTIVE]
        scale = max(float(np.abs(p_pos).max()), float(np.abs(e_pos).max()))
        self.quiet = _quiet_steps(self.dist[:, active], self.radii, self.steps, scale)
        return self.dist

    def detect(self):
        """End the play of every evader that was captured or reached the
        goal during the step: capture before goal arrival, earlier fraction
        wins.  The evader is moved to its event point.

        A quiet step tests goal crossings only, and leaves the pair
        distances to be computed when asked for; the last quiet step
        computes them, as the next step's capture test starts from them."""
        if self.quiet > 1:
            self.quiet -= 1
            self.dist = None
            captures = {}
        elif self.quiet == 1:
            self.measure()
            captures = {}
        else:
            prev_dist = self.dist
            active = np.array([status == ACTIVE for status in self.status])
            captures = detect_captures(prev_dist, self.measure(), self.radii, active)
        for j in range(self.n_e):
            if self.status[j] != ACTIVE:
                continue
            cap_frac, cap_by = captures.get(j, (None, None))
            goal_frac = detect_crossing(self.e_start[j][1], self.e_xy[j][1], 0.0)
            if cap_frac is not None and (goal_frac is None or cap_frac <= goal_frac):
                frac, status, kind, by = cap_frac, CAPTURED, "capture", cap_by
            elif goal_frac is not None:
                frac, status, kind, by = goal_frac, REACHED_GOAL, "goal_arrival", None
            else:
                continue
            self.status[j] = status
            (sx, sy), (ex, ey) = self.e_start[j], self.e_xy[j]
            self.e_xy[j] = (sx + frac * (ex - sx), sy + frac * (ey - sy))
            self.events.append(
                Event(t=self.t + frac * self.cfg.dt, kind=kind, pursuer=by, evader=j)
            )


def run(sc: Scenario, cfg: SimConfig) -> SimResult:
    """Play the scenario out; returns trajectories, events and outcomes.

    Terminates when no active evader remains in the play region or the time
    horizon is exceeded (reported via ``horizon_exceeded``, not raised).
    Deterministic: identical inputs give identical results bit for bit.
    A ``Scenario`` is admissible by construction, so the one check left here
    is on ``dt``.

    Captures are detected from the pair distances at the ends of each step.
    A ``dt`` with ``(v_i + max_j v_e_j) * dt >= r_i`` for some pursuer ``i``
    is refused (``ValueError``): a head-on pass could then jump the capture
    disk between two steps.  At an accepted ``dt`` a grazing pass whose chord
    through the capture disk is shorter than one step can still be missed.
    The steps that end with every active pair provably outside its capture
    disk, counted from the last distances, skip the capture screen, which
    could find nothing there, so they change no bit of the result.

    A carried two-step clearance (``certificates.ClearanceAnchor``) is a
    lower bound on the relaxed minimum, so it certifies the pairs a new
    solve would wherever that solve succeeds and the anchor's solve reached
    the minimum.  The carry is decided before any solve, so a carried pair
    whose solve would raise ``KKTReconstructionError`` (a missed root) stays
    TWO_STEP, where a game without anchors gives it no certificate
    (``solver_failed``).
    """
    game = _Game(sc, cfg)
    for step_index in itertools.count():
        if step_index % cfg.matching_period == 0:
            game.assign()
        e_controls = game.evader_controls()
        p_controls = game.pursuer_controls(e_controls)
        game.record(p_controls, e_controls)
        game.integrate(p_controls, e_controls)
        game.detect()
        game.t += cfg.dt
        if ACTIVE not in game.status or game.t >= cfg.max_time - 1e-15:
            break

    game.record([None] * game.n_p, [None] * game.n_e)
    trajectories = {f"P{i + 1}": rows for i, rows in enumerate(game.p_rows)}
    trajectories.update({f"E{j + 1}": rows for j, rows in enumerate(game.e_rows)})
    return SimResult(
        trajectories=trajectories,
        events=game.events,
        outcome=dict(enumerate(game.status)),
        matching_history=game.matching_history,
        horizon_exceeded=ACTIVE in game.status,
        clamp_events=game.diag.events,
        clamp_max_excess=game.diag.max_excess,
    )
