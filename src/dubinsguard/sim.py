"""Receding-horizon multiplayer game loop.

``run`` checks its ``dt`` against the scenario, then repeats five stages
over one per-game state object until no evader is in play or the horizon is
reached:

- assign: every step (or every ``matching_period`` steps) a maximum
  matching of the win graph, less its kept pairs (``sticky``), assigns
  pursuers to evaders; leftover pursuers chase the nearest unmatched evader
  (the nearest when all are held) while ``_nearest_steps`` proves it.  The
  graph is a ledger of one record per active pair, (expiry step, edge or
  not, reason), each expiry a proof.  Before the first, with no event since
  (a capture, a goal arrival, a retarget, an ``io_achieved``, a re-snap that
  breaks an intercept edge), the last result is reused.  Otherwise only
  expired pairs are recorded anew: an intercepting car's own pair is an
  edge while ``intercepts`` holds at its last re-snap aim, until an event;
  ``build_graph`` certifies the rest with their ``anchors``, and holds a
  pair without separation for its window (``WINDOW_MARGIN``) and a refuted
  one for ``certificates._refuted_steps`` (bundled 5v5, period 1: 196 full
  refreshes of 1,899, ``build_graph`` in 181 for 363 pairs, 64 sextic
  solves for 307 two-step certificates, 6 ``max_matching`` calls);
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
  counted (``_quiet_steps``); they test goal crossings only.  That count,
  the leftover targets' and the ledger's are one ``model._margin_steps``.

Agent state is plain floats: positions and controls are ``(x, y)`` float
pairs, the library's one point type, stepped by the float kernels of
``model`` and ``strategies``.  A scenario's state positions are such pairs
already, so they are read as they are, and the validated state objects of
the win graph, built only for agents with a pair whose record is out, take
the pairs without conversion.  Arrays appear
only where all pairs are batched: the pair distances are one ``(n_p, n_e)``
array from ``model.pair_distances``, shared by the capture screen, the
nearest-pursuer choice of ``optimal`` evaders and the leftover pursuers'
nearest evader.  ``_Game.distances`` alone builds it: at the steps the
capture screen runs, at the last of a run of quiet steps, and when a
refresh asks for it, for an ``optimal`` evader without a pursuer or to take
the leftover pursuers' targets anew (bundled 5v5, 1,899 steps: 42 arrays
at period 1, 43 at period 20).  A ``dt`` long enough for a pursuer and an
evader to close a capture radius in one step is refused.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .certificates import _refuted_steps, intercepts
from .geometry import IO_TOL, aim_bearing, aim_height_rate, aim_point
from .matching import WinGraph, _pool, assign, build_graph, max_matching
from .model import (
    DUBINS,
    STRAIGHT_EPS,
    EvaderState,
    JointState,
    PursuerState,
    Scenario,
    _margin_steps,
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
#: below -WINDOW_MARGIN, for the whole steps that fit in (-y - WINDOW_MARGIN)
#: / ``aim_height_rate`` of game time: its window.  The margin absorbs the
#: rounding of the heights.
WINDOW_MARGIN = 1e-12

#: Bound, per unit of turning radius, on how far a car's float step can end
#: beyond the arc it integrates: ``model.step_pursuer`` scales differences
#: of sines, each a few ulps off, by a turn radius of up to kappa /
#: STRAIGHT_EPS.  At the smallest turn commands the overshoot reaches about
#: 2e-4 kappa per step.
CAR_STEP_ROUNDING = 8.0 * sys.float_info.epsilon / STRAIGHT_EPS

#: Relative rounding allowance of the capture-quiet count (``_quiet_steps``).
QUIET_ROUNDING = 16.0 * sys.float_info.epsilon

#: A pair's record before it is first certified: (step from which it no
#: longer holds, edge or not, reason: "window", "refuted", "intercept", None).
_NO_RECORD = (0, False, None)


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

    One step closes pursuer ``i`` and any evader by at most ``steps[i]``: a
    gap g = dist - r shrinks at that rate (``model._margin_steps``), with a
    rounding allowance of QUIET_ROUNDING * (1 + 4 scale), ``scale`` the
    largest coordinate in play.  It covers the rounding of the distances and
    of the positions a step writes, as no agent moves farther than the
    largest distance, itself below 3 scale, before the count runs out."""
    if dist.size == 0:
        return 0
    rounding = QUIET_ROUNDING * (1.0 + 4.0 * scale)
    return _margin_steps(dist - radii[:, None], steps[:, None], rounding)


def _nearest_steps(dist: np.ndarray, steps: np.ndarray, scale: float) -> int:
    """How many coming steps provably leave each row's first nearest column
    of ``dist`` (the distances of some pursuers to the evaders they pick
    from, at the current positions) its first nearest column, so that
    ``matching.assign`` picks the same targets; ``steps`` holds the rows'
    pursuers' ``_quiet_steps`` closings.

    A row's margin m, its second-least distance less its least, shrinks by
    at most 2 steps[i] a step (``model._margin_steps``), with twice the
    allowance rho of ``_quiet_steps``, one per distance; no agent in the row
    moves farther than m / 2, below 3 scale, before the count runs out.  A
    tie gives 0, since a tie goes to the lowest index; a single column never
    expires."""
    if dist.shape[1] < 2:
        return sys.maxsize
    rounding = QUIET_ROUNDING * (1.0 + 4.0 * scale)
    least = np.partition(dist, 1, axis=1)
    return _margin_steps(least[:, 1] - least[:, 0], 2.0 * steps, 2.0 * rounding)


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
        # Pair records (``_NO_RECORD``), the step from which the last result
        # no longer holds (``assign``), each pair's last two-step solve.
        self.records: dict[tuple[int, int], tuple[int, bool, str | None]] = {}
        self.due = 0
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
        # (kept pairs, active evaders), the leftover pursuers' targets and
        # the step from which ``_nearest_steps`` no longer proves them.
        self.leftovers: tuple = (None, {}, 0)

        self.t = 0.0
        self.n_steps = 0  # steps integrated
        self.diag = ClampDiagnostics()
        self.events: list[Event] = []
        self.matching_history: list[tuple[float, tuple, tuple]] = []
        self.p_rows: list[list[tuple]] = [[] for _ in range(n_p)]
        self.e_rows: list[list[tuple]] = [[] for _ in range(n_e)]
        # Pair distances at the current positions, built only by
        # ``distances``; None from the start of ``detect`` until they are
        # asked for (a quiet step, and a refresh that keeps its leftover
        # targets, leaves them unbuilt).  Evaders leaving play are moved to
        # their event points after the distances are taken, but their
        # columns are never read again.
        self.dist: np.ndarray | None = None
        # Coming steps that provably end with no capture.
        self.quiet = 0
        self.measure()
        # Evader positions at the start of the step, set by ``integrate``.
        self.e_start = self.e_xy

    def assign(self):
        """Re-match and retarget the pursuers from the active pairs' records,
        reusing the last result before ``due`` (module docstring).  A car
        with a new target restarts its phase machine and enters interception
        at once when the new pair is aligned and feasible."""
        n_p, t, n, dt, records = self.n_p, self.t, self.n_steps, self.cfg.dt, self.records
        if n < self.due:
            self.matching_history.append((t, *self.matching_history[-1][1:]))
            return
        active = [j for j in range(self.n_e) if self.status[j] == ACTIVE]
        edges, rest, due = set(), [], sys.maxsize
        for i, (own, phase) in enumerate(zip(self.target, self.phases)):
            if phase is None or phase.phase is not Phase.INTERCEPTING:
                own = None
            for j in active:
                record = records.get((i, j), _NO_RECORD)
                if record[0] <= n or (record[2] == "intercept" and j != own):
                    if j != own or not intercepts(self.snap_aim[i], self.theta[i], self.params[i, j]):
                        rest.append((i, j))
                        continue
                    record = records[i, j] = sys.maxsize, True, "intercept"
                if record[0] < due:
                    due = record[0]
                if record[1]:
                    edges.add((i, j))
        if rest:
            pursuers = {i: PursuerState(self.p_xy[i], self.theta[i]) for i, _ in rest}
            evaders = {j: EvaderState(pos=self.e_xy[j]) for _, j in rest}
            pair_states = {(i, j): JointState(pursuers[i], evaders[j]) for i, j in rest}
            graph = build_graph(pair_states, self.params, n_p, self.anchors)
            rounding = QUIET_ROUNDING * (1.0 + 4.0 * self.scale()) if graph.refuted else 0.0
            for key in rest:
                p, steps, reason = self.params[key], 0, None
                if key in graph.screened:  # its window
                    rate = aim_height_rate(p.v_p, p.alpha) * dt
                    steps, reason = _margin_steps(-graph.screened[key] - WINDOW_MARGIN, rate), "window"
                elif key in graph.refuted:
                    excess = p.kappa * CAR_STEP_ROUNDING + rounding
                    steps, reason = _refuted_steps(graph.refuted[key], p, dt, SNAP_FACTOR * IO_TOL, excess), "refuted"
                records[key] = n + 1 + steps, key in graph.edges, reason
                due = min(due, n + 1 + steps)
            edges |= graph.edges.keys()
        kept = {}
        if self.cfg.sticky:  # the graph holds active evaders only
            kept = {i: j for i, j in self.matched.items() if (i, j) in edges}
        if kept:
            held = set(kept.values())
            edges = {k for k in edges if k[0] not in kept and k[1] not in held}
        kept.update(self.match(edges))
        pairs = tuple(sorted(kept.items()))
        opportunistic = self.nearest(kept, pairs, active) if len(kept) < n_p else {}
        self.due = min(due, self.leftovers[2]) if len(kept) < n_p else due
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
                self.due = 0

    def nearest(self, kept: dict[int, int], pairs: tuple, active: list[int]) -> dict[int, int]:
        """``assign``'s targets for the pursuers outside ``kept`` (``pairs``
        sorted), reused while the kept pairs and the active evaders are
        those they were taken at and ``_nearest_steps`` proves them
        unchanged: neither the pair distances nor ``assign`` run then."""
        key = pairs, tuple(active)
        held, targets, expiry = self.leftovers
        if key == held and self.n_steps < expiry:
            return targets
        dist = self.distances()
        targets = assign(kept, dist, active)
        rows = [i for i in range(self.n_p) if i not in kept]
        hold = _nearest_steps(dist[np.ix_(rows, _pool(kept, active))], self.steps[rows], self.scale())
        self.leftovers = key, targets, self.n_steps + hold + 1
        return targets

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
                # its records that rest on its heading go; a window rests on positions
                self.records = {k: rec for k, rec in self.records.items() if k[0] != i or rec[2] == "window"}
                self.due = 0
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
        dt, band = self.cfg.dt, SNAP_FACTOR * IO_TOL
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
        self.n_steps += 1

        for i, phase in enumerate(self.phases):
            j = self.live_target(i)
            if j is None or phase is None or phase.phase is not Phase.INTERCEPTING:
                continue
            self.snap_aim[i] = aim = self.aim(i, j)
            err = abs(wrap_to_pi(aim[2] - self.theta[i]))
            if 0.0 < err <= band:
                self.theta[i] = aim[2]
            if (aim[1] < 0.0 or err > band) and self.records.get((i, j), _NO_RECORD)[1]:
                self.records[i, j], self.due = _NO_RECORD, 0  # an intercept edge no longer

    def distances(self) -> np.ndarray:
        """The pair distances at the current positions."""
        if self.dist is None:
            self.dist = pair_distances(np.array(self.p_xy), np.array(self.e_xy))
        return self.dist

    def measure(self):
        """Count the coming steps that provably end with no active pair in
        a capture disk (``_quiet_steps``), from the pair distances at the
        current positions."""
        active = [j for j in range(self.n_e) if self.status[j] == ACTIVE]
        self.quiet = _quiet_steps(self.distances()[:, active], self.radii, self.steps, self.scale())

    def scale(self) -> float:
        """The largest absolute coordinate of any agent."""
        return max(abs(c) for xy in (*self.p_xy, *self.e_xy) for c in xy)

    def detect(self):
        """End the play of every evader that was captured or reached the
        goal during the step: capture before goal arrival, earlier fraction
        wins.  The evader is moved to its event point.

        A quiet step counts down and tests goal crossings only; any other
        step screens the captures between the distances at its two ends.
        When the count is then out, it is taken anew from the end-of-step
        distances, which the next screen starts from."""
        prev, self.dist = self.dist, None
        if self.quiet > 0:
            self.quiet -= 1
            captures = {}
        else:
            active = np.array([status == ACTIVE for status in self.status])
            captures = detect_captures(prev, self.distances(), self.radii, active)
        if self.quiet == 0:
            self.measure()
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
            self.due = 0
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

    The ledger gives the edge keys certifying every pair would (5v5, period
    1: 1,703 of 1,899 refreshes reuse them); a held refuted pair keeps an
    anchor that a solve could replace by one that never carries.
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
