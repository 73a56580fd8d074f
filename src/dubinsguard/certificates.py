"""Winning certificates for one pursuer-evader pair.

Three parameter curves split the (alpha, r/kappa) plane: the exact
curvature-demand functional (how much turn rate the interception-tracking
command can ever need), its closed-form upper bound, and the ratio that
makes the heading-adjustment maneuver safe.  On top of the parameter checks,
a pair-state certificate is issued either directly (separation and alignment
already hold) or through the two-step route, whose safety is decided by a
worst-case clearance bound: the minimum signed distance the interception
point can be forced to during one turning period.  That bound has a KKT
closed form driven by a degree-six polynomial: each root in its bracket
gives a feasible pair of points, a spurious root from squaring included,
and the closed form keeps the least value of those stationary on their
circles.  Two brute-force oracles (a branch and bound that proves a lower
bound on the relaxed problem's minimum, and a trajectory rollout of the
original one, which skips the time steps where no event can fire and
locates events only for the headings that can hold the minimum)
cross-check it.  All of them bound the turn the car makes:
``adjust_time_bound`` takes its direction from ``geometry.turn_direction``,
the rule the strategies steer by.  Before the polynomial is solved, the
relaxed objective is evaluated at one feasible point (``_witness_clearance``):
a minimum is never above a value it takes, so a value below minus the
closed form's own tolerance margin (``_witness_margin``) refutes the pair
without the root solve.  The screen only withholds certificates the closed
form would withhold too.  A pair solved at an earlier refresh can carry
that solve (``ClearanceAnchor``): the relaxed minimum moves by at most the
objective's Lipschitz bound times the move of the two centres, so the
anchor's clearance less that bound and twice the margin is a lower bound on
the closed form's value now, and the pair is certified on it without the
root solve.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    IO_TOL,
    OPPOSITE_TOL,
    aim_bearing,
    aim_height_rate,
    aim_point,
    heading_error,
    lowest_point,
    turn_direction,
)
from .model import (
    SIMPLE,
    TWO_PI,
    EvaderState,
    GameParams,
    JointState,
    PursuerState,
    _as_point,
    _margin_steps,
    _positive,
    _speed_ratio,
    wrap_angle,
    wrap_to_pi,
)
from .numerics import Polynomial, max_on_circle, real_roots

#: Threshold on the tangential part of the relaxed objective's gradient,
#: relative to its largest size, at both points of a reconstructed
#: candidate: below it at both, the candidate is stationary on its circles
#: and kept.  A spurious root from squaring gives a feasible candidate that
#: this test weighs like any other.
KKT_RESIDUAL_TOL = 1e-6


class KKTReconstructionError(RuntimeError):
    """No root of the relaxation polynomial, nor a bracket end,
    reconstructs a candidate stationary on both circles."""


def _demand_objective(x, y, alpha: float):
    denom = 2.0 * alpha * y + alpha * alpha + 1.0
    return (y + alpha) / denom + alpha * x * (y + alpha) / denom**1.5


@functools.lru_cache(maxsize=256)
def curvature_demand(alpha: float) -> float:
    """Worst-case turn demand h(alpha): the global maximum over the unit
    circle of the normalized turn-command envelope.

    The capture radius must cover kappa times this value for the
    interception-tracking command to stay admissible.  Memoized for the
    256 most recently used alphas: a game asks for the same few speed
    ratios on every certificate, while a sweep uses each of its alphas once.
    """
    _speed_ratio(alpha)
    return max_on_circle(lambda x, y: _demand_objective(x, y, alpha))[1]


def curvature_demand_bound(alpha: float) -> float:
    """Closed-form upper bound (2*alpha - 1) / (alpha - 1)^2 on the
    curvature demand; cheap to check and sufficient."""
    _speed_ratio(alpha)
    return (2.0 * alpha - 1.0) / (alpha - 1.0) ** 2


def heading_adjust_ratio(alpha: float) -> float:
    """Ratio (alpha + 1)^2 / (alpha * (alpha - 1)); r/kappa above it makes
    the full-rate heading adjustment reach alignment in finite time."""
    _speed_ratio(alpha)
    return (alpha + 1.0) ** 2 / (alpha * (alpha - 1.0))


def intercept_feasible(r: float, kappa: float, alpha: float) -> bool:
    """Non-strict check r/kappa >= h(alpha) (admissibility of the
    interception-tracking command under separation and alignment).  The
    one place this comparison is made: ``two_step_feasible``,
    ``classify_region``, ``intercepts``, ``certify_win`` and
    ``strategies.two_step_command`` call it."""
    return r / kappa >= curvature_demand(alpha)


def adjust_feasible(r: float, kappa: float, alpha: float) -> bool:
    """Strict check r/kappa > (alpha+1)^2 / (alpha*(alpha-1))."""
    return r / kappa > heading_adjust_ratio(alpha)


def two_step_feasible(r: float, kappa: float, alpha: float) -> bool:
    """Both steps of the two-step strategy admissible: ``intercept_feasible``
    (non-strict) and ``adjust_feasible`` (strict)."""
    return intercept_feasible(r, kappa, alpha) and adjust_feasible(r, kappa, alpha)


class RegionLabel(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"


@dataclass(frozen=True)
class ParamRegion:
    """Where (r, kappa, alpha) falls relative to the three parameter curves."""

    label: RegionLabel
    curvature_demand: float
    curvature_bound: float
    adjust_ratio: float


def classify_region(r: float, kappa: float, alpha: float) -> ParamRegion:
    """Classify parameters against the three curves.

    The label is a pure function of three comparisons of r/kappa: against
    the exact demand curve (non-strict, ``intercept_feasible``), its
    closed-form bound (non-strict) and the heading-adjust ratio (strict,
    ``adjust_feasible``).  V: below the demand curve (no guarantee).  II:
    above all three.  I: above demand and bound only.  IV: above demand and
    ratio only.  III: above the demand curve only.  So ``intercept_feasible``
    holds exactly outside V and ``two_step_feasible`` exactly in II and IV.
    """
    _positive("r", r)
    _positive("kappa", kappa)
    _speed_ratio(alpha)
    bound = curvature_demand_bound(alpha)
    above_ratio = adjust_feasible(r, kappa, alpha)
    if not intercept_feasible(r, kappa, alpha):
        label = RegionLabel.V
    elif r / kappa >= bound:
        label = RegionLabel.II if above_ratio else RegionLabel.I
    else:
        label = RegionLabel.IV if above_ratio else RegionLabel.III
    return ParamRegion(
        label=label,
        curvature_demand=curvature_demand(alpha),
        curvature_bound=bound,
        adjust_ratio=heading_adjust_ratio(alpha),
    )


@dataclass(frozen=True)
class AdjustBound:
    """Worst-case duration of the full-rate heading adjustment.

    The pursuer swings along its minimum-radius circle around
    ``turn_center``; by the time it has swept to the point of the circle
    nearest the evader (arc angle ``2*pi*wraps + signed sweep``) alignment
    must have occurred.  ``duration`` is that arc time, at most one turning
    period.  The bound is trustworthy only with the evader outside the scope
    ball: ``scope_gap``, the center-to-evader distance minus the scope
    radius kappa + v_p * duration / sqrt(alpha^2 - 1), must be above 0.
    """

    turn_center: tuple[float, float]
    center_bearing: float
    evader_bearing: float
    wraps: int
    duration: float
    turn_sign: float
    scope_gap: float


def adjust_time_bound(state: JointState, p: GameParams, err: float | None = None) -> AdjustBound:
    """Upper bound on the heading-adjustment time; rejects aligned states.
    ``err`` is the state's heading error, when the caller already has it.

    The turn is the one the car makes: ``turn_sign`` is
    ``geometry.turn_direction(err)``, so every bound built on this one
    (scope, clearance, both oracles) is a bound on the executed maneuver."""
    x_p, theta, x_e = state.pursuer.pos, state.pursuer.theta, state.evader.pos
    if err is None:
        err = heading_error(x_p, theta, x_e, p.alpha)
    if err == 0.0:
        raise ValueError("state is already aligned; no adjustment to bound")
    sign = turn_direction(err)
    (xp, yp), (xe, ye) = x_p, x_e
    center_bearing = wrap_angle(theta + sign * 0.5 * math.pi)
    cx = xp + p.kappa * math.cos(center_bearing)
    cy = yp + p.kappa * math.sin(center_bearing)
    evader_bearing = wrap_angle(math.atan2(ye - cy, xe - cx))
    swept = (wrap_angle(evader_bearing - center_bearing) - math.pi) * sign
    if swept > 0.0:
        wraps = 0
    else:
        swept += 2.0 * math.pi
        wraps = 1
    duration = swept * p.kappa / p.v_p
    gap = math.hypot(cx - xe, cy - ye)
    return AdjustBound(
        turn_center=(cx, cy),
        center_bearing=center_bearing,
        evader_bearing=evader_bearing,
        wraps=wraps,
        duration=duration,
        turn_sign=sign,
        scope_gap=gap - (p.kappa + p.v_p * duration / math.sqrt(p.alpha**2 - 1.0)),
    )


def relaxation_sextic(x_c, x_e, alpha: float, kappa: float) -> Polynomial:
    """Degree-six polynomial whose positive roots carry the multipliers of
    the relaxed worst-case clearance problem; coefficients ascending."""
    _speed_ratio(alpha)
    _positive("kappa", kappa)
    (cx, cy), (ex, ey) = _as_point(x_c), _as_point(x_e)
    dx2 = (ex - cx) ** 2
    dy = cy - ey
    sep2 = dx2 + dy * dy
    a2 = alpha * alpha
    one_m = (1.0 - a2) ** 2
    b = (2.0 * math.pi + 1.0) * kappa
    k6 = sep2
    k5 = kappa * (4.0 * math.pi + 2.0) * dy
    k4 = b * b - 2.0 * (1.0 + a2) * sep2
    k3 = kappa * (8.0 * math.pi + 4.0) * (1.0 + a2) * (-dy)
    k2 = (1.0 + a2) ** 2 * dx2 + one_m * dy * dy - 2.0 * b * b * (1.0 + a2)
    k1 = kappa * (4.0 * math.pi + 2.0) * one_m * dy
    k0 = b * b * one_m
    return Polynomial((k0, k1, k2, k3, k4, k5, k6))


@dataclass(frozen=True)
class RelaxedSolution:
    """Optimum of the relaxed worst-case clearance problem.

    ``clearance`` is the signed distance of the worst reachable interception
    point to the goal line; ``pursuer_point``/``evader_point`` are the
    extremal positions (on the turn circle and on the evader's reach circle
    respectively); ``multiplier`` is the pursuer-side KKT multiplier (the
    evader-side one is alpha times it) and ``sigma`` the common sign of the
    horizontal displacements: -1 when the turn center lies left of the
    evader, else 1 (a center straight above or below the evader is mirror
    symmetric, so the +x side holds a minimizer)."""

    clearance: float
    pursuer_point: tuple[float, float]
    evader_point: tuple[float, float]
    multiplier: float
    sigma: int


def relaxed_clearance_from_centers(
    x_c, x_e, alpha: float, kappa: float
) -> RelaxedSolution:
    """Closed-form solution of the relaxed worst-case clearance problem,
    given the turn-circle center and the evader position.

    Builds the relaxation polynomial, gathers its real roots in the bracket
    [alpha-1, alpha+1] (outside it the reconstruction square root turns
    imaginary) and both bracket ends, reconstructs the candidate extremal
    points for each, and returns the smallest objective among the candidates
    whose two points are stationary on their circles.  For every multiplier
    in the bracket the two points lie on their circles (|p - c|^2 = kappa^2
    (phi^2 + (1 - a^2 + lam^2)^2) / (4 lam^2) = kappa^2, and likewise for the
    evader), so each candidate is feasible, and the one test is of what is
    evaluated: the tangential part of the objective's gradient at both
    points, below ``KKT_RESIDUAL_TOL`` of its largest size.  It reads no
    multiplier, so a root next to a bracket end, where the rounding of lam
    is magnified through phi, passes as well as any other.  At a bracket end
    the horizontal displacements vanish, so an on-axis minimizer of a
    vertical geometry is always a candidate.  Squaring steps in the
    derivation can introduce spurious roots; their candidates are feasible
    points, weighed by the same test like any other.  No stationary
    candidate means a root was missed, and the solve raises
    ``KKTReconstructionError``.  The candidates are reconstructed on floats;
    the kept candidate's distance is ``np.linalg.norm``'s, the one the
    clearance has always been computed from.
    """
    a2 = alpha * alpha
    cx, cy = _as_point(x_c)
    ex, ey = _as_point(x_e)
    sigma = -1 if cx < ex else 1
    poly = relaxation_sextic((cx, cy), (ex, ey), alpha, kappa)
    lo, hi = alpha - 1.0, alpha + 1.0
    candidates = real_roots(poly, lo, hi, tol=1e-12) + [lo, hi]

    reach = 2.0 * math.pi * kappa / alpha
    best: RelaxedSolution | None = None
    for lam in candidates:
        # phi^2 = 2 (1 + a^2) lam^2 - lam^4 - (1 - a^2)^2, factored: never
        # negative in the bracket and exactly 0 at its ends
        phi = math.sqrt((hi - lam) * (hi + lam) * (lam - lo) * (lam + lo))
        pxs = cx + sigma * kappa * phi / (2.0 * lam)
        pys = cy + (1.0 - a2 + lam * lam) * kappa / (2.0 * lam)
        exs = ex - sigma * math.pi * kappa * phi / (a2 * lam)
        eys = ey + (1.0 - a2 - lam * lam) * math.pi * kappa / (a2 * lam)
        if abs(math.hypot(exs - ex, eys - ey) - reach) > 1e-9 * (1.0 + reach):
            continue
        if abs(math.hypot(pxs - cx, pys - cy) - kappa) > 1e-9 * (1.0 + kappa):
            continue
        gap_x, gap_y = pxs - exs, pys - eys
        gap = math.hypot(gap_x, gap_y)
        if gap == 0.0:
            continue
        # the objective's gradient, tangential part, relative to its largest
        # size: kappa (1 + a) at the pursuer point, reach a (a + 1) at the
        # evader point
        ux, uy = gap_x / gap, gap_y / gap
        res_p = abs(alpha * ux * (pys - cy) - (1.0 + alpha * uy) * (pxs - cx)) / (kappa * (1.0 + alpha))
        res_e = abs((a2 + alpha * uy) * (exs - ex) - alpha * ux * (eys - ey)) / (reach * alpha * (alpha + 1.0))
        if max(res_p, res_e) >= KKT_RESIDUAL_TOL:
            continue
        dist = float(np.linalg.norm((gap_x, gap_y)))
        _, clearance, _ = lowest_point(pxs, pys, exs, eys, dist, alpha)
        if best is None or clearance < best.clearance:
            best = RelaxedSolution(
                clearance=clearance,
                pursuer_point=(pxs, pys),
                evader_point=(exs, eys),
                multiplier=lam,
                sigma=sigma,
            )
    if best is None:
        raise KKTReconstructionError("KKT reconstruction failed")
    return best


def _witness_clearance(x_c, x_e, alpha: float, kappa: float):
    """The relaxed objective at one feasible point: (clearance, pursuer
    point, evader point), an upper bound on the relaxed minimum.

    One descent step from the two centers, with u the unit vector from the
    evader toward the turn center: the pursuer point c + kappa n(y^ + alpha
    u), the evader point x_e - reach n(alpha y^ + u), n normalizing.  Neither
    direction vanishes, as alpha > 1; the caller keeps c and x_e apart."""
    (cx, cy), (ex, ey) = x_c, x_e
    reach = 2.0 * math.pi * kappa / alpha
    gap = math.hypot(cx - ex, cy - ey)
    ux, uy = (cx - ex) / gap, (cy - ey) / gap
    dx, dy = alpha * ux, 1.0 + alpha * uy
    norm = math.hypot(dx, dy)
    px, py = cx + kappa * dx / norm, cy + kappa * dy / norm
    dx, dy = ux, alpha + uy
    norm = math.hypot(dx, dy)
    qx, qy = ex - reach * dx / norm, ey - reach * dy / norm
    clearance = lowest_point(px, py, qx, qy, math.hypot(px - qx, py - qy), alpha)[1]
    return clearance, (px, py), (qx, qy)


def _witness_margin(alpha: float, kappa: float) -> float:
    """How far below 0 a witness clearance must lie to refute a pair.

    The closed form keeps a candidate whose pursuer point lies within
    d_p = 1e-9 (1 + kappa) of the turn circle and whose evader point lies
    within d_e = 1e-9 (1 + reach) of the reach circle, reach = 2 pi kappa /
    alpha: its value stands for the minimum only up to what moves of d_p and
    d_e can change.  The objective, the aim height y = (a^2 y_e - y_p - a
    |x_p - x_e|) / (a^2 - 1), a = alpha, has gradient norm at most (1 + a) /
    (a^2 - 1) = 1 / (a - 1) in the pursuer point and (a^2 + a) / (a^2 - 1) =
    a / (a - 1) in the evader point.  So a closed form sound to its own
    tolerances is at most (d_p + a d_e) / (a - 1) above the objective at any
    feasible point, the witness's included, and a witness below minus that
    margin means the closed form is negative too: the pair gets no
    certificate either way.  The 1 in each tolerance dwarfs the witness's own
    rounding, a few ulps of its unit-scale coordinates."""
    reach = 2.0 * math.pi * kappa / alpha
    return 1e-9 * ((1.0 + kappa) + alpha * (1.0 + reach)) / (alpha - 1.0)


#: Largest drift (``ClearanceAnchor.carry``) a carried clearance may rest
#: on.  A carried bound sits at most 2 * cap + 4 * ``_witness_margin``
#: below the closed form's value at the same state: 2.5e-4 keeps it within
#: about 5e-4 of the minimum it stands for, inside the 1e-3 to which the
#: closed form is cross-checked by grid search.  Without a cap, drift builds
#: up over a pair's anchored refreshes: on the bundled 5v5 at period 1,
#: carried clearances fell 1.5e-3 below their grid minimum.
ANCHOR_DRIFT_CAP = 2.5e-4


@dataclass(frozen=True)
class ClearanceAnchor:
    """A two-step pair's last sextic solve: the turn centre and the evader
    position it was solved at, and the closed form's clearance there."""

    center: tuple[float, float]
    evader: tuple[float, float]
    clearance: float

    def carry(self, x_c, x_e, alpha: float, margin: float) -> float | None:
        """The clearance this solve carries to the turn centre ``x_c`` and
        the evader at ``x_e``, or None when it carries none.

        The two circles of the relaxed problem move rigidly with their
        centres, and by the gradient bounds of ``_witness_margin`` the
        objective moves by at most 1 / (alpha - 1) per unit of pursuer point
        and alpha / (alpha - 1) per unit of evader point.  So the minimum has
        moved by at most drift = (|x_c - center| + alpha |x_e - evader|) /
        (alpha - 1), and with the closed form within ``margin`` of the
        minimum at both states, clearance - drift - 2 margin is a lower bound
        on its value now.  It is carried when it is at least 0 and the drift
        at most ``ANCHOR_DRIFT_CAP``."""
        (cx, cy), (ex, ey) = self.center, self.evader
        moved = math.hypot(x_c[0] - cx, x_c[1] - cy) + alpha * math.hypot(x_e[0] - ex, x_e[1] - ey)
        drift = moved / (alpha - 1.0)
        carried = self.clearance - drift - 2.0 * margin
        return carried if drift <= ANCHOR_DRIFT_CAP and carried >= 0.0 else None


def _refuted_steps(ev: CertificateEvidence, p: GameParams, dt: float, snap: float, excess: float) -> int:
    """Steps of ``dt`` over which a car's pair refuted by its witness (``ev``:
    clearance w below -``_witness_margin``) provably stays NONE, while a
    step turns the heading by at most v_p dt / kappa plus ``snap`` (a
    re-snap) and moves either agent at most ``excess`` beyond v dt.  The
    least of three ``model._margin_steps`` (rate s, allowance rho; a = alpha):

    - gap d - r: s = (v_p + v_e) dt, rho = 2 excess;
    - error band min(|err| - IO_TOL, pi - OPPOSITE_TOL - |err|): the aim
      point moves at most (a d_e + d_p) / (a - 1) when the agents move d_p,
      d_e, and lies at least a r / (a + 1) from the car, so its bearing turns
      at most b dt / r (``_error_rate_bound``): s = (v_p / kappa + b / r) dt
      + snap, rho = excess (1 + 2 (a + 1) / ((a - 1) r)).  So no step aligns
      and ``turn_direction`` keeps the turn;
    - -w - margin: the turn centre moves at most 2 v_p dt + kappa snap a
      step; the witness's points, moved with the centres, stay feasible and
      rise by at most (|dc| + a |dx_e|) / (a - 1) (``_witness_margin``): s =
      (2 v_p dt + kappa snap + a v_e dt) / (a - 1), rho = excess (a + 1) / (a
      - 1).  The closed form then stays below 0, and no carry reaches 0."""
    a, err = p.alpha, abs(ev.heading_err)
    spread, (turn, bearing) = (a + 1.0) / (a - 1.0), _error_rate_bound(p)
    band = (turn + bearing / p.r) * dt + snap, excess * (1.0 + 2.0 * spread / p.r)
    drift = (2.0 * p.v_p * dt + p.kappa * snap + a * p.v_e * dt) / (a - 1.0), excess * spread
    return min(
        _margin_steps(ev.dist - p.r, (p.v_p + p.v_e) * dt, 2.0 * excess),
        _margin_steps(min(err - IO_TOL, math.pi - OPPOSITE_TOL - err), *band),
        _margin_steps(-ev.clearance - _witness_margin(a, p.kappa), *drift),
    )


def solve_relaxed_clearance(state: JointState, p: GameParams) -> RelaxedSolution:
    """Closed-form worst-case clearance bound for an unaligned pair state
    (the turn center is derived from the pursuer's heading and turn sign)."""
    bound = adjust_time_bound(state, p)
    return relaxed_clearance_from_centers(
        bound.turn_center, state.evader.pos, p.alpha, p.kappa
    )


def _cell_margin(alpha: float, scale: float) -> float:
    """Rounding margin of the relaxed oracle's cell bounds, for a turn
    centre c' = c - x_e in the evader's frame and the scale s = |c'_x| +
    |c'_y| + kappa + reach; eps = 2^-52, a = alpha.

    Every point evaluated has coordinates within 1.02 s (a tangent crossing
    sits at R / cos(w / 2) < 1.02 R), so a pair distance is at most 2.9 s.
    Where a point lies: c' rounds by eps s / 2, an angle k w by an ulp of 2
    pi (9 eps of arc), numpy's cosine and sine by 4 ulps, each product and
    sum by eps / 2; so it lies within 23 eps s of the exact vertex of a
    triangle that holds its exact arc, and the arcs cover the circle but
    for [2 pi rounded, 2 pi), within 2 eps R of the point at angle 0.  By
    ``_witness_margin``'s gradient bounds that moves a value by at most 25
    eps s (a + 1) / (a - 1).  How it is evaluated: ``lowest_point`` sums
    terms of total size at most 2.9 s (a^2 + a + 1) / (a^2 - 1) <= 2.9 s (a
    + 1) / (a - 1) with relative error at most eps (6 + a^2 / (a^2 - 1)),
    the second part from a^2 - 1 taken from a rounded a^2.  Both together
    are at most 43 eps s (a + 1) / (a - 1) (1 + a^2 / (a^2 - 1)) = 43 eps s
    (2 a^2 - 1) / (a - 1)^2; the margin keeps 64 for 43, and a floor of
    2^-1000 on s covers subnormal roundings."""
    return 64.0 * math.ulp(1.0) * (scale + 2.0**-1000) * (2.0 * alpha**2 - 1.0) / (alpha - 1.0) ** 2


#: Rounds and most kept cells per round of the relaxed oracle's branch and
#: bound; either cap ends it early, its lower end still sound.
_BRANCH_ROUNDS = 32
_BRANCH_CELLS = 4096


def _arc_points(cx: float, cy: float, radius: float, index, width: float):
    """Per arc [k w, (k + 1) w] of the circle about (cx, cy), one row per
    index k: its two ends, the crossing of its end tangents and its mid
    point, as (x, y) arrays of shape (len(index), 4)."""
    rho = radius * np.array([1.0, 1.0, 1.0 / math.cos(0.5 * width), 1.0])
    theta = (index[:, None] + np.array([0.0, 1.0, 0.5, 0.5])) * width
    return cx + rho * np.cos(theta), cy + rho * np.sin(theta)


def relaxed_oracle_from_centers(x_c, x_e, alpha: float, kappa: float) -> float:
    """A proven lower bound on the minimum m of the relaxed clearance
    problem, within 1e-10 (1 + |m - e_y|) of it unless a cap ends the
    search, e_y the evader's height.

    Branch and bound over cells of one arc on each boundary circle.  An arc
    of width w < pi lies in the triangle of its ends and its end tangents'
    crossing, and the objective (a^2 y_e - y_p - a |x_p - x_e|) / (a^2 - 1)
    is jointly concave, so over a cell it is at least its least value at the
    3 x 3 vertex pairs (Horst & Tuy, Global Optimization, 1996) less
    ``_cell_margin``; the arcs' mid points are a feasible pair, which gives
    an upper bound.  From 16 x 16 cells of width pi / 8, each round drops
    the cells whose lower bound is above the upper bound by more than the
    margin and splits the rest in four, until the bounds are 1e-10 (1 +
    |upper|) apart, the upper bound is not finite, or a cap is reached
    (``_BRANCH_ROUNDS``, ``_BRANCH_CELLS``).  It works in the evader's frame,
    so the margin scales with the pair's separation, not its coordinates,
    and adds the evader's height back rounding down."""
    _speed_ratio(alpha)
    _positive("kappa", kappa)
    (cx, cy), (ex, ey) = _as_point(x_c), _as_point(x_e)
    cx, cy = cx - ex, cy - ey
    reach = 2.0 * math.pi * kappa / alpha
    margin = _cell_margin(alpha, abs(cx) + abs(cy) + kappa + reach)
    ip, ie = (k.ravel().astype(float) for k in np.indices((16, 16)))
    width, upper = math.pi / 8.0, math.inf
    for _ in range(_BRANCH_ROUNDS):
        xp, yp = (v[:, :, None] for v in _arc_points(cx, cy, kappa, ip, width))
        xe, ye = (v[:, None, :] for v in _arc_points(0.0, 0.0, reach, ie, width))
        height = lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), alpha)[1]
        upper = min(upper, float(np.min(height[:, 3, 3])))
        lower = np.min(height[:, :3, :3], axis=(1, 2)) - margin
        best = float(np.min(lower))
        if not math.isfinite(upper) or upper - best <= 1e-10 * (1.0 + abs(upper)):
            break
        keep = lower <= upper + margin
        if np.count_nonzero(keep) > _BRANCH_CELLS:
            break
        ip = (2.0 * ip[keep, None] + np.array([0.0, 0.0, 1.0, 1.0])).ravel()
        ie = (2.0 * ie[keep, None] + np.array([0.0, 1.0, 0.0, 1.0])).ravel()
        width *= 0.5
    return float(np.nextafter(best + ey, -math.inf))


def relaxed_clearance_oracle(state: JointState, p: GameParams) -> float:
    """Proven lower bound on the relaxed worst-case clearance of an unaligned
    pair state (``relaxed_oracle_from_centers``)."""
    bound = adjust_time_bound(state, p)
    return relaxed_oracle_from_centers(bound.turn_center, state.evader.pos, p.alpha, p.kappa)


def _rollout_positions(state: JointState, p: GameParams, sign: float, s, cos_e, sin_e):
    """Closed-form pair positions at elapsed time ``s`` under the frozen-sign
    full-rate turn and a constant evader heading (cosine ``cos_e``, sine
    ``sin_e``; all may be arrays)."""
    theta_p0 = state.pursuer.theta
    theta_p = theta_p0 + p.v_p * s * sign / p.kappa
    xp = state.pursuer.pos[0] + sign * p.kappa * (np.sin(theta_p) - math.sin(theta_p0))
    yp = state.pursuer.pos[1] - sign * p.kappa * (np.cos(theta_p) - math.cos(theta_p0))
    xe = state.evader.pos[0] + p.v_e * s * cos_e
    ye = state.evader.pos[1] + p.v_e * s * sin_e
    return xp, yp, theta_p, xe, ye


def _wrapped_error(xp, yp, theta_p, xe, ye, alpha: float, dist=None):
    """Wrapped heading error of the rollout positions, in [-pi, pi); ``dist``
    is their pair distance ``np.hypot(xp - xe, yp - ye)``, when the caller
    has it."""
    if dist is None:
        dist = np.hypot(xp - xe, yp - ye)
    cx, cy, _ = lowest_point(xp, yp, xe, ye, dist, alpha)
    err = np.arctan2(cy - yp, cx - xp) - theta_p + math.pi
    return np.mod(err, TWO_PI) - math.pi


def _bisect_events(state, p, sign, cos_e, sin_e, t_lo, t_hi, capture: bool):
    """Event time in each bracket [t_lo, t_hi] of the evader headings of
    cosines ``cos_e``, sines ``sin_e``: at most 60 joint halvings of the
    capture gap or the wrapped heading error.  A zero at a midpoint collapses
    that bracket onto it for good.  Only the sign of the value at ``t_lo`` is
    kept: ``t_lo`` moves only to a midpoint on the same side of zero, so that
    sign never changes.  A midpoint that repeats the last one bit for bit
    gets the last one's value and so its decision again, which moves that
    bracket's end to where it already is; once every midpoint repeats, so
    does every later halving, and the loop stops before evaluating it."""

    def event(s):
        xp, yp, tp, xe, ye = _rollout_positions(state, p, sign, s, cos_e, sin_e)
        if capture:
            return np.hypot(xp - xe, yp - ye) - p.r
        return _wrapped_error(xp, yp, tp, xe, ye, p.alpha)

    lo_positive = event(t_lo) > 0.0
    mid = None
    for _ in range(60):
        last, mid = mid, 0.5 * (t_lo + t_hi)
        if last is not None and mid.tobytes() == last.tobytes():
            break
        f_mid = event(mid)
        zero = f_mid == 0.0
        lo_moves = (f_mid > 0.0) == lo_positive
        t_lo = np.where(lo_moves | zero, mid, t_lo)
        t_hi = np.where(lo_moves & ~zero, t_hi, mid)
    return 0.5 * (t_lo + t_hi)


def _error_rate_bound(p: GameParams) -> tuple[float, float]:
    """(a, b) of the heading error's rate bound a + b / d (``_JUMP_MARGIN``)."""
    return p.v_p / p.kappa, p.v_p * heading_adjust_ratio(p.alpha)


#: Rounding margin of the rollout scan's jumps, in radians of heading error
#: and in lengths of capture gap.  A heading at step k, with error e, gap g
#: and pair distance d = g + r, jumps s = ``_jump_steps`` >= 1 steps and
#: skips the hit tests of steps k+1..k+s, which span at most x = s dt of game
#: time (the horizon clamp only shortens it).  No skipped step fires.  The
#: gap moves at most v_p + v_e, and x <= (g - margin) / (v_p + v_e), so it
#: stays above the margin (no capture) and the pair farther apart than d_min
#: = d - (v_p + v_e) x > r.  The unwrapped error u, the bearing to the aim
#: point A minus the heading, then moves at most R x with R = a + b / d_min
#: (``_error_rate_bound``): the heading turns at a = v_p / kappa, |dA/dt| <=
#: 2 v_p / (alpha - 1), the car moves at v_p and |A - x_p| >= alpha d /
#: (alpha + 1), so the bearing turns at most b / d with b = v_p times
#: ``heading_adjust_ratio``.  As R x < |e| - margin, u stays strictly between
#: the two multiples of 2 pi around its value at step k: no skipped step
#: computes an error of 0.  A sign change between two skipped steps is then a
#: wrap across +-pi, with |e0| + |e1| = 2 pi - |du| > pi because the change
#: |du| <= R x < |e| <= pi, so it does not fire either; the same inequality
#: makes R dt >= pi force s = 0.  Times come from the per-step grid min(k dt,
#: horizon), so a jump lands on the values the per-step scan computes there,
#: and a heading with s < 1 takes one step under the per-step hit test:
#: brackets, and so event times and values, are the per-step scan's bit for
#: bit.  The margin absorbs the rounding of the computed errors, gaps and
#: spans at the oracle's length scales.
_JUMP_MARGIN = 1e-9


def _jump_steps(err, gap, p: GameParams, dt: float):
    """Whole steps of ``dt`` over which neither the heading error ``err`` nor
    the capture gap ``gap`` can reach zero (``_JUMP_MARGIN``), or below 1."""
    a, b = _error_rate_bound(p)
    close = p.v_p + p.v_e
    e = np.abs(err) - _JUMP_MARGIN
    d = gap + p.r
    # smaller root of a x + b x / (d - close x) = e; disc >= 0 for e >= -margin
    q = a * d + b + close * e
    disc = (a * d - close * e) ** 2 + b * (b + 2.0 * (a * d + close * e))
    x = 2.0 * e * d / (q + np.sqrt(disc))
    return np.floor(np.minimum(x, (gap - _JUMP_MARGIN) / close) / dt)


#: Rounding margin, in lengths of aim height, of the rollout oracle's
#: pruning.  A heading fired in the bracket [t_lo, t_hi] pays the aim height
#: y(t) at its event time t in that bracket, and y moves at most
#: w = ``geometry.aim_height_rate(v_p, alpha)`` per unit of time.  So with
#: y_hi its height at t_hi and s = w (t_hi - t_lo) + margin, its payoff lies
#: in [y_hi - s, y_hi + s].  A heading with y_hi - s > min(y_hi + s) over the
#: fired headings pays more than the heading that attains that minimum, so
#: it cannot hold the oracle's value and is neither bisected nor
#: evaluated.  Elementwise array work does not depend on a value's position
#: in the array, so the kept headings' payoffs, and so their minimum, are
#: those of a run that bisects every heading, bit for bit.  A NaN height
#: keeps every heading.  The margin absorbs the rounding of the computed
#: heights and of alpha = v_p / v_e at the oracle's length scales.
_PRUNE_MARGIN = 1e-9


def rollout_clearance_oracle(
    state: JointState, p: GameParams, grid: int = 720, return_times: bool = False
):
    """Brute-force value of the original worst-case clearance problem.

    For each of ``grid`` constant evader headings, roll the frozen-sign
    full-rate turn forward and locate the first instant at which the pair
    either comes within capture range or the wrapped heading error crosses
    zero; the clearance of the interception point there is the heading's
    payoff, and the minimum over headings is returned.  Aligned or captured
    initial states are terminal already: returns +inf.  With
    ``return_times`` also returns the per-heading event times (NaN where no
    event occurred within one turning period).

    A time scan on the grid min(k dt, horizon) brackets each heading's first
    firing step.  Each heading without an event keeps its own step, error
    and gap; in one array pass per round, all of them jump over the steps
    where neither can reach zero (``_jump_steps``) or take one step under
    the hit test, so the brackets are a per-step scan's (``_JUMP_MARGIN``).
    Then one array bisection locates the heading-error events and one the
    captures (the earlier wins), and one ``lowest_point`` call gives every
    event clearance.  Without ``return_times`` only the headings whose
    payoff can be the minimum are bisected and evaluated: the aim height at
    each bracket's end, widened by its rate bound over the bracket, rules out
    the rest (``_PRUNE_MARGIN``).
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    x_p, x_e = state.pursuer.pos, state.evader.pos
    dist0 = math.hypot(x_p[0] - x_e[0], x_p[1] - x_e[1])
    if dist0 <= p.r or abs(err0 := heading_error(x_p, state.pursuer.theta, x_e, p.alpha)) <= 1e-12:
        return (math.inf, np.full(grid, np.nan)) if return_times else math.inf
    bound = adjust_time_bound(state, p, err0)
    sign = bound.turn_sign
    dt = bound.duration / 2000.0
    horizon = 2.0 * math.pi * p.kappa / p.v_p

    headings = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    cos_e, sin_e = np.cos(headings), np.sin(headings)
    io_fired, cap_fired = np.zeros((2, grid), dtype=bool)
    t_lo, t_hi = np.zeros((2, grid))
    # the headings without an event, each at its own step k and time t
    idx, k, t = np.arange(grid), np.zeros(grid), np.zeros(grid)
    err, gap = np.full(grid, err0), np.full(grid, dist0 - p.r)
    while idx.size:
        skip = _jump_steps(err, gap, p, dt)
        single = skip < 1.0
        k = np.where(single, k + 1.0, k + skip)
        t_next = np.minimum(k * dt, horizon)
        xp, yp, tp, xe, ye = _rollout_positions(state, p, sign, t_next, cos_e[idx], sin_e[idx])
        dist = np.hypot(xp - xe, yp - ye)
        err_next = _wrapped_error(xp, yp, tp, xe, ye, p.alpha, dist)
        gap_next = dist - p.r
        flip = (np.sign(err_next) != np.sign(err)) & (np.abs(err_next) + np.abs(err) < math.pi)
        io_hit, cap_hit = single & flip, single & (gap_next <= 0.0) & (gap > 0.0)
        fired = io_hit | cap_hit
        col = idx[fired]
        io_fired[col], cap_fired[col] = io_hit[fired], cap_hit[fired]
        t_lo[col], t_hi[col] = t[fired], t_next[fired]
        keep = ~fired & (t_next < horizon)
        idx, k, t, err, gap = idx[keep], k[keep], t_next[keep], err_next[keep], gap_next[keep]

    if not return_times:
        # bisect only the headings whose payoff can be the minimum
        fired = io_fired | cap_fired
        t_end = t_hi[fired]
        xp, yp, _, xe, ye = _rollout_positions(state, p, sign, t_end, cos_e[fired], sin_e[fired])
        height = lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), p.alpha)[1]
        slack = aim_height_rate(p.v_p, p.alpha) * (t_end - t_lo[fired]) + _PRUNE_MARGIN
        fired[fired] = ~(height - slack > np.min(height + slack, initial=math.inf))
        io_fired &= fired
        cap_fired &= fired
    times = np.full(grid, math.inf)
    for fired, capture in ((io_fired, False), (cap_fired, True)):
        if fired.any():
            found = _bisect_events(
                state, p, sign, cos_e[fired], sin_e[fired], t_lo[fired], t_hi[fired], capture
            )
            times[fired] = np.minimum(times[fired], found)
    fired = io_fired | cap_fired
    xp, yp, _, xe, ye = _rollout_positions(state, p, sign, times[fired], cos_e[fired], sin_e[fired])
    clearance = lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), p.alpha)[1]
    best = float(np.min(clearance, initial=math.inf))
    times[~fired] = np.nan
    return (best, times) if return_times else best


class CertificateKind(enum.Enum):
    INTERCEPT = "intercept"
    TWO_STEP = "two_step"
    NONE = "none"


@dataclass(frozen=True)
class CertificateEvidence:
    """The predicate values that decided a certificate; a predicate the
    route did not reach is None.  ``clearance`` is the relaxed worst-case
    clearance of the two-step route: the closed form's minimum when the
    sextic was solved, or, for a pair refuted before the solve, the relaxed
    objective at one feasible point, below minus ``_witness_margin`` and an
    upper bound on the closed form's value.  ``clearance_carried`` marks a
    clearance carried from ``anchor`` instead of solved: the anchor's
    clearance less its drift and twice ``_witness_margin``, a lower bound on
    the closed form's value.  ``anchor`` is the solve the clearance rests on,
    the new one or the one carried.  ``solver_failed`` is set when no root
    reconstructed a KKT point."""

    separation: float
    sc: bool
    io: bool | None
    heading_err: float | None
    dist: float
    intercept_ok: bool | None
    adjust_ok: bool | None
    two_step_ok: bool | None
    beyond_capture: bool | None = None
    scope_ok: bool | None = None
    adjust_duration: float | None = None
    clearance: float | None = None
    solver_failed: bool = False
    clearance_carried: bool = False
    anchor: ClearanceAnchor | None = None


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    evidence: CertificateEvidence


def intercepts(aim, theta: float, p: GameParams) -> bool:
    """The one INTERCEPT test, of ``certify_win`` and the simulator's carry:
    for the aim ``(x, y, bearing)`` (``aim_point``, ``aim_bearing``) and the
    pursuer heading ``theta``, separation (aim height at least 0) and, for a
    car, alignment (heading error within ``IO_TOL``) and the curvature check."""
    sc = aim[1] >= 0.0
    if not sc or p.motion == SIMPLE:
        return sc
    return abs(wrap_to_pi(aim[2] - theta)) <= IO_TOL and intercept_feasible(p.r, p.kappa, p.alpha)


def certify_win(state: JointState, p: GameParams, anchor: ClearanceAnchor | None = None) -> Certificate:
    """Decide whether the pursuer has a guaranteed win against the evader
    from this state, and record the predicate values that decided it.

    A car wins directly when ``intercepts`` holds: separation and alignment
    hold and the parameters pass the curvature check; it wins through the
    two-step route when separation holds without alignment, the pair is
    beyond capture range, the evader is outside the adjustment scope ball,
    the parameters pass the two-step check and the worst-case clearance
    bound is non-negative; a pair whose relaxed objective is below
    -``_witness_margin`` at the witness point (``_witness_clearance``) is
    refused before the bound is solved.  Given the ``anchor`` of an earlier
    solve, a pair the witness does not refute is certified without the
    solve when the anchor's drift is at most ``ANCHOR_DRIFT_CAP`` and its
    clearance less that drift and 2 * ``_witness_margin`` is at least 0; it
    is solved and re-anchored otherwise.  The carry is decided before any
    solve, so a pair whose solve would raise ``KKTReconstructionError``
    (a missed root) is still certified on it.  A simple-motion pursuer
    (``p.motion`` is ``model.SIMPLE``) needs separation only.

    Separation is the one test of the aim height: ``evidence.separation``
    is that signed height, and ``sc`` holds when it is at least 0.  The aim
    point, the heading error and the adjustment-time bound are each computed
    once and handed to the predicates that use them.
    """
    x_p, theta, x_e = state.pursuer.pos, state.pursuer.theta, state.evader.pos
    aim_x, aim_y, _ = aim_point(x_p, x_e, p.alpha)
    aim = aim_x, aim_y, aim_bearing(x_p, aim_x, aim_y)
    sc = aim_y >= 0.0
    dist = math.hypot(x_p[0] - x_e[0], x_p[1] - x_e[1])
    io = err = intercept_ok = adjust_ok = two_ok = None
    beyond_capture = scope_ok = duration = clearance = None
    solver_failed = carried = False
    rests_on = None
    kind = CertificateKind.INTERCEPT if intercepts(aim, theta, p) else CertificateKind.NONE

    if p.motion != SIMPLE:
        err = wrap_to_pi(aim[2] - theta)
        io = abs(err) <= IO_TOL
        intercept_ok = intercept_feasible(p.r, p.kappa, p.alpha)
        adjust_ok = adjust_feasible(p.r, p.kappa, p.alpha)
        two_ok = intercept_ok and adjust_ok
        if kind is CertificateKind.NONE:
            beyond_capture = dist > p.r
            if sc and not io and beyond_capture:
                bound = adjust_time_bound(state, p, err)
                duration = bound.duration
                scope_ok = bound.scope_gap > 0.0
        if scope_ok and two_ok:
            center = bound.turn_center
            witness = _witness_clearance(center, x_e, p.alpha, p.kappa)[0]
            margin = _witness_margin(p.alpha, p.kappa)
            if witness < -margin:
                clearance = witness
            else:
                carry = None if anchor is None else anchor.carry(center, x_e, p.alpha, margin)
                if carry is not None:
                    clearance, carried, rests_on = carry, True, anchor
                    kind = CertificateKind.TWO_STEP
                else:
                    try:
                        clearance = relaxed_clearance_from_centers(center, x_e, p.alpha, p.kappa).clearance
                    except KKTReconstructionError:
                        solver_failed = True
                    else:
                        rests_on = ClearanceAnchor(center, tuple(x_e), clearance)
                        if clearance >= 0.0:
                            kind = CertificateKind.TWO_STEP

    return Certificate(
        kind=kind,
        evidence=CertificateEvidence(
            separation=aim_y,
            sc=sc,
            io=io,
            heading_err=err,
            dist=dist,
            intercept_ok=intercept_ok,
            adjust_ok=adjust_ok,
            two_step_ok=two_ok,
            beyond_capture=beyond_capture,
            scope_ok=scope_ok,
            adjust_duration=duration,
            clearance=clearance,
            solver_failed=solver_failed,
            clearance_carried=carried,
            anchor=rests_on,
        ),
    )


def sample_adjust_feasible_state(
    rng: np.random.Generator,
    p: GameParams,
    d_range: tuple[float, float] = (0.2, 1.0),
) -> JointState:
    """Draw a random unaligned state satisfying the adjustment-bound
    conditions (beyond capture range, heading error above 1e-3, evader
    outside the scope ball) in at most 10,000 tries.  Deterministic given
    ``rng``.
    """
    lo, hi = d_range
    if lo <= p.r:
        raise ValueError("d_range must start above the capture radius")
    for _ in range(10_000):
        xp, yp = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.2)
        theta_p = rng.uniform(0.0, 2.0 * math.pi)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(lo, hi)
        ye = yp + dist * math.sin(bearing)
        if ye <= 0.05:
            continue
        x_e = (xp + dist * math.cos(bearing), ye)
        err = heading_error((xp, yp), theta_p, x_e, p.alpha)
        if abs(err) <= 1e-3:
            continue
        state = JointState(PursuerState((xp, yp), theta_p), EvaderState(x_e))
        if adjust_time_bound(state, p, err).scope_gap > 0.0:
            return state
    raise RuntimeError("failed to sample a feasible state")
