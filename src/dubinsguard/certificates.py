"""Winning certificates for one pursuer-evader pair.

Three parameter curves split the (alpha, r/kappa) plane: the exact
curvature-demand functional (how much turn rate the interception-tracking
command can ever need), its closed-form upper bound, and the ratio that
makes the heading-adjustment maneuver safe.  On top of the parameter checks,
a pair-state certificate is issued either directly (separation and alignment
already hold) or through the two-step route, whose safety is decided by a
worst-case clearance bound: the minimum signed distance the interception
point can be forced to during one turning period.  That bound has a KKT
closed form driven by a degree-six polynomial; two brute-force oracles
(a boundary scan of the relaxed problem and a trajectory rollout of the
original one) cross-check it.  All of them bound the turn the car makes:
``adjust_time_bound`` takes its direction from ``geometry.turn_direction``,
the rule the strategies steer by.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    IO_TOL,
    aim_bearing,
    aim_point,
    goal_gap,
    heading_error,
    lowest_point,
    turn_direction,
)
from .model import (
    EvaderState,
    GameParams,
    JointState,
    PursuerState,
    wrap_angle,
    wrap_to_pi,
)
from .numerics import Polynomial, golden_max, max_on_circle, real_roots

#: Max-norm threshold on the stationarity residual below which a
#: reconstructed candidate counts as a genuine KKT point.
KKT_RESIDUAL_TOL = 1e-6


class KKTReconstructionError(RuntimeError):
    """No admissible root of the relaxation polynomial reconstructs a valid
    KKT point."""


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
    if alpha <= 1.0:
        raise ValueError(f"speed ratio must exceed 1, got {alpha}")
    return max_on_circle(lambda x, y: _demand_objective(x, y, alpha)).max_value


def curvature_demand_bound(alpha: float) -> float:
    """Closed-form upper bound (2*alpha - 1) / (alpha - 1)^2 on the
    curvature demand; cheap to check and sufficient."""
    return (2.0 * alpha - 1.0) / (alpha - 1.0) ** 2


def heading_adjust_ratio(alpha: float) -> float:
    """Ratio (alpha + 1)^2 / (alpha * (alpha - 1)); r/kappa above it makes
    the full-rate heading adjustment reach alignment in finite time."""
    return (alpha + 1.0) ** 2 / (alpha * (alpha - 1.0))


def intercept_feasible(r: float, kappa: float, alpha: float) -> bool:
    """Non-strict check r/kappa >= h(alpha) (admissibility of the
    interception-tracking command under separation and alignment).  The
    one place this comparison is made: ``two_step_feasible`` and
    ``classify_region`` call it."""
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
    if min(r, kappa) <= 0.0 or alpha <= 1.0:
        raise ValueError("need positive r, kappa and alpha > 1")
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
    period.
    """

    turn_center: np.ndarray
    center_bearing: float
    evader_bearing: float
    wraps: int
    duration: float
    turn_sign: float


def adjust_time_bound(
    state: JointState, p: GameParams, err: float | None = None
) -> AdjustBound:
    """Upper bound on the heading-adjustment time; rejects aligned states.
    ``err`` is the state's heading error, when the caller already has it.

    The turn is the one the car makes: ``turn_sign`` is
    ``geometry.turn_direction(err)``, so every bound built on this one
    (scope, clearance, both oracles) is a bound on the executed maneuver."""
    if err is None:
        err = heading_error(state, p)
    if err == 0.0:
        raise ValueError("state is already aligned; no adjustment to bound")
    sign = turn_direction(err)
    theta_p = state.pursuer.theta
    center_bearing = wrap_angle(theta_p + sign * 0.5 * math.pi)
    center = state.pursuer.pos + p.kappa * np.array(
        [math.cos(center_bearing), math.sin(center_bearing)]
    )
    rel = state.evader.pos - center
    evader_bearing = wrap_angle(math.atan2(rel[1], rel[0]))
    swept = (wrap_angle(evader_bearing - center_bearing) - math.pi) * sign
    if swept > 0.0:
        wraps = 0
    else:
        swept += 2.0 * math.pi
        wraps = 1
    return AdjustBound(
        turn_center=center,
        center_bearing=center_bearing,
        evader_bearing=evader_bearing,
        wraps=wraps,
        duration=swept * p.kappa / p.v_p,
        turn_sign=sign,
    )


def adjust_scope_holds(
    state: JointState, p: GameParams, bound: AdjustBound | None = None
) -> bool:
    """Strict check that the evader sits far enough from the turn circle for
    the adjustment-time bound to be trustworthy: the center-to-evader
    distance must exceed kappa plus the evader's reach over the bound,
    shrunk by sqrt(alpha^2 - 1).  ``bound`` is the state's
    ``adjust_time_bound``, when the caller already has it."""
    if bound is None:
        bound = adjust_time_bound(state, p)
    gap = float(np.linalg.norm(bound.turn_center - state.evader.pos))
    return gap > p.kappa + p.v_p * bound.duration / math.sqrt(p.alpha**2 - 1.0)


def relaxation_sextic(x_c, x_e, alpha: float, kappa: float) -> Polynomial:
    """Degree-six polynomial whose positive roots carry the multipliers of
    the relaxed worst-case clearance problem; coefficients ascending."""
    if alpha <= 1.0 or kappa <= 0.0:
        raise ValueError("need alpha > 1 and kappa > 0")
    x_c = np.asarray(x_c, dtype=float)
    x_e = np.asarray(x_e, dtype=float)
    dx2 = (x_e[0] - x_c[0]) ** 2
    dy = x_c[1] - x_e[1]
    sep2 = float(dx2 + dy * dy)
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
    horizontal displacements."""

    clearance: float
    pursuer_point: np.ndarray
    evader_point: np.ndarray
    multiplier: float
    sigma: int


def _kkt_residual(
    x_p: np.ndarray,
    x_e_star: np.ndarray,
    x_c: np.ndarray,
    x_e: np.ndarray,
    lam: float,
    alpha: float,
    kappa: float,
    reach: float,
) -> float:
    diff = x_p - x_e_star
    dist = math.hypot(diff[0], diff[1])
    if dist == 0.0:
        return math.inf
    u_e = (x_e_star - x_e) / reach
    u_p = (x_p - x_c) / kappa
    res_a = alpha * diff[0] / dist + alpha * lam * u_e[0]
    res_b = alpha * diff[1] / dist + alpha * lam * u_e[1] + alpha * alpha
    res_c = -alpha * diff[0] / dist + lam * u_p[0]
    res_d = -alpha * diff[1] / dist + lam * u_p[1] - 1.0
    return max(abs(res_a), abs(res_b), abs(res_c), abs(res_d))


def relaxed_clearance_from_centers(
    x_c, x_e, alpha: float, kappa: float
) -> RelaxedSolution:
    """Closed-form solution of the relaxed worst-case clearance problem,
    given the turn-circle center and the evader position.

    Builds the relaxation polynomial, gathers its real roots in the bracket
    [alpha-1, alpha+1] (outside it the reconstruction square root turns
    imaginary), reconstructs the candidate extremal points for each root,
    keeps those passing the active-constraint, sign-law and stationarity
    checks, and returns the candidate with the smallest objective.  Squaring
    steps in the derivation can introduce spurious roots; the residual
    filter removes them.
    """
    a2 = alpha * alpha
    x_c = np.asarray(x_c, dtype=float)
    x_e = np.asarray(x_e, dtype=float)
    sigma = 0
    if x_c[0] > x_e[0]:
        sigma = 1
    elif x_c[0] < x_e[0]:
        sigma = -1
    poly = relaxation_sextic(x_c, x_e, alpha, kappa)
    candidates = real_roots(poly, alpha - 1.0, alpha + 1.0, tol=1e-12)
    for endpoint in (alpha - 1.0, alpha + 1.0):
        if all(abs(endpoint - c) > 1e-9 for c in candidates):
            candidates.append(endpoint)

    reach = 2.0 * math.pi * kappa / alpha
    side_tol = 1e-9 * (1.0 + float(np.linalg.norm(x_c - x_e)))
    best: RelaxedSolution | None = None
    for lam in candidates:
        if lam <= 0.0:
            continue
        phi_sq = 2.0 * (1.0 + a2) * lam * lam - lam**4 - (1.0 - a2) ** 2
        if phi_sq < -1e-9:
            continue
        phi = math.sqrt(max(phi_sq, 0.0))
        x_p_star = np.array(
            [
                x_c[0] + sigma * kappa * phi / (2.0 * lam),
                x_c[1] + (1.0 - a2 + lam * lam) * kappa / (2.0 * lam),
            ]
        )
        x_e_star = np.array(
            [
                x_e[0] - sigma * math.pi * kappa * phi / (a2 * lam),
                x_e[1] + (1.0 - a2 - lam * lam) * math.pi * kappa / (a2 * lam),
            ]
        )
        if abs(np.linalg.norm(x_e_star - x_e) - reach) > 1e-9 * (1.0 + reach):
            continue
        if abs(np.linalg.norm(x_p_star - x_c) - kappa) > 1e-9 * (1.0 + kappa):
            continue
        gap_x = x_p_star[0] - x_e_star[0]
        if sigma == 0:
            if abs(gap_x) > side_tol:
                continue
        elif sigma * gap_x < -side_tol:
            continue
        if (
            _kkt_residual(x_p_star, x_e_star, x_c, x_e, lam, alpha, kappa, reach)
            >= KKT_RESIDUAL_TOL
        ):
            continue
        _, clearance, _ = lowest_point(
            x_p_star[0],
            x_p_star[1],
            x_e_star[0],
            x_e_star[1],
            float(np.linalg.norm(x_p_star - x_e_star)),
            alpha,
        )
        if best is None or clearance < best.clearance:
            best = RelaxedSolution(
                clearance=float(clearance),
                pursuer_point=x_p_star,
                evader_point=x_e_star,
                multiplier=lam,
                sigma=sigma,
            )
    if best is None:
        raise KKTReconstructionError("KKT reconstruction failed")
    return best


def solve_relaxed_clearance(state: JointState, p: GameParams) -> RelaxedSolution:
    """Closed-form worst-case clearance bound for an unaligned pair state
    (the turn center is derived from the pursuer's heading and turn sign)."""
    bound = adjust_time_bound(state, p)
    return relaxed_clearance_from_centers(
        bound.turn_center, state.evader.pos, p.alpha, p.kappa
    )


def relaxed_oracle_from_centers(
    x_c, x_e, alpha: float, kappa: float, grid: int = 720
) -> float:
    """Brute-force minimum of the relaxed clearance objective.

    The objective is concave and the constraint set is a product of two
    disks, so the minimum sits on both boundary circles; scan the grid x grid
    lattice of boundary angles as one column-by-row broadcast (each angle's
    cos/sin taken once), then polish the best cell by alternating
    golden-section descent.  Returns the clearance on the closed form's scale."""
    cx, cy = map(float, x_c)
    ex, ey = map(float, x_e)
    reach = 2.0 * math.pi * kappa / alpha

    def objective(theta_p, theta_e):
        xp = cx + kappa * np.cos(theta_p)
        yp = cy + kappa * np.sin(theta_p)
        xe = ex + reach * np.cos(theta_e)
        ye = ey + reach * np.sin(theta_e)
        return lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), alpha)[1]

    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = objective(angles[:, None], angles[None, :])
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    theta_p, theta_e = float(angles[i]), float(angles[j])
    window = 4.0 * math.pi / grid
    for _ in range(8):
        theta_p, _ = golden_max(
            lambda t: -float(objective(t, theta_e)),
            theta_p - window,
            theta_p + window,
            tol=1e-12,
        )
        theta_e, _ = golden_max(
            lambda t: -float(objective(theta_p, t)),
            theta_e - window,
            theta_e + window,
            tol=1e-12,
        )
        window *= 0.5
    value = float(objective(theta_p, theta_e))
    return min(value, float(vals[i, j]))


def relaxed_clearance_oracle(state: JointState, p: GameParams, grid: int = 720) -> float:
    """Brute-force worst-case clearance for an unaligned pair state."""
    bound = adjust_time_bound(state, p)
    return relaxed_oracle_from_centers(
        bound.turn_center, state.evader.pos, p.alpha, p.kappa, grid=grid
    )


def _rollout_positions(state: JointState, p: GameParams, sign: float, s, theta_e):
    """Closed-form pair positions at elapsed time ``s`` under the frozen-sign
    full-rate turn and a constant evader heading (both may be arrays)."""
    theta_p0 = state.pursuer.theta
    theta_p = theta_p0 + p.v_p * s * sign / p.kappa
    xp = state.pursuer.pos[0] + sign * p.kappa * (np.sin(theta_p) - math.sin(theta_p0))
    yp = state.pursuer.pos[1] - sign * p.kappa * (np.cos(theta_p) - math.cos(theta_p0))
    xe = state.evader.pos[0] + p.v_e * s * np.cos(theta_e)
    ye = state.evader.pos[1] + p.v_e * s * np.sin(theta_e)
    return xp, yp, theta_p, xe, ye


def _wrapped_error(xp, yp, theta_p, xe, ye, alpha: float):
    cx, cy, _ = lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), alpha)
    angle = np.arctan2(cy - yp, cx - xp)
    return np.mod(angle - theta_p + math.pi, 2.0 * math.pi) - math.pi


def _bisect_events(state, p, sign, theta_e, t_lo, t_hi, capture: bool):
    """Event time in each bracket [t_lo, t_hi] of the evader headings
    ``theta_e``: 60 joint halvings of the capture gap or the wrapped heading
    error.  A zero at a midpoint collapses that bracket onto it for good."""

    def event(s):
        xp, yp, tp, xe, ye = _rollout_positions(state, p, sign, s, theta_e)
        if capture:
            return np.hypot(xp - xe, yp - ye) - p.r
        return _wrapped_error(xp, yp, tp, xe, ye, p.alpha)

    f_lo = event(t_lo)
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        f_mid = event(mid)
        zero = f_mid == 0.0
        lo_moves = (f_mid > 0.0) == (f_lo > 0.0)
        t_lo = np.where(lo_moves | zero, mid, t_lo)
        t_hi = np.where(lo_moves & ~zero, t_hi, mid)
        f_lo = np.where(lo_moves, f_mid, f_lo)
    return 0.5 * (t_lo + t_hi)


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

    A coarse time scan brackets each heading's first firing test; then one
    array bisection locates all heading-error events and one all captures (the
    earlier wins), and one ``lowest_point`` call gives every event clearance.
    """
    dist0 = float(np.linalg.norm(state.pursuer.pos - state.evader.pos))
    if dist0 <= p.r or abs(err0 := heading_error(state, p)) <= 1e-12:
        return (math.inf, np.full(grid, np.nan)) if return_times else math.inf
    bound = adjust_time_bound(state, p)
    sign = bound.turn_sign
    dt = bound.duration / 2000.0
    horizon = 2.0 * math.pi * p.kappa / p.v_p
    steps = int(math.ceil(horizon / dt)) + 1

    headings = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    active = np.ones(grid, dtype=bool)
    io_fired, cap_fired = np.zeros((2, grid), dtype=bool)
    t_lo, t_hi = np.zeros((2, grid))
    prev_err, prev_gap, prev_t = np.full(grid, err0), np.full(grid, dist0 - p.r), 0.0

    for k in range(1, steps + 1):
        t = min(k * dt, horizon)
        xp, yp, tp, xe, ye = _rollout_positions(state, p, sign, t, headings)
        err = _wrapped_error(xp, yp, tp, xe, ye, p.alpha)
        gap = np.hypot(xp - xe, yp - ye) - p.r
        io_hit = active & (np.sign(err) != np.sign(prev_err)) & (
            np.abs(err) + np.abs(prev_err) < math.pi
        )
        cap_hit = active & (gap <= 0.0) & (prev_gap > 0.0)
        hit = io_hit | cap_hit
        if hit.any():
            io_fired |= io_hit
            cap_fired |= cap_hit
            t_lo[hit], t_hi[hit] = prev_t, t
            active &= ~hit
            if not active.any():
                break
        prev_err, prev_gap, prev_t = err, gap, t
        if t >= horizon:
            break

    times = np.full(grid, math.inf)
    for fired, capture in ((io_fired, False), (cap_fired, True)):
        if fired.any():
            found = _bisect_events(
                state, p, sign, headings[fired], t_lo[fired], t_hi[fired], capture
            )
            times[fired] = np.minimum(times[fired], found)
    fired = ~active
    xp, yp, _, xe, ye = _rollout_positions(state, p, sign, times[fired], headings[fired])
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


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    evidence: CertificateEvidence


def certify_win(
    state: JointState,
    p: GameParams,
    motion: str = "dubins",
) -> Certificate:
    """Decide whether the pursuer has a guaranteed win against the evader
    from this state, and record the predicate values that decided it.

    A car wins directly when separation and alignment hold and the
    parameters pass the curvature check; it wins through the two-step route
    when separation holds without alignment, the pair is beyond capture
    range, the evader is outside the adjustment scope ball, the parameters
    pass the two-step check and the worst-case clearance bound is
    non-negative.  A simple-motion pursuer needs separation only.

    The aim point, the heading error and the adjustment-time bound are each
    computed once and handed to the predicates that use them.
    """
    x_p, x_e = state.pursuer.pos, state.evader.pos
    aim_x, aim_y, _ = aim_point(x_p, x_e, p.alpha)
    separation = goal_gap(float(aim_y))
    sc = separation >= 0.0
    dist = float(np.linalg.norm(x_p - x_e))
    io = err = intercept_ok = adjust_ok = two_ok = None
    beyond_capture = scope_ok = duration = clearance = None
    solver_failed = False
    kind = CertificateKind.NONE

    if motion == "simple":
        if sc:
            kind = CertificateKind.INTERCEPT
    else:
        err = wrap_to_pi(aim_bearing(x_p, aim_x, aim_y) - state.pursuer.theta)
        io = abs(err) <= IO_TOL
        intercept_ok = intercept_feasible(p.r, p.kappa, p.alpha)
        adjust_ok = adjust_feasible(p.r, p.kappa, p.alpha)
        two_ok = two_step_feasible(p.r, p.kappa, p.alpha)
        if sc and io and intercept_ok:
            kind = CertificateKind.INTERCEPT
        else:
            beyond_capture = dist > p.r
            if sc and not io and beyond_capture:
                bound = adjust_time_bound(state, p, err)
                duration = bound.duration
                scope_ok = adjust_scope_holds(state, p, bound)
        if scope_ok and two_ok:
            try:
                clearance = relaxed_clearance_from_centers(
                    bound.turn_center, x_e, p.alpha, p.kappa
                ).clearance
            except KKTReconstructionError:
                solver_failed = True
            else:
                if clearance >= 0.0:
                    kind = CertificateKind.TWO_STEP

    return Certificate(
        kind=kind,
        evidence=CertificateEvidence(
            separation=separation,
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
        x_p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.2)])
        theta_p = rng.uniform(0.0, 2.0 * math.pi)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(lo, hi)
        x_e = x_p + dist * np.array([math.cos(bearing), math.sin(bearing)])
        if x_e[1] <= 0.05:
            continue
        state = JointState(
            pursuer=PursuerState(pos=x_p, theta=theta_p),
            evader=EvaderState(pos=x_e),
        )
        if abs(heading_error(state, p)) <= 1e-3:
            continue
        if adjust_scope_holds(state, p):
            return state
    raise RuntimeError("failed to sample a feasible state")
