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
(a boundary scan of the relaxed problem, which computes exact distances only
for the cells a cheaper screen cannot rule out, and a trajectory rollout of
the original one, which skips the time steps where no event can fire and
locates events only for the headings that can hold the minimum)
cross-check it.  All of them bound the turn the car makes:
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
    aim_height_rate,
    aim_point,
    heading_error,
    lowest_point,
    turn_direction,
)
from .model import (
    DUBINS,
    SIMPLE,
    TWO_PI,
    EvaderState,
    GameParams,
    JointState,
    PursuerState,
    _as_point,
    _positive,
    _speed_ratio,
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
    ``classify_region``, ``certify_win`` and
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
    period.
    """

    turn_center: tuple[float, float]
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
        err = heading_error(state.pursuer.pos, state.pursuer.theta, state.evader.pos, p.alpha)
    if err == 0.0:
        raise ValueError("state is already aligned; no adjustment to bound")
    sign = turn_direction(err)
    (xp, yp), (xe, ye) = state.pursuer.pos, state.evader.pos
    center_bearing = wrap_angle(state.pursuer.theta + sign * 0.5 * math.pi)
    cx = xp + p.kappa * math.cos(center_bearing)
    cy = yp + p.kappa * math.sin(center_bearing)
    evader_bearing = wrap_angle(math.atan2(ye - cy, xe - cx))
    swept = (wrap_angle(evader_bearing - center_bearing) - math.pi) * sign
    if swept > 0.0:
        wraps = 0
    else:
        swept += 2.0 * math.pi
        wraps = 1
    return AdjustBound(
        turn_center=(cx, cy),
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
    gap = float(np.linalg.norm(np.subtract(bound.turn_center, state.evader.pos)))
    return gap > p.kappa + p.v_p * bound.duration / math.sqrt(p.alpha**2 - 1.0)


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
    horizontal displacements."""

    clearance: float
    pursuer_point: tuple[float, float]
    evader_point: tuple[float, float]
    multiplier: float
    sigma: int


def _kkt_residual(
    pxs: float,
    pys: float,
    exs: float,
    eys: float,
    cx: float,
    cy: float,
    ex: float,
    ey: float,
    lam: float,
    alpha: float,
    kappa: float,
    reach: float,
) -> float:
    """Max-norm stationarity residual of the candidate pursuer point
    (pxs, pys) and evader point (exs, eys), for the turn center (cx, cy),
    the evader at (ex, ey) and the multiplier ``lam``."""
    dx, dy = pxs - exs, pys - eys
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        return math.inf
    res_a = alpha * dx / dist + alpha * lam * ((exs - ex) / reach)
    res_b = alpha * dy / dist + alpha * lam * ((eys - ey) / reach) + alpha * alpha
    res_c = -alpha * dx / dist + lam * ((pxs - cx) / kappa)
    res_d = -alpha * dy / dist + lam * ((pys - cy) / kappa) - 1.0
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
    filter removes them.  The candidates are reconstructed on floats; the
    kept candidate's distance is ``np.linalg.norm``'s, the one the
    clearance has always been computed from.
    """
    a2 = alpha * alpha
    cx, cy = _as_point(x_c)
    ex, ey = _as_point(x_e)
    sigma = 0
    if cx > ex:
        sigma = 1
    elif cx < ex:
        sigma = -1
    poly = relaxation_sextic((cx, cy), (ex, ey), alpha, kappa)
    candidates = real_roots(poly, alpha - 1.0, alpha + 1.0, tol=1e-12)
    for endpoint in (alpha - 1.0, alpha + 1.0):
        if all(abs(endpoint - c) > 1e-9 for c in candidates):
            candidates.append(endpoint)

    reach = 2.0 * math.pi * kappa / alpha
    side_tol = 1e-9 * (1.0 + math.hypot(cx - ex, cy - ey))
    best: RelaxedSolution | None = None
    for lam in candidates:
        if lam <= 0.0:
            continue
        phi_sq = 2.0 * (1.0 + a2) * lam * lam - lam**4 - (1.0 - a2) ** 2
        if phi_sq < -1e-9:
            continue
        phi = math.sqrt(max(phi_sq, 0.0))
        pxs = cx + sigma * kappa * phi / (2.0 * lam)
        pys = cy + (1.0 - a2 + lam * lam) * kappa / (2.0 * lam)
        exs = ex - sigma * math.pi * kappa * phi / (a2 * lam)
        eys = ey + (1.0 - a2 - lam * lam) * math.pi * kappa / (a2 * lam)
        if abs(math.hypot(exs - ex, eys - ey) - reach) > 1e-9 * (1.0 + reach):
            continue
        if abs(math.hypot(pxs - cx, pys - cy) - kappa) > 1e-9 * (1.0 + kappa):
            continue
        gap_x = pxs - exs
        if sigma == 0:
            if abs(gap_x) > side_tol:
                continue
        elif sigma * gap_x < -side_tol:
            continue
        if (
            _kkt_residual(pxs, pys, exs, eys, cx, cy, ex, ey, lam, alpha, kappa, reach)
            >= KKT_RESIDUAL_TOL
        ):
            continue
        dist = float(np.linalg.norm((gap_x, pys - eys)))
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


def solve_relaxed_clearance(state: JointState, p: GameParams) -> RelaxedSolution:
    """Closed-form worst-case clearance bound for an unaligned pair state
    (the turn center is derived from the pursuer's heading and turn sign)."""
    bound = adjust_time_bound(state, p)
    return relaxed_clearance_from_centers(
        bound.turn_center, state.evader.pos, p.alpha, p.kappa
    )


#: Lattice rows per block of the relaxed oracle's scan: each block is one
#: array pass over (block rows) x (lattice columns), so the scan's memory is
#: linear in the lattice's width.
_LATTICE_BLOCK = 64


def _check_grid(grid: int) -> None:
    if grid < 1:
        raise ValueError("grid must be >= 1")


#: Margin of the relaxed lattice's screen, in units of (a^2 + 1 + 4 a) M /
#: |a^2 - 1|, with M the largest coordinate magnitude.  A cell's exact
#: height (a^2 ye - yp)/(a^2 - 1) - a hypot(dx, dy)/(a^2 - 1) and its screen
#: height a^2 ye/(a^2 - 1) - (yp/(a^2 - 1) + a/(a^2 - 1) sqrt(dx dx + dy dy))
#: compute one real number from the same dx and dy, with at most ten
#: roundings each (``np.hypot``'s error counted as two), each of relative
#: size eps/2 (eps = 2^-52) on a term no larger than one unit (the distance
#: is at most |dx| + |dy| <= 4 M).  So the two differ by at most 10 eps, and
#: the screen height of a lowest exact cell lies within 20 eps of the
#: block's lowest screen height; the margin keeps three times that.  A floor
#: of 2^-400 on M covers squares that underflow; coordinates from 1e150 up,
#: whose squares could overflow, and coordinates that are not finite get an
#: infinite margin.
_SCREEN_MARGIN = 64.0 * math.ulp(1.0)


def _lowest_cell(xp, yp, xe, ye, alpha: float) -> tuple[int, int, float]:
    """Lowest interception point over the lattice of pursuer points (``xp``,
    ``yp``; one per row) and evader points (``xe``, ``ye``; one per column):
    (row, column, height) of the first lowest cell in row-major order, the
    cell ``np.argmin`` picks on the whole lattice (a NaN cell wins).

    Scans ``_LATTICE_BLOCK`` rows at a time in two reused buffers.  Each
    block ranks its cells by a screen height, a column term minus a row term
    and a distance ``sqrt(dx*dx + dy*dy)``, then computes the height of
    ``lowest_point`` in its order of operations, ``(a2*ye - yp)/(a2 - 1) -
    alpha*np.hypot(dx, dy)/(a2 - 1)``, only for the cells whose screen height
    is within ``_SCREEN_MARGIN`` of the block's lowest; an infinite margin
    skips the screen."""
    a2 = alpha * alpha
    a2_ye = a2 * ye
    big = float(np.max(np.abs(np.concatenate((xp, yp, xe, ye)))))
    unit = (a2 + 1.0 + 4.0 * alpha) * (big + 2.0**-400) / abs(a2 - 1.0)
    margin = _SCREEN_MARGIN * unit if big < 1e150 else math.inf
    xp_col, yp_col = xp[:, None], yp[:, None]
    col, row, rate = a2_ye / (a2 - 1.0), yp_col / (a2 - 1.0), alpha / (a2 - 1.0)
    dist_buf, screen_buf = np.empty((2, min(_LATTICE_BLOCK, len(xp)), len(xe)))
    best, cell = math.inf, (0, 0)
    for i0 in range(0, len(xp), _LATTICE_BLOCK):
        rows = slice(i0, i0 + _LATTICE_BLOCK)
        n = len(xp[rows])
        if margin == math.inf:
            # the screen could overflow and would rule out no cell
            near = np.arange(n * len(xe))
        else:
            dist, screen = dist_buf[:n], screen_buf[:n]
            np.subtract(xp_col[rows], xe, out=dist)
            np.multiply(dist, dist, out=dist)
            np.subtract(yp_col[rows], ye, out=screen)
            np.multiply(screen, screen, out=screen)
            np.add(dist, screen, out=dist)
            np.sqrt(dist, out=dist)
            np.multiply(dist, rate, out=dist)
            np.add(dist, row[rows], out=dist)
            np.subtract(col, dist, out=screen)
            # row-major order is kept; a NaN threshold keeps every cell
            near = np.flatnonzero(~(screen > np.min(screen) + margin))
        i, j = near // len(xe) + i0, near % len(xe)
        radius = alpha * np.hypot(xp[i] - xe[j], yp[i] - ye[j]) / (a2 - 1.0)
        height = (a2_ye[j] - yp[i]) / (a2 - 1.0) - radius
        k = int(np.argmin(height))
        value = float(height[k])
        # a later block wins only with a strictly lower value, or with the
        # first NaN
        if best == best and not value >= best:
            best, cell = value, (int(i[k]), int(j[k]))
    return (*cell, best)


def relaxed_oracle_from_centers(
    x_c, x_e, alpha: float, kappa: float, grid: int = 720
) -> float:
    """Brute-force minimum of the relaxed clearance objective.

    The objective is concave and the constraint set is a product of two
    disks, so the minimum sits on both boundary circles; scan the grid x grid
    lattice of boundary angles (``_lowest_cell``: pursuer angle down the
    rows, evader angle across, each angle's boundary point taken once), then
    polish the lowest cell by alternating golden-section descent, each
    search's fixed boundary point built once.  Returns the clearance on the
    closed form's scale."""
    _speed_ratio(alpha)
    _positive("kappa", kappa)
    _check_grid(grid)
    cx, cy = _as_point(x_c)
    ex, ey = _as_point(x_e)
    reach = 2.0 * math.pi * kappa / alpha

    # the polish works on Python floats, which round as numpy scalars do.
    # The trig stays numpy's (it may use its own SIMD loops); the distance is
    # the complex magnitude, which calls the C library's ``hypot`` as numpy's
    # does but raises on overflow; the height is ``lowest_point``'s y.
    a2 = alpha * alpha

    def circle(x0, y0, radius, theta):
        return x0 + radius * float(np.cos(theta)), y0 + radius * float(np.sin(theta))

    def height(xp, yp, xe, ye):
        try:
            dist = abs(complex(xp - xe, yp - ye))
        except OverflowError:
            dist = math.inf
        return (a2 * ye - yp) / (a2 - 1.0) - alpha * dist / (a2 - 1.0)

    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    cos, sin = np.cos(angles), np.sin(angles)
    i, j, best = _lowest_cell(
        cx + kappa * cos, cy + kappa * sin, ex + reach * cos, ey + reach * sin, alpha
    )
    theta_p, theta_e = float(angles[i]), float(angles[j])
    window = 4.0 * math.pi / grid
    for _ in range(8):
        xe, ye = circle(ex, ey, reach, theta_e)
        theta_p, _ = golden_max(
            lambda t: -height(*circle(cx, cy, kappa, t), xe, ye),
            theta_p - window,
            theta_p + window,
            tol=1e-12,
        )
        xp, yp = circle(cx, cy, kappa, theta_p)
        theta_e, _ = golden_max(
            lambda t: -height(xp, yp, *circle(ex, ey, reach, t)),
            theta_e - window,
            theta_e + window,
            tol=1e-12,
        )
        window *= 0.5
    return min(height(xp, yp, *circle(ex, ey, reach, theta_e)), best)


def relaxed_clearance_oracle(state: JointState, p: GameParams, grid: int = 720) -> float:
    """Brute-force worst-case clearance for an unaligned pair state."""
    bound = adjust_time_bound(state, p)
    return relaxed_oracle_from_centers(
        bound.turn_center, state.evader.pos, p.alpha, p.kappa, grid=grid
    )


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
#: and pair distance d = g + r, jumps s = ``_quiet_steps`` >= 1 steps and
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


def _quiet_steps(err, gap, p: GameParams, dt: float):
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
    where neither can reach zero (``_quiet_steps``) or take one step under
    the hit test, so the brackets are a per-step scan's (``_JUMP_MARGIN``).
    Then one array bisection locates the heading-error events and one the
    captures (the earlier wins), and one ``lowest_point`` call gives every
    event clearance.  Without ``return_times`` only the headings whose
    payoff can be the minimum are bisected and evaluated: the aim height at
    each bracket's end, widened by its rate bound over the bracket, rules out
    the rest (``_PRUNE_MARGIN``).
    """
    _check_grid(grid)
    x_p, x_e = state.pursuer.pos, state.evader.pos
    dist0 = float(np.linalg.norm(np.subtract(x_p, x_e)))
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
        skip = _quiet_steps(err, gap, p, dt)
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


def certify_win(state: JointState, p: GameParams, motion: str = DUBINS) -> Certificate:
    """Decide whether the pursuer has a guaranteed win against the evader
    from this state, and record the predicate values that decided it.

    A car wins directly when separation and alignment hold and the
    parameters pass the curvature check; it wins through the two-step route
    when separation holds without alignment, the pair is beyond capture
    range, the evader is outside the adjustment scope ball, the parameters
    pass the two-step check and the worst-case clearance bound is
    non-negative.  A simple-motion pursuer needs separation only; a
    ``motion`` other than ``model.DUBINS`` or ``SIMPLE`` is a ``ValueError``.

    Separation is the one test of the aim height: ``evidence.separation``
    is that signed height, and ``sc`` holds when it is at least 0.  The aim
    point, the heading error and the adjustment-time bound are each computed
    once and handed to the predicates that use them.
    """
    if motion not in (DUBINS, SIMPLE):
        raise ValueError(f"unknown motion kind {motion!r}")
    x_p, x_e = state.pursuer.pos, state.evader.pos
    aim_x, aim_y, _ = aim_point(x_p, x_e, p.alpha)
    sc = aim_y >= 0.0
    dist = math.hypot(x_p[0] - x_e[0], x_p[1] - x_e[1])
    io = err = intercept_ok = adjust_ok = two_ok = None
    beyond_capture = scope_ok = duration = clearance = None
    solver_failed = False
    kind = CertificateKind.NONE

    if motion == SIMPLE:
        if sc:
            kind = CertificateKind.INTERCEPT
    else:
        err = wrap_to_pi(aim_bearing(x_p, aim_x, aim_y) - state.pursuer.theta)
        io = abs(err) <= IO_TOL
        intercept_ok = intercept_feasible(p.r, p.kappa, p.alpha)
        adjust_ok = adjust_feasible(p.r, p.kappa, p.alpha)
        two_ok = intercept_ok and adjust_ok
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
        state = JointState(
            pursuer=PursuerState(pos=(xp, yp), theta=theta_p), evader=EvaderState(pos=x_e)
        )
        if adjust_scope_holds(state, p, adjust_time_bound(state, p, err)):
            return state
    raise RuntimeError("failed to sample a feasible state")
