"""Evasion-region geometry: the interception point, the separation
predicate, the heading error and the turn rule that closes it.

For a pursuer-evader pair with speed ratio alpha > 1 the set of points the
evader reaches strictly first (under simple motion on both sides) is an open
disk.  Its lowest point is where the evader can force the deepest approach to
the guarded half-plane, so the pursuer aims there; the bearing toward that
point is the interception angle.

``lowest_point`` is the one copy of that formula, on floats or arrays.
``aim_point`` (checked, one pair) and ``aim_bearing`` are the aim-point
kernel: the separation predicate and the heading error here, the
strategies, the simulator's heading snaps and ``certify_win`` all read the
point through them.  ``interception``
packages the same point as an ``InterceptionData`` for callers that want
every derived quantity at once.

``turn_direction`` is the one rule that maps a heading error to the
direction of the full-rate heading adjustment: the strategies steer by it,
and the adjustment-time bound, the clearance certificate and both of its
oracles bound the turn it picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameParams, JointState, wrap_angle, wrap_to_pi

#: Width of the heading-alignment band.  Exact equality is unreachable in
#: floating point; the simulator snaps the heading once the wrapped
#: difference is inside this band.
IO_TOL = 1e-6

#: Width of the "exactly opposite" band of ``turn_direction``.  The
#: opposite-heading case is measure zero and any perturbation escapes it, so
#: the band only needs to absorb float noise.
OPPOSITE_TOL = 1e-9


@dataclass(frozen=True)
class InterceptionData:
    """Lowest point of the closed evasion disk and derived quantities.

    ``point`` is the aim point, ``angle`` the bearing from the pursuer toward
    it (in [0, 2*pi)), ``clearance`` its signed distance to the goal line
    y = 0, and ``offset`` the vertical vector from the disk center down to the
    point (zero x-component, minus the radius in y).
    """

    point: np.ndarray
    angle: float
    clearance: float
    offset: np.ndarray


def _check_pair(x_p: np.ndarray, x_e: np.ndarray, alpha: float) -> float:
    if alpha <= 1.0:
        raise ValueError(f"speed ratio must exceed 1, got {alpha}")
    dist = math.hypot(x_p[0] - x_e[0], x_p[1] - x_e[1])
    if dist == 0.0:
        raise ValueError("pursuer and evader positions coincide")
    return dist


def lowest_point(xp, yp, xe, ye, dist, alpha: float):
    """Lowest point (x, y) of the closed evasion disk of a pursuer at
    (xp, yp) and an evader at (xe, ye), ``dist`` apart, and the disk's
    radius, as a tuple (x, y, radius).

    Plain arithmetic: the arguments may be floats or numpy arrays of one
    shape.  Callers check the pair (``alpha > 1``, ``dist > 0``) first.
    """
    a2 = alpha * alpha
    radius = alpha * dist / (a2 - 1.0)
    return (a2 * xe - xp) / (a2 - 1.0), (a2 * ye - yp) / (a2 - 1.0) - radius, radius


def aim_point(x_p, x_e, alpha: float) -> tuple[float, float, float]:
    """Checked ``lowest_point`` of one pair: (x, y, radius)."""
    dist = _check_pair(x_p, x_e, alpha)
    return lowest_point(x_p[0], x_p[1], x_e[0], x_e[1], dist, alpha)


def aim_bearing(x_p, x: float, y: float) -> float:
    """Bearing from the pursuer at ``x_p`` toward the point (x, y), in
    [0, 2*pi)."""
    return wrap_angle(math.atan2(y - x_p[1], x - x_p[0]))


def interception(x_p, x_e, alpha: float) -> InterceptionData:
    """Aim point: the lowest point of the closed evasion disk."""
    x_p = np.asarray(x_p, dtype=float)
    x_e = np.asarray(x_e, dtype=float)
    x, y, radius = aim_point(x_p, x_e, alpha)
    return InterceptionData(
        point=np.array([x, y]),
        angle=aim_bearing(x_p, x, y),
        clearance=float(y),
        offset=np.array([0.0, -radius]),
    )


def er_goal_distance(x_p, x_e, alpha: float) -> float:
    """Distance between the closed evasion disk and the goal half-plane.

    Returns the (non-negative) gap when the interiors are disjoint and -inf
    when the open disk dips into the open half-plane, i.e. the two interiors
    intersect.  The value is -inf rather than the geometric overlap depth:
    it marks "separation lost", not a length.
    """
    return goal_gap(float(aim_point(x_p, x_e, alpha)[1]))


def goal_gap(clearance: float) -> float:
    """``er_goal_distance`` of an aim point at height ``clearance``."""
    return clearance if clearance >= 0.0 else -math.inf


def separation_holds(state: JointState, p: GameParams) -> bool:
    """True iff the closed evasion disk keeps a non-negative distance to the
    goal half-plane."""
    return aim_point(state.pursuer.pos, state.evader.pos, p.alpha)[1] >= 0.0


def heading_error(state: JointState, p: GameParams) -> float:
    """Wrapped difference interception-angle minus pursuer-heading, in
    (-pi, pi]."""
    x_p = state.pursuer.pos
    x, y, _ = aim_point(x_p, state.evader.pos, p.alpha)
    return wrap_to_pi(aim_bearing(x_p, x, y) - state.pursuer.theta)


def turn_direction(err: float) -> float:
    """Direction of the full-rate heading adjustment for the wrapped
    heading error ``err``: +1 counter-clockwise, -1 clockwise.

    Takes the shorter angular sweep; within ``OPPOSITE_TOL`` of exactly
    opposite (both sweeps equal up to float noise) it turns clockwise.
    """
    if abs(abs(err) - math.pi) <= OPPOSITE_TOL:
        return -1.0
    return 1.0 if math.sin(err) > 0.0 else -1.0
