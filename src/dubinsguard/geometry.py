"""Evasion-region geometry: the interception point, the heading error and
the turn rule that closes it.

For a pursuer-evader pair with speed ratio alpha > 1 the set of points the
evader reaches strictly first (under simple motion on both sides) is an open
disk.  Its lowest point is where the evader can force the deepest approach to
the guarded half-plane, so the pursuer aims there; the bearing toward that
point is the interception angle.

``lowest_point`` is the one copy of that formula, on floats or arrays.
``aim_point`` (checked, one pair) and ``aim_bearing`` are the aim-point
kernel: ``heading_error``, the strategies, the simulator's heading snaps
and ``certify_win`` all read the point through them, and a pair has
separation when its aim height is at least 0; ``aim_height_rate`` bounds
how fast that height moves.  ``interception`` packages
the same point as an ``InterceptionData`` for callers that want every
derived quantity at once.

Positions are ``(x, y)`` pairs, as ``model`` builds them: the kernels only
index them, so a numpy array or a list is read as well, and
``interception`` turns its inputs into float pairs through
``model._as_point``, so every point it returns is a pair of Python floats.

``turn_direction`` is the one rule that maps a heading error to the
direction of the full-rate heading adjustment: the strategies steer by it,
and the adjustment-time bound, the clearance certificate and both of its
oracles bound the turn it picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import _as_point, wrap_angle, wrap_to_pi

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

    point: tuple[float, float]
    angle: float
    clearance: float
    offset: tuple[float, float]


def _check_pair(x_p, x_e, alpha: float) -> float:
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

    Plain arithmetic: the arguments may be floats or numpy arrays that
    broadcast together.  Callers check the pair (``alpha > 1``,
    ``dist > 0``) first.
    """
    a2 = alpha * alpha
    radius = alpha * dist / (a2 - 1.0)
    return (a2 * xe - xp) / (a2 - 1.0), (a2 * ye - yp) / (a2 - 1.0) - radius, radius


def aim_point(x_p, x_e, alpha: float) -> tuple[float, float, float]:
    """Checked ``lowest_point`` of one pair: (x, y, radius)."""
    dist = _check_pair(x_p, x_e, alpha)
    return lowest_point(x_p[0], x_p[1], x_e[0], x_e[1], dist, alpha)


def aim_height_rate(v_p: float, alpha: float) -> float:
    """Bound 2 v_p / (alpha - 1) on how fast the aim height y = (a^2 y_e -
    y_p - a d) / (a^2 - 1), a = alpha, of a pair d apart moves per unit of
    game time, for cars and simple-motion pursuers alike: |dy_e/dt| <= v_e
    = v_p / a, |dy_p/dt| <= v_p and |dd/dt| <= v_p + v_e."""
    return 2.0 * v_p / (alpha - 1.0)


def aim_bearing(x_p, x: float, y: float) -> float:
    """Bearing from the pursuer at ``x_p`` toward the point (x, y), in
    [0, 2*pi)."""
    return wrap_angle(math.atan2(y - x_p[1], x - x_p[0]))


def interception(x_p, x_e, alpha: float) -> InterceptionData:
    """Aim point: the lowest point of the closed evasion disk."""
    x_p = _as_point(x_p)
    x, y, radius = aim_point(x_p, _as_point(x_e), alpha)
    return InterceptionData(
        point=(x, y), angle=aim_bearing(x_p, x, y), clearance=y, offset=(0.0, -radius)
    )


def heading_error(x_p, theta: float, x_e, alpha: float) -> float:
    """Wrapped difference interception-angle minus the heading ``theta`` of
    a pursuer at ``x_p``, against an evader at ``x_e``, in (-pi, pi]."""
    x, y, _ = aim_point(x_p, x_e, alpha)
    return wrap_to_pi(aim_bearing(x_p, x, y) - theta)


def turn_direction(err: float) -> float:
    """Direction of the full-rate heading adjustment for the wrapped
    heading error ``err``: +1 counter-clockwise, -1 clockwise.

    Takes the shorter angular sweep; within ``OPPOSITE_TOL`` of exactly
    opposite (both sweeps equal up to float noise) it turns clockwise.
    """
    if abs(abs(err) - math.pi) <= OPPOSITE_TOL:
        return -1.0
    return 1.0 if math.sin(err) > 0.0 else -1.0
