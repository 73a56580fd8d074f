"""Feedback strategies for both teams, as pure state-to-control maps.

Pursuer side: aim straight at the interception point (simple motion), track
it with a turn-rate command synthesized from the evader's current control
(car with separation and alignment established), or swing the heading toward
the interception angle at full turn rate (alignment not yet established),
turning the way ``geometry.turn_direction`` picks, the same rule the
certificates bound.  ``two_step_command`` composes the last two into the
car's adjust-then-intercept phase machine, the one the simulator runs for
every car.
Evader side: head for the interception point (the unique best response), or
hold a constant heading.  Positions and controls are ``(x, y)`` float pairs;
the maps that return a control also accept arrays as positions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .certificates import intercept_feasible
from .geometry import IO_TOL, aim_point, heading_error, turn_direction
from .model import GameParams, _as_point

#: Turn commands may exceed 1 in magnitude by rounding; excess above this is
#: counted as a genuine precondition violation rather than float noise.
CLAMP_NOISE = 1e-9


class Phase(enum.Enum):
    ADJUSTING = "adjusting"
    INTERCEPTING = "intercepting"


@dataclass(frozen=True)
class TwoStepState:
    """Phase memory for the two-step strategy.

    ``last_error`` is the wrapped heading error seen on the previous step;
    it lets the strategy detect a sign crossing of the error between steps,
    which is how alignment is recognized when the time step is coarser than
    the alignment tolerance.
    """

    phase: Phase = Phase.ADJUSTING
    last_error: float | None = None


class ClampDiagnostics:
    """Counts turn commands that had to be clamped beyond float noise."""

    def __init__(self):
        self.events = 0
        self.max_excess = 0.0

    def record(self, excess: float):
        self.max_excess = max(self.max_excess, excess)
        if excess > CLAMP_NOISE:
            self.events += 1


def _unit(x: float, y: float) -> tuple[float, float]:
    norm = math.hypot(x, y)
    if norm == 0.0:
        raise ValueError("zero-length direction")
    return x / norm, y / norm


def pursuit_simple(x_p, x_e, alpha: float) -> tuple[float, float]:
    """Unit vector from the pursuer toward the interception point."""
    x_p = _as_point(x_p)
    x, y, _ = aim_point(x_p, _as_point(x_e), alpha)
    return _unit(x - x_p[0], y - x_p[1])


def evader_optimal(x_p, x_e, alpha: float) -> tuple[float, float]:
    """Unit vector from the evader at ``x_e`` toward the interception point
    of the pursuer at ``x_p`` (the evader's unique best response to the
    interception strategies)."""
    x_e = _as_point(x_e)
    x, y, _ = aim_point(_as_point(x_p), x_e, alpha)
    return _unit(x - x_e[0], y - x_e[1])


def evader_constant(theta_e: float) -> tuple[float, float]:
    """Time-invariant unit control at heading ``theta_e``."""
    return math.cos(theta_e), math.sin(theta_e)


def evader_random_goal(rng: np.random.Generator) -> float:
    """Draw a constant heading pointing strictly downward (closer to the
    goal region), uniform on (pi, 2*pi).  Deterministic given ``rng``."""
    while True:
        theta = float(rng.uniform(math.pi, 2.0 * math.pi))
        if math.sin(theta) < 0.0:
            return theta


def _gains(x_p, x_e, alpha: float, kappa: float) -> tuple[float, float, float]:
    """Gains (vec_x, vec_y, bias) of the turn command u = vec . u_e + bias
    that keeps a car at ``x_p`` tracking the interception point of an evader
    at ``x_e``.  Finite whenever the positions are distinct: the denominator
    factor (alpha^2 + 1) * d + 2 * alpha * (y_p - y_e) is at least
    (alpha - 1)^2 * d."""
    dx = x_p[0] - x_e[0]
    dy = x_p[1] - x_e[1]
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        raise ValueError("pursuer and evader positions coincide")
    shared = kappa * (alpha * dist + dy)
    denom = (alpha * alpha + 1.0) * dist + 2.0 * alpha * dy
    return (
        shared * dy / (dist * dist * denom),
        -shared * dx / (dist * dist * denom),
        -alpha * shared * dx / (dist**1.5 * denom**1.5),
    )


def pursuit_intercept(
    x_p, x_e, u_e, p: GameParams, diag: ClampDiagnostics | None = None
) -> float:
    """Turn command for a car at ``x_p`` with separation and alignment
    established, given the evader at ``x_e`` and its current control
    ``u_e``.

    Guaranteed to lie in [-1, 1] while the pair distance is at least the
    capture radius and the parameters pass the curvature-feasibility check;
    clamping is applied (and recorded on ``diag``) as a diagnostic for
    precondition violations, never as an error.
    """
    u_e = _as_point(u_e)
    vx, vy, bias = _gains(x_p, x_e, p.alpha, p.kappa)
    u = vx * u_e[0] + vy * u_e[1] + bias
    if u > 1.0 or u < -1.0:
        if diag is not None:
            diag.record(abs(u) - 1.0)
        u = max(-1.0, min(1.0, u))
    return u


def heading_adjust(x_p, theta: float, x_e, p: GameParams) -> float:
    """Full turn command toward the interception angle, in the direction
    ``geometry.turn_direction`` picks: the shorter angular sweep, clockwise
    when the error is exactly opposite up to float noise."""
    return turn_direction(heading_error(x_p, theta, x_e, p.alpha))


def two_step_command(
    x_p, theta: float, x_e, u_e, p: GameParams, mode: TwoStepState, diag=None
) -> tuple[float, TwoStepState]:
    """Two-step pursuit: the car at ``x_p`` with heading ``theta`` adjusts
    until alignment, then tracks the evader at ``x_e`` with control ``u_e``
    (``pursuit_intercept``).  Returns the turn command and the updated
    phase state.

    The transition fires once, when the wrapped heading error first enters
    the ``IO_TOL`` band or crosses zero between consecutive calls, and only
    if the parameters pass ``intercept_feasible`` (r >= kappa * h(alpha));
    while they fail it the car keeps adjusting.  Clamped tracking commands
    are recorded on ``diag``.  On transition the caller should snap the
    stored heading to the interception angle (the error at the detected
    instant is below the step resolution); the tracking command reads only
    positions, so it does not change with the snap.
    """
    if mode.phase is Phase.INTERCEPTING:
        return pursuit_intercept(x_p, x_e, u_e, p, diag), mode

    err = heading_error(x_p, theta, x_e, p.alpha)
    aligned = abs(err) <= IO_TOL
    if not aligned and mode.last_error is not None:
        aligned = (
            (err > 0.0) != (mode.last_error > 0.0)
            and abs(err) < 0.5 * math.pi
            and abs(mode.last_error) < 0.5 * math.pi
        )
    if aligned and intercept_feasible(p.r, p.kappa, p.alpha):
        return pursuit_intercept(x_p, x_e, u_e, p, diag), TwoStepState(Phase.INTERCEPTING)
    return turn_direction(err), TwoStepState(mode.phase, err)
