"""Feedback strategies for both teams, as pure state-to-control maps.

Pursuer side: aim straight at the interception point (simple motion), track
it with a turn-rate command synthesized from the evader's current control
(car with separation and alignment established), or swing the heading toward
the interception angle at full turn rate (alignment not yet established).
``two_step`` composes the last two into the car's adjust-then-intercept
phase machine, the one the simulator runs for every car.  Evader side: head
for the interception point (the unique best response), or hold a constant
heading.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .certificates import intercept_feasible
from .geometry import IO_TOL, aim_point, heading_error
from .model import GameParams, JointState

#: Width of the "exactly opposite" band in the heading-adjust law.  The
#: opposite-heading case is measure zero and any perturbation escapes it, so
#: the band only needs to absorb float noise.
OPPOSITE_TOL = 1e-9

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


@dataclass(frozen=True)
class InterceptGains:
    """Affine turn-command gains: u = vec . u_e + bias."""

    vec: np.ndarray
    bias: float


class ClampDiagnostics:
    """Counts turn commands that had to be clamped beyond float noise."""

    def __init__(self):
        self.events = 0
        self.max_excess = 0.0

    def record(self, excess: float):
        self.max_excess = max(self.max_excess, excess)
        if excess > CLAMP_NOISE:
            self.events += 1


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = math.hypot(vec[0], vec[1])
    if norm == 0.0:
        raise ValueError("zero-length direction")
    return vec / norm


def pursuit_simple(x_p, x_e, alpha: float) -> np.ndarray:
    """Unit vector from the pursuer toward the interception point."""
    x_p = np.asarray(x_p, dtype=float)
    x, y, _ = aim_point(x_p, x_e, alpha)
    return _unit(np.array([x, y]) - x_p)


def evader_optimal(state: JointState, p: GameParams) -> np.ndarray:
    """Unit vector from the evader toward the interception point (the
    evader's unique best response to the interception strategies)."""
    x_e = state.evader.pos
    x, y, _ = aim_point(state.pursuer.pos, x_e, p.alpha)
    return _unit(np.array([x, y]) - x_e)


def evader_constant(theta_e: float) -> np.ndarray:
    """Time-invariant unit control at heading ``theta_e``."""
    return np.array([math.cos(theta_e), math.sin(theta_e)])


def evader_random_goal(x_e, rng: np.random.Generator) -> float:
    """Draw a constant heading pointing strictly downward (closer to the
    goal region), uniform on (pi, 2*pi).  Deterministic given ``rng``."""
    while True:
        theta = float(rng.uniform(math.pi, 2.0 * math.pi))
        if math.sin(theta) < 0.0:
            return theta


def intercept_gains(state: JointState, p: GameParams) -> InterceptGains:
    """Gains of the turn-rate command that keeps the car tracking the
    interception point.

    Finite whenever the pair positions are distinct: the denominator factor
    (alpha^2 + 1) * d + 2 * alpha * (y_p - y_e) is at least (alpha - 1)^2 * d.
    """
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
    vec = np.array(
        [
            shared * dy / (dist * dist * denom),
            -shared * dx / (dist * dist * denom),
        ]
    )
    bias = -alpha * shared * dx / (dist**1.5 * denom**1.5)
    return InterceptGains(vec=vec, bias=bias)


def pursuit_intercept(
    state: JointState,
    u_e,
    p: GameParams,
    diag: ClampDiagnostics | None = None,
) -> float:
    """Turn command for a car with separation and alignment established,
    given the evader's current control.

    Guaranteed to lie in [-1, 1] while the pair distance is at least the
    capture radius and the parameters pass the curvature-feasibility check;
    clamping is applied (and recorded on ``diag``) as a diagnostic for
    precondition violations, never as an error.
    """
    gains = intercept_gains(state, p)
    u_e = np.asarray(u_e, dtype=float)
    u = float(gains.vec[0] * u_e[0] + gains.vec[1] * u_e[1] + gains.bias)
    if u > 1.0 or u < -1.0:
        if diag is not None:
            diag.record(abs(u) - 1.0)
        u = max(-1.0, min(1.0, u))
    return u


def _turn_toward(err: float) -> float:
    """Full turn command for the wrapped heading error ``err``: the shorter
    angular sweep, clockwise within ``OPPOSITE_TOL`` of exactly opposite."""
    if abs(abs(err) - math.pi) <= OPPOSITE_TOL:
        return -1.0
    return 1.0 if math.sin(err) > 0.0 else -1.0


def heading_adjust(state: JointState, p: GameParams) -> float:
    """Full turn command toward the interception angle.

    Turns in the direction of the shorter angular sweep; when the error is
    within ``OPPOSITE_TOL`` of exactly opposite, turns clockwise.
    """
    return _turn_toward(heading_error(state, p))


def two_step(
    state: JointState,
    u_e,
    p: GameParams,
    mode: TwoStepState,
    diag: ClampDiagnostics | None = None,
) -> tuple[float, TwoStepState]:
    """Two-step pursuit: adjust the heading until alignment, then intercept.

    Returns the turn command and the updated phase state.  The transition
    fires once, when the wrapped heading error first enters the ``IO_TOL``
    band or crosses zero between consecutive calls, and only if the
    parameters pass ``intercept_feasible`` (r >= kappa * h(alpha)); while
    they fail it the car keeps adjusting.  Clamped tracking commands are
    recorded on ``diag``.  On transition the caller should snap the stored
    heading to the interception angle (the error at the detected instant is
    below the step resolution); the tracking command reads only positions,
    so it does not change with the snap.
    """
    if mode.phase is Phase.INTERCEPTING:
        return pursuit_intercept(state, u_e, p, diag), mode

    err = heading_error(state, p)
    aligned = abs(err) <= IO_TOL
    if not aligned and mode.last_error is not None:
        aligned = (
            (err > 0.0) != (mode.last_error > 0.0)
            and abs(err) < 0.5 * math.pi
            and abs(mode.last_error) < 0.5 * math.pi
        )
    if aligned and intercept_feasible(p.r, p.kappa, p.alpha):
        return pursuit_intercept(state, u_e, p, diag), TwoStepState(Phase.INTERCEPTING)
    return _turn_toward(err), replace(mode, last_error=err)
