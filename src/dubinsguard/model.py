"""Player dynamics, goal-region geometry and scenario admissibility.

The playing field is the upper half-plane y > 0; the guarded goal region is
the lower half-plane y <= 0 with boundary line y = 0.  Pursuers are constant
speed cars with a minimum turning radius (or, optionally, simple-motion
points), evaders are simple-motion points that are strictly slower than every
pursuer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Turn-rate magnitudes below this are integrated as straight lines to avoid
# the 0/0 in the circular arc formula.
STRAIGHT_EPS = 1e-12

DUBINS = "dubins"
SIMPLE = "simple"


def wrap_angle(theta: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:  # fmod may round up to 2*pi for tiny negatives
        theta -= TWO_PI
    return theta


def wrap_to_pi(theta: float) -> float:
    """Wrap an angle difference into (-pi, pi]."""
    theta = math.fmod(theta, TWO_PI)
    if theta > math.pi:
        theta -= TWO_PI
    elif theta <= -math.pi:
        theta += TWO_PI
    return theta


def _speed_ratio(alpha: float) -> None:
    """The speed-ratio rule: a finite ``alpha`` > 1, the paper's domain."""
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"speed ratio must exceed 1 and be finite, got {alpha}")


def _positive(name: str, value: float) -> None:
    """The length and speed rule: ``value`` finite and positive."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _motion(kind: str) -> None:
    """The motion rule: a pursuer is a Dubins car or a simple-motion point."""
    if kind not in (DUBINS, SIMPLE):
        raise ValueError(f"unknown motion kind {kind!r}")


def _as_point(x) -> tuple[float, float]:
    """``x`` as a point: a tuple of two finite Python floats.  A tuple of
    two floats is checked as it is; any other input goes through
    ``np.asarray(x, dtype=float)`` and must have shape (2,)."""
    if not (type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is float):
        p = np.asarray(x, dtype=float)
        if p.shape != (2,):
            raise ValueError(f"expected a 2-D point, got shape {p.shape}")
        x = tuple(p.tolist())
    if not (math.isfinite(x[0]) and math.isfinite(x[1])):
        raise ValueError("point has non-finite coordinates")
    return x


@dataclass(frozen=True)
class GameParams:
    """Per pursuer-evader pair constants.

    ``v_p``/``v_e`` are the constant speeds, ``kappa`` the pursuer's minimum
    turning radius, ``r`` its capture radius and ``motion`` its motion model.
    The speed ratio ``alpha`` is derived, never stored, so it always equals
    ``v_p / v_e`` exactly.
    """

    v_p: float
    v_e: float
    kappa: float
    r: float
    motion: str = DUBINS

    def __post_init__(self):
        for name in ("v_p", "v_e", "kappa", "r"):
            _positive(name, getattr(self, name))
        if self.v_p <= self.v_e:
            raise ValueError(
                f"pursuer must be strictly faster (v_p={self.v_p}, v_e={self.v_e})"
            )
        _motion(self.motion)

    @property
    def alpha(self) -> float:
        return self.v_p / self.v_e

    @classmethod
    def from_alpha(cls, v_p: float, alpha: float, kappa: float, r: float) -> "GameParams":
        _speed_ratio(alpha)
        return cls(v_p=v_p, v_e=v_p / alpha, kappa=kappa, r=r)


@dataclass(frozen=True)
class PursuerState:
    """Car position and heading; heading is kept in [0, 2*pi)."""

    pos: tuple[float, float]
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "pos", _as_point(self.pos))
        if not math.isfinite(self.theta):
            raise ValueError("heading must be finite")
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))


@dataclass(frozen=True)
class EvaderState:
    pos: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "pos", _as_point(self.pos))


@dataclass(frozen=True)
class JointState:
    """Snapshot of one pursuer-evader pair."""

    pursuer: PursuerState
    evader: EvaderState


@dataclass(frozen=True)
class PursuerSpec:
    """A pursuer's initial state, motion model and its share of the pair
    parameters, checked by ``Scenario``."""

    state: PursuerState
    motion: str = DUBINS
    v: float = 1.0
    kappa: float = 1.0
    r: float = 0.1


@dataclass(frozen=True)
class EvaderSpec:
    """An evader's initial state, speed and strategy, checked by ``Scenario``."""

    state: EvaderState
    v: float = 1.0
    strategy: str = "random_goal"
    heading: float | None = None


@dataclass(frozen=True)
class Scenario:
    """Both teams and the seed of the random evader headings.

    Admissible by construction: ``__post_init__`` raises ``ValueError``
    (``"invalid scenario: ..."``, every violated rule named with its agent)
    unless all of ``_violations``' rules hold, so ``pair_params`` never
    raises and no reader of a scenario checks it again.
    """

    pursuers: tuple[PursuerSpec, ...]
    evaders: tuple[EvaderSpec, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pursuers", tuple(self.pursuers))
        object.__setattr__(self, "evaders", tuple(self.evaders))
        violations = _violations(self)
        if violations:
            raise ValueError("invalid scenario: " + "; ".join(violations))

    def pair_params(self, i: int, j: int) -> GameParams:
        p = self.pursuers[i]
        return GameParams(v_p=p.v, v_e=self.evaders[j].v, kappa=p.kappa, r=p.r, motion=p.motion)


def _finite_step(x: float, y: float, *rest: float) -> tuple[float, ...]:
    """A step's result (x, y, *rest), refused unless x and y are finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("step result has non-finite coordinates")
    return (x, y, *rest)


def step_pursuer(
    x: float, y: float, theta: float, u_p: float, dt: float, v_p: float, kappa: float
) -> tuple[float, float, float]:
    """Advance a car at (x, y) with heading ``theta`` in [0, 2*pi), holding
    the turn command ``u_p`` in [-1, 1] constant; returns (x, y, theta).

    The integration is exact: a straight segment for (numerically) zero
    command, otherwise a circular arc of signed curvature ``u_p / kappa``,
    where ``v_p`` is the car's speed and ``kappa`` its turning radius.
    """
    if not (math.isfinite(u_p) and math.isfinite(dt)):
        raise ValueError("non-finite control or time step")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if abs(u_p) < STRAIGHT_EPS:
        step = v_p * dt
        return _finite_step(x + step * math.cos(theta), y + step * math.sin(theta), theta)
    rad = kappa / u_p  # signed turn radius
    theta_new = theta + v_p * u_p * dt / kappa
    return _finite_step(
        x + rad * (math.sin(theta_new) - math.sin(theta)),
        y - rad * (math.cos(theta_new) - math.cos(theta)),
        wrap_angle(theta_new),
    )


def step_evader(x: float, y: float, u_e, dt: float, v_e: float) -> tuple[float, float]:
    """Advance any simple-motion agent, evader or pursuer, at (x, y) at speed
    ``v_e``; returns (x, y).  Its control must be a finite point of the
    closed unit disk, and the result finite."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    ux, uy = _as_point(u_e)
    step = v_e * dt
    out = _finite_step(x + step * ux, y + step * uy)
    norm = math.hypot(ux, uy)
    if norm > 1.0 + 1e-12:
        raise ValueError(f"evader control must lie in the unit disk, |u| = {norm}")
    return out


def pair_distances(p_pos: np.ndarray, e_pos: np.ndarray) -> np.ndarray:
    """Distance of every pursuer to every evader, an ``(n_p, n_e)`` array:
    the one pair-distance kernel of the admissibility rules and the game.

    Each entry is ``sqrt(d . d)`` through the same dot product that
    ``np.linalg.norm`` takes for a 1-D vector, so it equals
    ``np.linalg.norm(p - e)`` bit for bit; ``np.hypot`` and
    ``sqrt(dx*dx + dy*dy)`` can differ from it in the last place.
    """
    d = p_pos[:, None, :] - e_pos[None, :, :]
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _violations(sc: Scenario) -> list[str]:
    """The admissibility rules of a scenario; returns the violations, each
    naming its agent as ``pursuers[i]``/``evaders[j]``.

    The rules: both teams non-empty; every speed, turning radius and capture
    radius finite and positive; every motion model and strategy known; every
    constant evader's heading present and finite; the seed a non-negative
    integer; pursuers pairwise distinct, evaders pairwise distinct; every
    evader strictly outside every capture disk and strictly inside the play
    region; every pursuer strictly faster than every evader.
    """
    violations = []
    for team in ("pursuers", "evaders"):
        specs = getattr(sc, team)
        if not specs:
            violations.append(f"{team}: at least one required")
        # indices by position; 0.0 and -0.0 compare and hash equal
        at: dict[tuple[float, float], list[int]] = {}
        for k, spec in enumerate(specs):
            at.setdefault(spec.state.pos, []).append(k)
            rules = [(_positive, "speed", spec.v)]
            if team == "pursuers":
                rules += [(_positive, "kappa", spec.kappa), (_positive, "capture_radius", spec.r)]
                rules.append((_motion, spec.motion))
            for rule, *args in rules:
                try:
                    rule(*args)
                except ValueError as exc:
                    violations.append(f"{team}[{k}]: {exc}")
        coincide = (pair for group in at.values() for pair in itertools.combinations(group, 2))
        for a, b in sorted(coincide):
            violations.append(f"{team}[{a}] and {team}[{b}] coincide")
    seed = sc.seed
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        violations.append(f"seed: must be a non-negative integer, got {seed!r}")
    p_pos, e_pos = ([s.state.pos for s in specs] for specs in (sc.pursuers, sc.evaders))
    dist = pair_distances(np.reshape(p_pos, (-1, 2)), np.reshape(e_pos, (-1, 2)))
    inside = dist <= np.array([pu.r for pu in sc.pursuers], dtype=float)[:, None]
    slow = np.less_equal.outer([pu.v for pu in sc.pursuers], [ev.v for ev in sc.evaders])
    for j, ev in enumerate(sc.evaders):
        if ev.strategy not in ("optimal", "constant", "random_goal"):
            violations.append(f"evaders[{j}]: unknown strategy {ev.strategy!r}")
        elif ev.strategy == "constant" and (ev.heading is None or not math.isfinite(ev.heading)):
            violations.append(
                f"evaders[{j}]: constant strategy requires a finite heading, got {ev.heading}"
            )
        if ev.state.pos[1] <= 0.0:
            violations.append(f"evaders[{j}]: not in play region (y <= 0)")
        for i in np.flatnonzero(inside[:, j] | slow[:, j]).tolist():
            pu = sc.pursuers[i]
            if inside[i, j]:
                violations.append(
                    f"evaders[{j}]: inside capture disk of pursuers[{i}] "
                    f"(distance {float(dist[i, j]):.6g} <= r = {pu.r:.6g})"
                )
            if slow[i, j]:
                violations.append(
                    f"pursuers[{i}]: not faster than evaders[{j}] "
                    f"(speed {pu.v:.6g} <= {ev.v:.6g})"
                )
    return violations
