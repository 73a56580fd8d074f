"""Reusable numeric kernels: real roots of low-degree polynomials on an
interval, and global maximization of a function on the unit circle.

Roots come from the eigenvalues of the companion matrix, polished by a
guarded Newton iteration and kept only where the residual is small:
eigenvalues of a balanced companion matrix are backward stable, so close
root pairs stay apart and a double root shows up as a conjugate pair with a
common real part.  ``real_roots`` builds the matrix ``np.roots`` builds and
hands it to ``np.linalg.eigvals`` itself, so its roots equal ``np.roots``'
bit for bit without that function's per-call array work; the polish and the
residual check run on the coefficients as a tuple of floats.  The circle
objectives are smooth with O(1) oscillation, so their maximum is found by a
dense scan plus golden-section refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MAX_DEGREE = 6
SCAN_SAMPLES = 4096

#: Eigenvalues whose imaginary part is within this fraction of their modulus
#: (or of 1, when smaller) are root candidates.  A double root splits into a
#: conjugate pair about sqrt(machine epsilon) apart, a triple one about its
#: cube root; spurious candidates are removed by the residual check.
IMAG_TOL = 1e-5
#: Newton polish limits: at most this many steps, each no longer than this
#: fraction of (1 + |x|).
NEWTON_STEPS = 8
NEWTON_STEP_CAP = 1e-6


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients in ascending degree order (length <= 7)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs or all(c == 0.0 for c in coeffs):
            raise ValueError("degenerate all-zero polynomial")
        if len(coeffs) > MAX_DEGREE + 1:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds {MAX_DEGREE}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _horner(self.coeffs, x)


def real_roots(poly: Polynomial, lo: float, hi: float, tol: float = 1e-12) -> list[float]:
    """All real roots of ``poly`` in [lo, hi], sorted, deduplicated at
    spacing ``tol``.

    Method: every eigenvalue of the companion matrix whose imaginary part is
    small relative to its modulus is a candidate; its real part is polished
    by Newton steps that must shrink the residual, and kept when it lies in
    the interval (up to ``tol``) with a residual within the value tolerance.
    A root of even multiplicity appears as a (near-)conjugate pair, so it is
    found although the polynomial does not change sign there.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    coeffs = poly.coeffs
    scale = max(abs(lo), abs(hi), 1.0)
    value_tol = tol * (1.0 + max(abs(c) for c in coeffs) * scale**poly.degree)

    if poly.degree == 0:
        return []
    slope = tuple(k * c for k, c in enumerate(coeffs) if k > 0)
    roots = []
    for x in _eigen_candidates(coeffs):
        if not lo - tol <= x <= hi + tol:
            continue
        x = min(max(_newton_polish(coeffs, slope, x), lo), hi)
        if abs(_horner(coeffs, x)) <= value_tol:
            roots.append(x)

    roots.sort()
    merged: list[float] = []
    for root in roots:
        if not merged or root - merged[-1] > tol:
            merged.append(root)
    return merged


def _eigen_candidates(coeffs: tuple[float, ...]) -> list[float]:
    """Real parts of the near-real roots of the polynomial with ascending
    ``coeffs`` (leading one non-zero), in the order ``np.roots`` lists them.

    The same route as ``np.roots``: zero low-order coefficients are
    stripped and come back as roots at 0 after the others; the rest are the
    eigenvalues of the companion matrix whose first row is ``-c_k / c_n``,
    so the eigenvalues, and the candidates, equal its bit for bit.
    """
    zeros = 0
    while coeffs[zeros] == 0.0:
        zeros += 1
    desc = coeffs[zeros:][::-1]
    n = len(desc) - 1
    candidates = []
    if n > 0:
        companion = _subdiagonal(n).copy()
        lead = desc[0]
        companion[0] = [-c / lead for c in desc[1:]]
        eigen = np.linalg.eigvals(companion)
        near_real = np.abs(eigen.imag) <= IMAG_TOL * np.maximum(np.abs(eigen), 1.0)
        candidates = eigen.real[near_real].tolist()
    return candidates + [0.0] * zeros


@functools.lru_cache(maxsize=None)
def _subdiagonal(n: int) -> np.ndarray:
    """The n x n companion matrix without its first row: ones on the
    subdiagonal.  Shared; callers copy it before writing."""
    return np.eye(n, k=-1)


def _horner(coeffs: tuple[float, ...], x):
    """Value at ``x`` (a float or an array) of the polynomial with ascending
    ``coeffs``, by Horner's rule; ``0.0 * x`` gives a constant the shape of
    ``x``."""
    result = 0.0 * x + coeffs[-1]
    for c in coeffs[-2::-1]:
        result = result * x + c
    return result


def _newton_polish(coeffs: tuple[float, ...], slope: tuple[float, ...], x: float) -> float:
    """Newton steps from ``x`` while each one shrinks the residual and
    stays short (so a flat stretch cannot throw the iterate onto another
    root); returns the last accepted point.  ``coeffs`` and ``slope`` are
    the ascending coefficients of the polynomial and of its derivative."""
    fx = _horner(coeffs, x)
    for _ in range(NEWTON_STEPS):
        if fx == 0.0:
            break
        dfx = _horner(slope, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        if abs(step) > NEWTON_STEP_CAP * (1.0 + abs(x)):
            break
        trial = x - step
        f_trial = _horner(coeffs, trial)
        if not abs(f_trial) < abs(fx):
            break
        x, fx = trial, f_trial
    return x


def golden_max(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization of a unimodal ``f`` on the finite
    bracket [a, b], a < b; returns (argmax, value).

    Stops once the bracket is no wider than ``tol``, or once a step
    leaves it no narrower: below the float spacing of ``a`` and ``b`` the
    inner points round onto the bracket's ends and the bracket stops
    shrinking."""
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
        if not b - a < width:
            break
    x = 0.5 * (a + b)
    return x, f(x)


def max_on_circle(f, resolution: int = SCAN_SAMPLES) -> tuple[float, float]:
    """Global maximum of ``f(x, y)`` on the unit circle x^2 + y^2 = 1, as
    (t, value) on its parameterization (cos t, sin t).  ``f`` is sampled
    on ``resolution`` uniform angles (it must accept numpy arrays) and the
    best bracket is refined by golden section to 1e-12 in t.  Maxima
    narrower than one grid cell (``2*pi / resolution``) can be missed.
    """
    if resolution < 360:
        raise ValueError(f"resolution must be >= 360, got {resolution}")
    ts = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    vals = np.asarray(f(np.cos(ts), np.sin(ts)), dtype=float)
    best = int(np.argmax(vals))
    spacing = 2.0 * math.pi / resolution

    def on_circle(t):
        return float(f(math.cos(t), math.sin(t)))

    t_lo = ts[best] - spacing
    t_hi = ts[best] + spacing
    t_star, v_star = golden_max(on_circle, t_lo, t_hi, tol=1e-12)
    if v_star < vals[best]:
        t_star, v_star = float(ts[best]), float(vals[best])
    return t_star, v_star
