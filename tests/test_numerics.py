import math

import numpy as np
import pytest

import dubinsguard as dg
from dubinsguard.numerics import IMAG_TOL, NEWTON_STEP_CAP, NEWTON_STEPS


def bisect_oracle(f, lo, hi, tol=1e-12):
    """Plain bisection, independent of the library implementation."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) == 0:
            return mid
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _slope(poly):
    """The derivative of ``poly``, of degree at least 1."""
    return dg.Polynomial(tuple(k * c for k, c in enumerate(poly.coeffs) if k > 0))


def scan_roots(poly, lo, hi, tol=1e-12, samples=4096):
    """Dense sign-change scan with bisection refinement, plus the stationary
    points (roots of the derivative, found the same way) where the
    polynomial itself nearly vanishes.  Independent of the library's
    eigenvalue route; it can merge roots closer than one scan cell."""
    if poly.degree == 0:
        return []
    xs = np.linspace(lo, hi, samples + 1)
    vals = poly(xs)
    roots = [float(xs[k]) for k in np.flatnonzero(vals == 0.0)]
    for k in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        roots.append(bisect_oracle(poly, float(xs[k]), float(xs[k + 1]), tol))
    scale = max(abs(lo), abs(hi), 1.0)
    value_tol = tol * (1.0 + max(abs(c) for c in poly.coeffs) * scale**poly.degree)
    for x in scan_roots(_slope(poly), lo, hi, min(tol, 1e-9), samples):
        if abs(poly(x)) <= value_tol:
            roots.append(x)
    merged = []
    for root in sorted(roots):
        if not merged or root - merged[-1] > tol:
            merged.append(root)
    return merged


def reference_real_roots(poly, lo, hi, tol=1e-12):
    """``real_roots`` as it was before it built the companion matrix
    itself: the eigenvalues from ``np.roots``, the polish and the residual
    check through ``Polynomial`` objects.  The reference the float-native
    route must match root for root, bit for bit."""
    scale = max(abs(lo), abs(hi), 1.0)
    value_tol = tol * (1.0 + max(abs(c) for c in poly.coeffs) * scale**poly.degree)
    if poly.degree == 0:
        return []
    eigen = np.roots(poly.coeffs[::-1])
    near_real = np.abs(eigen.imag) <= IMAG_TOL * np.maximum(np.abs(eigen), 1.0)
    slope = _slope(poly)
    roots = []
    for x in eigen.real[near_real].tolist():
        if not lo - tol <= x <= hi + tol:
            continue
        x = min(max(_reference_polish(poly, slope, x), lo), hi)
        if abs(poly(x)) <= value_tol:
            roots.append(x)
    merged = []
    for root in sorted(roots):
        if not merged or root - merged[-1] > tol:
            merged.append(root)
    return merged


def _reference_polish(poly, slope, x):
    fx = poly(x)
    for _ in range(NEWTON_STEPS):
        if fx == 0.0:
            break
        dfx = slope(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        if abs(step) > NEWTON_STEP_CAP * (1.0 + abs(x)):
            break
        trial = x - step
        f_trial = poly(trial)
        if not abs(f_trial) < abs(fx):
            break
        x, fx = trial, f_trial
    return x


def _root_corpus(rng, n, paper):
    """Seeded (polynomial, lo, hi, tol) cases: random coefficients of
    degree 1-6, some with zero constant (and further low-order) terms or
    zero inner coefficients, factored ones with double and close roots,
    and the relaxation sextics of sampled two-step states on their
    multiplier bracket."""
    cases = []
    for k in range(n):
        degree = int(rng.integers(1, 7))
        kind = k % 5
        if kind == 4:
            state = dg.sample_adjust_feasible_state(rng, paper)
            bound = dg.adjust_time_bound(state, paper)
            poly = dg.relaxation_sextic(
                bound.turn_center, state.evader.pos, paper.alpha, paper.kappa
            )
            cases.append((poly, paper.alpha - 1.0, paper.alpha + 1.0, 1e-12))
            continue
        if kind == 0:
            coeffs = rng.normal(size=degree + 1)
        elif kind == 1:
            coeffs = rng.normal(size=degree + 1)
            coeffs[: int(rng.integers(1, degree + 1))] = 0.0
        elif kind == 2:
            coeffs = rng.normal(size=degree + 1)
            coeffs[rng.uniform(size=degree + 1) < 0.3] = 0.0
        else:
            roots = rng.uniform(-1.0, 2.0, size=degree)
            if degree >= 2:
                roots[1] = roots[0] + rng.choice([0.0, 1e-9, 1e-5, 1e-3])
            coeffs = np.polynomial.polynomial.polyfromroots(roots) * rng.uniform(0.5, 3.0)
        if coeffs[-1] == 0.0:
            coeffs[-1] = 1.0
        cases.append((dg.Polynomial(tuple(coeffs)), -1.5, 2.5, rng.choice([1e-12, 1e-9])))
    return cases


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = dg.Polynomial((1.0, 2.0, 0.0, 0.0))
        assert p.degree == 1

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            dg.Polynomial((0.0, 0.0))

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError):
            dg.Polynomial(tuple(range(1, 9)))

    def test_horner_and_derivative(self):
        p = dg.Polynomial((1.0, -2.0, 3.0))  # 1 - 2x + 3x^2
        assert p(2.0) == pytest.approx(9.0)


class TestRealRoots:
    def test_simple_root(self):
        p = dg.Polynomial((-1.0, 0.0, 1.0))  # x^2 - 1
        roots = dg.real_roots(p, 0.0, 3.0, tol=1e-9)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0, abs=1e-9)

    def test_double_root_detected(self):
        # (x-1)^2 (x-2) = -2 + 5x - 4x^2 + x^3
        p = dg.Polynomial((-2.0, 5.0, -4.0, 1.0))
        roots = dg.real_roots(p, 0.0, 3.0, tol=1e-9)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(1.0, abs=1e-7)
        assert roots[1] == pytest.approx(2.0, abs=1e-9)

    def test_cubic_against_bisection_oracle(self):
        p = dg.Polynomial((-1.0, 0.0, -1.0, 1.0))  # x^3 - x^2 - 1
        expected = bisect_oracle(lambda x: x**3 - x**2 - 1, 1.0, 2.0)
        roots = dg.real_roots(p, 1.0, 2.0, tol=1e-9)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(expected, abs=1e-7)
        assert roots[0] == pytest.approx(1.4655712, abs=1e-7)

    def test_close_root_pair(self):
        # roots 4e-5 apart: a scan cell of [0, 3] is 7e-4 wide, so a scan
        # sees no sign change between them; the eigenvalues keep them apart.
        # Rounding the coefficients moves the close pair by about 1e-11.
        coeffs = np.polynomial.polynomial.polyfromroots([1.0, 1.00004, 2.0])
        roots = dg.real_roots(dg.Polynomial(tuple(coeffs)), 0.0, 3.0)
        assert len(roots) == 3
        for want, got in zip([1.0, 1.00004, 2.0], roots):
            assert got == pytest.approx(want, abs=1e-9)

    def test_relaxation_sextics_against_scan_oracle(self, paper):
        # every root the scan finds on the multiplier bracket of a sampled
        # two-step state is also found by the eigenvalue route
        rng = np.random.default_rng(23)
        lo, hi = paper.alpha - 1.0, paper.alpha + 1.0
        found_any = 0
        for _ in range(300):
            state = dg.sample_adjust_feasible_state(rng, paper)
            bound = dg.adjust_time_bound(state, paper)
            poly = dg.relaxation_sextic(
                bound.turn_center, state.evader.pos, paper.alpha, paper.kappa
            )
            roots = dg.real_roots(poly, lo, hi)
            for want in scan_roots(poly, lo, hi):
                assert min(abs(got - want) for got in roots) <= 1e-8
                found_any += 1
        assert found_any >= 300

    def test_rejects_bad_arguments(self):
        p = dg.Polynomial((1.0, 1.0))
        with pytest.raises(ValueError):
            dg.real_roots(p, 1.0, 1.0)
        with pytest.raises(ValueError):
            dg.real_roots(p, 0.0, 1.0, tol=0.0)

    def test_random_factored_polynomials_no_misses(self):
        # known, well-separated roots; every one must be recovered
        rng = np.random.default_rng(21)
        tol = 1e-9
        lo, hi = -1.0, 2.0
        for _ in range(200):
            degree = int(rng.integers(1, 7))
            while True:
                roots = np.sort(rng.uniform(lo + 0.05, hi - 0.05, size=degree))
                # well above both the dedup spacing (tol) and the scan cell
                if degree == 1 or np.min(np.diff(roots)) > 0.02:
                    break
            coeffs = np.polynomial.polynomial.polyfromroots(roots)
            poly = dg.Polynomial(tuple(coeffs))
            found = dg.real_roots(poly, lo, hi, tol=tol)
            assert len(found) == degree
            for want, got in zip(roots, found):
                assert got == pytest.approx(want, abs=1e-6)

    def test_residual_bound_at_returned_roots(self):
        rng = np.random.default_rng(22)
        lo, hi = -1.5, 2.5
        for _ in range(100):
            degree = int(rng.integers(2, 7))
            coeffs = rng.normal(size=degree + 1)
            coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
            poly = dg.Polynomial(tuple(coeffs))
            tol = 1e-9
            bound = tol * (1.0 + max(abs(c) for c in poly.coeffs) * max(
                abs(lo), abs(hi)
            ) ** poly.degree)
            for root in dg.real_roots(poly, lo, hi, tol=tol):
                assert abs(poly(root)) <= bound


    def test_same_roots_as_the_np_roots_reference(self, paper):
        # the companion matrix built in place gives np.roots' eigenvalues,
        # and the float polish the Polynomial one: identical root lists,
        # down to the sign of a zero root
        cases = _root_corpus(np.random.default_rng(31), 10_000, paper)
        kinds = {"degree": set(), "zero_constant": 0, "double": 0, "sextic": 0}
        for poly, lo, hi, tol in cases:
            got = dg.real_roots(poly, lo, hi, tol=tol)
            want = reference_real_roots(poly, lo, hi, tol=tol)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            kinds["degree"].add(poly.degree)
            kinds["zero_constant"] += poly.coeffs[0] == 0.0
            kinds["sextic"] += lo != -1.5
            slope = _slope(poly)
            kinds["double"] += any(abs(slope(x)) < 1e-6 for x in got)
        assert kinds["degree"] == {1, 2, 3, 4, 5, 6}
        assert kinds["zero_constant"] >= 1000
        assert kinds["sextic"] >= 1000
        assert kinds["double"] >= 100


class TestMaxOnCircle:
    def test_vertical_objective(self):
        argmax, value = dg.max_on_circle(lambda x, y: y, resolution=512)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert argmax == pytest.approx(math.pi / 2, abs=1e-6)

    def test_diagonal_objective(self):
        argmax, value = dg.max_on_circle(lambda x, y: x + y, resolution=512)
        assert value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert argmax == pytest.approx(math.pi / 4, abs=1e-6)

    def test_demand_objective_below_closed_form_bound(self):
        alpha = 2.0

        def objective(x, y):
            den = 2 * alpha * y + alpha**2 + 1
            return (y + alpha) / den + alpha * x * (y + alpha) / den**1.5

        _, value = dg.max_on_circle(objective)
        assert value <= 3.0  # closed-form bound at alpha = 2

    def test_monotone_under_refinement(self):
        def wiggly(x, y):
            return y + 0.1 * math.cos(5 * math.atan2(y, x))

        def vec(x, y):
            return y + 0.1 * np.cos(5 * np.arctan2(y, x))

        values = [
            dg.max_on_circle(vec, resolution=res)[1]
            for res in (360, 720, 1440, 2880)
        ]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            dg.max_on_circle(lambda x, y: y, resolution=100)


def test_golden_max_on_parabola():
    x, value = dg.golden_max(lambda t: -(t - 0.3) ** 2, -1.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert value == pytest.approx(0.0, abs=1e-15)


def _counted(f, limit=1000):
    """``f`` that fails once called more than ``limit`` times, so that a
    search that stops shrinking fails instead of hanging."""
    calls = []

    def g(t):
        calls.append(t)
        assert len(calls) <= limit, "golden_max did not stop"
        return f(t)

    return g, calls


def test_golden_max_stops_below_the_float_spacing():
    # the default tol of 1e-12 is below the float spacing near 1e5
    # (1.46e-11): the bracket stops shrinking a few spacings wide
    f, calls = _counted(lambda t: -(t - 1e5 - 0.3) ** 2)
    x, _ = dg.golden_max(f, 1e5, 1e5 + 1.0)
    assert abs(x - (1e5 + 0.3)) <= 1e-10
    assert len(calls) < 100


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_golden_max_refuses_a_non_positive_tol(tol):
    f, calls = _counted(lambda t: -(t - 0.3) ** 2)
    with pytest.raises(ValueError, match="tol must be positive"):
        dg.golden_max(f, 0.0, 1.0, tol=tol)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_real_roots_refuses_a_non_positive_tol(tol):
    # a NaN tol used to pass the guard and lose the root at 1.0
    with pytest.raises(ValueError, match="tol must be positive"):
        dg.real_roots(dg.Polynomial((-1.0, 1.0)), 0.0, 2.0, tol=tol)
