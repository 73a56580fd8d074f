"""The brute-force oracles' array kernels: the ``np.mod`` wrap, the row-blocked
relaxed lattice, their memory and their refusal of an empty lattice, the
polish's pair distance, and the rollout scan's jumps."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import dubinsguard as dg
from conftest import aligned_state, pair_floats
from dubinsguard import certificates
from dubinsguard.certificates import _lowest_cell, _wrapped_error
from dubinsguard.geometry import lowest_point
from test_certificates import _bits, _oracle_corpora

TWO_PI = 2.0 * math.pi


def _np_mod_wrap(x):
    """The wrap as ``np.mod`` computes it."""
    return np.mod(x, TWO_PI) - math.pi


class TestShiftedMod:
    """The rollout's wrap, the shifted mod ``np.mod(x, 2*pi) - pi``."""

    def test_wrapped_error_on_floats_keeps_the_np_mod_value(self):
        # the rollout reference calls the wrapped error on scalars
        rng = np.random.default_rng(11)
        for _ in range(200):
            xp, yp, xe, ye = (float(v) for v in rng.uniform(-2.0, 2.0, 4))
            theta_p = float(rng.uniform(-10.0, 10.0))
            cx, cy, _ = lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), 6.3)
            want = _np_mod_wrap(np.arctan2(cy - yp, cx - xp) - theta_p + math.pi)
            got = _wrapped_error(xp, yp, theta_p, xe, ye, 6.3)
            assert np.ndim(got) == 0
            assert _bits(got) == _bits(want)


def _screen_heights(xp, yp, xe, ye, alpha):
    """The heights ``_lowest_cell`` ranks a lattice's cells by before it
    computes exact ones."""
    a2 = alpha * alpha
    dx, dy = xp[:, None] - xe, yp[:, None] - ye
    rate = alpha / (a2 - 1.0)
    return a2 * ye / (a2 - 1.0) - (yp[:, None] / (a2 - 1.0) + rate * np.sqrt(dx * dx + dy * dy))


def _exact_heights(xp, yp, xe, ye, alpha):
    xp, yp = xp[:, None], yp[:, None]
    return lowest_point(xp, yp, xe, ye, np.hypot(xp - xe, yp - ye), alpha)[1]


def _misordered_pair(alpha):
    """A one-row lattice of two cells, from a seeded search over cells a
    rounding apart, whose exact heights and screen heights are ordered
    oppositely."""
    rng = np.random.default_rng(1)
    while True:
        xp, yp, xe, ye = rng.uniform(-1.0, 1.0, 4)
        lattice = (
            np.array([xp]),
            np.array([yp]),
            xe + np.array([0.0, rng.normal() * 1e-15]),
            ye + np.array([0.0, rng.normal() * 1e-15]),
        )
        exact = _exact_heights(*lattice, alpha)[0]
        screen = _screen_heights(*lattice, alpha)[0]
        if (exact[0] - exact[1]) * (screen[0] - screen[1]) < 0.0:
            return lattice


def _lattices(paper):
    """Boundary-point lattices (xp, yp, xe, ye) at grid 180: the oracle
    corpora's, the first of them at coordinate scales 1e6 and 1e-6, one whose
    rows all tie, one whose last row is lowest, one with a NaN column, and
    the one-row pair the screen misorders."""
    trials, near = _oracle_corpora(paper)
    angles = np.linspace(0.0, TWO_PI, 180, endpoint=False)
    reach = TWO_PI * paper.kappa / paper.alpha
    lattices = []
    for state in trials + near:
        (cx, cy), (ex, ey) = dg.adjust_time_bound(state, paper).turn_center, state.evader.pos
        lattices.append(
            (
                cx + paper.kappa * np.cos(angles),
                cy + paper.kappa * np.sin(angles),
                ex + reach * np.cos(angles),
                ey + reach * np.sin(angles),
            )
        )
    xp, yp, xe, ye = lattices[0]
    tied = (np.full(180, xp[0]), np.full(180, yp[0]), xe, ye)
    last_lowest = (xp, np.where(np.arange(180) == 179, yp + 1.0, yp), xe, ye)
    with_nan = (xp, yp, np.where(np.arange(180) == 40, np.nan, xe), ye)
    scaled = [tuple(scale * v for v in lattices[0]) for scale in (1e6, 1e-6)]
    return lattices + scaled + [tied, last_lowest, with_nan, _misordered_pair(paper.alpha)]


class TestLatticeBlocks:
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_lowest_cell_is_the_first_minimum(self, paper, monkeypatch, block):
        # the cell np.argmin picks on the whole lattice, in any row blocks:
        # a wrong tie rule, a dropped partial block, a lost row offset or a
        # screen margin too thin for the misordered pair picks another cell
        monkeypatch.setattr(certificates, "_LATTICE_BLOCK", block)
        for xp, yp, xe, ye in _lattices(paper):
            full = _exact_heights(xp, yp, xe, ye, paper.alpha)
            i, j = np.unravel_index(int(np.argmin(full)), full.shape)
            row, col, value = _lowest_cell(xp, yp, xe, ye, paper.alpha)
            assert (row, col) == (i, j)
            assert _bits(value) == _bits(full[i, j])

    @pytest.mark.parametrize("block", [1, 7])
    def test_lattice_blocks_give_the_same_value(self, paper, monkeypatch, block):
        trials, near = _oracle_corpora(paper)
        cases = [
            (dg.adjust_time_bound(state, paper).turn_center, state.evader.pos)
            for state in trials + near
        ]
        want = [
            dg.relaxed_oracle_from_centers(c, e, paper.alpha, paper.kappa, grid=180)
            for c, e in cases
        ]
        monkeypatch.setattr(certificates, "_LATTICE_BLOCK", block)
        for (c, e), value in zip(cases, want):
            assert dg.relaxed_oracle_from_centers(c, e, paper.alpha, paper.kappa, grid=180) == value

    def test_relaxed_memory_is_linear_in_grid(self, paper):
        # a whole 1440 x 1440 lattice of float64 is 16.6 MB per temporary
        state = dg.sample_adjust_feasible_state(np.random.default_rng(0), paper)
        center = dg.adjust_time_bound(state, paper).turn_center
        tracemalloc.start()
        try:
            dg.relaxed_oracle_from_centers(
                center, state.evader.pos, paper.alpha, paper.kappa, grid=1440
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


@pytest.mark.parametrize("grid", [0, -3])
def test_an_empty_lattice_is_refused(paper, grid):
    # refused before any work: the aligned state would otherwise return
    # inf from the rollout oracle at once
    state = dg.sample_adjust_feasible_state(np.random.default_rng(0), paper)
    aligned = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
    center = dg.adjust_time_bound(state, paper).turn_center
    with pytest.raises(ValueError, match="grid must be >= 1"):
        dg.relaxed_clearance_oracle(state, paper, grid=grid)
    with pytest.raises(ValueError, match="grid must be >= 1"):
        dg.relaxed_oracle_from_centers(center, state.evader.pos, paper.alpha, paper.kappa, grid)
    for s in (state, aligned):
        with pytest.raises(ValueError, match="grid must be >= 1"):
            dg.rollout_clearance_oracle(s, paper, grid=grid)


def _distance_corpus():
    """Seeded (dx, dy) pairs: magnitudes from 1e-300 to 1e300 with both
    signs, equal and very unequal parts, signed zeros and subnormals."""
    rng = np.random.default_rng(23)
    n = 20000
    signs = rng.choice([-1.0, 1.0], size=(2, n))
    dx, dy = signs * 10.0 ** rng.uniform(-300.0, 300.0, (2, n))
    near = dx * (1.0 + rng.uniform(-1e-6, 1e-6, n))
    tiny = 5e-324 * rng.integers(0, 2**52, (2, 2000)).astype(float)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1e300, 1e-300]
    pairs = [(a, b) for a in special for b in special]
    pairs += zip(dx, dy)  # mostly unequal by hundreds of orders
    pairs += zip(dx, signs[1] * dx)  # equal parts
    pairs += zip(dx, near)  # parts equal to six digits
    pairs += zip(*tiny)  # subnormal parts
    pairs += zip(dx[:2000], tiny[0])  # a normal and a subnormal part
    return [(float(a), float(b)) for a, b in pairs]


class TestPolishDistance:
    def test_complex_magnitude_is_np_hypot_bit_for_bit(self):
        # the relaxed oracle's polish takes the pair distance as the
        # complex magnitude, where the lattice and the references use
        # ``np.hypot``
        pairs = _distance_corpus()
        got = [abs(complex(dx, dy)) for dx, dy in pairs]
        want = [float(np.hypot(dx, dy)) for dx, dy in pairs]
        assert np.array_equal(_bits(got), _bits(want))

    def test_an_overflowing_distance_is_infinite(self):
        # the pair's distance overflows to inf, as ``np.hypot``'s does,
        # where the complex magnitude would raise
        with np.errstate(over="ignore", invalid="ignore"):
            value = dg.relaxed_oracle_from_centers(
                (0.75e308, 0.75e308), (-0.75e308, -0.75e308), 6.3, 0.0625, grid=8
            )
        assert value == -math.inf

    def test_huge_centers_skip_the_screen_without_warnings(self):
        # with an infinite margin every cell gets the exact height, and the
        # screen, whose squares would overflow, is not computed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = dg.relaxed_oracle_from_centers(
                (1e200, 1e200), (-1e200, -1e200), 6.3, 0.0625, grid=8
            )
        assert _bits(value) == _bits(-1.5122535767873092e200)


class TestScanCarry:
    @pytest.mark.parametrize("seed", [1, 7, 64])
    def test_each_block_compares_with_the_true_previous_step(self, paper, monkeypatch, seed):
        # a synthetic heading error per heading, signed like the state's
        # error and starting from it: its size grows at a heading-dependent
        # rate omega (2 + cos theta_e) up to pi, wraps there (a sign change
        # that does not fire) and then falls to a zero crossing on a step of
        # its own, spread over several hundred steps; no capture.  The
        # patched rate bound is 3 omega.  Every event time must lie in the
        # step a per-step scan brackets it in: a jump across a firing step,
        # or a hit test against a stale previous error (a block of steps
        # jumped over carrying the wrong error), would fire some headings in
        # another step.
        state = dg.sample_adjust_feasible_state(np.random.default_rng(seed), paper)
        err0 = dg.heading_error(*pair_floats(state), paper.alpha)
        dt = dg.adjust_time_bound(state, paper).duration / 2000.0
        omega = math.pi / (300.0 * dt)
        passes = []

        def field(t, cos_e):
            grown = abs(err0) + omega * (2.0 + cos_e) * t + math.pi
            return math.copysign(1.0, err0) * _np_mod_wrap(grown)

        def positions(state, p, sign, s, cos_e, sin_e):
            passes.append(s)
            zeros = np.zeros(np.broadcast(s, cos_e).shape)
            return zeros, zeros, s + zeros, zeros + 1.0, cos_e + zeros

        def error(xp, yp, tp, xe, ye, alpha, dist=None):
            return field(tp, ye)

        monkeypatch.setattr(certificates, "_rollout_positions", positions)
        monkeypatch.setattr(certificates, "_wrapped_error", error)
        monkeypatch.setattr(certificates, "_error_rate_bound", lambda p: (3.0 * omega, 0.0))
        _, times = dg.rollout_clearance_oracle(state, paper, grid=90, return_times=True)

        cos_e = np.cos(np.linspace(0.0, TWO_PI, 90, endpoint=False))
        ts = np.arange(1201) * dt
        err = np.vstack([np.full(90, err0), field(ts[1:, None], cos_e)])
        hit = (np.sign(err[1:]) != np.sign(err[:-1])) & (np.abs(err[1:]) + np.abs(err[:-1]) < math.pi)
        k = np.argmax(hit, axis=0)
        assert hit.any(axis=0).all() and len(set(k)) > 20 and k.max() > 64
        assert np.all((ts[k] <= times) & (times <= ts[k + 1]))
        # the scan's passes (all but the bisection's at most 61 and the
        # clearance's one) are far fewer than the steps of a per-step scan
        assert len(passes) - 62 < k.max() / 4
