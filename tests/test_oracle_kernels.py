"""The brute-force oracles' array kernels: the ``np.mod`` wrap, the relaxed
branch and bound (its cells, caps, frame and extreme coordinates), the
refusal of an empty heading grid, and the rollout scan's jumps."""

import math
import warnings

import numpy as np
import pytest

import dubinsguard as dg
from conftest import aligned_state, pair_floats
from dubinsguard import certificates
from dubinsguard.certificates import _wrapped_error
from dubinsguard.geometry import lowest_point
from test_certificates import _alpha_corpus, _bits, _oracle_corpora, _reference_relaxed_oracle

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


class TestRelaxedExtremes:
    def test_an_overflowing_pair_is_infinitely_low(self):
        # the centres' difference overflows, and so does every distance:
        # the upper bound is not finite, which ends the search at once
        with np.errstate(over="ignore", invalid="ignore"):
            value = dg.relaxed_oracle_from_centers(
                (0.75e308, 0.75e308), (-0.75e308, -0.75e308), 6.3, 0.0625
            )
        assert value == -math.inf

    def test_huge_centers_give_no_warning(self):
        # in the evader's frame the margin scales with the separation, so
        # the search ends in its first round; nothing squares a coordinate
        want = -1.5122535767873092e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = dg.relaxed_oracle_from_centers((1e200, 1e200), (-1e200, -1e200), 6.3, 0.0625)
        assert value <= want <= value + 1e-10 * (1.0 + abs(value))


def _lifted(monkeypatch):
    """Double both caps of the relaxed branch and bound, which keeps the
    largest round's arrays at a few tens of megabytes."""
    monkeypatch.setattr(certificates, "_BRANCH_ROUNDS", 2 * certificates._BRANCH_ROUNDS)
    monkeypatch.setattr(certificates, "_BRANCH_CELLS", 2 * certificates._BRANCH_CELLS)


def _trial_pairs(paper):
    """(turn centre, evader, alpha, kappa) of the oracle-compare trial
    states and the speed-ratio corpus."""
    trials, _ = _oracle_corpora(paper)
    pairs = [
        (dg.adjust_time_bound(s, paper).turn_center, s.evader.pos, paper.alpha, paper.kappa)
        for s in trials
    ]
    return pairs + _alpha_corpus()


class TestRelaxedBranchAndBound:
    def test_each_arc_lies_in_its_triangle(self):
        # the cell bound's premise: every point of an arc lies in the
        # triangle of its ends and its end tangents' crossing, and the
        # fourth point, the feasible one, is on the circle
        rng = np.random.default_rng(5)
        for width in (math.pi / 8.0, math.pi / 64.0, math.pi / 2048.0):
            count = int(round(TWO_PI / width))
            index = np.arange(count, dtype=float)
            cx, cy, radius = (float(v) for v in rng.uniform(0.5, 3.0, 3))
            xs, ys = certificates._arc_points(cx, cy, radius, index, width)
            assert np.allclose(np.hypot(xs[:, 3] - cx, ys[:, 3] - cy), radius, rtol=1e-14)
            theta = (index[:, None] + rng.uniform(0.0, 1.0, (count, 16))) * width
            px, py = cx + radius * np.cos(theta), cy + radius * np.sin(theta)
            (ax, bx, tx), (ay, by, ty) = xs[:, :3].T[..., None], ys[:, :3].T[..., None]
            # barycentric coordinates of each sample, none below rounding
            det = (by - ty) * (ax - tx) + (tx - bx) * (ay - ty)
            u = ((by - ty) * (px - tx) + (tx - bx) * (py - ty)) / det
            v = ((ty - ay) * (px - tx) + (ax - tx) * (py - ty)) / det
            assert np.all(u >= -1e-9) and np.all(v >= -1e-9) and np.all(1.0 - u - v >= -1e-9)

    def test_the_search_ends_by_its_tolerance(self, paper, monkeypatch):
        # on the trial states and the speed-ratio corpus no cap fires: with
        # both lifted every value keeps its bits, so each is within 1e-10
        # of the minimum as the docstring states
        pairs = _trial_pairs(paper)
        capped = [dg.relaxed_oracle_from_centers(*args) for args in pairs]
        _lifted(monkeypatch)
        assert _bits([dg.relaxed_oracle_from_centers(*args) for args in pairs]).tolist() == (
            _bits(capped).tolist()
        )

    @pytest.mark.parametrize("rounds", [1, 2, 4])
    def test_a_round_cap_keeps_the_lower_end_sound(self, paper, monkeypatch, rounds):
        # fewer rounds give a looser bound, never one above the full search's
        # nor above the reference's feasible value; one round is well short
        # of the tolerance
        pairs = _trial_pairs(paper)[::7]
        full = [dg.relaxed_oracle_from_centers(*args) for args in pairs]
        monkeypatch.setattr(certificates, "_BRANCH_ROUNDS", rounds)
        for args, want in zip(pairs, full):
            lower = dg.relaxed_oracle_from_centers(*args)
            assert lower <= want <= _reference_relaxed_oracle(*args, grid=180)
            if rounds == 1:
                assert want - lower > 1e-6 * (1.0 + abs(want))

    def test_a_cell_cap_keeps_the_lower_end_sound(self, paper, monkeypatch):
        # with no cell kept past the first round the search stops there,
        # with the first round's bound
        pairs = _trial_pairs(paper)[::7]
        monkeypatch.setattr(certificates, "_BRANCH_ROUNDS", 1)
        first = [dg.relaxed_oracle_from_centers(*args) for args in pairs]
        monkeypatch.setattr(certificates, "_BRANCH_ROUNDS", 32)
        monkeypatch.setattr(certificates, "_BRANCH_CELLS", 0)
        assert [dg.relaxed_oracle_from_centers(*args) for args in pairs] == first

    @pytest.mark.parametrize("shift", [(1e6, 1e6), (-3e6, 2e5)])
    def test_a_shifted_pair_moves_by_the_height_alone(self, paper, monkeypatch, shift):
        # in the evader's frame a pair far from the origin meets the same
        # tolerance as at the origin, before any cap, and its value moves
        # by the shift's height
        dx, dy = shift
        for center, x_e, alpha, kappa in _trial_pairs(paper)[::9]:
            moved_c = (center[0] + dx, center[1] + dy)
            moved_e = (x_e[0] + dx, x_e[1] + dy)
            at_origin = dg.relaxed_oracle_from_centers(center, x_e, alpha, kappa)
            moved = dg.relaxed_oracle_from_centers(moved_c, moved_e, alpha, kappa)
            with monkeypatch.context() as m:
                _lifted(m)
                assert dg.relaxed_oracle_from_centers(moved_c, moved_e, alpha, kappa) == moved
            assert abs((moved - dy) - at_origin) <= 1e-9 * (1.0 + abs(at_origin))

    def test_a_mirrored_pair_keeps_its_value(self, paper):
        # the objective sees only |x_p - x_e|, so mirroring the pair in a
        # vertical line leaves the minimum, and both lower ends lie within
        # 1e-10 of it
        for center, x_e, alpha, kappa in _trial_pairs(paper)[::3]:
            value = dg.relaxed_oracle_from_centers(center, x_e, alpha, kappa)
            mirrored = dg.relaxed_oracle_from_centers(
                (-center[0], center[1]), (-x_e[0], x_e[1]), alpha, kappa
            )
            assert abs(mirrored - value) <= 2e-10 * (1.0 + abs(value - x_e[1]))


@pytest.mark.parametrize("grid", [0, -3])
def test_an_empty_lattice_is_refused(paper, grid):
    # an empty heading grid is refused before any work: the aligned state
    # would otherwise return inf from the rollout oracle at once
    # (``oracle-compare --grid`` is refused in ``tests/test_cli.py``)
    state = dg.sample_adjust_feasible_state(np.random.default_rng(0), paper)
    aligned = aligned_state(0, 0.95, 0.35, 0.40, paper.alpha)
    for s in (state, aligned):
        with pytest.raises(ValueError, match="grid must be >= 1"):
            dg.rollout_clearance_oracle(s, paper, grid=grid)


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
