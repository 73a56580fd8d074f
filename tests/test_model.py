import math
import re

import numpy as np
import pytest

import dubinsguard as dg
from conftest import reference_step_evader, reference_step_pursuer
from dubinsguard.model import STRAIGHT_EPS, TWO_PI, _as_point


def test_game_params_ratio_exact():
    p = dg.GameParams.from_alpha(v_p=0.3, alpha=6.3, kappa=0.0625, r=0.1)
    assert p.alpha == p.v_p / p.v_e
    assert p.alpha == 6.3


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(v_p=0.0, v_e=0.1, kappa=1.0, r=1.0),
        dict(v_p=1.0, v_e=1.0, kappa=1.0, r=1.0),
        dict(v_p=1.0, v_e=2.0, kappa=1.0, r=1.0),
        dict(v_p=1.0, v_e=0.5, kappa=-1.0, r=1.0),
        dict(v_p=1.0, v_e=0.5, kappa=1.0, r=0.0),
    ],
)
def test_game_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        dg.GameParams(**kwargs)


def test_wrap_helpers():
    assert dg.wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert 0.0 <= dg.wrap_angle(7 * math.pi) < 2 * math.pi
    assert dg.wrap_to_pi(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert dg.wrap_to_pi(math.pi) == pytest.approx(math.pi)
    assert dg.wrap_to_pi(-math.pi) == pytest.approx(math.pi)


class TestStepPursuer:
    def test_straight_motion(self):
        out = dg.step_pursuer(0.0, 0.0, 0.0, 0.0, 1.0, 0.3, 1.0)
        assert out[:2] == pytest.approx([0.3, 0.0])
        assert out[2] == 0.0

    def test_quarter_circle(self):
        # v_p * dt / kappa = pi/2 turns a quarter arc about (0, 1)
        out = dg.step_pursuer(0.0, 0.0, 0.0, 1.0, math.pi / 2, 1.0, 1.0)
        assert out[:2] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert out[2] == pytest.approx(math.pi / 2)

    def test_full_period_returns_to_start(self):
        out = dg.step_pursuer(0.0, 0.0, 0.0, -1.0, 2 * math.pi, 1.0, 1.0)
        assert out[:2] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert out[2] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dg.step_pursuer(0.0, 0.0, 0.0, math.nan, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dg.step_pursuer(0.0, 0.0, 0.0, 0.5, -1.0, 1.0, 1.0)

    def test_chord_length_and_speed_bound(self):
        p = dg.GameParams(v_p=0.7, v_e=0.3, kappa=0.4, r=0.1)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = rng.normal(size=2)
            theta = rng.uniform(0, 2 * math.pi)
            u = rng.uniform(-1, 1)
            dt = rng.uniform(0.01, 2.0)
            out = dg.step_pursuer(x, y, theta, u, dt, p.v_p, p.kappa)
            moved = math.hypot(out[0] - x, out[1] - y)
            assert moved <= p.v_p * dt + 1e-12
            if abs(u) >= 1e-12:
                chord = 2 * (p.kappa / abs(u)) * abs(
                    math.sin(p.v_p * abs(u) * dt / (2 * p.kappa))
                )
                assert moved == pytest.approx(chord, rel=1e-12)
            else:
                assert moved == pytest.approx(p.v_p * dt, rel=1e-12)

    def test_half_steps_compose_exactly(self):
        p = dg.GameParams(v_p=0.7, v_e=0.3, kappa=0.4, r=0.1)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y = rng.normal(size=2)
            theta = rng.uniform(0, 2 * math.pi)
            u = rng.uniform(-1, 1)
            dt = rng.uniform(0.01, 1.0)
            whole = dg.step_pursuer(x, y, theta, u, dt, p.v_p, p.kappa)
            half = dg.step_pursuer(x, y, theta, u, dt / 2, p.v_p, p.kappa)
            halves = dg.step_pursuer(*half, u, dt / 2, p.v_p, p.kappa)
            assert whole[:2] == pytest.approx(halves[:2], abs=1e-12)
            assert dg.wrap_to_pi(whole[2] - halves[2]) == pytest.approx(0.0, abs=1e-12)


class TestStepEvader:
    def test_examples(self):
        out = dg.step_evader(0.0, 1.0, (0, -1), 1.0, 1.0)
        assert out == pytest.approx([0.0, 0.0])
        out = dg.step_evader(2.0, 3.0, (1, 0), 0.5, 2.0)
        assert out == pytest.approx([3.0, 3.0])
        # idle control is admissible: the control set is the closed unit disk
        out = dg.step_evader(0.0, 0.0, (0, 0), 7.0, 1.0)
        assert out == pytest.approx([0.0, 0.0])

    def test_linear_in_dt(self):
        u = np.array([0.6, -0.8])
        a = dg.step_evader(1.0, 2.0, u, 0.7, 1.3)
        b = dg.step_evader(*dg.step_evader(1.0, 2.0, u, 0.3, 1.3), u, 0.4, 1.3)
        assert a == pytest.approx(b, abs=1e-15)

    def test_rejects_control_outside_disk(self):
        with pytest.raises(ValueError):
            dg.step_evader(0.0, 0.0, (1.0, 0.1), 1.0, 1.0)


_NON_FINITE_POINTS = [
    pt
    for bad in (math.nan, math.inf, -math.inf)
    for pt in ((bad, 0.5), (0.5, bad))
]
_MISSHAPEN_POINTS = [np.zeros(3), np.zeros((1, 2))]


class TestPointChecks:
    # every state and every evader control is checked to be one finite
    # 2-D point, whatever coordinate is bad, and a step never returns a
    # non-finite state
    @pytest.mark.parametrize("pt", _NON_FINITE_POINTS)
    def test_non_finite_coordinates_rejected(self, pt):
        with pytest.raises(ValueError, match="non-finite"):
            dg.PursuerState(pos=pt, theta=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            dg.EvaderState(pos=pt)
        with pytest.raises(ValueError, match="non-finite"):
            dg.step_evader(0.0, 1.0, pt, 0.1, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            dg.step_evader(0.0, 1.0, np.array(pt), 0.1, 1.0)

    @pytest.mark.parametrize("pt", _MISSHAPEN_POINTS, ids=["(3,)", "(1, 2)"])
    def test_wrong_shapes_rejected(self, pt):
        with pytest.raises(ValueError, match="shape"):
            dg.PursuerState(pos=pt, theta=0.0)
        with pytest.raises(ValueError, match="shape"):
            dg.EvaderState(pos=pt)
        with pytest.raises(ValueError, match="shape"):
            dg.step_evader(0.0, 1.0, pt, 0.1, 1.0)
        with pytest.raises(ValueError, match="shape"):
            dg.step_evader(0.0, 1.0, tuple(pt), 0.1, 1.0)

    @pytest.mark.parametrize(
        "pt", [[1.0, 2.0, 3.0], np.zeros(3), (1, 2, 3)], ids=["list", "ndarray", "int tuple"]
    )
    def test_as_point_refuses_three_coordinates(self, pt):
        with pytest.raises(ValueError, match=re.escape("expected a 2-D point, got shape (3,)")):
            _as_point(pt)

    @pytest.mark.parametrize(
        "pt",
        [[math.nan, 1.0], np.array([1.0, math.inf]), (1, -math.inf), (math.nan, 0.5)],
        ids=["list", "ndarray", "mixed tuple", "float tuple"],
    )
    def test_as_point_refuses_non_finite_coordinates(self, pt):
        with pytest.raises(ValueError, match="^point has non-finite coordinates$"):
            _as_point(pt)

    @pytest.mark.parametrize(
        "pt",
        [[0.0, 1.5], np.array([0.0, 1.5]), (0, 1.5), (np.float64(0.0), 1.5), (0.0, 1.5)],
        ids=["list", "ndarray", "int tuple", "numpy scalar", "float tuple"],
    )
    def test_as_point_gives_a_float_pair(self, pt):
        point = _as_point(pt)
        assert type(point) is tuple and point == (0.0, 1.5)
        assert type(point[0]) is float and type(point[1]) is float

    @pytest.mark.parametrize("pt", _NON_FINITE_POINTS)
    def test_non_finite_results_rejected(self, pt):
        x, y = pt
        with pytest.raises(ValueError, match="non-finite"):
            dg.step_pursuer(x, y, 0.0, 0.0, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            dg.step_pursuer(x, y, 1.0, 0.5, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            dg.step_evader(x, y, (0.6, -0.8), 0.1, 1.0)
        # finite inputs whose step overflows
        with pytest.raises(ValueError, match="non-finite"):
            dg.step_evader(1.7e308, 0.5, (1.0, 0.0), 1.0, 1e308)
        with pytest.raises(ValueError, match="non-finite"):
            dg.step_pursuer(1.7e308, 0.5, 0.0, 0.0, 1.0, 1e308, 1.0)


class TestStateValues:
    # states are immutable values: equal coordinates give equal, equally
    # hashed states, whatever the input type
    def test_states_compare_and_hash_by_value(self):
        a = dg.PursuerState(pos=np.array([0.0, 1.0]), theta=0.5)
        b = dg.PursuerState(pos=(0.0, 1.0), theta=0.5)
        assert a == b and hash(a) == hash(b)
        assert a != dg.PursuerState(pos=(0.0, 1.0), theta=0.25)
        assert dg.EvaderState(pos=[2, 3]) == dg.EvaderState(pos=(2.0, 3.0))

    def test_joint_states_are_set_members(self):
        car = dg.PursuerState(pos=(0.0, 1.0), theta=0.5)
        pairs = {
            dg.JointState(car, dg.EvaderState(pos=(1.0, 1.0))),
            dg.JointState(dg.PursuerState(pos=[0, 1], theta=0.5), dg.EvaderState(pos=[1, 1])),
            dg.JointState(car, dg.EvaderState(pos=(1.0, 2.0))),
        }
        assert len(pairs) == 2
        assert dg.JointState(car, dg.EvaderState(pos=np.array([1.0, 2.0]))) in pairs

    def test_positions_cannot_be_written(self):
        car = dg.PursuerState(pos=np.array([0.0, 1.0]), theta=0.5)
        with pytest.raises(TypeError):
            car.pos[0] = 1.0
        evader = dg.EvaderState(pos=[0.0, 1.0])
        with pytest.raises(TypeError):
            evader.pos[1] = -1.0
        assert car.pos == evader.pos == (0.0, 1.0)


def _scenario(pursuers, evaders, seed=0):
    return dg.Scenario(pursuers=pursuers, evaders=evaders, seed=seed)


def _pursuer(x, y, theta=0.0, r=0.1, kappa=0.0625):
    return dg.PursuerSpec(
        state=dg.PursuerState(pos=(x, y), theta=theta), v=0.3, kappa=kappa, r=r
    )


def _evader(x, y, v=0.1, heading=None):
    strategy = "random_goal" if heading is None else "constant"
    return dg.EvaderSpec(
        state=dg.EvaderState(pos=(x, y)), v=v, strategy=strategy, heading=heading
    )


def _violation(pursuers, evaders, seed=0) -> str:
    with pytest.raises(ValueError, match="^invalid scenario: ") as info:
        _scenario(pursuers, evaders, seed)
    return str(info.value)


class TestValidateScenario:
    def test_clean_scenario(self):
        sc = _scenario([_pursuer(0, 1), _pursuer(2, 1)], [_evader(0, 2), _evader(2, 2)])
        for i in range(2):
            for j in range(2):
                sc.pair_params(i, j)

    def test_coincident_pursuers(self):
        msg = _violation([_pursuer(0, 1), _pursuer(0, 1)], [_evader(0, 2)])
        assert "pursuers[0] and pursuers[1] coincide" in msg

    def test_evader_on_capture_boundary_is_violation(self):
        # the deployment rule is a strict inequality
        msg = _violation([_pursuer(0, 1, r=0.1)], [_evader(0.1, 1)])
        assert "evaders[0]: inside capture disk of pursuers[0]" in msg

    def test_evader_on_goal_boundary_is_violation(self):
        msg = _violation([_pursuer(0, 1)], [_evader(1, 0.0)])
        assert "evaders[0]: not in play region" in msg

    def test_slow_pursuer_is_violation(self):
        msg = _violation([_pursuer(0, 1)], [_evader(1, 1, v=0.5)])
        assert "pursuers[0]: not faster than evaders[0]" in msg

    @pytest.mark.parametrize(
        "pursuers, evaders, seed, expected",
        [
            ([], [_evader(0, 2)], 0, "pursuers: at least one required"),
            ([_pursuer(0, 1)], [], 0, "evaders: at least one required"),
            ([_pursuer(0, 1, r=0.0)], [_evader(0, 2)], 0, "pursuers[0]: capture_radius"),
            ([_pursuer(0, 1, r=math.inf)], [_evader(0, 2)], 0, "pursuers[0]: capture_radius"),
            ([_pursuer(0, 1, kappa=-1.0)], [_evader(0, 2)], 0, "pursuers[0]: kappa"),
            ([_pursuer(0, 1)], [_evader(0, 2, v=math.nan)], 0, "evaders[0]: speed"),
            ([_pursuer(0, 1)], [_evader(0, 2, heading=math.nan)], 0,
             "evaders[0]: constant strategy requires a finite heading"),
            ([_pursuer(0, 1)], [_evader(0, 2)], -1, "seed: must be a non-negative integer"),
            ([_pursuer(0, 1)], [_evader(0, 2)], 1.5, "seed: must be a non-negative integer"),
        ],
        ids=["no_pursuers", "no_evaders", "r_zero", "r_inf", "kappa", "speed", "heading",
             "seed_negative", "seed_float"],
    )
    def test_every_rule_names_its_agent(self, pursuers, evaders, seed, expected):
        assert expected in _violation(pursuers, evaders, seed)

    def test_every_violation_is_reported(self):
        msg = _violation([_pursuer(0, 1, kappa=0.0), _pursuer(0, 1)], [_evader(0, 1)], -3)
        assert msg.count("; ") == 4

    def test_every_agent_attribute_is_a_scenario_rule(self):
        # the specs are plain records: a bad motion, strategy or heading is
        # refused with every other violation when the scenario is built
        tank = dg.PursuerSpec(
            state=dg.PursuerState(pos=(0.0, 1.0), theta=0.0), motion="tank", v=0.3
        )
        sneaky = dg.EvaderSpec(state=dg.EvaderState(pos=(1.0, 2.0)), v=0.1, strategy="sneaky")
        missing = dg.EvaderSpec(state=dg.EvaderState(pos=(2.0, 2.0)), v=0.1, strategy="constant")
        msg = _violation([tank], [_evader(0, 2), sneaky, missing, _evader(3, 2, heading=math.nan)])
        assert msg == (
            "invalid scenario: pursuers[0]: unknown motion kind 'tank'; "
            "evaders[1]: unknown strategy 'sneaky'; "
            "evaders[2]: constant strategy requires a finite heading, got None; "
            "evaders[3]: constant strategy requires a finite heading, got nan"
        )

    def test_pair_params_never_raise_on_a_constructed_scenario(self):
        rng = np.random.default_rng(7)

        def pick(valid):
            bad = (-1.0, 0.0, math.inf, math.nan)
            return float(rng.choice(bad if rng.random() < 0.1 else valid))

        built = 0
        for _ in range(400):
            pursuers = [
                dg.PursuerSpec(
                    state=dg.PursuerState(pos=rng.uniform(0.1, 3.0, 2), theta=0.0),
                    v=pick((0.1, 0.3, 1.0)),
                    kappa=pick((0.0625, 0.5)),
                    r=pick((0.05, 0.1)),
                )
                for _ in range(rng.integers(1, 3))
            ]
            evaders = [
                dg.EvaderSpec(
                    state=dg.EvaderState(pos=rng.uniform(0.1, 3.0, 2)), v=pick((0.05, 0.3))
                )
                for _ in range(rng.integers(1, 3))
            ]
            try:
                sc = _scenario(pursuers, evaders)
            except ValueError:
                continue
            built += 1
            for i in range(len(pursuers)):
                for j in range(len(evaders)):
                    sc.pair_params(i, j)
        assert built >= 50



def _reference_violations(pursuers, evaders, seed) -> list[str]:
    """The admissibility rules with one ``np.linalg.norm`` call per
    pursuer-evader pair, the form the batched distance kernel replaced."""
    violations = []
    for team, specs in (("pursuers", pursuers), ("evaders", evaders)):
        if not specs:
            violations.append(f"{team}: at least one required")
        for k, spec in enumerate(specs):
            values = {"speed": spec.v}
            if team == "pursuers":
                values.update(kappa=spec.kappa, capture_radius=spec.r)
            for name, value in values.items():
                if not (math.isfinite(value) and value > 0.0):
                    violations.append(
                        f"{team}[{k}]: {name} must be finite and positive, got {value}"
                    )
            if team == "pursuers" and spec.motion not in ("dubins", "simple"):
                violations.append(f"{team}[{k}]: unknown motion kind {spec.motion!r}")
        for a in range(len(specs)):
            for b in range(a + 1, len(specs)):
                if specs[a].state.pos == specs[b].state.pos:
                    violations.append(f"{team}[{a}] and {team}[{b}] coincide")
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        violations.append(f"seed: must be a non-negative integer, got {seed!r}")
    for j, ev in enumerate(evaders):
        if ev.strategy not in ("optimal", "constant", "random_goal"):
            violations.append(f"evaders[{j}]: unknown strategy {ev.strategy!r}")
        elif ev.strategy == "constant" and (ev.heading is None or not math.isfinite(ev.heading)):
            violations.append(
                f"evaders[{j}]: constant strategy requires a finite heading, got {ev.heading}"
            )
        if ev.state.pos[1] <= 0.0:
            violations.append(f"evaders[{j}]: not in play region (y <= 0)")
        for i, pu in enumerate(pursuers):
            dist = float(np.linalg.norm(np.subtract(ev.state.pos, pu.state.pos)))
            if dist <= pu.r:
                violations.append(
                    f"evaders[{j}]: inside capture disk of pursuers[{i}] "
                    f"(distance {dist:.6g} <= r = {pu.r:.6g})"
                )
            if pu.v <= ev.v:
                violations.append(
                    f"pursuers[{i}]: not faster than evaders[{j}] "
                    f"(speed {pu.v:.6g} <= {ev.v:.6g})"
                )
    return violations


class TestPairRulesMatchPerPairNorm:
    """The capture-disk and speed rules read one batched distance array;
    their messages must equal the per-pair ``np.linalg.norm`` reference
    byte for byte, at and around equality too."""

    @staticmethod
    def _teams(seed, n=30, moved=0):
        """Seeded teams of ``n``; ``moved`` agents of each team are then put
        on others of their team, so coincident groups of two and more form."""
        rng = np.random.default_rng(seed)
        p_pos = [tuple(rng.uniform((0.0, 0.5), (6.0, 3.0)).tolist()) for _ in range(n)]
        e_pos = [tuple(rng.uniform((0.0, 0.1), (6.0, 3.0)).tolist()) for _ in range(n)]
        radii = [0.1] * n
        speeds = [0.3] * n
        # evaders next to pursuers, each pursuer's radius set to the
        # reference distance, one rounding above it, or one below it
        for k, i in enumerate(rng.choice(n, 6, replace=False).tolist()):
            j = int(rng.integers(n))
            offset = rng.uniform(-0.08, 0.08, 2)
            e_pos[j] = (p_pos[i][0] + float(offset[0]), max(p_pos[i][1] + float(offset[1]), 0.05))
            dist = float(np.linalg.norm(np.subtract(e_pos[j], p_pos[i])))
            radii[i] = dist * (1.0, 1.0 + 1e-15, 1.0 - 1e-15)[k % 3]
        # coincident agents: an evader on a pursuer, two evaders, two pursuers
        a, b, c, d = rng.choice(n, 4, replace=False).tolist()
        e_pos[a] = p_pos[b]
        e_pos[c] = e_pos[d]
        p_pos[a] = p_pos[c]
        # slow pursuers: slower than every evader, and as fast as them
        speeds[b], speeds[d] = 0.01, 0.3 / 6.3
        for team in (p_pos, e_pos):
            for k, m in rng.integers(n, size=(moved, 2)).tolist():
                team[k] = team[m]
        pursuers = [
            dg.PursuerSpec(
                state=dg.PursuerState(pos=pos, theta=0.0), v=v, kappa=0.0625, r=r
            )
            for pos, v, r in zip(p_pos, speeds, radii)
        ]
        evaders = [dg.EvaderSpec(state=dg.EvaderState(pos=pos), v=0.3 / 6.3) for pos in e_pos]
        return pursuers, evaders

    @pytest.mark.parametrize("seed", range(12))
    def test_messages_equal_the_reference(self, seed):
        pursuers, evaders = self._teams(seed)
        expected = _reference_violations(pursuers, evaders, seed)
        assert any("inside capture disk" in v for v in expected)
        assert any("not faster" in v for v in expected)
        assert "invalid scenario: " + "; ".join(expected) == _violation(pursuers, evaders, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_moved_agents_equal_the_reference(self, seed):
        pursuers, evaders = self._teams(seed, n=40, moved=10)
        expected = _reference_violations(pursuers, evaders, seed)
        assert sum("coincide" in v for v in expected) > 10
        assert "invalid scenario: " + "; ".join(expected) == _violation(pursuers, evaders, seed)

    def test_coincident_groups_equal_the_reference(self):
        # three coincident evaders in a group interleaved with a pair, and
        # two pursuers at (0.0, y) and (-0.0, y), which compare equal
        e_xy = [(1.0, 0.5), (2.0, 0.7), (1.0, 0.5), (3.0, 0.4), (2.0, 0.7), (1.0, 0.5), (4.0, 0.9)]
        evaders = [_evader(x, y) for x, y in e_xy]
        pursuers = [_pursuer(0.0, 2.0), _pursuer(5.0, 2.0), _pursuer(-0.0, 2.0)]
        expected = _reference_violations(pursuers, evaders, 0)
        assert expected == [
            "pursuers[0] and pursuers[2] coincide",
            "evaders[0] and evaders[2] coincide",
            "evaders[0] and evaders[5] coincide",
            "evaders[1] and evaders[4] coincide",
            "evaders[2] and evaders[5] coincide",
        ]
        assert "invalid scenario: " + "; ".join(expected) == _violation(pursuers, evaders)

    def test_radius_at_the_distance_is_inside_and_one_rounding_below_is_not(self):
        p, e = (0.3, 1.7), (0.37, 1.61)
        dist = float(np.linalg.norm(np.subtract(e, p)))
        evaders = [dg.EvaderSpec(state=dg.EvaderState(pos=e), v=0.1)]
        message = "evaders[0]: inside capture disk of pursuers[0] (distance {:.6g} <= r = {:.6g})"
        for factor, inside in ((1.0, True), (1.0 + 1e-15, True), (1.0 - 1e-15, False)):
            r = dist * factor
            pursuers = [_pursuer(*p, r=r)]
            expected = [message.format(dist, r)] if inside else []
            assert _reference_violations(pursuers, evaders, 0) == expected
            if inside:
                assert _violation(pursuers, evaders).endswith(f"<= r = {r:.6g})")
            else:
                _scenario(pursuers, evaders)

def _outcome(step, *args):
    """The result of one step as the repr of a tuple, or the error type it
    raised."""
    try:
        return repr(tuple(step(*args)))
    except ValueError:
        return "ValueError"


class TestStepKernelsMatchReference:
    # the float kernels give the validated-state steps' results bit for bit
    # on a seeded corpus, its edge cases included
    def test_step_pursuer(self):
        rng = np.random.default_rng(71)
        eps = STRAIGHT_EPS
        commands = [0.0, 1.0, -1.0, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)]
        commands += [s * eps * f for s in (1.0, -1.0) for f in (1.0, 1 - 1e-9, 1 + 1e-9, 0.5, 2.0)]
        headings = [0.0, 5e-324, 1e-16, 1e-15, math.pi]
        headings += [math.nextafter(TWO_PI, 0.0), TWO_PI - 1e-15]
        cases = [(c, h) for c in commands for h in headings]
        cases += [(rng.uniform(-1, 1), rng.uniform(0, TWO_PI)) for _ in range(300)]
        for u, theta in cases:
            assert dg.wrap_angle(theta) == theta
            x, y = rng.normal(size=2).tolist()
            dt = float(rng.choice([1e-3, 1e-4, rng.uniform(0.01, 2.0)]))
            v_p, kappa = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.05, 1.0))
            p = dg.GameParams(v_p=v_p, v_e=v_p / 2.0, kappa=kappa, r=0.1)
            ref = reference_step_pursuer(dg.PursuerState(pos=(x, y), theta=theta), u, dt, p)
            out = dg.step_pursuer(x, y, theta, u, dt, v_p, kappa)
            assert all(type(v) is float for v in out)
            assert repr(out) == repr((*ref.pos, ref.theta)), (u, theta)

    def test_step_evader(self):
        rng = np.random.default_rng(72)
        controls = [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0)]
        for a in rng.uniform(0, TWO_PI, size=100):
            for scale in (1.0, 1.0 + 1e-12, math.nextafter(1.0 + 1e-12, 2.0), 1.0 + 2e-12, 0.5):
                controls.append((scale * math.cos(a), scale * math.sin(a)))
        for ux, uy in controls:
            x, y = rng.normal(size=2).tolist()
            dt, v_e = float(rng.uniform(1e-4, 1.0)), float(rng.uniform(0.01, 1.0))
            p = dg.GameParams(v_p=2.0 * v_e, v_e=v_e, kappa=1.0, r=0.1)
            state = dg.EvaderState(pos=(x, y))
            ref = _outcome(lambda: reference_step_evader(state, (ux, uy), dt, p).pos)
            assert _outcome(dg.step_evader, x, y, (ux, uy), dt, v_e) == ref
            assert _outcome(dg.step_evader, x, y, np.array([ux, uy]), dt, v_e) == ref
        refused = [_outcome(dg.step_evader, 0.0, 1.0, u, 0.1, 1.0) == "ValueError" for u in controls]
        assert 100 <= sum(refused) < len(controls) - 300
