import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dubinsguard as dg
from conftest import reference_write_trajectory_csv
from dubinsguard import cli


@pytest.fixture(scope="module")
def golden_path():
    with resources.as_file(
        resources.files("dubinsguard") / "scenarios" / "5v5_paper.json"
    ) as path:
        yield str(path)


class TestScenarioFormat:
    def test_round_trip_is_idempotent(self, golden_path):
        sc = cli.load_scenario(golden_path)
        doc = cli.scenario_to_doc(sc)
        text = json.dumps(doc)
        doc2 = cli.scenario_to_doc(cli.parse_scenario(json.loads(text)))
        assert json.dumps(doc2) == text

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(cli.ScenarioFormatError, match="unknown top-level"):
            cli.parse_scenario(
                {"goal": cli.GOAL_NAME, "pursuers": [], "evaders": [], "bogus": 1}
            )

    def test_unknown_entry_key_rejected(self, golden_path):
        doc = json.load(open(golden_path))
        doc["pursuers"][0]["color"] = "red"
        with pytest.raises(cli.ScenarioFormatError, match=r"pursuers\[0\]"):
            cli.parse_scenario(doc)

    def test_wrong_goal_rejected(self, golden_path):
        doc = json.load(open(golden_path))
        doc["goal"] = "half_plane_x_leq_0"
        with pytest.raises(cli.ScenarioFormatError, match="goal"):
            cli.parse_scenario(doc)

    def test_missing_field_names_the_location(self, golden_path):
        doc = json.load(open(golden_path))
        del doc["evaders"][2]["speed"]
        with pytest.raises(cli.ScenarioFormatError, match=r"evaders\[2\].*speed") as info:
            cli.parse_scenario(doc)
        assert str(info.value) == "evaders[2]: missing required key 'speed'"

    def test_bad_strategy_rejected(self, golden_path):
        doc = json.load(open(golden_path))
        doc["evaders"][0]["strategy"] = "teleport"
        with pytest.raises(
            ValueError, match=r"^invalid scenario: evaders\[0\]: unknown strategy 'teleport'$"
        ):
            cli.parse_scenario(doc)

    def test_bad_model_names_the_location(self, golden_path):
        doc = json.loads(open(golden_path).read())
        doc["pursuers"][0]["model"] = "tank"
        with pytest.raises(
            ValueError, match=r"^invalid scenario: pursuers\[0\]: unknown motion kind 'tank'$"
        ):
            cli.parse_scenario(doc)

    def test_constant_strategy_requires_heading(self, golden_path):
        doc = json.load(open(golden_path))
        doc["evaders"][0]["strategy"] = "constant"
        with pytest.raises(
            ValueError,
            match=r"^invalid scenario: evaders\[0\]: constant strategy requires a finite "
            r"heading, got None$",
        ):
            cli.parse_scenario(doc)

    def test_team_must_be_a_list(self, golden_path):
        doc = json.load(open(golden_path))
        doc["evaders"] = doc["evaders"][0]
        with pytest.raises(cli.ScenarioFormatError, match="^evaders: expected a list$"):
            cli.parse_scenario(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"goal": \n!!!')
        with pytest.raises(cli.ScenarioFormatError, match="line 2"):
            cli.load_scenario(path)


def _set(team, k, **fields):
    def edit(doc):
        doc[team][k].update(fields)

    return edit


def _four_bad_attributes(doc):
    """One bad motion, strategy, missing heading and NaN heading."""
    doc["pursuers"][0]["model"] = "tank"
    doc["evaders"][1]["strategy"] = "sneaky"
    doc["evaders"][2]["strategy"] = "constant"
    doc["evaders"][3].update(strategy="constant", heading=math.nan)


@pytest.mark.parametrize(
    "command", [["run", "--max-time", "1"], ["certify", "--all"]], ids=["run", "certify"]
)
@pytest.mark.parametrize(
    "edit, expected",
    [
        (_set("evaders", 1, speed=1.0), "pursuers[0]: not faster than evaders[1] (speed"),
        (_set("pursuers", 2, kappa=-1), "pursuers[2]: kappa must be finite and positive"),
        (_set("pursuers", 3, capture_radius=0), "pursuers[3]: capture_radius must be"),
        (
            _set("evaders", 4, strategy="constant", heading=math.nan),
            "evaders[4]: constant strategy requires a finite heading, got nan",
        ),
        (lambda doc: doc.update(seed=-1), "seed: must be a non-negative integer"),
        (lambda doc: doc.update(pursuers=[]), "pursuers: at least one required"),
        (
            _four_bad_attributes,
            "pursuers[0]: unknown motion kind 'tank'; "
            "evaders[1]: unknown strategy 'sneaky'; "
            "evaders[2]: constant strategy requires a finite heading, got None; "
            "evaders[3]: constant strategy requires a finite heading, got nan",
        ),
    ],
    ids=["evader_speed", "kappa", "capture_radius", "heading", "seed", "no_pursuers",
         "four_attributes"],
)
def test_inadmissible_scenario_is_one_error_line(
    golden_path, tmp_path, capsys, command, edit, expected
):
    doc = json.loads(open(golden_path).read())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command[0], "--scenario", str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid scenario: ")
    assert captured.err.count("\n") == 1 and expected in captured.err


class TestCmdRun:
    def test_golden_run_writes_outputs(self, golden_path, tmp_path):
        out = tmp_path / "traj.csv"
        events = tmp_path / "events.jsonl"
        code = cli.main(
            [
                "run",
                "--scenario",
                golden_path,
                "--dt",
                "1e-3",
                "--max-time",
                "8",
                "--matching-period",
                "20",
                "--out",
                str(out),
                "--events-out",
                str(events),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,agent,kind,x,y,theta,u,status,target"
        # rows in step order; each step lists evaders before pursuers
        first = lines[1].split(",")
        assert first[1] == "E1" and first[2] == "evader"
        records = [json.loads(line) for line in events.read_text().splitlines()]
        captures = [r for r in records if r["kind"] == "capture"]
        assert len(captures) == 5
        assert not any(r["kind"] == "goal_arrival" for r in records)
        # float formatting: 9 significant digits means at most 10 chars
        # before the exponent for these magnitudes
        x_value = first[3]
        assert len(x_value.replace("-", "").replace(".", "").lstrip("0")) <= 9

    def test_zero_dt_is_input_error(self, golden_path, capsys):
        code = cli.main(
            ["run", "--scenario", golden_path, "--dt", "0", "--max-time", "1"]
        )
        assert code == 1
        assert "dt" in capsys.readouterr().err

    def test_dt_that_can_jump_a_capture_disk_is_input_error(self, golden_path, capsys):
        code = cli.main(
            ["run", "--scenario", golden_path, "--dt", "0.5", "--max-time", "1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dt=0.5" in err

    def test_evader_inside_a_capture_disk_is_input_error(self, golden_path, tmp_path, capsys):
        doc = json.loads(open(golden_path).read())
        pursuer = doc["pursuers"][0]
        doc["evaders"][0]["x"] = pursuer["x"] + 0.5 * pursuer["capture_radius"]
        doc["evaders"][0]["y"] = pursuer["y"]
        path = tmp_path / "inside.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", "--scenario", str(path), "--max-time", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "inside capture disk" in err

    @pytest.mark.parametrize(
        "flags, name", [(["--max-time", "nan"], "max_time"), (["--dt", "inf"], "dt")]
    )
    def test_non_finite_time_is_input_error(self, golden_path, capsys, flags, name):
        assert cli.main(["run", "--scenario", golden_path, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be finite") and err.count("\n") == 1

    def test_small_horizon_gives_exit_two(self, golden_path):
        code = cli.main(
            ["run", "--scenario", golden_path, "--dt", "1e-3", "--max-time", "0.01"]
        )
        assert code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        code = cli.main(
            ["run", "--scenario", str(tmp_path / "nope.json"), "--max-time", "1"]
        )
        assert code == 1


def _lane_team(n: int) -> dg.Scenario:
    """n duels side by side: evader k in lane k, its car 0.8 above it
    heading straight down."""
    return dg.Scenario(
        pursuers=tuple(
            dg.PursuerSpec(
                state=dg.PursuerState(pos=(4.0 * k, 1.15), theta=1.5 * math.pi),
                v=0.3,
                kappa=0.0625,
                r=0.1,
            )
            for k in range(n)
        ),
        evaders=tuple(
            dg.EvaderSpec(state=dg.EvaderState(pos=(4.0 * k, 0.35)), v=0.3 / 6.3)
            for k in range(n)
        ),
        seed=5,
    )


def _reference_csv(result) -> str:
    """The trajectory CSV built by flattening every row of every agent and
    sorting the rows by ``(t, kind, index)``."""
    rows = []
    for agent, series in result.trajectories.items():
        kind = "pursuer" if agent.startswith("P") else "evader"
        for t, x, y, theta, u, _mode, status, target in series:
            target_name = "" if target is None else f"E{target + 1}"
            rows.append((t, kind, int(agent[1:]), agent, x, y, theta, u, status, target_name))
    rows.sort(key=lambda row: row[:3])
    lines = ["t,agent,kind,x,y,theta,u,status,target"]
    for t, kind, _index, agent, x, y, theta, u, status, target_name in rows:
        values = [t, agent, kind, x, y, theta, u, status, target_name]
        lines.append(",".join(cli._fmt(value) for value in values))
    return "\n".join(lines) + "\n"


class TestTrajectoryCsv:
    @pytest.fixture(scope="class")
    def played(self):
        n = 12
        return n, dg.run(_lane_team(n), dg.SimConfig(dt=1e-3, max_time=0.05))

    def test_rows_follow_steps_and_numeric_index(self, played, tmp_path):
        n, result = played
        out = tmp_path / "traj.csv"
        with open(out, "w") as fh:
            cli.write_trajectory_csv(result, fh)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        steps = len(result.trajectories["P1"])
        assert steps > 10 and len(rows) == 2 * n * steps
        order = [f"E{k}" for k in range(1, n + 1)] + [f"P{k}" for k in range(1, n + 1)]
        times = []
        for start in range(0, len(rows), 2 * n):
            step = rows[start : start + 2 * n]
            assert len({row[0] for row in step}) == 1
            assert [row[1] for row in step] == order
            assert [row[2] for row in step] == ["evader"] * n + ["pursuer"] * n
            times.append(float(step[0][0]))
        assert times == sorted(set(times))

    def test_bytes_equal_the_sorted_reference(self, played, tmp_path):
        _, result = played
        out = tmp_path / "traj.csv"
        with open(out, "w") as fh:
            cli.write_trajectory_csv(result, fh)
        assert out.read_text() == _reference_csv(result)

    @staticmethod
    def _bytes(write, result) -> str:
        fh = io.StringIO()
        write(result, fh)
        return fh.getvalue()

    def test_bytes_equal_the_reference_writer_on_the_bundled_game(self, golden_path):
        cfg = dg.SimConfig(dt=1e-3, max_time=8.0, matching_period=20)
        result = dg.run(cli.load_scenario(golden_path), cfg)
        want = self._bytes(reference_write_trajectory_csv, result)
        assert self._bytes(cli.write_trajectory_csv, result) == want
        assert want.count("\n") == 10 * len(result.trajectories["P1"]) + 1

    def test_bytes_equal_the_reference_writer_on_odd_cells(self):
        # a step's rows share one t object; None, int, float-subclass and
        # signed-zero cells are each formatted as the reference does
        rows = {"P1": [], "P10": [], "E2": []}
        for k, t in enumerate((0.0, -0.0, 1e-3, 2, np.float64(1 / 3))):
            cells = (None, k, -0.0, 7, np.float64(-2.5e-10), 12345678901, 1 / 7)
            for n, agent in enumerate(rows):
                x, y, theta, u = (cells[(k + n + c) % len(cells)] for c in range(4))
                target = None if agent[0] == "E" else (k + n) % 3 or None
                rows[agent].append((t, x, y, theta, u, "adjust", "active", target))
        result = dg.SimResult(rows, [], {}, [], False, 0, 0.0)
        got = self._bytes(cli.write_trajectory_csv, result)
        assert got == self._bytes(reference_write_trajectory_csv, result)
        assert ",-0," in got and ",12345678901," in got and "\n-0,E2,evader," in got

    def test_series_of_unequal_length_is_refused(self, played, tmp_path):
        _, result = played
        trajectories = dict(result.trajectories, E10=result.trajectories["E10"][:-1])
        short = dataclasses.replace(result, trajectories=trajectories)
        with open(tmp_path / "traj.csv", "w") as fh, pytest.raises(ValueError):
            cli.write_trajectory_csv(short, fh)


class TestCmdCertify:
    def test_all_pairs_table(self, golden_path, capsys):
        assert cli.main(["certify", "--scenario", golden_path, "--all"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 25
        certified = [line for line in lines if "kind=none" not in line]
        assert len(certified) == 4
        assert any("P3-E3" in line and "kind=intercept" in line for line in lines)
        assert any("P1-E4" in line and "kind=two_step" in line for line in lines)
        two_step_line = next(line for line in lines if "P1-E4" in line)
        assert "delta=" in two_step_line and "clearance=" in two_step_line
        assert all("region=II" in line for line in lines)

    def test_simple_motion_pursuer_lines(self, golden_path, tmp_path, capsys):
        # a simple-motion pursuer has no heading and no adjust phase: its
        # lines carry io=None and neither a delta nor a clearance, and its
        # pairs are INTERCEPT exactly where separation holds
        doc = json.load(open(golden_path))
        doc["pursuers"][4]["model"] = "simple"
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", "--scenario", str(path), "--all"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 25
        p5 = [line for line in lines if line.startswith("P5-")]
        assert len(p5) == 5
        for line in p5:
            assert " io=None " in line
            assert "delta=" not in line and "clearance=" not in line
            assert ("kind=intercept" in line) == (" sc=True " in line)
        assert [line.split()[0] for line in p5 if "kind=intercept" in line] == ["P5-E1"]

    def test_single_pair(self, golden_path, capsys):
        assert cli.main(["certify", "--scenario", golden_path, "--pair", "3,3"]) == 0
        out = capsys.readouterr().out
        assert "P3-E3" in out and "kind=intercept" in out

    def test_out_of_range_pair(self, golden_path):
        assert cli.main(["certify", "--scenario", golden_path, "--pair", "9,1"]) == 1

    def test_malformed_pair(self, golden_path):
        assert cli.main(["certify", "--scenario", golden_path, "--pair", "3"]) == 1

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert cli.main(["certify", "--scenario", str(tmp_path / "nope.json"), "--all"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCmdSweepRegions:
    def test_sweep_rows_and_crossing(self, tmp_path):
        out = tmp_path / "regions.csv"
        code = cli.main(
            [
                "sweep-regions",
                "--alpha-min",
                "1.05",
                "--alpha-max",
                "10",
                "--samples",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# alpha0=")
        alpha0 = float(lines[0].split("=")[1])
        assert alpha0 == pytest.approx(1.4655712, abs=1e-6)
        assert lines[1] == "alpha,h_alpha,h_bar,eq15_rhs"
        rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
        assert len(rows) == 40
        for alpha, h_alpha, h_bar, ratio in rows:
            assert h_alpha <= h_bar + 1e-9
            assert h_alpha > 0 and ratio > 0

    def test_reference_ratio_row_values(self, tmp_path):
        out = tmp_path / "ref.csv"
        code = cli.main(
            [
                "sweep-regions",
                "--alpha-min",
                "6.3",
                "--alpha-max",
                "10",
                "--samples",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        first = out.read_text().splitlines()[2].split(",")
        assert float(first[0]) == 6.3
        assert float(first[2]) == pytest.approx(0.412958, abs=1e-6)
        assert float(first[3]) == pytest.approx(1.595987, abs=1e-6)
        assert float(first[1]) <= float(first[2])

    def test_bad_range_rejected(self, tmp_path):
        code = cli.main(
            [
                "sweep-regions",
                "--alpha-min",
                "0.9",
                "--alpha-max",
                "10",
                "--samples",
                "10",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_infinite_bound_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep-regions", "--alpha-min", "1.1", "--alpha-max", "inf", "--samples", "10"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestCmdOracleCompare:
    def test_small_run_has_no_violations(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = cli.main(
            [
                "oracle-compare",
                "--trials",
                "5",
                "--seed",
                "9",
                "--grid",
                "240",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "violations=0" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("trial,")
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            closed, relaxed, rollout = map(float, fields[1:4])
            assert closed == pytest.approx(relaxed, abs=1e-3 * (1 + abs(closed)))
            assert closed <= rollout + 1e-3

    def test_zero_trials_rejected(self):
        assert cli.main(["oracle-compare", "--trials", "0"]) == 1

    @pytest.mark.parametrize("grid", ["0", "-5"])
    def test_non_positive_grid_rejected(self, capsys, grid):
        assert cli.main(["oracle-compare", "--trials", "1", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "seed, clearance", [(19404, 0.80390), (174101848, 0.56916)]
    )
    def test_close_root_seeds_match_the_relaxed_oracle(self, tmp_path, seed, clearance):
        # these trials draw sextics with two roots 4.4e-5 and 2.9e-4 apart in
        # the multiplier bracket; both roots must be found for the KKT
        # reconstruction to succeed
        out = tmp_path / "oracle.csv"
        argv = ["oracle-compare", "--trials", "1", "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == 0
        fields = out.read_text().splitlines()[1].split(",")
        closed, relaxed = float(fields[1]), float(fields[2])
        assert closed == pytest.approx(clearance, abs=1e-5)
        assert closed == pytest.approx(relaxed, abs=1e-9)
        assert fields[-1] == "1"

    def test_solver_failure_is_a_violation_row(self, tmp_path, monkeypatch, capsys):
        def fail(state, p):
            raise dg.KKTReconstructionError("KKT reconstruction failed")

        monkeypatch.setattr(cli.certs, "solve_relaxed_clearance", fail)
        out = tmp_path / "oracle.csv"
        argv = ["oracle-compare", "--trials", "2", "--grid", "180", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "violations=2" in capsys.readouterr().out
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2
        for row in rows:
            assert row[1] == "nan" and row[4] == "nan" and row[5] == "0"

    def test_a_closed_form_below_the_lower_end_is_a_violation(self, tmp_path, monkeypatch, capsys):
        # the relaxed oracle is a proven lower bound on the minimum: a closed
        # form below it is wrong, by 1e-6 as by more
        def low(state, p):
            return SimpleNamespace(clearance=cli.certs.relaxed_clearance_oracle(state, p) - 1e-6)

        monkeypatch.setattr(cli.certs, "solve_relaxed_clearance", low)
        out = tmp_path / "oracle.csv"
        argv = ["oracle-compare", "--trials", "1", "--grid", "180", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "violations=1" in capsys.readouterr().out
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == float(row[2]) - 1e-6 and row[5] == "0"

    def test_deterministic_given_seed(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            cli.main(
                [
                    "oracle-compare",
                    "--trials",
                    "3",
                    "--seed",
                    "4",
                    "--grid",
                    "180",
                    "--out",
                    str(path),
                ]
            )
        assert paths[0].read_text() == paths[1].read_text()


class TestSharedParser:
    """``main`` parses every call with one parser: no call's options may
    reach the next one."""

    def test_oracle_grid_does_not_carry_over(self, tmp_path):
        first, second, fresh = (tmp_path / name for name in ("90.csv", "360.csv", "fresh.csv"))
        assert cli.main(["oracle-compare", "--trials", "1", "--grid", "90", "--out", str(first)]) == 0
        assert cli.main(["oracle-compare", "--trials", "1", "--out", str(second)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(dg.__file__).resolve().parent.parent))
        argv = ["oracle-compare", "--trials", "1", "--out", str(fresh)]
        subprocess.run([sys.executable, "-m", "dubinsguard.cli", *argv], env=env, check=True)
        assert second.read_bytes() == fresh.read_bytes()
        assert first.read_bytes() != fresh.read_bytes()

    def test_sticky_does_not_carry_over(self, golden_path, monkeypatch):
        configs = []
        real_run = cli.run
        monkeypatch.setattr(cli, "run", lambda sc, cfg: configs.append(cfg) or real_run(sc, cfg))
        argv = ["run", "--scenario", golden_path, "--max-time", "0.01"]
        assert cli.main([*argv, "--sticky"]) == 2
        assert cli.main(argv) == 2
        assert [cfg.sticky for cfg in configs] == [True, False]

    def test_usage_errors_still_exit_two(self, golden_path, capsys):
        assert cli.main(["certify", "--scenario", golden_path, "--all"]) == 0
        both = ["certify", "--scenario", golden_path, "--pair", "1,1", "--all"]
        for argv in (both, ["oracle-compare"], ["no-such-command"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--max-time", "0.5", "--out"],
        ["run", "--max-time", "0.5", "--events-out"],
        ["sweep-regions", "--alpha-min", "1.1", "--alpha-max", "8", "--samples", "5", "--out"],
        ["oracle-compare", "--trials", "1", "--out"],
    ],
    ids=["run_out", "run_events_out", "sweep_regions", "oracle_compare"],
)
def test_unwritable_output_is_one_error_line(golden_path, tmp_path, capsys, monkeypatch, argv):
    played = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *args: played.append(args) or real_run(*args))
    if argv[0] == "run":
        argv = [argv[0], "--scenario", golden_path, *argv[1:]]
    target = tmp_path / "missing" / "out.csv"
    assert cli.main([*argv, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(target) in captured.err
    assert played == []  # a game is not played before the path is refused


def _count_opens(monkeypatch) -> dict[str, int]:
    """Count the opens of each path through ``open`` and ``io.open`` (the
    one ``pathlib`` uses) from here on."""
    import builtins
    import io

    counts: dict[str, int] = {}
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            key = os.fspath(file)
            counts[key] = counts.get(key, 0) + 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    return counts


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["run", "--max-time", "0.05", "--out", "{a}", "--events-out", "{b}"], ("a", "b")),
        (["oracle-compare", "--trials", "1", "--grid", "90", "--out", "{a}"], ("a",)),
    ],
    ids=["run", "oracle_compare"],
)
def test_each_output_file_is_opened_once(golden_path, tmp_path, monkeypatch, argv, outputs):
    paths = {name: str(tmp_path / f"{name}.out") for name in ("a", "b")}
    if argv[0] == "run":
        argv = [argv[0], "--scenario", golden_path, *argv[1:]]
    argv = [arg.format(**paths) for arg in argv]
    for name in outputs:
        Path(paths[name]).write_text("stale content that is longer than a short result\n" * 9999)
    counts = _count_opens(monkeypatch)
    assert cli.main(argv) in (0, 2)
    for name in outputs:
        assert counts[paths[name]] == 1
        text = Path(paths[name]).read_text()
        assert "stale" not in text and text.startswith(("t,agent", '{"t"', "trial,"))


def test_failed_run_keeps_existing_outputs(golden_path, tmp_path, capsys):
    # the game is refused before it has a result: the files stay as they were
    out, events = tmp_path / "traj.csv", tmp_path / "events.jsonl"
    out.write_text("old trajectory\n")
    events.write_text("old events\n")
    argv = ["run", "--scenario", golden_path, "--dt", "0.5", "--max-time", "1"]
    assert cli.main([*argv, "--out", str(out), "--events-out", str(events)]) == 1
    assert capsys.readouterr().err.startswith("error: dt=0.5")
    assert out.read_text() == "old trajectory\n"
    assert events.read_text() == "old events\n"


def test_a_device_output_is_written_without_truncation(capsys):
    # opening a device to write does not truncate it, and truncating one fails
    argv = ["oracle-compare", "--trials", "1", "--grid", "90", "--out", os.devnull]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("spelling", ["same", "hard_link"])
def test_one_file_for_both_run_outputs_is_refused(
    golden_path, tmp_path, capsys, monkeypatch, spelling
):
    # emptying the events file would erase the trajectory just written to it
    played = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *args: played.append(args) or real_run(*args))
    target = tmp_path / "both.out"
    target.write_text("old content\n")
    other = target
    if spelling == "hard_link":
        other = tmp_path / "link.out"
        os.link(target, other)
    argv = ["run", "--scenario", golden_path, "--max-time", "0.05"]
    assert cli.main([*argv, "--out", str(target), "--events-out", str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(target) in captured.err
    assert target.read_text() == "old content\n"
    assert played == []  # a game is not played before the outputs are refused


def test_both_run_outputs_may_share_a_device(golden_path, capsys):
    argv = ["run", "--scenario", golden_path, "--max-time", "0.05"]
    assert cli.main([*argv, "--out", os.devnull, "--events-out", os.devnull]) == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command", [["run", "--max-time", "1"], ["certify", "--all"]], ids=["run", "certify"]
)
def test_integer_beyond_float_range_is_one_error_line(golden_path, tmp_path, capsys, command):
    doc = json.loads(open(golden_path).read())
    doc["pursuers"][0]["speed"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command[0], "--scenario", str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pursuers[0]: key 'speed' is out of float range\n"
