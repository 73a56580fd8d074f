"""Workload inputs and the units of work the benchmark times.

A workload is prepared once per process (``prepare``), then played in
rounds: each round runs every unit once, in order.  A unit is one call into
the program's public command line entry point, ``dubinsguard.cli.main``,
run in-process: one game (``run``) or one oracle trial (``oracle-compare``).

This module imports only the standard library, numpy and the program, so
that the set-up probe measures the program's set-up and little else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dubinsguard import GameParams, certificates, cli

# Reference parameters of the paper's experiment.
V_P = 0.3
ALPHA = 6.3
KAPPA = 0.0625
R = 0.1
DT = 1e-3

BUNDLED_5V5 = Path(cli.__file__).resolve().parent / "scenarios" / "5v5_paper.json"

TEAM_SIZE = 20
#: Horizontal spacing of the 20v20 lanes.  Separation needs a pursuer within
#: about 6.1 evader heights (under 2.8 here) of its evader, so no pair from
#: different lanes is ever certified and each lane is its own 1v1 game:
#: the game's length is then the slowest of 20 similar captures, which
#: varies little by seed.
LANE_SPACING = 4.0
#: Height of each 20v20 pursuer above its evader.  A fixed distance keeps the
#: 20 capture times, and so the share of steps each evader is active, alike
#: from seed to seed; a step's cost grows with the active evaders.
PURSUER_HEIGHT = 0.3
#: Oracle trials per round, the trials ``oracle-compare --trials 1 --seed S``
#: runs for S = 0 .. ORACLE_TRIALS - 1, the same in every run.  A trial's
#: cost depends on its sampled state (coefficient of variation 17 %), so
#: trials drawn by run seed would move a round's cost by about 5 % from seed
#: to seed; fixed trials leave only the host's noise.  Twelve trials keep a
#: round short, so that each trial is played a dozen times in a run.
ORACLE_TRIALS = 12

WORKLOADS = ("paper5v5_p1", "team20v20_p100", "oracle_xcheck")


@dataclass
class Unit:
    """One timed call of ``cli.main``; ``ops`` is the work it stands for."""

    argv: list[str]
    ops: int
    outputs: list[Path] = field(default_factory=list)

    def play(self) -> tuple[int, str]:
        """Run the command; returns its exit code and captured stdout.  An
        exception out of the program counts as exit code 1, with its
        traceback as the output."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(self.argv)
            except Exception:  # a program fault: report it as a failed op
                return 1, traceback.format_exc()
        return code, out.getvalue()

    def digest(self) -> str:
        """Hash of the output files (a missing file hashes as empty)."""
        h = hashlib.sha256()
        for path in self.outputs:
            h.update(path.read_bytes() if path.exists() else b"")
        return h.hexdigest()


@dataclass
class Prepared:
    """A workload ready to play: its units, and what the checks need (the
    scenario document of a game, the seed of each oracle trial)."""

    name: str
    units: list[Unit]
    scenario: dict | None = None
    trial_seeds: list[int] = field(default_factory=list)


def team_scenario(seed: int) -> dict:
    """Seeded 20v20 scenario at the paper's parameters.

    Evader k sits in lane k (x within 0.3 of k * LANE_SPACING, y in
    [0.25, 0.45]) and steers toward the goal at a random constant heading.
    Its pursuer sits PURSUER_HEIGHT above it and heads toward it within
    0.6 rad, so every pair starts separated but unaligned: the game opens on
    the two-step route and every evader is captured within about 0.8 s of
    game time.
    """
    rng = np.random.default_rng(seed)
    pursuers, evaders = [], []
    for k in range(TEAM_SIZE):
        ex = k * LANE_SPACING + rng.uniform(-0.3, 0.3)
        ey = rng.uniform(0.25, 0.45)
        px = ex
        py = ey + PURSUER_HEIGHT
        bearing = math.atan2(ey - py, ex - px)
        evaders.append(
            {"x": ex, "y": ey, "speed": V_P / ALPHA, "strategy": "random_goal"}
        )
        pursuers.append(
            {
                "x": px,
                "y": py,
                "theta": (bearing + rng.uniform(-0.6, 0.6)) % (2.0 * math.pi),
                "speed": V_P,
                "kappa": KAPPA,
                "capture_radius": R,
                "model": "dubins",
            }
        )
    return {
        "goal": cli.GOAL_NAME,
        "pursuers": pursuers,
        "evaders": evaders,
        "seed": int(rng.integers(2**31)),
    }


def _game_unit(scenario: Path, workdir: Path, period: int, max_time: float) -> Unit:
    csv = workdir / "traj.csv"
    events = workdir / "events.jsonl"
    argv = [
        "run",
        "--scenario", str(scenario),
        "--dt", repr(DT),
        "--max-time", repr(max_time),
        "--matching-period", str(period),
        "--out", str(csv),
        "--events-out", str(events),
    ]
    return Unit(argv=argv, ops=1, outputs=[csv, events])


def _warm_demand_cache(doc: dict):
    """Fill ``curvature_demand``'s per-alpha memo, as the first game in a
    process would."""
    for p in doc["pursuers"]:
        for e in doc["evaders"]:
            certificates.curvature_demand(p["speed"] / e["speed"])


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    """Load or generate the workload's inputs and warm the program's caches.

    The op count of a game is found by the output checks (the number of
    simulator steps), so game units start with ``ops=1``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("paper5v5_p1", "team20v20_p100"):
        if name == "paper5v5_p1":
            path, period, max_time = BUNDLED_5V5, 1, 8.0
        else:
            path, period, max_time = workdir / "team20v20.json", 100, 20.0
            path.write_text(json.dumps(team_scenario(seed)))
        doc = cli.scenario_to_doc(cli.load_scenario(path))
        _warm_demand_cache(doc)
        return Prepared(name, [_game_unit(path, workdir, period, max_time)], scenario=doc)
    if name == "oracle_xcheck":
        trial_seeds = list(range(ORACLE_TRIALS))
        units = []
        for k, s in enumerate(trial_seeds):
            out = workdir / f"oracle_{k}.csv"
            argv = ["oracle-compare", "--trials", "1", "--seed", str(s), "--out", str(out)]
            units.append(Unit(argv=argv, ops=1, outputs=[out]))
        return Prepared(name, units, trial_seeds=trial_seeds)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def oracle_trial_state(trial_seed: int):
    """The state and parameters ``oracle-compare --trials 1 --seed S``
    draws for its one trial."""
    p = GameParams.from_alpha(v_p=V_P, alpha=ALPHA, kappa=KAPPA, r=R)
    return certificates.sample_adjust_feasible_state(np.random.default_rng(trial_seed), p), p
