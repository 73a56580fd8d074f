"""Command-line surface: scenario I/O, game runs, certification tables,
parameter-region sweeps and oracle cross-checks.

Scenario files are JSON with a fixed schema; trajectory output is CSV (one
row per agent per step, 9 significant digits) and events are JSON lines.
Every command that reads a scenario refuses a malformed or inadmissible one
(``model.Scenario``'s rules) with one ``error:`` line.
Exit codes: 0 clean, 1 input error or a violating ``oracle-compare`` trial,
2 time horizon exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import certificates as certs
from .model import (
    EvaderSpec,
    EvaderState,
    GameParams,
    JointState,
    PursuerSpec,
    PursuerState,
    Scenario,
)
from .numerics import Polynomial, real_roots
from .sim import SimConfig, run

GOAL_NAME = "half_plane_y_leq_0"

class ScenarioFormatError(ValueError):
    pass


def _number(entry: dict, key: str) -> float:
    if key not in entry:
        raise ValueError(f"missing required key {key!r}")
    value = entry[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"key {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest float
        raise ValueError(f"key {key!r} is out of float range") from None


def _pursuer(entry: dict) -> PursuerSpec:
    return PursuerSpec(
        state=PursuerState(
            pos=(_number(entry, "x"), _number(entry, "y")),
            theta=_number(entry, "theta"),
        ),
        motion=entry.get("model", "dubins"),
        v=_number(entry, "speed"),
        kappa=_number(entry, "kappa"),
        r=_number(entry, "capture_radius"),
    )


def _evader(entry: dict) -> EvaderSpec:
    return EvaderSpec(
        state=EvaderState(pos=(_number(entry, "x"), _number(entry, "y"))),
        v=_number(entry, "speed"),
        strategy=entry.get("strategy", "random_goal"),
        heading=_number(entry, "heading") if "heading" in entry else None,
    )


#: Per team: its allowed entry keys and the builder of one entry's spec.
_TEAMS = {
    "pursuers": ({"x", "y", "theta", "speed", "kappa", "capture_radius", "model"}, _pursuer),
    "evaders": ({"x", "y", "speed", "strategy", "heading"}, _evader),
}


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, rejecting unknown keys
    and reporting the offending entry as ``pursuers[i]``/``evaders[j]``.

    This checks the document's shape only: its keys and that every number
    is one.  ``Scenario`` checks every value, motion kind, strategy and
    heading included, and refuses an inadmissible game with one
    ``ValueError`` (``invalid scenario: ...``) that names every violation.
    """
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level must be an object")
    unknown = set(doc) - {"goal", "seed", *_TEAMS}
    if unknown:
        raise ScenarioFormatError(f"unknown top-level keys: {sorted(unknown)}")
    if doc.get("goal") != GOAL_NAME:
        raise ScenarioFormatError(f"goal: expected {GOAL_NAME!r}, got {doc.get('goal')!r}")

    teams = {}
    for team, (keys, build) in _TEAMS.items():
        entries = doc.get(team, [])
        if not isinstance(entries, list):
            raise ScenarioFormatError(f"{team}: expected a list")
        teams[team] = []
        for idx, entry in enumerate(entries):
            try:
                if not isinstance(entry, dict):
                    raise ValueError("expected an object")
                unknown = set(entry) - keys
                if unknown:
                    raise ValueError(f"unknown keys {sorted(unknown)}")
                teams[team].append(build(entry))
            except ValueError as exc:
                raise ScenarioFormatError(f"{team}[{idx}]: {exc}") from exc
    return Scenario(**teams, seed=doc.get("seed", 0))


def scenario_to_doc(sc: Scenario) -> dict:
    """Serialize a Scenario to its canonical JSON document (fixed key
    order, shortest round-trip floats)."""
    doc = {"goal": GOAL_NAME, "pursuers": [], "evaders": [], "seed": sc.seed}
    for spec in sc.pursuers:
        doc["pursuers"].append(
            {
                "x": spec.state.pos[0],
                "y": spec.state.pos[1],
                "theta": spec.state.theta,
                "speed": spec.v,
                "kappa": spec.kappa,
                "capture_radius": spec.r,
                "model": spec.motion,
            }
        )
    for spec in sc.evaders:
        entry = {
            "x": spec.state.pos[0],
            "y": spec.state.pos[1],
            "speed": spec.v,
            "strategy": spec.strategy,
        }
        if spec.heading is not None:
            entry["heading"] = spec.heading
        doc["evaders"].append(entry)
    return doc


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(doc)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _rows(t: str, labels: list[str], step: tuple, cell) -> str:
    """One step's trajectory rows, one ``%`` template each; ``cell(v,
    ".9g")`` formats x, y, theta and u, the last two when present."""
    return "".join([
        "%s,%s,%s,%s,%s,%s,%s,%s\n" % (
            t,
            label,
            cell(x, ".9g"),
            cell(y, ".9g"),
            "" if theta is None else cell(theta, ".9g"),
            "" if u is None else cell(u, ".9g"),
            status,
            "" if target is None else "E%d" % (target + 1),
        )
        for label, (_, x, y, theta, u, _mode, status, target) in zip(labels, step)
    ])


def write_trajectory_csv(result, fh):
    """CSV rows to the open file ``fh`` in step order, each step's evaders
    then pursuers by numeric index (E2 before E10); floats at 9 significant
    digits; theta and target are empty for evaders.  Series of unequal
    length raise ``ValueError``.  A step's rows share one ``t``
    (``SimResult``), formatted once, and go out in one write.  Cells are
    formatted by ``float.__format__``, which refuses anything but a float,
    so a step with any other cell is formatted by ``_fmt`` instead."""
    agents = sorted(result.trajectories, key=lambda name: (name[0] == "P", int(name[1:])))
    labels = [f"{agent},{'pursuer' if agent[0] == 'P' else 'evader'}" for agent in agents]
    fh.write("t,agent,kind,x,y,theta,u,status,target\n")
    for step in zip(*(result.trajectories[agent] for agent in agents), strict=True):
        t = _fmt(step[0][0])
        try:
            rows = _rows(t, labels, step, float.__format__)
        except TypeError:
            rows = _rows(t, labels, step, lambda value, _spec: _fmt(value))
        fh.write(rows)


def write_events(result, fh):
    for event in result.events:
        record = {
            "t": event.t,
            "kind": event.kind,
            "pursuer": None if event.pursuer is None else f"P{event.pursuer + 1}",
            "evader": None if event.evader is None else f"E{event.evader + 1}",
        }
        if event.detail:
            record["detail"] = [[f"P{i + 1}", f"E{j + 1}"] for i, j in event.detail]
        fh.write(json.dumps(record) + "\n")


def _open_output(path):
    """``path`` opened before any work, so that a bad one fails at once, and
    to append, so that a file keeps its content until ``_emptied``; a null
    context for no path."""
    return open(path, "a") if path else contextlib.nullcontext()


def _emptied(fh):
    """``fh`` emptied as opening it to write would: a regular file is
    truncated (appending then writes from its start), a device is not."""
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        fh.truncate(0)
    return fh


def cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    cfg = SimConfig(
        dt=args.dt,
        max_time=args.max_time,
        matching_period=args.matching_period,
        sticky=args.sticky,
    )
    with _open_output(args.out) as out, _open_output(args.events_out) as events:
        # emptying one regular file for both would erase the first output
        stats = [os.fstat(fh.fileno()) for fh in (out, events) if fh is not None]
        if len(stats) == 2 and stat.S_ISREG(stats[0].st_mode) and os.path.samestat(*stats):
            raise ValueError(f"--out and --events-out are the same file: {args.out}")
        result = run(sc, cfg)
        for fh, write in ((out, write_trajectory_csv), (events, write_events)):
            if fh is not None:
                write(result, _emptied(fh))
                fh.flush()  # complete before the next file, were it the same device
    captures = sum(1 for e in result.events if e.kind == "capture")
    arrivals = sum(1 for e in result.events if e.kind == "goal_arrival")
    print(f"captures={captures} goal_arrivals={arrivals} horizon_exceeded={result.horizon_exceeded}")
    return 2 if result.horizon_exceeded else 0


def _certificate_line(i: int, j: int, sc: Scenario) -> str:
    p = sc.pair_params(i, j)
    state = JointState(pursuer=sc.pursuers[i].state, evader=sc.evaders[j].state)
    cert = certs.certify_win(state, p)
    ev = cert.evidence
    region = certs.classify_region(p.r, p.kappa, p.alpha)
    parts = [
        f"P{i + 1}-E{j + 1}",
        f"kind={cert.kind.value}",
        f"sc={ev.sc}",
        f"io={ev.io}",
        f"h_alpha={_fmt(region.curvature_demand)}",
    ]
    if ev.adjust_duration is not None:
        parts.append(f"delta={_fmt(ev.adjust_duration)}")
    if ev.clearance is not None:
        parts.append(f"clearance={_fmt(ev.clearance)}")
    parts.append(f"region={region.label.value}")
    return " ".join(parts)


def cmd_certify(args) -> int:
    sc = load_scenario(args.scenario)
    if args.all:
        pairs = [(i, j) for i in range(len(sc.pursuers)) for j in range(len(sc.evaders))]
    else:
        try:
            i_str, j_str = args.pair.split(",")
            pair = (int(i_str) - 1, int(j_str) - 1)
        except ValueError:
            raise ValueError("--pair expects I,J (1-indexed)") from None
        if not (0 <= pair[0] < len(sc.pursuers)) or not (0 <= pair[1] < len(sc.evaders)):
            raise ValueError(f"pair {args.pair} out of range")
        pairs = [pair]
    for i, j in pairs:
        print(_certificate_line(i, j, sc))
    return 0


def crossing_alpha() -> float:
    """Speed ratio at which the closed-form demand bound and the
    heading-adjust ratio cross: the positive root of a^3 - a^2 - 1."""
    cubic = Polynomial((-1.0, 0.0, -1.0, 1.0))
    roots = real_roots(cubic, 1.0, 2.0, tol=1e-12)
    return roots[0]


def cmd_sweep_regions(args) -> int:
    if not (1.0 < args.alpha_min < args.alpha_max < math.inf) or args.samples < 2:
        raise ValueError("need 1 < alpha-min < alpha-max < inf and samples >= 2")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.samples)
    alpha0 = crossing_alpha()
    with open(args.out, "w") as fh:
        fh.write(f"# alpha0={alpha0:.9g}\n")
        fh.write("alpha,h_alpha,h_bar,eq15_rhs\n")
        for alpha in alphas:
            alpha = float(alpha)
            fh.write(
                f"{alpha:.9g},{certs.curvature_demand(alpha):.9g},"
                f"{certs.curvature_demand_bound(alpha):.9g},"
                f"{certs.heading_adjust_ratio(alpha):.9g}\n"
            )
    print(f"wrote {args.samples} rows to {args.out} (alpha0={alpha0:.9g})")
    return 0


def cmd_oracle_compare(args) -> int:
    if args.trials < 1 or args.grid < 1:
        raise ValueError("trials and grid must be >= 1")
    with _open_output(args.out) as fh:
        p = GameParams.from_alpha(v_p=0.3, alpha=6.3, kappa=0.0625, r=0.1)
        rng = np.random.default_rng(args.seed)
        violations = 0
        lines = ["trial,clearance_closed,oracle_relaxed,oracle_rollout,abs_err,ok"]
        for trial in range(args.trials):
            state = certs.sample_adjust_feasible_state(rng, p)
            try:
                closed = certs.solve_relaxed_clearance(state, p).clearance
            except certs.KKTReconstructionError:
                # a solver failure is a violation row, not a crash
                closed = math.nan
            relaxed = certs.relaxed_clearance_oracle(state, p)
            rollout = certs.rollout_clearance_oracle(state, p, grid=args.grid)
            err = abs(closed - relaxed)
            # the relaxed oracle is a proven lower bound on the minimum the
            # closed form stands for
            ok = relaxed <= closed <= relaxed + 1e-9 * (1.0 + abs(relaxed)) and closed <= rollout + 1e-3
            if not ok:
                violations += 1
            values = ",".join(repr(float(v)) for v in (closed, relaxed, rollout, err))
            lines.append(f"{trial},{values},{int(ok)}")
        if fh is not None:
            _emptied(fh).write("\n".join(lines) + "\n")
    print(f"trials={args.trials} violations={violations}")
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dubinsguard",
        description="Guaranteed-winning pursuit against goal-seeking evaders "
        "above a guarded half-plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--dt", type=float, default=1e-3)
    p_run.add_argument("--max-time", type=float, default=20.0)
    p_run.add_argument("--matching-period", type=int, default=1)
    p_run.add_argument("--sticky", action="store_true")
    p_run.add_argument("--out", default=None, help="trajectory CSV path")
    p_run.add_argument("--events-out", default=None, help="events JSONL path")
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="print per-pair winning certificates")
    p_cert.add_argument("--scenario", required=True)
    group = p_cert.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", help="1-indexed pursuer,evader, e.g. 1,4")
    group.add_argument("--all", action="store_true")
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser(
        "sweep-regions", help="tabulate the three parameter curves over alpha"
    )
    p_sweep.add_argument("--alpha-min", type=float, required=True)
    p_sweep.add_argument("--alpha-max", type=float, required=True)
    p_sweep.add_argument("--samples", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep_regions)

    p_oracle = sub.add_parser(
        "oracle-compare",
        help="cross-check the closed-form clearance bound against both oracles",
    )
    p_oracle.add_argument("--trials", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument(
        "--grid", type=int, default=360, help="evader headings of the rollout oracle"
    )
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle_compare)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command; an input or output error (``ValueError`` or
    ``OSError``) is one ``error:`` line on stderr and exit code 1.

    Every call parses with one parser, built on the first call: parsing
    leaves it unchanged, but each subcommand's handler (``cmd_*``) is bound
    then, so rebinding a ``cmd_*`` name later does not reach ``main``."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
