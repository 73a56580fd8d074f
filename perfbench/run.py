"""dubinsguard benchmark: end-to-end and per-layer figures for three
workloads, with output checks made apart from the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``ops_per_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from a
traced run (see ``spans.py``).  See README.md for the workloads and for how
each figure is measured.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from spans import LAYER_METRICS, Tracer, layer_metrics, patched, write_spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up is measured this many times per run, in fresh processes started
#: after each of the first rounds, so that its median spans much of the run.
SETUP_PROBES = 11
#: Plays of a unit whose fastest time each chunk's figure expects.  It is
#: the same on every commit, so the figure does not fall as a faster
#: program fits more rounds into a run; every run times at least this many.
MIN_OF = 3
#: Shortest chunk, in seconds of a unit's first timed play.
CHUNK_S = 0.02
#: Calls of ``reference_kernel`` timed before each timed round.
KERNEL_CALLS = 4
#: Expected fastest time of one ``reference_kernel`` call at the host's fast
#: rate (2-vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6): the speed
#: ``ops_per_s`` is scaled to.
KERNEL_REFERENCE_S = 0.023
#: Two-step edges per game whose clearance is checked by grid search.
CLEARANCE_SAMPLES = 3


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall time from starting a fresh process until it has imported the
    program, loaded or generated the scenario and warmed its caches."""
    start = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir), start],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return float(proc.stdout.split()[-1])


def check_pass(prep, rng) -> tuple[list[str], list[int]]:
    """Play one round with recorders on the matching layer and check every
    output.  Fills in each game unit's op count (its simulator steps).
    Returns the failed checks and the units whose play failed."""
    import workloads

    errors: list[str] = []
    failed_units: list[int] = []
    # Closed-form clearances to cross-check by grid search, as
    # (state, parameters, clearance).
    clearances = []

    def recorder(name, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            if name == "matching.build_graph":
                pair_states, pair_params = args[0], args[1]
                errors.extend(checks.check_separation(pair_states, pair_params, out.edges))
                for key, cert in out.edges.items():
                    if cert.kind.value != "two_step":
                        continue
                    if cert.evidence.clearance < 0.0:
                        errors.append(f"two-step edge {key} with clearance {cert.evidence.clearance:.9g}")
                    clearances.append((pair_states[key], pair_params[key], cert.evidence.clearance))
            else:
                errors.extend(checks.check_matching(args[0].edges, out, args[0].n_pursuers))
            return out

        return recorded

    for k, unit in enumerate(prep.units):
        with patched([("matching", "build_graph"), ("matching", "max_matching")], recorder):
            code, stdout = unit.play()
        if code != 0:
            errors.append(f"{unit.argv[0]} exited {code}: {stdout.strip()}")
            failed_units.append(k)
            continue
        if prep.scenario is not None:
            csv_path, events_path = unit.outputs
            cols = checks.read_trajectory(csv_path)
            events = checks.read_events(events_path)
            errors.extend(checks.check_game(prep.scenario, cols, events, workloads.DT))
            unit.ops = len(cols["P1"]["t"]) - 1
            if prep.name == "paper5v5_p1":
                kinds = [e["kind"] for e in events]
                captures, arrivals = kinds.count("capture"), kinds.count("goal_arrival")
                if (captures, arrivals) != (5, 0):
                    errors.append(f"paper outcome is 5 captures, 0 arrivals; got {captures}, {arrivals}")
        else:
            row = checks.read_oracle_row(unit.outputs[0])
            errors.extend(checks.check_oracle_row(row))
            state, params = workloads.oracle_trial_state(prep.trial_seeds[k])
            clearances.append((state, params, float(row["clearance_closed"])))

    if not clearances:
        return errors + ["no two-step clearance to check"], failed_units
    picks = rng.choice(len(clearances), size=min(CLEARANCE_SAMPLES, len(clearances)), replace=False)
    for pick in sorted(picks):
        state, params, closed = clearances[pick]
        x_p, x_e = state.pursuer.pos, state.evader.pos
        center = checks.turn_center(x_p[0], x_p[1], state.pursuer.theta, x_e[0], x_e[1], params.alpha, params.kappa)
        brute = checks.relaxed_clearance_grid(center, (x_e[0], x_e[1]), params.alpha, params.kappa)
        errors.extend(checks.check_clearance(closed, brute))
    return errors, failed_units


class StepClock:
    """Timestamps each call the simulator makes to ``step_pursuer`` and
    ``step_evader``, the model's public step functions (one call per agent
    per step).  The intervals between ticks split a game into chunks that
    do the same work in every play of it.  It is the only hook in an
    untraced run: one clock read per tick.  Oracle trials are not ticked:
    each trial is its own chunk."""

    TARGETS = (("model", "step_pursuer"), ("model", "step_evader"))

    def __init__(self):
        self.ticks: list[float] = []

    def wrap(self, name, fn):
        ticks, clock = self.ticks, time.perf_counter

        def ticked(*args, **kwargs):
            ticks.append(clock())
            return fn(*args, **kwargs)

        return ticked


def expected_min(x: np.ndarray, k: int) -> np.ndarray:
    """Per column of ``x`` (one row per play), the expected minimum of
    ``k`` rows drawn at random without replacement.  Its expectation does
    not depend on how many rows there are, unlike the plain minimum."""
    n = len(x)
    weights = np.array([math.comb(n - 1 - i, k - 1) for i in range(n)], dtype=float) / math.comb(n, k)
    return weights @ np.sort(x, axis=0)


class Timings:
    """Per unit: the wall time and the chunk times of every play.

    Chunks are the intervals between the ticks of the step clock, merged
    so that each lasts at least CHUNK_S in the unit's first play: the figure
    then does not depend on how often the program ticks, as long as it
    ticks at least that often.
    """

    def __init__(self, n_units: int):
        self.totals: list[list[float]] = [[] for _ in range(n_units)]
        self.chunks: list[list[np.ndarray]] = [[] for _ in range(n_units)]
        self.cuts: list = [None] * n_units

    def add(self, k: int, edges: list[float]) -> bool:
        """Record one play; False (and nothing recorded) when its ticks do
        not line up with earlier plays of the same call."""
        edges = np.asarray(edges)
        if self.cuts[k] is None:
            cuts, last = [0], edges[0]
            for i in range(1, len(edges) - 1):
                if edges[i] - last >= CHUNK_S:
                    cuts.append(i)
                    last = edges[i]
            cuts.append(len(edges) - 1)
            self.cuts[k] = (len(edges), np.array(cuts))
        n_edges, cuts = self.cuts[k]
        if len(edges) != n_edges:
            return False
        self.totals[k].append(edges[-1] - edges[0])
        self.chunks[k].append(np.diff(edges[cuts]))
        return True

    def round_time(self) -> float:
        """Median over rounds of a whole round's wall time."""
        return statistics.median(map(sum, zip(*self.totals)))

    def floor_time(self) -> float:
        """Time of one round, each chunk taken at the expected fastest of
        MIN_OF plays.

        This host's speed switches between a fast rate and one up to two
        times slower, in stretches of seconds to minutes (see README.md), so
        whole-game times do not repeat from run to run.  The fastest of a
        few plays of each short chunk repeats better, and a change in the
        work the program does shows in it.
        """
        return sum(float(expected_min(np.array(c), min(MIN_OF, len(c))).sum()) for c in self.chunks if c)


def reference_kernel() -> float:
    """Fixed work of the kinds the program does (scalar float math, dict
    traffic, numpy calls on small arrays), about 23 ms at the host's fast
    rate.  It is the benchmark's own code, so it runs the same on every
    commit and its time measures only the host's current speed."""
    acc = 0.0
    table = {}
    v = np.linspace(0.0, 1.0, 360)
    for i in range(3000):
        x = math.sin(i * 0.01) * 0.5
        acc += math.hypot(x, math.cos(i * 0.02))
        table[i & 31] = acc
        acc += float(np.min(np.hypot(v - x, v * x)))
    return acc


def time_kernel(kernel: Timings):
    """Time KERNEL_CALLS calls of the reference kernel as one play."""
    edges = [time.perf_counter()]
    for _ in range(KERNEL_CALLS):
        reference_kernel()
        edges.append(time.perf_counter())
    kernel.add(0, edges)


def play_round(prep, digests, timings: Timings, failed_units, clock: StepClock):
    """Play every unit once and record its ticks: the start of the call,
    every tick of ``clock`` and the end of the call.  Outputs are compared
    with the checked round outside the timed region."""
    for k, unit in enumerate(prep.units):
        clock.ticks.clear()
        t0 = time.perf_counter()
        code, _ = unit.play()
        t1 = time.perf_counter()
        recorded = timings.add(k, [t0, *clock.ticks, t1])
        if code != 0 or not recorded or unit.digest() != digests[k]:
            failed_units.append(k)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dubinsguard" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}/dubinsguard", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = []
        tracer = Tracer()
        if args.trace:
            with tracer.tracing():
                prep = workloads.prepare(args.workload, args.seed, workdir)
            setup_spans, tracer.spans = tracer.spans, []
        else:
            prep = workloads.prepare(args.workload, args.seed, workdir)

        errors, failed_units = check_pass(prep, np.random.default_rng(args.seed))
        digests = [unit.digest() for unit in prep.units]
        ops = sum(unit.ops for unit in prep.units)

        plain = Timings(len(prep.units))
        traced = Timings(len(prep.units))
        kernel = Timings(1)
        round_layers = []
        traced_spans = []
        clock = StepClock()
        rounds = 1  # the checked round
        played = 0.0  # seconds spent in rounds; set-up probes do not count
        while rounds <= MIN_OF * (1 + args.trace) or played < args.seconds:
            t0 = time.perf_counter()
            if args.trace and len(traced.totals[0]) < len(plain.totals[0]):
                tracer.spans = []
                tracer.new_game()
                with tracer.tracing():
                    play_round(prep, digests, traced, failed_units, StepClock())
                round_layers.append(layer_metrics(tracer.spans))
                traced_spans.append(tracer.spans)
            else:
                time_kernel(kernel)
                with patched(StepClock.TARGETS, clock.wrap):
                    play_round(prep, digests, plain, failed_units, clock)
            played += time.perf_counter() - t0
            rounds += 1
            if not args.trace and len(setup_times) < SETUP_PROBES:
                setup_times.append(measure_setup(args.workload, args.seed, workdir / "probe"))
        while not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup(args.workload, args.seed, workdir / "probe"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = sum(prep.units[k].ops for k in failed_units)
        if failed_units:
            errors.append(f"{len(failed_units)} plays failed or differed from the checked round")

        if args.trace:
            write_spans(OUT / f"spans_{args.workload}_{args.seed}.npz", [setup_spans, *traced_spans])
            values = {name: statistics.median(r[name] for r in round_layers) for name in round_layers[0]}
            setup = layer_metrics(setup_spans)
            for name in ("numerics.max_on_circle.calls", "cli.load_scenario.self_s"):
                values[name] = setup[name]
            values["sim.steps"] = float(ops if prep.scenario is not None else 0)
            values["trace.overhead_s"] = traced.round_time() - plain.round_time()
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        else:
            host_slowdown = kernel.floor_time() / (KERNEL_CALLS * KERNEL_REFERENCE_S)
            print(
                f"unscaled ops_per_s {ops / plain.floor_time():.6g}; host slowdown {host_slowdown:.4f}",
                file=sys.stderr,
            )
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "ops_per_s": {"value": ops / plain.floor_time() * host_slowdown, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        for message in errors[:20]:
            print(f"check failed: {message}", file=sys.stderr)
        result = {"correct": not errors, "attempted": rounds * ops, "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
