"""Steadiness check: run every workload several times in fresh processes,
each with its own seed, and print each end-to-end metric's median,
quartiles and relative spread (interquartile range over median) beside its
bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of a source checkout.  Raw results are written to
perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw: dict[str, list[dict]] = {}
    steady = True
    for name in names:
        results = raw[name] = []
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: {lines[-1]}", flush=True)

        print(f"\n{name}: {args.runs} runs")
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"  correct in every run: {correct}; failed shares: {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            steady &= spread <= bound
            print(
                f"  {metric:12s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                f"  spread {spread:7.2%}  bound {bound:.0%}  {verdict}"
            )
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(raw, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
