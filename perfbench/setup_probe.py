"""Set-up probe: start, import the program, load or generate one workload's
scenario and warm its caches, then print the seconds since START.

``run.py`` starts this script to measure ``setup_s``, passing the system
monotonic clock read just before the start, so that the figure covers
interpreter start, imports and preparation but not interpreter shutdown:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR START
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[4])))
