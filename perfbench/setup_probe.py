"""Time import, config and map loading in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
(with the repository's src/ on PYTHONPATH). Prints the elapsed seconds and
the calibration loop's seconds, measured just before and after, averaged.
"""

import sys
import time

from run import calibrate
from workloads import make_config

before = calibrate()
start = time.perf_counter()
from swarmpatrol import harness  # noqa: E402  (the import is what is timed)

harness.load_map(make_config(sys.argv[1], int(sys.argv[2])))
elapsed = time.perf_counter() - start
print(repr(elapsed), repr((before + calibrate()) / 2))
