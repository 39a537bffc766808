"""Time one fresh process's set-up: import divlab and build a workload.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED
Prints the seconds from before the import to the built workload, which is
the moment before its first trial, and then the median time of the gauge's
reference kernel (see gauge.py) run in this process straight afterwards.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
SETUP_S = time.perf_counter() - T0

import statistics  # noqa: E402

from gauge import kernel_s  # noqa: E402

kernel_s()  # the first run pays for numpy's lazy set-up
print(repr(SETUP_S), repr(statistics.median(kernel_s() for _ in range(3))))
