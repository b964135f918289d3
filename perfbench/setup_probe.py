"""Time one fresh-process set-up: import the library (CLI included) and
build a workload's inputs.  Prints the seconds taken and the median of five
runs of the calibration routine made right after.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import motif_poisson  # noqa: E402,F401
import motif_poisson.cli  # noqa: E402,F401

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
took = time.perf_counter() - start

from calibration import calibration_seconds  # noqa: E402

calibration_seconds()  # first run pays one-off costs
print(took, sorted(calibration_seconds() for _ in range(5))[2])
