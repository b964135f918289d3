"""Machine-speed calibration for timings on a shared host.

On a shared machine the speed of the same code drifts by tens of percent
over tens of seconds as neighbours come and go, which no run length
averages away.  The benchmark therefore brackets every timed call with a
fixed routine that exercises what the library exercises (NumPy draws over
a few hundred thousand elements, a Python loop over big-integer bitsets,
Python float maths and dict updates) and never touches the library.  A
call's time is rescaled by ``REFERENCE_S / (routine time around it)``, i.e.
reported in seconds at the speed where the routine takes ``REFERENCE_S``;
a drift that slows both by the same factor cancels.  Raw wall times are
reported next to the scaled ones.
"""

import math
import time

import numpy as np

#: The routine's time on a quiet 2-core x86-64 VM, Python 3.11.7, NumPy 2.4.
REFERENCE_S = 0.02


def _routine() -> int:
    rng = np.random.Generator(np.random.Philox(key=7))
    coins = rng.random(100_000) < 0.02
    weights = rng.random(100_000) * coins
    bits = int.from_bytes(np.packbits(coins).tobytes(), "little")
    found = 0
    while bits:
        low = bits & -bits
        bits ^= low
        found += low.bit_length()
    tally: dict[int, float] = {}
    for k in range(5000):
        tally[k % 61] = tally.get(k % 61, 0.0) + math.exp(-k * 1e-3) * math.lgamma(k + 1.5)
    return found + int(weights.sum()) + len(tally)


def calibration_seconds() -> float:
    """Wall time of one run of the calibration routine."""
    start = time.perf_counter()
    _routine()
    return time.perf_counter() - start
