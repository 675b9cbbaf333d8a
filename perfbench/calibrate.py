"""A fixed pure-Python work mix that measures how fast this process runs now.

The benchmark's host shares its CPUs: the same call can take 1.5x longer
a few seconds later, and a second vCPU does not slow down with the first.
So every timed sample is sandwiched between two runs of ``calibrate()`` on
the same CPU (in the same process, or for a CLI child in the pinned process
that starts it), and its time is reported as

    seconds * CAL_REF_S / mean(calibration before, calibration after)

that is, in seconds on a machine where the mix takes CAL_REF_S (its median
on a 2-vCPU Intel Xeon KVM guest, CPython 3.11). The mix does not import the
program, so no change to the program can move it: small-integer loop
arithmetic, 61-bit modular multiplication, and allocation, hashing,
sorting and JSON round trips of small lists.
"""

import json
import random
import time

CAL_REF_S = 0.09


def _int_loop() -> int:
    total = 0
    for i in range(200000):
        total += i * i % 7
    return total


def _modmul_loop() -> int:
    p = 2**61 - 1
    x, y = 123456789123, 987654321987
    for i in range(100000):
        x = (x * y + i) % p
    return x


def _alloc_mix() -> int:
    rng = random.Random(0)
    rows = [[rng.randrange(1 << 40) for _ in range(8)] for _ in range(3000)]
    index = {tuple(row): i for i, row in enumerate(rows)}
    return len(json.loads(json.dumps(rows))) + len(sorted(index))


def calibrate() -> float:
    """Wall seconds of one run of the mix."""
    start = time.perf_counter()
    _int_loop()
    _modmul_loop()
    _alloc_mix()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the calibrations around it."""
    return seconds * CAL_REF_S * 2.0 / (before + after)
