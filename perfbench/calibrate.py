"""Samples the speed of the CPU the benchmark's operations run on.

    python3 calibrate.py SAMPLES   # runs until killed

The shared host's speed drifts by tens of percent over minutes.  This process
pins itself to the CPU the pass processes use (see child.py) and, every
PERIOD_S, times a fixed pure-Python loop shaped like the kg RK4 step in CPU
seconds, appending each time to SAMPLES as one line.  It takes about 2% of
that CPU.  run.py scales cpu_s by the run's median sample.
"""

from __future__ import annotations

import os
import sys
import time

LOOPS = 25_000
PERIOD_S = 0.5


def loop_time() -> float:
    c = time.process_time()
    a, b, w, h = 0.0, 1.0, -1.0, 1.0e-3
    for _ in range(LOOPS):
        a1, b1 = b, w * a
        a2, b2 = b + 0.5 * h * b1, w * (a + 0.5 * h * a1)
        a, b = a + h * (a1 + 2.0 * a2) / 3.0, b + h * (b1 + 2.0 * b2) / 3.0
    return time.process_time() - c


def main(path: str) -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(path, "a") as out:
        while True:
            out.write(f"{loop_time()!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
