"""Host-speed gauge: converts wall time to reference-speed time.

On a shared host the same single-threaded computation can run up to 2x
slower for tens of seconds at a time (another tenant busy on the sibling
hardware thread), which would swamp any change in the program. The gauge
times a fixed stdlib Fraction loop, the same kind of work the library
does, right before and right after every measured call, and scales the
call's wall time by REFERENCE_S / (mean of those two loop times). The
result is the call's time on a host where the loop takes REFERENCE_S;
wall times are kept too.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

REFERENCE_S = 0.006
WINDOW = 2


def calibration_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1) * 3
    return total


class Gauge:
    def __init__(self, clock=time.perf_counter, work=calibration_work):
        self.clock = clock
        self.work = work
        self.samples: deque[float] = deque(maxlen=WINDOW)

    def sample(self) -> None:
        start = self.clock()
        self.work()
        self.samples.append(self.clock() - start)

    def to_reference(self, wall_s: float) -> float:
        return wall_s * REFERENCE_S / statistics.median(self.samples)

    def to_wall(self, reference_s: float) -> float:
        return reference_s * statistics.median(self.samples) / REFERENCE_S
