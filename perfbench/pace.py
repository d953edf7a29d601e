"""Host-speed gauge: a fixed calibration loop timed between program steps.

A shared cloud host changes speed as other tenants come and go: on a
2-vCPU KVM guest of a Sapphire Rapids Xeon, a fixed loop ran up to 1.8x
slower from one second to the next, and whole runs drifted by a quarter
over tens of minutes.  While a timed call runs, a SIGALRM timer fires
every PERIOD seconds and the handler times ``calibration`` (fixed Python
and numpy work, after a warm-up pass so the program's cache footprint
does not count) in the same thread and on the same core as the program.
The handler only runs between bytecodes, so a long numpy call is never
cut, and it touches no program state.

A timed call's seconds are its wall time minus the time spent in the
gauge, scaled from the mean host speed the gauge saw to the reference
speed at which ``calibration`` takes REFERENCE_S.  Rates from them compare
across runs made at different host speeds; the benchmark keeps the raw
times next to them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.05
REFERENCE_S = 1.6e-4  # calibration() on an idle Sapphire Rapids core at 2.1 GHz

_ROWS = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
_SQUARE = np.linspace(1.0, 2.0, 64 * 64).reshape(64, 64)


def calibration() -> float:
    total = 0.0
    for i in range(48):
        total += float((_ROWS[i % 32] * 1.5).sum())
    return total + float((_SQUARE @ _SQUARE).sum())


class Pace:
    """Gauge the host while a block runs.

    Inside the block, ``call(fn)`` calls fn and returns its result with the
    seconds it ran, less any gauge ticks that fell inside it.  After the
    block, ``scale`` converts such seconds to the reference speed.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # seconds spent in the gauge itself

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibration()  # warm-up: reload the gauge's own data into cache
        t0 = time.perf_counter()
        calibration()
        end = time.perf_counter()
        self.samples.append(end - t0)
        self.spent += end - start

    def call(self, fn):
        spent, t0 = self.spent, time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0 - (self.spent - spent)

    def scale(self, seconds: float) -> float:
        """seconds at the host speed the gauge saw, converted to the
        reference speed; unchanged if the gauge never ticked."""
        if not self.samples:
            return seconds
        return seconds * REFERENCE_S * len(self.samples) / sum(self.samples)
