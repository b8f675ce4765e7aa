"""Times at a fixed reference speed of the machine.

The machine this benchmark was written on changes speed by up to 2x within
seconds to minutes; a fixed pure-Python kernel took 13 ms in one 4-second
window and 26 ms in the next, with no other process of ours running.  Run
medians then spread by 20-30% between runs, more than any bound a
regression check can use.

`SpeedProbe` measures the current speed from inside the process: while it
is active, an interval timer (SIGALRM every 5 ms) runs a fixed kernel of
Fraction comparisons, dictionary stores and a sort, the operations the
library's hot paths are made of, and records how long it took.  A measured
time is then reported at the reference speed, the speed at which the kernel
takes REFERENCE_S:

    time at reference speed = (elapsed - probe time) * REFERENCE_S / median(kernel times in the window)

The window is the kernel samples taken during the measured interval, or
a longer one given by the caller when the interval holds too few samples.
On an 80-second test the spread of 8-second windows fell from 0.23 raw to
0.075 at reference speed.  The kernel and REFERENCE_S are part of the
benchmark's definition: changing either changes every reported time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.005
REFERENCE_S = 100e-6
MIN_SAMPLES = 20
_KERNEL_INPUT = [Fraction(i * 7919 % 257, 8) for i in range(24)]


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the kernel itself took, to subtract

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        data = _KERNEL_INPUT
        _ = {i: x < data[i - 1] for i, x in enumerate(data)}
        _ = sorted(data)
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def elapsed(self, mark: tuple[float, float, int]) -> tuple[float, int, int]:
        """(seconds since mark without the kernel's own time, first sample, end sample)."""
        started, spent, first = mark
        return time.perf_counter() - started - (self.spent - spent), first, len(self.samples)

    def at_reference(self, seconds: float, first: int, end: int, fallback_first: int = 0) -> float:
        """`seconds` measured over samples [first, end), at reference speed;
        a window with fewer than MIN_SAMPLES samples widens to [fallback_first, end)."""
        window = self.samples[first:end]
        if len(window) < MIN_SAMPLES:
            window = self.samples[fallback_first:end] or self.samples
        return seconds * REFERENCE_S / statistics.median(window)
