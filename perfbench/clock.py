"""Wall-clock and reference-speed timing of the benchmark's timed steps.

The speed of a shared host swings by up to three times within seconds, as
other tenants load it. So a short calibration task runs before and after
each timed step (an import or one invocation) and every SAMPLE_PERIOD_S
during it, outside the timer, and the step's time is scaled by
CAL_REFERENCE_S over the mean of those calibration times. A reference-speed
time is what the step would take on a host that runs the calibration task
in exactly CAL_REFERENCE_S; the end-to-end metrics use it.

This module imports only modules the interpreter has loaded before it runs
a script (`_signal` is the C module behind `signal`), because the timed
`import cdslab.cli` runs after it and must pay for every module cdslab needs.
"""

import _signal
from time import perf_counter

CAL_REFERENCE_S = 1e-3
SAMPLE_PERIOD_S = 0.05


def calibrate() -> float:
    """Seconds this host now takes for a fixed pure-Python task on ints and
    tuples: a sum of fractions with its whole part, bit operations on wide
    ints and tuple slicing, the kinds of work cdslab does. About 1 ms on an
    idle core of a 2-core x86 VM."""
    start = perf_counter()
    num, den = 0, 1
    for i in range(1, 200):
        num, den = num * i + den, den * i
        whole, rest = divmod(num, den)
    x, mask = 1, (1 << 200) - 1
    for i in range(2500):
        x = ((x << 1) ^ (x >> 3) ^ i) & mask
    t = tuple(range(130))
    for _ in range(300):
        t = t[7:] + t[:7]
    return perf_counter() - start


class Clock:
    """Sums the wall-clock and the reference-speed time of timed steps.

    A step's speed is the mean of the calibration times just before and just
    after it and of those taken every SAMPLE_PERIOD_S during it, from a
    SIGALRM handler. The time spent in the handler is not counted.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.scaled = 0.0
        self._before = calibrate()

    def step(self, fn, *args):
        samples = [self._before]
        spent = 0.0

        def sample(signum, frame) -> None:
            nonlocal spent
            start = perf_counter()
            samples.append(calibrate())
            spent += perf_counter() - start

        previous = _signal.signal(_signal.SIGALRM, sample)
        _signal.setitimer(_signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            took = perf_counter() - start
            _signal.setitimer(_signal.ITIMER_REAL, 0)
            _signal.signal(_signal.SIGALRM, previous)
            took -= spent
            self._before = calibrate()
            samples.append(self._before)
            self.wall += took
            self.scaled += took * CAL_REFERENCE_S * len(samples) / sum(samples)
