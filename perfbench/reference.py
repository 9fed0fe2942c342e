"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared host the same code runs up to about twice as slow while other
tenants load the core, in spells from milliseconds to minutes, longer than
a run. CPU time slows with wall time, so neither clock is steady. The
Sampler runs this loop every PERIOD_S seconds from a SIGALRM handler,
during set-up and every timed call, and the worker scales each wall time by
the machine's mean speed over it, measured by those runs. That gives the
time at one fixed machine speed: the speed at which the loop takes REF_S.
A program change cannot move the loop, so a faster program still reads
faster.

The loop imports nothing, so it can run before set-up, and it allocates no
objects the garbage collector tracks. Time spent in the handler is kept
and taken off the wall time of whatever it interrupted.
"""

import signal
import time

REF_S = 1.0e-4  # the loop's time at the reference speed, seconds
LOOP = 400  # iterations of one loop
PERIOD_S = 0.01  # wall time between two runs of the loop


def _loop() -> int:
    d = {}
    s = 0
    for i in range(LOOP):
        k = i & 127
        d[k] = d.get(k, 0) + i
        s += (i * 7) % 13
    return s


class Sampler:
    """Runs the loop every PERIOD_S seconds between start() and stop().

    speeds[i] is REF_S over the i-th loop's time (1.0 at the reference
    speed, 0.5 at half of it); spent is the wall time spent in the handler
    so far. mark() notes the time and both, and interval() gives what the
    worker needs of the span between two marks.
    """

    def __init__(self):
        self.speeds = []
        self.spent = 0.0

    def tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.speeds.append(REF_S / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def start(self):
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def mark(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.speeds), self.spent

    def interval(self, a, b) -> tuple[float, float]:
        """(wall seconds net of the handler, mean speed) from mark a to
        mark b. An interval with no loop in it takes the loops just before
        and just after it, so the sampler must have ticked since b."""
        i, j = a[1], b[1]
        if i == j:
            i, j = i - 1, j + 1
        window = self.speeds[i:j]
        return b[0] - a[0] - (b[2] - a[2]), sum(window) / len(window)
