"""Speed-normalised timing for a host whose speed drifts.

The benchmark runs on a few cores of a shared host. There, the speed of
one core changes by up to 2x within seconds as other tenants' load
comes and goes, so the plain wall time of an operation says as much
about the neighbours as about the program. This module measures the
core's speed alongside the program and expresses the program's time in
seconds at a fixed nominal speed.

Speed is sampled with a fixed reference kernel: pure-Python float
arithmetic over a few preallocated objects, the kind of work the
simulator does. It allocates no container objects, so it never
triggers the cyclic garbage collector and its cost does not depend on
the program's heap. While a `RefClock` is active, a SIGALRM timer
interrupts the program every `INTERVAL_S` of its own time and runs the
kernel once; the kernel also runs right before and right after the
timed section. The program's time between two samples is scaled by
NOMINAL_S over the mean of the two samples around it, and the time
spent in the kernel is left out. A program that does 20 % less work
reads 20 % less, at any host speed.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

# Program time between two speed samples, and the kernel's time on an
# uncontended core of the reference host (Intel Xeon, 2 vCPUs, Python
# 3.11.7; the fastest twentieth of 20,000 samples), so that one
# normalised second is about one wall second on that core.
INTERVAL_S = 0.02
NOMINAL_S = 0.0008


class _Body:
    __slots__ = ("x", "y", "vx", "vy", "ax", "ay")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y, self.vx, self.vy, self.ax, self.ay = x, y, 0.0, 0.0, 0.0, 0.0

    def pull(self, other: "_Body") -> None:
        dx, dy = self.x - other.x, self.y - other.y
        r = math.sqrt(dx * dx + dy * dy) + 1e-9
        w = math.exp(-r / 0.9) / r
        self.ax += w * dx
        self.ay += w * dy


_START = [(math.cos(2.399 * i) * (1 + i % 5), math.sin(2.399 * i) * (1 + i % 3)) for i in range(10)]
_BODIES = [_Body(x, y) for x, y in _START]


def kernel(steps: int = 30) -> float:
    """One fixed unit of reference work: `steps` steps of 10 bodies
    under pairwise exponential repulsion, from the same start every
    time."""
    bodies = _BODIES
    for b, (x, y) in zip(bodies, _START):
        b.x, b.y, b.vx, b.vy = x, y, 0.0, 0.0
    for _ in range(steps):
        for b in bodies:
            b.ax = b.ay = 0.0
            for o in bodies:
                if o is not b:
                    b.pull(o)
        for b in bodies:
            b.vx = 0.9 * b.vx + 0.05 * b.ax
            b.vy = 0.9 * b.vy + 0.05 * b.ay
            b.x += 0.1 * b.vx
            b.y += 0.1 * b.vy
    return bodies[0].x


def sample() -> float:
    """Wall time of one run of the kernel, after a short untimed run
    that brings its code and data back into the caches the program
    used."""
    kernel(3)
    start = perf_counter()
    kernel()
    return perf_counter() - start


def normalise(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time between two kernel samples, in seconds at
    the nominal speed."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)


class RefClock:
    """Times one section of program code in normalised seconds.

        with RefClock() as clock:
            work()
        clock.seconds, clock.wall

    `wall` is the plain wall time of the section minus the time spent
    sampling. Only one RefClock may be active at a time, in the main
    thread; the previous SIGALRM handler is restored on exit.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.wall = 0.0
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        if not self._active:  # a signal that arrived while leaving
            return
        now = perf_counter()
        this = sample()
        self.seconds += normalise(now - self._mark, self._last, this)
        self.wall += now - self._mark
        self.samples.append(this)
        self._last = this
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "RefClock":
        self._last = sample()
        self.samples.append(self._last)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        now = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        this = sample()
        self.seconds += normalise(now - self._mark, self._last, this)
        self.wall += now - self._mark
        self.samples.append(this)
