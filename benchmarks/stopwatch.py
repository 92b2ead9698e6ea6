"""Operation timing that cancels the machine's own speed swings.

On a shared virtual machine the same work can take twice as long from
one minute to the next, and everything in the process slows together.
So while an operation runs, an interval timer interrupts it every
``INTERVAL_S`` and times a fixed slice of pure-Python work that never
touches ``esfg``.  The slice's speed relative to ``NOMINAL_SLICE_S``,
averaged over the operation, is the machine's speed during exactly that
operation.  An operation's cost in *reference seconds* is its wall time
times that speed.  A change to ``esfg`` moves this cost.  A slower or
faster machine mostly does not.

The slices run between the operation's own bytecodes, so they find the
caches in the state the operation left them.  That makes a slice slower
than the same slice run back to back, by a roughly constant share.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Iterator

#: Sampling period of the interval timer.
INTERVAL_S = 0.01
#: Speed 1: one slice in this many seconds (the fast end of one 2.1 GHz
#: x86-64 vCPU running CPython 3.11).
NOMINAL_SLICE_S = 35e-6


def _slice() -> int:
    """The fixed reference work: integer arithmetic and dict stores that
    allocate nothing the garbage collector tracks."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(200):
        acc = (acc * 1103515245 + i) & 0xFFFFFFF
        table[acc & 255] = acc
    return acc


class Stopwatch:
    """Wall time and reference-second cost of each operation.

    Uses ``SIGALRM``, so it must run in the main thread, and it replaces
    any other ``SIGALRM`` handler while an operation runs.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.costs: list[float] = []
        self._speeds: list[float] = []

    def _sample(self, *_: object) -> None:
        started = time.perf_counter()
        _slice()
        self._speeds.append(NOMINAL_SLICE_S / (time.perf_counter() - started))

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        self._speeds = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self._speeds:
                self._sample()  # an operation shorter than the period
            self.walls.append(wall)
            self.costs.append(wall * sum(self._speeds) / len(self._speeds))
