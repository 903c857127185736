"""Host time measured against the machine's speed at the moment.

A shared machine runs the same code at up to half its usual speed for
seconds at a time, whenever its neighbours are busy, so plain wall-clock
totals of identical work spread by 30-50% between runs.  The benchmark
therefore times its work in short *segments*: each workload's ``drive``
yields between slices of its work, and long synchronous calls inside a
slice (a node's re-attestation) close a segment through :func:`lapped`.
At every segment boundary it reads how fast the machine runs three fixed
loops that stand for the kinds of work the program does: interpreted
dictionary and integer code, numpy table gathers (the AES rounds of the
crypto layer) and a walk over a large list (a big heap).  The machine's
*slowness* is the mean over the loops of each loop's time over its
reference time in ``REFERENCE_S``, and a segment's *host time* is its
wall time over the mean slowness at its two ends: the seconds the work
would take on a machine that runs the loops in their reference times
(about a 2-vCPU Xeon virtual machine at a quiet moment).
Readings are taken between segments and never counted.

The loops are benchmark code and never change with the program, so a
change that makes the program faster shows in full.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

#: Each loop's time on the reference machine, in seconds.
REFERENCE_S = {"interpreter": 0.25e-3, "numpy": 0.30e-3, "memory": 0.50e-3}

_random = np.random.default_rng(20240101)
_TABLES = _random.integers(0, 2 ** 32, size=(4, 256), dtype=np.uint32)
_INDICES = _random.integers(0, 256, size=(4, 16384), dtype=np.uint8)
_HEAP = list(range(300_000))
_WALK = range(0, len(_HEAP), 37)


def _interpreter_loop() -> None:
    table = {}
    for i in range(2000):
        key = i % 977
        table[key] = table.get(key, 0) + i * 3


def _numpy_loop() -> None:
    tables, indices = _TABLES, _INDICES
    mixed = (tables[0][indices[0]] ^ tables[1][indices[1]]
             ^ tables[2][indices[2]] ^ tables[3][indices[3]])
    tables[0][(mixed & 255).astype(np.uint8)] ^ mixed


def _memory_loop() -> None:
    heap, total = _HEAP, 0
    for index in _WALK:
        total += heap[index]


_LOOPS = {"interpreter": _interpreter_loop, "numpy": _numpy_loop,
          "memory": _memory_loop}


def slowness() -> float:
    """How many times slower than the reference machine this one runs
    now (1.0 at the reference speed)."""
    total = 0.0
    for name, loop in _LOOPS.items():
        started = perf_counter()
        loop()
        total += (perf_counter() - started) / REFERENCE_S[name]
    return total / len(_LOOPS)


#: The clock timing right now, if any (see :func:`lapped`).
_running = None


class HostClock:
    """Wall and host seconds of the code run inside ``with HostClock()``,
    with the host seconds of each named part (see :meth:`end_slice`).
    With *laps* False, :func:`lapped` calls do not close segments (the
    traced replay, whose spans must not contain the speed readings)."""

    def __init__(self, laps: bool = True):
        self.laps = laps

    def __enter__(self):
        global _running
        self.wall = self.host = 0.0
        self.part_s = Counter()
        self._slice_s = 0.0
        self._slowness = slowness()
        if self.laps:
            _running = self
        self._started = perf_counter()
        return self

    def lap(self) -> None:
        """Close the running segment and read the machine's speed."""
        elapsed = perf_counter() - self._started
        now = slowness()
        self.wall += elapsed
        self._slice_s += elapsed * 2.0 / (self._slowness + now)
        self._slowness = now
        self._started = perf_counter()

    def end_slice(self, part) -> None:
        """Close the running slice; its host time counts for *part*."""
        self.lap()
        self.host += self._slice_s
        self.part_s[part] += self._slice_s
        self._slice_s = 0.0

    def __exit__(self, *exc_info) -> None:
        global _running
        self.end_slice(None)
        _running = None


def lapped(function):
    """*function*, closing the running clock's segment after each call."""

    @functools.wraps(function)
    def call(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        finally:
            if _running is not None:
                _running.lap()

    return call


def timed(steps, laps: bool = True) -> tuple:
    """Exhaust the generator *steps*, one slice per yield.  Returns its
    return value, the wall seconds, the host seconds, and the host
    seconds of each part, keyed by the value each slice ended with
    (None for the tail after the last yield)."""
    with HostClock(laps) as clock:
        while True:
            try:
                part = next(steps)
            except StopIteration as stop:
                value = stop.value
                break
            clock.end_slice(part)
    return value, clock.wall, clock.host, dict(clock.part_s)
