"""Machine-speed probe: time a fixed reference loop all through a pass.

The benchmark runs on shared virtual machines whose speed drifts with
the neighbours' load by tens of per cent within minutes.  Little of it
shows as steal time, so process CPU time drifts alike.  A :class:`SpeedProbe`
interrupts the pass every ``PERIOD_S`` seconds of wall time (``SIGALRM``)
and times :func:`reference_work`, a fixed piece of interpreter work that
does not depend on the program.  The benchmark then

* subtracts the probe's own time from every op it interrupted, and
* divides the pass's times by the mean probe time over
  ``REFERENCE_S``, the probe's time on the machine the benchmark was
  tuned on,

so that a pass run while the machine is slow reads as it would on that
machine.  The mean, not the median: when the host deschedules the
virtual CPU, the probes it interrupts are the ones that measure it.
A change to the program moves the pass times and not the probe, so the
ratio keeps every change the program makes.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

#: Wall seconds between two probes.
PERIOD_S = 0.05
#: Typical seconds of one ``reference_work()`` on the machine the
#: benchmark was tuned on (2 vCPU, Python 3.11).
REFERENCE_S = 0.0005


def reference_work() -> None:
    """About half a millisecond of dict and integer work in the interpreter.

    It allocates no object the cyclic garbage collector tracks, so the
    probe does not move the program's collections.
    """
    table: dict[int, int] = {}
    for i in range(4000):
        table[i & 511] = i ^ 0x5A5A


_active: "SpeedProbe | None" = None


def clock() -> float:
    """``time.perf_counter()`` less the time spent in the active probe.

    The probe runs from a signal handler, so there is at most one per
    process; ``SpeedProbe`` registers itself here while entered.
    """
    if _active is None:
        return time.perf_counter()
    return time.perf_counter() - _active.spent


class SpeedProbe:
    """Samples ``reference_work`` timings while it is entered."""

    def __init__(self) -> None:
        self.samples = array("d")
        #: Wall seconds spent in probes so far.
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        global _active
        _active = self
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        global _active
        _active = None

    def slowdown(self) -> float:
        """Mean probe time over ``REFERENCE_S`` (1.0 = as when tuned)."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_S
