"""The speed of the host, measured by a fixed reference loop around each call.

On a shared host the same one-thread code runs at two speeds, about 1.65x
apart, that switch every few seconds, and the share of slow time drifts over
tens of seconds; on top of that the hypervisor keeps the vCPUs from running
for a while (the README shows the record).  Process CPU time slows with the
first, wall time with both, so neither says how fast the program is.  The
benchmark therefore samples the speed with this reference loop while a call
runs (every ``PERIOD_S``, from a timer signal) and once right after it, in
CPU seconds per unit, reads the time the hypervisor took from ``/proc/stat``,
and reports the call's times scaled to the reference speed:

    factor = REF_UNIT_S * mean(1 / CPU seconds per unit of each sample)
    wall_ref = (wall - stolen) * factor,  cpu_ref = cpu * factor

A unit is a short pure-Python loop and a few 4x4 matrix products, the two
kinds of work qphase's hot paths are made of.  ``REF_UNIT_S`` is fixed, so
scaled times of two revisions compare directly; the loop is the benchmark's
own code, so a change to qphase moves the scaled time as it moves the
measured time.  Time spent sampling is taken out of the call's times.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

# CPU seconds per unit on the reference host (about the median over its two speeds)
REF_UNIT_S = 4.0e-5
PERIOD_S = 0.05  # sampling period while a call runs
TICK_S = 1.0e-3  # length of a sample taken while a call runs
AFTER_MIN_S = 1.0e-3  # shortest sample after a call
AFTER_SHARE = 0.03  # sample after a call, as a share of the call's time

_M = np.full((4, 4), 0.25)


def _unit() -> None:
    s = 0
    for i in range(400):
        s += i * i
    m = _M
    for _ in range(8):
        m = m @ _M


def unit_seconds(seconds: float) -> float:
    """Run the loop for about ``seconds``; return the CPU seconds one unit took."""
    units = max(1, round(seconds / REF_UNIT_S))
    start = time.thread_time()
    for _ in range(units):
        _unit()
    return (time.thread_time() - start) / units


def stolen_s() -> float:
    """Seconds the hypervisor has kept this machine's vCPUs from running, since boot.

    The ``steal`` column of ``/proc/stat``, summed over the vCPUs; 0 where
    the file or the column is missing.
    """
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Sampler:
    """Samples the speed while the ``with`` body runs; main thread only.

    ``wall`` and ``cpu`` are the seconds the samples took inside the body,
    and ``stolen`` the seconds the hypervisor took from the vCPUs meanwhile.
    The timer signal only runs the loop between two bytecodes of the body;
    an interrupted system call or lock wait is resumed by Python (PEP 475).
    While a call runs its trials on qphase's thread pool, the main thread
    waits and the samples run there, holding the interpreter lock: the pool
    threads pause for them, so their time is taken out all the same.
    """

    def __enter__(self) -> "Sampler":
        self.speeds, self.wall, self.cpu = [], 0.0, 0.0
        self.stolen = stolen_s()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        self.stolen = stolen_s() - self.stolen
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        return False

    def _tick(self, *_) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.speeds.append(1.0 / unit_seconds(TICK_S))
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu

    def factor(self, call_s: float) -> float:
        """Take the sample after the call; return the scale to the reference speed."""
        self.speeds.append(1.0 / unit_seconds(max(AFTER_MIN_S, AFTER_SHARE * call_s)))
        return REF_UNIT_S * statistics.fmean(self.speeds)
