"""The benchmark's clock on a shared virtual machine.

Two effects make raw wall time on such a machine a poor measure of the
program:

* Steal.  The host can withhold the CPU from a runnable guest; Linux counts
  that time as "steal" in /proc/stat, while a process's wall and CPU clocks
  keep running.  On the 2-vCPU machine this benchmark was tuned on, steal
  took up to 29% of a pass's wall time.  :func:`steal_s` reads it for the
  CPU this process is pinned to (:func:`pin`), so it can be subtracted.
* Speed.  With no steal at all, the CPU a process runs on switches between
  a fast and a slow state every second or so: the host's other tenants share
  the core and its caches, and the guest sees nothing.  On that machine one
  fixed 1 s job took from 0.7 to 1.6 times its median time.
  :class:`SpeedMeter` times a small fixed reference kernel every
  ``PERIOD_S`` of wall time from a SIGALRM handler and scales the wall time
  up to the next sample by ``REF_KERNEL_S`` over that kernel time, so each
  stretch of work is counted at the speed measured at its start.  On that
  machine this cut the spread of each workload's ``wall_s`` over ten seeds
  (IQR/median) from 0.12-0.27 to 0.02-0.04; scaling a whole pass by its
  median sample instead left 0.06-0.24.
"""

import os
import signal
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.1
REF_KERNEL_S = 0.0025  # the kernel's median time on the tuning machine

_ROOTS = np.array([1.0, 0.0, -3.0, 1.0, 2.0, -1.0, 1.0])


def pin():
    """Pin this process (and the children it starts) to one CPU; returns it,
    or None where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))  # CPU 0 takes most interrupts
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def steal_s(cpu):
    """Cumulative steal time of ``cpu`` in seconds; 0.0 where it is unknown."""
    if cpu is None:
        return 0.0
    prefix = "cpu%d " % cpu
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def _kernel():
    """A fixed mix of the program's kinds of work: small eigenvalue root
    solves and exact rational arithmetic."""
    for _ in range(5):
        np.roots(_ROOTS)
    acc = Fraction(0)
    for k in range(1, 80):
        acc += Fraction(k, k + 7) * Fraction(3, 11)
    return sum([Fraction(i, 3) for i in range(300)], acc)


class SpeedMeter:
    """A clock that runs at the reference speed, sampled while this process works.

    :meth:`start` installs a SIGALRM handler, so use one meter per process.
    """

    def __init__(self):
        self.samples = 0
        self.scaled = 0.0  # reference-speed seconds up to ``last``
        self.net = 0.0  # wall seconds outside samples up to ``last``
        self.spent = 0.0  # wall seconds inside samples
        self.factor = 1.0
        self.last = None

    def start(self):
        self.last = time.perf_counter()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _sample(self, signum=None, frame=None):
        t_in = time.perf_counter()
        _kernel()
        t_out = time.perf_counter()
        self.scaled += (t_in - self.last) * self.factor
        self.net += t_in - self.last
        self.spent += t_out - t_in
        self.factor = REF_KERNEL_S / (t_out - t_in)
        self.samples += 1
        self.last = t_out

    def read(self):
        """(reference-speed seconds, wall seconds outside samples, wall
        seconds inside samples) since :meth:`start`."""
        while True:  # again if a sample lands in between
            seen = self.samples
            tail = time.perf_counter() - self.last
            out = self.scaled + tail * self.factor, self.net + tail, self.spent
            if seen == self.samples:
                return out


class Clock:
    """Times intervals at the reference speed when ``meter`` runs, and in any
    case net of the host steal on ``cpu``."""

    def __init__(self, cpu=None, meter=None):
        self.cpu = cpu
        self.meter = meter

    def begin(self):
        return (steal_s(self.cpu), time.perf_counter(),
                self.meter.read() if self.meter is not None else None)

    def end(self, mark):
        wall = time.perf_counter() - mark[1]
        steal = steal_s(self.cpu) - mark[0]
        if self.meter is None:
            scaled = net = wall
        else:
            now = self.meter.read()
            scaled, net = now[0] - mark[2][0], now[1] - mark[2][1]
        # steal is counted at the interval's mean speed
        s = scaled * (1.0 - steal / net) if net > 0 else 0.0
        return {"s": s, "wall": wall, "steal": steal}
