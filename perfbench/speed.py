"""Host speed meter: times in reference-speed seconds.

The vCPUs of the bench machine switch between a fast and a slow state,
about 1.9x apart, on time scales from tens of milliseconds to tens of
seconds. The guest cannot control or observe this directly, and one op's
wall time swings by that factor from run to run.

The meter runs a fixed pure-Python kernel, which shares no code with
qdivtop, from a SIGPROF handler every 20 ms of process CPU time, and
records its duration. An op's normalized latency is its wall time minus
the kernel's own time, multiplied by the mean of ``REFERENCE_S / sample``
over the samples taken during the op plus one on either side. A
normalized second is one second of the kernel's fast state on the bench
machine. A change to qdivtop cannot move the kernel, so it moves
normalized times exactly as it moves the work.
"""

from __future__ import annotations

import signal
import statistics
import time

# one sample (two runs of _kernel, the faster doubled) in the fast state of
# the bench machine: 2 vCPUs, Python 3.11.7
REFERENCE_S = 0.00031
INTERVAL_S = 0.02


def _kernel():
    d = {}
    acc = 0
    for i in range(500):
        t = (i, i * 7 % 13, i ^ 5)
        d[t] = i
        acc += len(d) + sum(t) % 7
    return acc


class SpeedMeter:
    def __init__(self):
        self.samples = []  # seconds per sample
        self.overhead = 0.0  # seconds spent in the kernel so far

    def sample(self, signum=None, frame=None):
        # the faster of two runs, so that an interrupt does not read as slowness
        clock = time.perf_counter
        t0 = clock()
        _kernel()
        t1 = clock()
        _kernel()
        t2 = clock()
        self.samples.append(2 * min(t1 - t0, t2 - t1))
        self.overhead += t2 - t0

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample()

    def mark(self):
        return len(self.samples), self.overhead

    def factor(self, first=0, last=None):
        """Mean speed, relative to the reference, over the samples from
        first - 1 up to and including last."""
        last = len(self.samples) - 1 if last is None else last
        window = self.samples[max(first - 1, 0) : last + 1]
        return statistics.fmean(REFERENCE_S / k for k in window)
