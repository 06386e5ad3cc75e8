"""A gauge of the machine's current speed, sampled while the work runs.

The benchmark was built on a 2-vCPU share of a host whose speed switches,
within seconds and for stretches of minutes, between regimes about 1.7x
apart.  The CPU time of a pass moves with its wall time, so this is not
the process waiting for a CPU but the CPU itself running slower, and no
estimator over one run's passes removes it: a whole run can fall into one
regime.  While an untraced pass or a worker's set-up runs, `Sampler`
therefore interrupts it every `INTERVAL_S` and times `probe()`, a fixed
sub-millisecond loop.  `wall_norm_s` and `setup_s` scale the measured
time by `REFERENCE_S` over the mean probe time sampled during it, that
is, to a machine whose probe takes `REFERENCE_S`.  A larger probe run
before and after each config, instead of sampled ones, tracked the speed
too coarsely, because one config can run for seconds across several
switches.

The probe uses only NumPy, never `helmholtz_lab`, so a change to the
package cannot move it.  Its loop over tiny arrays is NumPy call and
allocation overhead, like the package's per-element code.  A plain-Python
loop was tried in its place and hardly slowed in the slow regime, while
the passes did.  Importing this module imports NumPy, which the package
imports anyway, so the set-up it gauges is the same work.
"""

import signal
import time

import numpy as np

# About the mean probe time during the passes of the runs made while the
# benchmark was built, on the 2-vCPU machine it was built on (0.69-0.76 ms
# per run).  It sets the scale of `wall_norm_s` and `setup_s`, so that they
# read as seconds on that machine at its typical speed; comparisons between
# two commits do not depend on it.
REFERENCE_S = 0.0007
# 40 probes a second cost about 3% of a pass's wall time, which `Sampler`
# measures and the worker takes out of the pass.
INTERVAL_S = 0.025

_ITERATIONS = 150
_WARMUP = 20
_NODES = np.linspace(0.0, 1.0, 7)


def probe():
    """Run the fixed reference loop once; returns its wall time in s."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        v = _NODES * (i % 7)
        acc += float(v.sum()) + float(np.dot(v, _NODES))
    return time.perf_counter() - started


class Sampler:
    """Times `probe()` at the start and then every `INTERVAL_S` of wall time.

    Used as a context manager around the work to gauge.  The probes run in
    a SIGALRM handler, so they land between two Python bytecodes: a long
    call into compiled code delays the next one.  `samples` holds the probe
    times, `overhead_s` the wall time spent in the handler.
    """

    def __init__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        started = time.perf_counter()
        self.samples.append(probe())
        self.overhead_s += time.perf_counter() - started

    def mean(self):
        return sum(self.samples) / len(self.samples)

    def __enter__(self):
        started = time.perf_counter()
        for _ in range(_WARMUP):  # the first calls run slower
            probe()
        self.overhead_s += time.perf_counter() - started
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
