"""Machine-speed probe: a fixed piece of work, independent of ``witl``, that
the benchmark runs between ops to read how fast the machine is running.

On a shared host the same code runs at a speed that drifts by tens of percent
from second to second and from minute to minute, with process CPU time equal
to wall time (the core is slower, it is not taken away). The probe mixes what
``witl``'s solvers spend their time on: small NumPy array updates of a
Blahut–Arimoto iteration driven from a Python loop, and plain interpreter
arithmetic. Its mean time over a run against ``NOMINAL_S`` is the slowdown
the benchmark divides the run's op times by, so times read as seconds at the
nominal speed.

``NOMINAL_S`` is the median probe time on an Intel Xeon (model 143, 2 vCPU
KVM guest) with Python 3.11 and NumPy 2.4; on another machine normalized
times are still comparable between runs on that machine, only the scale
differs. ``python3 perfbench/speed.py`` prints the probe's median time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 5.5e-4

_rng = np.random.default_rng(20130109)
_PX = _rng.dirichlet(np.ones(9))
_COST = _rng.random((9, 9))
_SLOPES = (0.5, 1.0, 2.0, 4.0)


def probe() -> float:
    """Run the probe once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    q = np.full(9, 1.0 / 9.0)
    for s in _SLOPES:
        a = np.exp(-s * _COST)
        for _ in range(10):
            c = a * q
            c /= c.sum(axis=1, keepdims=True)
            q = _PX @ c
    acc = 0
    for i in range(3000):
        acc += i * i
    return time.perf_counter() - t0


class Probe:
    """Runs the probe on request and keeps the total, so that a run's
    slowdown is the mean over every probe run in it: probing after each op
    for a fixed share of the op's time samples the run evenly in time."""

    def __init__(self):
        self.seconds = 0.0
        self.runs = 0

    def read(self, seconds: float) -> float:
        """Probe for about ``seconds`` (at least once); returns the mean probe
        time of this read over ``NOMINAL_S``: 1 at nominal speed, 1.5 when
        the machine runs a third slower."""
        times = [probe()]
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            times.append(probe())
        self.seconds += sum(times)
        self.runs += len(times)
        return statistics.fmean(times) / NOMINAL_S

    @property
    def slowdown(self) -> float:
        return self.seconds / self.runs / NOMINAL_S


if __name__ == "__main__":
    samples = [probe() for _ in range(5000)]
    print(f"probe median {statistics.median(samples):.6g} s, "
          f"min {min(samples):.6g} s over {len(samples)} runs")
