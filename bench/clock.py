"""Machine-speed sampling, so that timings hold still on a shared host.

On a shared host the same Python code can run at half speed for seconds at
a time.  A Sampler interrupts the process every INTERVAL_S and times a tiny
fixed pure-Python kernel (Fraction arithmetic, tuples and a dict; no qball
code).  A timed interval of t seconds, of which s were spent in the
kernel, is reported at reference speed as

    (t - s) * REF_S / mean(kernel times taken during the interval)

A change to qball does not change the kernel, so a faster op still reads
faster; a slow phase of the host slows op and kernel alike and cancels.
An interval too short to hold a sample uses the latest sample before it.
Signals wait for a running C call (a LAPACK SVD, say) to return, so such
calls are covered by the samples around them.  Run with one BLAS/OpenMP
thread: with two, dense SVDs ran up to ten times slower under the sampler
on a 2-vCPU VM.

    python3 bench/clock.py    # set-up probe: import qball.cli under a Sampler

The probe prints one JSON object with the mean kernel time during the
import and the time spent in the kernel; PYTHONPATH must name the
package's source directory.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.01
REF_S = 250e-6


def _kernel() -> Fraction:
    counts = {}
    total = Fraction(0)
    for i in range(1, 60):
        key = (i % 7, i % 5)
        total += Fraction(i % 13 - 6, i % 11 + 1)
        counts[key] = counts.get(key, 0) + i
    return total


class Sampler:
    """Kernel durations sampled on a SIGALRM interval timer."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, mark: int) -> float:
        """Mean kernel time since mark (or the latest before it); 0 if none."""
        window = self.samples[mark:] or self.samples[-1:]
        return statistics.mean(window) if window else 0.0

    def scaled(self, raw_s: float, mark: int) -> float:
        """raw_s, measured since mark, at reference speed."""
        kernel_s = self.speed(mark)
        if not kernel_s:
            return raw_s
        return (raw_s - sum(self.samples[mark:])) * REF_S / kernel_s


def _probe() -> None:
    sampler = Sampler()
    sampler.start()
    import qball.cli  # noqa: F401  (the import is what is measured)
    sampler.stop()
    print(json.dumps({"kernel_s": sampler.speed(0),
                      "spent_s": sum(sampler.samples)}))


if __name__ == "__main__":
    _probe()
