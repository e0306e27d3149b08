"""Host speed: a fixed pure-Python kernel timed between queries.

The shared hosts this benchmark runs on change speed by up to 1.7x for
seconds at a time (other tenants on the same cores; thread CPU time slows
as much as wall time, so the CPU itself is slower).  A run of 25 seconds
spends a share of its time in each state that differs from run to run, and
no statistic over the run's own latencies removes that.

So every measuring process also times this kernel, which never touches the
library: a few times right after set-up, then between queries every
INTERVAL_S, then a few times after the last query.  Each query's latency
is scaled by REFERENCE_S over the median kernel time of the NEIGHBOURS
samples taken nearest to it, which gives the milliseconds that query would
take on a host where the kernel takes REFERENCE_S.  A change to the
library moves the scaled figures exactly as it moves the raw ones; a
change of host speed moves the kernel with it and cancels.

The kernel does what the library's hot loops do, on its own data:
monomial products through dicts and sorted tuples, frozenset symmetric
differences, and carry-less products of small integers.
"""

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

# the reference host: one on which the kernel takes 2 ms, a round figure
# just above its 1.2-1.9 ms on the machine in NOTES.md
REFERENCE_S = 0.002
INTERVAL_S = 0.05
NEIGHBOURS = 10
# samples right after set-up and after the last query
EDGE_SAMPLES = NEIGHBOURS

_MONOS = tuple(
    tuple((v, (i * 7 + j) % 4 + 1) for j, v in enumerate("abcd") if i >> j & 1)
    for i in range(16))


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def kernel() -> int:
    terms = frozenset()
    for a in _MONOS:
        for b in _MONOS:
            terms = terms.symmetric_difference({_mono_mul(a, b)})
    acc = 0
    for x in range(1, 320):
        acc ^= _clmul(x, 0x5A5B)
    return len(terms) + acc


class Speedometer:
    """Kernel samples of one process, as (start, duration) pairs."""

    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self) -> None:
        """Sample if the last sample is INTERVAL_S old."""
        if time.perf_counter() - self.starts[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median of the samples nearest `at`."""
        i = bisect.bisect_left(self.starts, at)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.starts) - NEIGHBOURS))
        near = self.durations[lo:lo + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)

    def scale(self, starts: Sequence[float],
              seconds: Sequence[float]) -> List[float]:
        """Each duration in seconds of the reference host."""
        return [s * self.factor(t) for t, s in zip(starts, seconds)]

    def summary(self) -> Tuple[int, float]:
        """Sample count and median kernel time."""
        return len(self.durations), statistics.median(self.durations)
