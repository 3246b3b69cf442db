"""A fixed reference computation that tells how fast the host runs right now.

The host this benchmark was built on is shared: the same work runs up to
twice as slow for seconds to tens of minutes while other tenants are busy,
with no steal time to show it (process CPU time slows as much as wall time).
Wall times of runs made minutes apart then differ by more than any bound
worth fixing, and no best-of or median within a run removes that.

So a run interleaves short samples of a reference computation with the
measured work and divides every time by the reference's time at that moment:
a time reads as seconds at the reference speed, the workload's
``reference_s`` per sample, which is about what the reference took on a
quiet host.  The reference is code of the benchmark, not of the program: a
change that makes the program slower reads slower, and one that only makes
the host slower does not.

The reference does the three kinds of work the program spends its time on,
since other tenants slow them unequally: small numpy calls and Python scalar
work on a 30-item problem (shaped like an SMO step), a keyed sort of a
row-sized Python list (shaped like a query), and one elementwise pass over
m x m arrays (shaped like the Gram algebra on the workload's bank).  The
arrays have the bank's size because other tenants slow work that streams
from memory more than work that stays in cache.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.06  # at most one sample per this much measured time
WINDOW_S = 0.25  # samples this near a timing scale it
clock = time.perf_counter


class Yardstick:
    """The reference computation for a bank of m items, and when each sample of it ran."""

    def __init__(self, m: int, reference_s: float):
        self.reference_s = reference_s
        rng = np.random.default_rng(0)
        self._k = rng.standard_normal((30, 30))
        self._v = rng.standard_normal(30)
        self._row = rng.random(300).tolist()
        self._big = rng.random((3, m, m))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._last = -float("inf")

    def _reference(self) -> float:
        """One sample's work; it changes none of its inputs, so every sample does the same work."""
        k, v, total = self._k, self._v, 0.0
        for i in range(200):
            g = float(k[i % 30] @ v)
            active = np.flatnonzero(v > 0.01 * g)
            total += min(max(g, -1.0), 1.0) + active.size
        row = self._row
        for _ in range(3):
            total += sorted(range(len(row)), key=lambda j: (-row[j], j))[0]
        a, b, out = self._big
        np.multiply(a, b, out=out)
        np.add(out, a, out=out)
        return total

    def sample(self) -> None:
        t0 = clock()
        self._reference()
        self.starts.append(t0)
        self.ends.append(clock())
        self._last = self.ends[-1]

    def maybe_sample(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one."""
        if clock() - self._last >= INTERVAL_S:
            self.sample()

    def spent(self, t0: float, t1: float) -> float:
        """Seconds of samples taken within [t0, t1]."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        inside = (starts >= t0) & (ends <= t1)
        return float((ends - starts)[inside].sum())

    def scale(self, t0, t1) -> np.ndarray:
        """reference_s over the mean sample time around each [t0, t1].

        Takes arrays of interval bounds.  An interval uses the samples taken
        within WINDOW_S of it (if there are none, the last one before it, or
        else the first one): enough that one sample's jitter does not decide
        a short interval, and near enough to share its speed phase.
        """
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        total = np.concatenate(([0.0], np.cumsum(ends - starts)))
        hi = np.maximum(np.searchsorted(starts, np.asarray(t1) + WINDOW_S, side="right"), 1)
        lo = np.minimum(np.searchsorted(ends, np.asarray(t0) - WINDOW_S), hi - 1)
        return self.reference_s * (hi - lo) / (total[hi] - total[lo])
