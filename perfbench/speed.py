"""Follow the host's speed with a fixed pure-Python probe.

On a shared machine the same code runs at different speeds from one
stretch of seconds to the next: on the machine this benchmark was sized on,
20-second medians of one op moved by ±17% while the same op divided by this
probe's time moved by ±5%.  The probe does what locsemi's loops do (tuple
keys into a dict through small lambdas, and a flat int table) and takes
about 4 ms.  It samples before an op when the last sample is older than
BETWEEN_OPS_S, outside the op timing, and every PROBE_INTERVAL_S from a
SIGALRM timer, so that long ops are sampled inside too; the time a sample
takes inside an op is subtracted from the op.  An op's
speed-normalised time is its time times REFERENCE_PROBE_S over the mean
probe time near it: the time the op would take at the host speed the
reference was taken at.
"""

from __future__ import annotations

import bisect
import itertools
import signal
from contextlib import contextmanager
from time import perf_counter

PROBE_INTERVAL_S = 0.25  # timer period, which samples inside long ops
BETWEEN_OPS_S = 0.05  # before an op, sample if the last sample is older than this
PROBE_REPEATS = 3  # a sample is the fastest of these, which drops interrupted repeats
# Typical sample on the 2-core Xeon (Python 3.11.7) the benchmark was sized on.
REFERENCE_PROBE_S = 1.2e-3

_LABELS = tuple(f"e{i}" for i in range(12))
_TABLE = {(a, b): _LABELS[(3 * i + 5 * j) % 12] for i, a in enumerate(_LABELS)
          for j, b in enumerate(_LABELS) if (i * j + i + j) % 4}
_FLAT = [(7 * k) % 13 - 1 for k in range(169)]


def _kernel() -> int:
    table = _TABLE
    rel = lambda a, b: (a, b) in table
    mul = lambda a, b: table[(a, b)]
    hits = 0
    for a, b, c in itertools.product(_LABELS, repeat=3):
        if rel(a, b) and rel(b, c) and rel(mul(a, b), c):
            bc = table.get((b, c))
            hits += bc is not None and rel(a, bc)
    t, n = _FLAT, 13
    for a in range(n):
        an = a * n
        for b in range(n):
            if t[an + b] < 0:
                continue
            bn = b * n
            for c in range(n):
                if t[bn + c] >= 0 and t[an + c] >= 0:
                    hits += 1
    return hits


class Probe:
    """Probe samples taken through a run, and the scaling they imply."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.seconds: list[float] = []  # fastest repeat of each sample
        self.stolen = 0.0  # time taken by timer samples, to subtract from ops
        self.paused = False

    @contextmanager
    def timer(self):
        """Sample every PROBE_INTERVAL_S from SIGALRM while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self.paused:
            start = perf_counter()
            self.sample()
            self.stolen += perf_counter() - start

    def sample(self) -> None:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        self.times.append(perf_counter())
        self.seconds.append(best)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= BETWEEN_OPS_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean probe time of the last sample before ``start``, the samples
        taken inside [start, end] and the first sample after ``end``.

        The speed changes within a second, so nearer samples track it
        better: on the sizing machine an op's variation fell from 16% to 9%
        with its two neighbouring samples, and to 11% with all samples
        within a second.
        """
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = bisect.bisect_left(self.times, end) + 1
        picked = self.seconds[lo:hi]
        return sum(picked) / len(picked)

    def normalise(self, seconds: float, start: float, end: float) -> float:
        return seconds * REFERENCE_PROBE_S / self.around(start, end)
