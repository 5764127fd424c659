"""Host-speed reference, so timings taken minutes apart can be compared.

The benchmark runs on a few cores of a shared machine whose speed drifts by
tens of percent over seconds to minutes: a fixed loop of numpy work timed
now and five minutes from now can differ by more than any useful bound.
:class:`HostSpeed` times three fixed kernels between the benchmark's
operations, outside their timed intervals:

- ``rows``: a Python loop of small numpy operations on fixed data (per-row
  masked attention, a small matrix product, layer norm), the kind of work
  the program's forward passes do;
- ``blas``: single-threaded matrix products of a few hundred rows, the kind
  of work its training steps do;
- ``interp``: a pure-Python integer loop, the interpreter alone.

A sample is the geometric mean of each kernel's time over its nominal time
(``NOMINAL_S``, the kernel's median on the 2-vCPU VM the benchmark was
written on), so 1.0 means nominal speed and 1.3 means 30% slower. The
kernels live here, not in ``src/``, so no change to the program can make
them faster or slower. An operation's wall time divided by the host factor
around it is the time it would have taken at nominal speed.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

NOMINAL_S = {"rows": 0.0058, "blas": 0.0052, "interp": 0.0040}
EVERY_S = 0.3  # least time between two samples
MARGIN_S = 1.0  # samples this close to an operation count for it

_rng = np.random.default_rng(20241213)
_ROWS, _FEAT, _CHUNK = 48, 32, 12
_Q, _K, _V = (_rng.normal(size=(_ROWS, _FEAT)) for _ in range(3))
_W = _rng.normal(size=(_FEAT, 2 * _FEAT)) / np.sqrt(_FEAT)
_MASK = (np.arange(_ROWS)[None, :] // _CHUNK) <= (np.arange(_ROWS)[:, None] // _CHUNK)
_A = _rng.normal(size=(64, 256))
_B = _rng.normal(size=(256, 256)) / 16.0


def _rows() -> float:
    out = np.zeros_like(_Q)
    for _ in range(6):
        for i in range(_ROWS):
            idx = np.flatnonzero(_MASK[i])
            scores = (_K[idx] @ _Q[i]) / np.sqrt(_FEAT)
            e = np.exp(scores - scores.max())
            out[i] = (e / e.sum()) @ _V[idx]
        h = np.tanh(out @ _W)
        h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + 1e-5)
    return float(h.sum())


def _blas() -> float:
    s = 0.0
    for _ in range(24):
        s += float(np.tanh(_A @ _B)[0, 0])
    return s


def _interp() -> int:
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return s


KERNELS = {"rows": _rows, "blas": _blas, "interp": _interp}


def sample() -> float:
    """The host's current slowness: 1.0 at nominal speed."""
    logs = []
    for name, kernel in KERNELS.items():
        t = perf_counter()
        kernel()
        logs.append(math.log((perf_counter() - t) / NOMINAL_S[name]))
    return math.exp(sum(logs) / len(logs))


class HostSpeed:
    """Samples of the host factor over a run, looked up by time."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []

    def sample(self) -> None:
        t = perf_counter()
        self.factors.append(sample())
        self.times.append(t)

    def maybe_sample(self) -> None:
        """Sample if the last sample is at least ``EVERY_S`` old."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Median factor of the samples within ``MARGIN_S`` of [start, end];
        the nearest sample when none is that close."""
        lo = bisect_left(self.times, start - MARGIN_S)
        hi = bisect_right(self.times, end + MARGIN_S)
        if hi > lo:
            return statistics.median(self.factors[lo:hi])
        nearest = min(range(len(self.times)),
                      key=lambda k: min(abs(self.times[k] - start), abs(self.times[k] - end)))
        return self.factors[nearest]

    def median(self) -> float:
        return statistics.median(self.factors)
