"""How fast the shared machine runs at the moment, gauged with a fixed unit of work.

The machine's CPU speed swings by tens of percent from second to second,
because other tenants share the host's cores and caches; a process's CPU
time does not leave that out.  While a `Gauge` is open, a timer signal
interrupts the process every `INTERVAL_S` of wall time, and the handler
times one small fixed unit of work.  The benchmark reports a pass's CPU
time, less the handler's own, scaled to a machine on which the unit takes
`REFERENCE_S`, by the mean unit timed during the pass.  The unit is the
benchmark's own code, so no change to the program moves it: per matrix, a
small SVD and QR through numpy and a little interpreted float arithmetic,
the mix of the program's per-point loops.  Python runs the handler between
bytecodes of the main thread, so the program's state is not touched.
"""

from __future__ import annotations

import signal
from time import process_time

import numpy as np

# CPU seconds of one unit on a quiet moment of the reference machine (see README)
REFERENCE_S = 0.0025
INTERVAL_S = 0.05

_MATRICES = np.random.default_rng(20080604).standard_normal((40, 6, 4))


def _unit() -> float:
    acc = 0.0
    for m in _MATRICES:
        s = np.linalg.svd(m, compute_uv=False)
        q, _ = np.linalg.qr(m)
        acc += float(q[0, 0]) * float(s[0])
        for x in s:
            acc += float(x) * 1.0001
    return acc


def unit_seconds() -> float:
    """CPU seconds of one unit of work, now."""
    t0 = process_time()
    _unit()
    return process_time() - t0


def scaled(seconds: float, unit: float) -> float:
    """`seconds` measured while the unit took `unit`, at the reference speed."""
    return seconds * REFERENCE_S / unit


class Gauge:
    """Times one unit every `INTERVAL_S` of wall time while open.

    `units` holds every unit's CPU seconds, and `own_seconds` their sum, so
    that a caller can take the handler's time out of its own measurements.
    """

    def __init__(self):
        self.units: list[float] = []
        self.own_seconds = 0.0
        self._previous = None
        _unit()  # untimed: numpy.linalg's first call

    def _sample(self, signum, frame):
        seconds = unit_seconds()
        self.units.append(seconds)
        self.own_seconds += seconds

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
