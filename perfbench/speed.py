"""The host's current speed, read off a fixed reference computation.

On a shared host the same work can take anywhere from 1x to 2x as long
from one minute to the next, as neighbours come and go; a pure-Python
loop timed every second drifted between 5.4 and 11.7 ms within 90 s on
a shared 2-vCPU Intel Xeon virtual machine.  Timing ``probe()`` next
to a request and scaling the request's wall time by ``REFERENCE_S``
over the probe's time cancels most of that drift: the scaled time is
what the request would take on a host where one probe takes exactly
``REFERENCE_S``, about the speed of that machine.

The probe allocates no objects the garbage collector tracks, so the
program's heap cannot slow it down.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.001

_KEYS = [(i % 97, i % 89) for i in range(8000)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def probe() -> float:
    """Seconds one pass of the reference computation takes now."""
    t0 = perf_counter()
    acc = 0
    for k in _KEYS:
        acc = (acc + _TABLE[k] * 7) & 0xFFFFF
    return perf_counter() - t0


def scale(seconds: float, probes) -> float:
    """``seconds`` of wall time at the speed the probes ran, at reference speed."""
    return seconds * REFERENCE_S / statistics.median(probes)
