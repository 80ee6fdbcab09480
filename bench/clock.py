"""Pass and query timing that leaves out time stolen by the hypervisor.

On a shared virtual machine the host can deschedule this machine's CPUs
for long stretches; the guest kernel counts that as ``steal`` in
``/proc/stat``.  It says nothing about the program and swings timings by
up to 2x from one minute to the next, so every time the benchmark reports
is wall time minus the steal counted during it.  Where ``/proc/stat`` has
no steal field the correction is zero.  Both figures are kept: the raw
wall time is printed alongside.
"""

from __future__ import annotations

import os
from time import perf_counter

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def stolen_s() -> float:
    """Cumulative steal time of all CPUs, in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0


def mark() -> tuple[float, float]:
    return perf_counter(), stolen_s()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """(wall seconds, wall seconds minus steal) since `start`."""
    wall = perf_counter() - start[0]
    return wall, max(wall - (stolen_s() - start[1]), 0.0)
