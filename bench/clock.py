"""Wall time less the share of it that the hypervisor stole from the CPUs.

On a shared VM the host runs other guests on the cores this one was given;
/proc/stat counts the clock ticks each CPU wanted to run but could not as
``steal``.  A process that ran for WALL seconds while a share S of the busy
ticks of the machine was stolen had the CPU for about WALL * (1 - S) seconds,
which is what it would have taken with the cores to itself.  Where nothing is
stolen (bare metal) that is the wall time.  Linux only.
"""

from __future__ import annotations

import time


def _ticks() -> tuple[int, int]:
    """(stolen, busy) clock ticks of all CPUs since boot."""
    with open("/proc/stat", encoding="ascii") as fh:
        user, nice, system, _, _, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


def start() -> tuple[float, tuple[int, int]]:
    return time.perf_counter(), _ticks()


def stop(mark) -> tuple[float, float]:
    """(wall seconds, unstolen seconds) since ``start()`` returned MARK."""
    t0, (steal0, busy0) = mark
    wall = time.perf_counter() - t0
    steal1, busy1 = _ticks()
    return wall, wall * (1.0 - (steal1 - steal0) / max(busy1 - busy0, 1))
