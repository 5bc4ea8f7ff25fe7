"""What the host reports about this process: CPU, steal time, peak memory,
and how fast the host runs a fixed reference routine right now.

Imports nothing from the program, so the harness can read the clocks
before the program's imports start.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: Steal-free seconds :func:`reference_work` took on the host the
#: benchmark was defined on (a 2-vCPU KVM guest on a Xeon, in a quiet
#: phase).  :func:`slowdown` is relative to it.
REFERENCE_S = 0.12


def cpu_s() -> float:
    """User+sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def stolen_s(cpus) -> float:
    """Steal time of ``cpus`` so far: seconds the hypervisor ran other guests.

    Read from ``/proc/stat``; always 0 on bare metal.  Steal accrues only
    while a CPU has work, so for a process pinned to ``cpus`` and keeping
    them busy it is the time taken from that process.  The CPU time the
    kernel reports already leaves it out.
    """
    try:
        with open("/proc/stat") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return 0.0
    ticks = 0
    for line in lines:
        name, *fields = line.split()
        if name[:3] == "cpu" and name[3:].isdigit() and int(name[3:]) in cpus and len(fields) > 7:
            ticks += int(fields[7])
    return ticks * _TICK_S


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def reference_work(scratch: Path) -> float:
    """A fixed amount of work of each kind the program does.

    Interpreted dict code on a large and a small table and attribute
    updates on slotted objects, like the simulator's Python paths; numpy
    arithmetic and sorting on an array that fits in L2, like trace
    synthesis; a random gather over 8 MB, like the kernel's cache
    tables; and small files written and fsynced under ``scratch``, like
    the journal and the result cache.  Other guests slow each kind by a
    different amount, so one kind alone follows the program less
    closely than the mix.  It never changes, so the time it takes
    measures the host, not the program.
    """
    import numpy as np

    acc = 0
    for mask in (0xFFFF, 0x3FF):
        table: dict = {}
        for i in range(150_000):
            key = (i * 2654435761) & mask
            acc += table.get(key, 0)
            table[key] = acc & 0xFF
    slots = [_Slot(i, i * 3) for i in range(2000)]
    for _ in range(25):
        for slot in slots:
            acc += slot.a ^ slot.b
            slot.a = (slot.a + 1) & 0xFFF
    rng = np.random.default_rng(0)
    values = rng.random(262_144)
    total = 0.0
    for _ in range(20):
        total += float((values * 3.0 + 1.0).sum())
        total += float(np.sort(values[:32_768])[0])
    big = rng.random(1_000_000)
    index = rng.integers(0, len(big), 400_000)
    for _ in range(5):
        total += float(big[index].sum())
    scratch.mkdir(parents=True, exist_ok=True)
    for i in range(10):
        path = scratch / f"ref{i}"
        with open(path, "wb") as fh:
            fh.write(b"x" * 4096)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(path, scratch / f"ref{i}.done")
    return acc + total


def slowdown(cpus, seconds: float, scratch: Path) -> float:
    """How much slower than :data:`REFERENCE_S` the host runs the reference now.

    A shared host runs the same code up to ~40% slower in its busy phases
    (other guests on the same cores and caches), and steal does not show
    it: CPU time rises too.  Dividing a time measured next to this call by
    the slowdown gives the time at the reference speed.  The reference
    runs at least once and until ``seconds`` have passed: one run is too
    short to average out the host's faster and slower moments.
    """
    steal = stolen_s(cpus)
    started = time.perf_counter()
    runs = 0
    while not runs or time.perf_counter() - started < seconds:
        reference_work(scratch)
        runs += 1
    elapsed = time.perf_counter() - started - (stolen_s(cpus) - steal)
    return elapsed / (runs * REFERENCE_S)
