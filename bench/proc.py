"""CPU time and resident memory of processes, read from ``/proc``.

End-to-end CPU metrics sum the benchmark process and the serving
processes it forked.  ``/proc/<pid>/stat`` counts in 10 ms ticks, too
coarse for a 100 ms unit, so on-CPU nanoseconds come from the
scheduler's per-thread ``schedstat`` and fall back to ticks only where
the kernel does not provide it.
"""

from __future__ import annotations

import os

__all__ = ["cpu_ns", "private_bytes", "rss_bytes"]

_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def _stat_ticks_ns(pid: int) -> int:
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
        # The command name may hold spaces; fields are counted after it.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_NS


def cpu_ns(pid: int) -> int:
    """Nanoseconds ``pid`` has spent on a CPU, all threads; 0 once the
    process is gone."""
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(
                    f"/proc/{pid}/task/{task}/schedstat", encoding="ascii"
                ) as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:
                # schedstat missing (kernel without it) or the thread
                # just exited: ticks of the whole process are the
                # fallback for the first, and harmless for the second.
                if not os.path.exists(f"/proc/{pid}/schedstat"):
                    return _stat_ticks_ns(pid)
    except (FileNotFoundError, ProcessLookupError):
        return 0
    return total


def rss_bytes(pid: int) -> int:
    """Resident set size of ``pid`` (``VmRSS``)."""
    with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    return 0


def private_bytes(pid: int) -> int:
    """Resident bytes no other process shares with ``pid``."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1]) * 1024
    return total
