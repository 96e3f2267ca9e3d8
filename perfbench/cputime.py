"""CPU time of the benchmark's processes, read from ``/proc``.

The end-to-end metrics are CPU time, not wall time.  On a host that
shares its cores with other machines, a wall-clock figure mostly
measures the neighbours: a run that loses its vCPU to the hypervisor for
a while is slower without the program doing more work.  The kernel
accounts that lost time as steal and leaves it out of every task's CPU
time, so CPU time counts what the program itself executes.

Two readings:

* ``process_seconds`` — user + system time of a process group, dead
  threads and reaped children included (``/proc/<pid>/stat``, clock
  ticks): set-up sized spans of seconds.
* ``GroupClock`` — nanosecond run time of every live thread of a fixed
  set of processes (``/proc/<pid>/task/<tid>/schedstat``): one request.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, List, Tuple

TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode()
    # The command name (field 2) may hold spaces: split after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def group_pids(pgid: int) -> List[int]:
    """Every process whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
        if int(fields[2]) == pgid:  # field 5, pgrp
            pids.append(int(entry))
    return pids


def process_seconds(pgid: int) -> float:
    """User + system CPU seconds of the group's processes, including
    their exited threads and their reaped children."""
    total = 0
    for pid in group_pids(pgid):
        try:
            fields = _stat_fields(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue
        total += sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
    return total / TICK


def own_seconds() -> float:
    """CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class GroupClock:
    """Run time of every thread of a fixed set of processes.

    ``delta`` sums, thread by thread, the time run between two
    snapshots; a thread that appears in between counts whole, one that
    exits in between loses what it ran since the first snapshot.
    """

    def __init__(self, pids: List[int]) -> None:
        self.pids = list(pids)

    def snapshot(self) -> Dict[Tuple[int, int], int]:
        out = {}
        for pid in self.pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:
                continue
            for tid in tids:
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as handle:
                        out[(pid, int(tid))] = int(handle.read().split()[0])
                except (FileNotFoundError, ProcessLookupError):
                    continue
        return out

    @staticmethod
    def delta(before: Dict[Tuple[int, int], int], after: Dict[Tuple[int, int], int]) -> float:
        """Seconds run between the two snapshots."""
        return sum(max(0, ns - before.get(key, 0)) for key, ns in after.items()) / 1e9
