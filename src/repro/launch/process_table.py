"""The job process table and its rank-to-daemon map.

When a parallel job starts, the resource manager produces a table mapping
every MPI rank to a host and pid; tool daemons consult it to find their
co-located processes.  Two aspects matter to the paper:

* **Content** — the induced :class:`~repro.core.taskset.TaskMap` is what
  the front end's remap step (Section V-B) must gather once at setup,
  because rank-to-daemon assignment "is not guaranteed to be in MPI rank
  order".
* **Generation cost** — BG/L's system software built this table with
  ``strcat``-style string packing, "which scans the buffer for the string
  termination character": appending rank *i*'s entry re-scanned the *i-1*
  entries already packed, an O(P^2) total that IBM's patches later removed
  (Section IV-A).  :func:`pack_table` really performs both packings and
  :func:`pack_scan_bytes` counts the buffer bytes each one reads, so the
  asymptotic difference is executable and measurable, while the launchers
  charge the simulated clock with calibrated constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.taskset import TaskMap

__all__ = ["ProcessTable", "build_process_table", "pack_table",
           "pack_scan_bytes"]


@dataclass
class ProcessTable:
    """Rank -> (daemon, local slot, pid) plus the derived task map."""

    num_tasks: int
    num_daemons: int
    #: entries[rank] = (daemon_id, local_slot, pid)
    entries: List[Tuple[int, int, int]]
    task_map: TaskMap

    def daemon_of(self, rank: int) -> int:
        """Daemon responsible for an MPI rank."""
        return self.entries[rank][0]

    def pid_of(self, rank: int) -> int:
        """Simulated pid of an MPI rank."""
        return self.entries[rank][2]

    def local_slot_of(self, rank: int) -> int:
        """Daemon-local slot index of an MPI rank."""
        return self.entries[rank][1]


def build_process_table(num_daemons: int, tasks_per_daemon: int,
                        mapping: str = "block",
                        rng: Optional[np.random.Generator] = None,
                        base_pid: int = 1000) -> ProcessTable:
    """Construct the table a resource manager would hand the tool.

    ``mapping`` selects the rank-to-daemon policy:

    * ``"block"`` — daemon d owns ranks [d*k, (d+1)*k); concatenation in
      daemon order *is* rank order, so the remap step is the identity
      (common on Atlas with default SLURM distribution).
    * ``"cyclic"`` — round robin, the Figure 6 interleaving; remap is a
      perfect shuffle.
    * ``"shuffled"`` — random assignment (requires ``rng``); the hardest
      case the remap step must handle.
    """
    if num_daemons < 1 or tasks_per_daemon < 1:
        raise ValueError("need at least one daemon and one task per daemon")
    if mapping == "block":
        task_map = TaskMap.block(num_daemons, tasks_per_daemon)
    elif mapping == "cyclic":
        task_map = TaskMap.cyclic(num_daemons, tasks_per_daemon)
    elif mapping == "shuffled":
        if rng is None:
            raise ValueError("mapping='shuffled' requires an rng")
        task_map = TaskMap.shuffled(num_daemons, tasks_per_daemon, rng)
    else:
        raise ValueError(f"unknown mapping {mapping!r}")

    total = num_daemons * tasks_per_daemon
    entries: List[Tuple[int, int, int]] = [(-1, -1, -1)] * total
    for daemon in range(num_daemons):
        for slot, rank in enumerate(task_map.ranks_of(daemon)):
            entries[int(rank)] = (daemon, slot, base_pid + int(rank))
    return ProcessTable(total, num_daemons, entries, task_map)


def pack_table(table: ProcessTable, use_strcat: bool = False) -> bytes:
    """Serialize the table the way the BG/L control system did.

    With ``use_strcat=True`` the packing mimics the pre-patch code path:
    every append re-scans the accumulated buffer for its terminator before
    copying (O(P^2) scanning work overall).  With ``use_strcat=False`` it
    keeps a write cursor (the patched O(P) path).  Both produce identical
    bytes; tests assert the equality and benchmarks can measure the real
    asymptotic gap on small tables.
    """
    return _pack(table, use_strcat)[0]


def pack_scan_bytes(table: ProcessTable, use_strcat: bool = False) -> int:
    """Buffer bytes :func:`pack_table` reads while packing ``table``.

    A deterministic cost measure: the cursor path reads each record once,
    while the strcat path re-reads the whole accumulated buffer on every
    append.
    """
    return _pack(table, use_strcat)[1]


def _pack(table: ProcessTable, use_strcat: bool) -> Tuple[bytes, int]:
    """``(packed bytes, buffer bytes read)`` for one packing."""
    records = [
        f"{rank}:{daemon}:{slot}:{pid};".encode()
        for rank, (daemon, slot, pid) in enumerate(table.entries)
    ]
    if not use_strcat:
        return b"".join(records), sum(len(record) for record in records)

    # Pre-patch behaviour: strcat() must find the end of `buffer` by
    # scanning it on every call.  bytes.find is the scan; the concatenation
    # reallocates like the undersized-buffer reallocations IBM removed.
    buffer = bytearray(b"\x00")
    scanned = 0
    for record in records:
        scanned += len(buffer)
        end = bytes(buffer).find(b"\x00")  # the strcat scan
        buffer[end:end + 1] = record + b"\x00"
    return bytes(buffer[:-1]), scanned
