"""BG/L system-software startup — the Figure 3 cost structure.

On BG/L, users cannot log in to I/O nodes, so "BG/L's own system software
launches the STAT daemons" while MRNet's facility still spawns the
communication processes on the 14 login nodes.  The BG/L STAT prototype
also "only supports debugging when the application is launched under the
tool's control", so startup *includes the application launch* — partition
boot plus process-table generation — and "the majority of this time occurs
during the launching of the back-end daemons and the generation of the
process table by BG/L's system software" (Section IV-A).

Two configurations:

* ``patched=False`` — the original control system: process-table packing
  used ``strcat`` (quadratic scanning) into undersized buffers.  At 64K
  compute nodes in VN mode the system software accounts for >86 % of
  startup, and at 208K processes startup **hangs**
  (:class:`~repro.launch.base.LaunchHang`).
* ``patched=True`` — after IBM's fixes ("increasing buffer sizes and
  removing the usage of non-scalable routines such as strcat"): the table
  cost is linear, and the paper's observed >2x speedup at 104K processes
  in the 2-deep CO case falls out of the model.

Calibrated constants (see class attributes) pin the model to the paper's
anchors: >100 s at 1,024 compute nodes; linear growth; 86 % system share
at 64K VN pre-patch; ~2x post-patch speedup at 104K CO; pre-patch hang at
208K.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.launch.base import Launcher, LaunchHang, LaunchResult
from repro.launch.process_table import build_process_table
from repro.machine.base import MachineModel
from repro.tbon.topology import Topology

__all__ = ["BglSystemLauncher"]


class BglSystemLauncher(Launcher):
    """CIOD/mpirun startup for BG/L, pre- or post-IBM-patch."""

    #: fixed partition boot + control-system overhead (s)
    BASE_SECONDS = 96.0
    #: per-compute-node boot/program-load cost (s)
    PER_COMPUTE_NODE = 8.0e-4
    #: post-patch (linear) process-table cost per process (s)
    TABLE_LINEAR_PER_PROC = 6.0e-4
    #: pre-patch (strcat) process-table cost per process^2 (s)
    TABLE_QUADRATIC = 2.3e-8
    #: pre-patch control system hangs at or beyond this many processes
    HANG_AT_PROCESSES = 200_000
    #: per-daemon CIOD spawn bookkeeping (s); spawns happen in parallel
    DAEMON_BASE = 1.5
    DAEMON_PER_IO_NODE = 1.0e-3
    #: MRNet's serial CP spawn onto login nodes (s per CP)
    CP_SPAWN_SECONDS = 0.25

    def __init__(self, patched: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.patched = patched
        self.rng = rng
        self.name = f"bgl-ciod-{'patched' if patched else 'prepatch'}"

    def launch(self, machine: MachineModel, topology: Topology,
               mapping: str = "block",
               map_rng: Optional[np.random.Generator] = None
               ) -> LaunchResult:
        """Application launch under tool control + daemons + CPs + connect."""
        num_daemons = topology.num_daemons
        num_procs = machine.total_tasks
        compute_nodes = int(machine.extras.get(
            "compute_nodes", num_daemons * machine.tasks_per_daemon))

        if not self.patched and num_procs >= self.HANG_AT_PROCESSES:
            raise LaunchHang(
                f"BG/L control system hang at {num_procs} processes "
                "(pre-patch strcat packing + undersized buffers; "
                "Section IV-A)")

        t_boot = self.BASE_SECONDS + self.PER_COMPUTE_NODE * compute_nodes
        if self.patched:
            t_table = self.TABLE_LINEAR_PER_PROC * num_procs
        else:
            t_table = (self.TABLE_LINEAR_PER_PROC * num_procs
                       + self.TABLE_QUADRATIC * num_procs ** 2)

        t_daemons = self.DAEMON_BASE + self.DAEMON_PER_IO_NODE * num_daemons
        num_cps = len(topology.comm_processes)
        t_cps = self.CP_SPAWN_SECONDS * num_cps
        t_connect = self.connect_time(machine, topology)

        jitter = 0.0
        if self.rng is not None:
            # Shared-machine variance: the paper could only grab limited
            # full-system windows, with other users loading the service
            # and file-system infrastructure.
            jitter = abs(float(self.rng.normal(0.0, 0.02 * t_boot)))

        total = t_boot + t_table + t_daemons + t_cps + t_connect + jitter
        return LaunchResult(
            sim_time=total,
            breakdown={
                "system.app_boot": t_boot,
                "system.process_table": t_table,
                "tool.daemons": t_daemons,
                "tool.comm_processes": t_cps,
                "tool.connect": t_connect,
                "jitter": jitter,
            },
            process_table=build_process_table(
                num_daemons, machine.tasks_per_daemon, mapping, rng=map_rng),
            daemons_launched=num_daemons,
            cps_launched=num_cps,
        )
