"""LaunchMON — bulk daemon launching through the resource manager.

Section IV-B: "LaunchMON implements a portable daemon-spawning mechanism
that exploits scalable system services provided by the resource management
software ... Most of the scalability advantage comes from LaunchMON's
ability to utilize the resource manager to bulk-launch the daemons."

The cost model is one RM round trip plus a fan-out over the RM's own
control tree (logarithmic in daemon count) plus a small per-daemon
bookkeeping term; calibrated to the paper's measured point of **512
daemons in 5.6 seconds** on Atlas, versus the >2 minutes the serial
facility would have needed (Section IV-C).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.launch.base import Launcher, LaunchResult
from repro.launch.process_table import build_process_table
from repro.machine.base import MachineModel
from repro.tbon.topology import Topology

__all__ = ["LaunchMonLauncher"]


class LaunchMonLauncher(Launcher):
    """Resource-manager bulk launch (the Figure 2 LaunchMON line).

    Parameters are the calibrated cost-model constants::

        t_daemons = rm_round_trip + tree_hop * log2(D + 1) + per_daemon * D

    Defaults land at 5.9 s for 512 daemons — within the paper's "5.6
    seconds" headline once the (serial but few) communication-process
    spawns and tree connect are included.
    """

    name = "launchmon"

    def __init__(self, rm_round_trip: float = 1.0,
                 tree_hop: float = 0.35,
                 per_daemon: float = 1.2e-3,
                 cp_spawn_seconds: float = 0.25,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.rm_round_trip = rm_round_trip
        self.tree_hop = tree_hop
        self.per_daemon = per_daemon
        self.cp_spawn_seconds = cp_spawn_seconds
        self.rng = rng

    def launch(self, machine: MachineModel, topology: Topology,
               mapping: str = "block",
               map_rng: Optional[np.random.Generator] = None
               ) -> LaunchResult:
        """Bulk-launch daemons via the RM; CPs still spawn individually.

        Decoupling daemon launching from the tool also means the front end
        makes exactly one RM request regardless of scale — "its front end
        avoid[s] excessive requests for system services such as remote
        shell processes."
        """
        num_daemons = topology.num_daemons
        t_daemons = (self.rm_round_trip
                     + self.tree_hop * math.log2(num_daemons + 1)
                     + self.per_daemon * num_daemons)
        if self.rng is not None:
            t_daemons += abs(float(self.rng.normal(0.0, 0.05)))

        num_cps = len(topology.comm_processes)
        t_cps = self.cp_spawn_seconds * num_cps
        t_connect = self.connect_time(machine, topology)

        total = t_daemons + t_cps + t_connect
        return LaunchResult(
            sim_time=total,
            breakdown={
                "tool.daemons": t_daemons,
                "tool.comm_processes": t_cps,
                "tool.connect": t_connect,
            },
            process_table=build_process_table(
                num_daemons, machine.tasks_per_daemon, mapping, rng=map_rng),
            daemons_launched=num_daemons,
            cps_launched=num_cps,
        )
