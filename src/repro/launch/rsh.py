"""Serial rsh/ssh daemon launching — MRNet's original spawning facility.

"The initial STAT implementation relies on the daemon-spawning facilities
within MRNet, which uses remote access protocols such as ssh or rsh to
individually launch the daemons" (Section IV-A).  Each spawn is a full
remote-shell round trip, strictly serialized at the front end, giving the
clean linear trend of Figure 2 — and with rsh, a hard failure at 512
daemons on Atlas ("At 512 nodes, MRNet consistently fails to launch the
daemons when using rsh"; Atlas's compute nodes did not accept ssh).

Calibration: Figure 2 shows the MRNet line crossing ~60 s at 256 daemons
and the paper extrapolates "over 2 minutes" at 512, i.e. ~0.23 s per
daemon; ssh handshakes cost slightly more per spawn (key exchange), which
matched our Thunder experience of working-but-slow.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.launch.base import Launcher, LaunchError, LaunchResult
from repro.launch.process_table import build_process_table
from repro.machine.base import MachineModel
from repro.tbon.topology import Topology

__all__ = ["SerialRshLauncher"]

#: Per-daemon spawn latencies (seconds) by protocol.
_SPAWN_COST = {"rsh": 0.236, "ssh": 0.266}

#: rsh's privileged-port pool exhausts around this many sequential
#: connections on Atlas-era Linux; beyond it the spawn "consistently fails".
_RSH_FAILURE_THRESHOLD = 512


class SerialRshLauncher(Launcher):
    """MRNet ad hoc spawning over rsh or ssh (the Figure 2 baseline)."""

    def __init__(self, protocol: str = "rsh",
                 spawn_seconds: Optional[float] = None,
                 fail_at_daemons: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if protocol not in _SPAWN_COST:
            raise ValueError(f"protocol must be 'rsh' or 'ssh', got {protocol!r}")
        self.protocol = protocol
        self.spawn_seconds = (_SPAWN_COST[protocol]
                              if spawn_seconds is None else spawn_seconds)
        if fail_at_daemons is None and protocol == "rsh":
            fail_at_daemons = _RSH_FAILURE_THRESHOLD
        self.fail_at_daemons = fail_at_daemons
        self.rng = rng
        self.name = f"mrnet-{protocol}"

    def launch(self, machine: MachineModel, topology: Topology,
               mapping: str = "block",
               map_rng: Optional[np.random.Generator] = None
               ) -> LaunchResult:
        """Serially spawn every daemon and CP, then wire the tree."""
        num_daemons = topology.num_daemons
        if (self.fail_at_daemons is not None
                and num_daemons >= self.fail_at_daemons):
            raise LaunchError(
                f"{self.protocol} spawn failed at {num_daemons} daemons "
                f"(connection exhaustion at >= {self.fail_at_daemons}; "
                "Section IV-A)")

        jitter = 0.0
        if self.rng is not None:
            # Remote-shell latency varies with target-node load.
            jitter = float(self.rng.normal(0.0, 0.004 * num_daemons))
        t_daemons = self.spawn_seconds * num_daemons + max(0.0, jitter)

        num_cps = len(topology.comm_processes)
        t_cps = self.spawn_seconds * num_cps
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
