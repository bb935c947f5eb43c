"""Launcher interface and results.

A launcher models everything that must happen before STAT can take its
first sample: spawning tool daemons next to the application, spawning
MRNet communication processes, wiring the overlay network, and (on BG/L,
where the prototype only supports launch-under-tool-control) starting the
application itself and generating its process table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.launch.process_table import ProcessTable
from repro.machine.base import MachineModel
from repro.tbon.topology import Topology

__all__ = ["LaunchError", "LaunchHang", "LaunchResult", "Launcher"]


class LaunchError(RuntimeError):
    """Startup failed outright (e.g. rsh connection exhaustion)."""


class LaunchHang(LaunchError):
    """Startup hung rather than erroring.

    The paper's pre-patch BG/L resource manager exhibited "an apparent run
    time failure (hang) at 208K processes"; we surface it as a distinct
    exception so benchmarks can report it as the paper does.
    """


@dataclass
class LaunchResult:
    """Everything the tool front end learns from a completed startup."""

    #: total simulated startup seconds (daemons + CPs + connect [+ app])
    sim_time: float
    #: named phases -> seconds; keys are launcher-specific but stable
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: the job's process table (also yields the daemon task map)
    process_table: Optional[ProcessTable] = None
    #: daemons actually launched
    daemons_launched: int = 0
    #: communication processes actually launched
    cps_launched: int = 0

    def phase(self, name: str) -> float:
        """Seconds spent in one named phase (0.0 if absent)."""
        return self.breakdown.get(name, 0.0)

    def system_software_fraction(self) -> float:
        """Share of startup attributable to the system software.

        Counts the resource-manager phases (application boot and process
        table generation).  The paper reports >86% at 64K compute nodes in
        virtual-node mode (Section IV-A).
        """
        system = sum(v for k, v in self.breakdown.items()
                     if k.startswith("system."))
        return system / self.sim_time if self.sim_time > 0 else 0.0


class Launcher:
    """Interface: spawn the tool (and maybe the app) for one machine/topology."""

    #: identifier used in benchmark rows
    name = "abstract"

    def launch(self, machine: MachineModel, topology: Topology,
               mapping: str = "block",
               map_rng: Optional[np.random.Generator] = None
               ) -> LaunchResult:
        """Perform startup; raises :class:`LaunchError` on failure.

        ``mapping`` selects how the resource manager assigns MPI ranks to
        daemons ("block", "cyclic", or "shuffled") — the task map inside
        the returned :class:`~repro.launch.process_table.ProcessTable` is
        what the front end's remap step must later undo.  ``map_rng``
        draws the ``"shuffled"`` map, which cannot be built without it;
        it is never the launcher's own jitter ``rng``.
        """
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------
    @staticmethod
    def connect_time(machine: MachineModel, topology: Topology,
                     accept_seconds: float = 2.0e-3) -> float:
        """Time to wire the TBO̅N once all processes exist.

        Each parent accepts its children's connections serially; levels
        connect bottom-up in parallel across nodes, so the total is the max
        over root-to-leaf paths of per-node ``fanout * accept`` costs.
        """
        def visit(node) -> float:
            if node.is_leaf:
                return 0.0
            own = len(node.children) * accept_seconds \
                + machine.link_latency_s
            return own + max(visit(child) for child in node.children)

        return visit(topology.root)
