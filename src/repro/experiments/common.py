"""Shared experiment plumbing: rows, tables, reduction and sampling helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.merge import LabelScheme
from repro.core.sampling import SamplingConfig, SamplingTimeReport, \
    time_sampling_phase
from repro.fs.binary import stage_binaries
from repro.fs.lustre import LustreServer
from repro.fs.mtab import MountTable
from repro.fs.nfs import NFSServer
from repro.fs.ramdisk import RamDisk
from repro.fs.sbrs import SBRS, RelocationReport
from repro.fs.server import LocalDisk
from repro.machine.base import MachineModel
from repro.mpi.stacks import StackModel
from repro.sim.engine import Engine
from repro.statbench.emulator import DaemonTrees, STATBenchEmulator
from repro.statbench.generator import StateProvider
from repro.core.taskset import TaskMap
from repro.tbon.network import ReduceResult, TBONetwork
from repro.tbon.topology import Topology

__all__ = ["Row", "ExperimentResult", "format_table", "timed_merge",
           "timed_sampling"]


@dataclass
class Row:
    """One data point of a figure: a series name, an x value, a y value."""

    series: str
    x: float
    y: Optional[float]            # None = the run failed (plotted as a gap)
    unit: str = "s"
    note: str = ""

    @property
    def failed(self) -> bool:
        """True when the paper (and we) report a failure at this point."""
        return self.y is None

    def formatted(self) -> str:
        y = "FAIL" if self.y is None else f"{self.y:12.4f}"
        note = f"  # {self.note}" if self.note else ""
        return f"{self.series:<28} {self.x:>12.0f} {y} {self.unit}{note}"


@dataclass
class ExperimentResult:
    """All rows of one regenerated figure, plus context for the reader."""

    figure: str
    title: str
    xlabel: str
    ylabel: str
    rows: List[Row] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def series(self, name: str) -> List[Row]:
        """Rows of one series, in x order."""
        return sorted((r for r in self.rows if r.series == name),
                      key=lambda r: r.x)

    def series_names(self) -> List[str]:
        """All series names, first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.series, None)
        return list(seen)

    def render(self) -> str:
        """The printable table (what the CLI and benches emit)."""
        lines = [
            f"== {self.figure}: {self.title} ==",
            f"   x = {self.xlabel}; y = {self.ylabel}",
            f"{'series':<28} {'x':>12} {'y':>12}",
        ]
        for name in self.series_names():
            for row in self.series(name):
                lines.append(row.formatted())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def format_table(result: ExperimentResult) -> str:
    """Alias for ``result.render()`` kept for API symmetry."""
    return result.render()


def timed_merge(machine: MachineModel, topology: Topology,
                scheme: LabelScheme, stack_model: StackModel,
                state_of: StateProvider,
                num_samples: int = 10,
                seed: int = 208_000,
                mapping: str = "block") -> ReduceResult:
    """One merge-phase measurement: emulate daemons, reduce, return stats.

    The shared core of Figures 4, 5, and 7: build each daemon's locally
    merged 2D+3D trees (real data) and push them through the timed TBO̅N
    reduction.
    """
    if mapping == "cyclic":
        task_map = TaskMap.cyclic(machine.num_daemons, machine.tasks_per_daemon)
    else:
        task_map = TaskMap.block(machine.num_daemons, machine.tasks_per_daemon)
    emulator = STATBenchEmulator(
        task_map, scheme, stack_model, state_of,
        num_samples=num_samples, seed=seed)
    forest = emulator.build_forest()
    network = TBONetwork(topology, machine)
    return network.reduce(
        leaf_payload_fn=forest.__getitem__,
        merge_fn=emulator.merge_filter(),
        payload_nbytes=DaemonTrees.serialized_bytes,
        payload_nodes=DaemonTrees.node_count,
    )


def timed_sampling(machine: MachineModel, stack_model: StackModel,
                   staging: str = "nfs",
                   config: SamplingConfig = SamplingConfig(),
                   use_sbrs: bool = False,
                   server_load_factor: float = 1.0,
                   seed: int = 208_000,
                   ) -> Tuple[SamplingTimeReport, Optional[RelocationReport]]:
    """One sampling-phase measurement (the shared core of Figures 8-10).

    ``server_load_factor`` scales down the shared servers' bandwidth to
    model the ambient load of other users ("becoming increasingly
    vulnerable to the current file server loads", Section VI-A).
    """
    if server_load_factor <= 0:
        raise ValueError("server_load_factor must be positive")
    engine = Engine()
    mtab = MountTable({
        "nfs": NFSServer(engine, bandwidth_Bps=60e6 / server_load_factor),
        "lustre": LustreServer(engine,
                               bandwidth_Bps=120e6 / server_load_factor),
        "ramdisk": RamDisk(),
        "localdisk": LocalDisk(),
    })
    files = stage_binaries(machine.binary, default_mount=staging)
    relocation: Optional[RelocationReport] = None
    if use_sbrs:
        sbrs = SBRS(mtab)
        relocation = sbrs.relocate(engine, files, machine.num_daemons)
        files = sbrs.effective_files(files)
        config = SamplingConfig(
            num_samples=config.num_samples,
            threads_per_process=config.threads_per_process,
            application_stopped=True,
            symtab_cached=config.symtab_cached,
            jitter_sigma=config.jitter_sigma,
            merge_seconds_per_trace=config.merge_seconds_per_trace,
            run_id=config.run_id,
        )
    report = time_sampling_phase(machine, mtab, files, stack_model, config,
                                 engine=engine, seed=seed)
    if relocation is not None:
        report.extra_seconds += relocation.sigstop_grace_s
    return report, relocation
