"""Ablation A2 — threads per task (the Section VII projection).

Sweeps ``threads_per_process`` on a fixed BG/L partition and measures both
phases, checking the paper's two predictions empirically:

* sampling time grows **linearly** in thread count ("a constant slowdown
  per thread"), and
* merge time grows far slower than the data multiplier ("only a
  logarithmic slowdown in merging time"), because worker-thread stacks
  coalesce in the prefix tree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.merge import HierarchicalLabelScheme
from repro.core.sampling import SamplingConfig
from repro.core.taskset import TaskMap
from repro.experiments.common import ExperimentResult, Row, timed_sampling
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.statbench import ring_hang_states
from repro.statbench.emulator import DaemonTrees, STATBenchEmulator
from repro.tbon.network import TBONetwork
from repro.tbon.topology import Topology
from repro.threads.model import ThreadingModel

__all__ = ["run", "THREAD_COUNTS"]

THREAD_COUNTS: Sequence[int] = (1, 2, 4, 8, 16)
QUICK_THREAD_COUNTS: Sequence[int] = (1, 4)


def run(quick: bool = False,
        thread_counts: Optional[Sequence[int]] = None,
        seed: int = 208_000) -> ExperimentResult:
    """Sweep thread counts; measure sampling and merge."""
    thread_counts = thread_counts or (QUICK_THREAD_COUNTS if quick
                                      else THREAD_COUNTS)
    daemons = 16 if quick else 64
    machine = BGLMachine.with_io_nodes(daemons, "co")
    result = ExperimentResult(
        figure="Ablation A2",
        title=f"threads-per-task sweep on {machine.describe()}",
        xlabel="threads per task",
        ylabel="seconds",
    )
    stack_model = BGLStackModel()
    state_of = ring_hang_states(machine.total_tasks)
    task_map = TaskMap.block(machine.num_daemons, machine.tasks_per_daemon)
    topo = Topology.bgl_two_deep(daemons)
    for threads in thread_counts:
        model = ThreadingModel(machine, threads)
        config = model.sampling_config(SamplingConfig(jitter_sigma=0.0))
        report, _ = timed_sampling(machine, stack_model, staging="nfs",
                                   config=config, seed=seed)
        result.rows.append(Row(
            "sampling", threads, report.max_seconds,
            note=f"~{model.equivalent_task_count()} unthreaded tasks"))

        emulator = STATBenchEmulator(
            task_map, HierarchicalLabelScheme(), stack_model, state_of,
            num_samples=10, threads_per_process=threads, seed=seed)
        forest = emulator.build_forest()
        network = TBONetwork(topo, machine)
        merge = network.reduce(
            forest.__getitem__, emulator.merge_filter(),
            DaemonTrees.serialized_bytes, DaemonTrees.node_count)
        result.rows.append(Row("merge", threads, merge.sim_time))
    result.notes.append(
        "Section VII expectations: sampling linear in threads; merge "
        "sub-linear (thread stacks coalesce in the prefix tree)")
    return result
