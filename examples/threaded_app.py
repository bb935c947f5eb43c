#!/usr/bin/env python3
"""Section VII preview: debugging a multithreaded application.

STAT's thread plan: collect a call stack from *every thread*, but keep
associating stacks with their owning process.  This example samples a
threaded job (each rank runs the MPI main thread plus OpenMP-style
workers), shows worker-thread paths entering the prefix tree under the
process's labels, and verifies the paper's two scaling predictions.

Run:  python examples/threaded_app.py
"""

from repro.core.merge import HierarchicalLabelScheme
from repro.core.sampling import SamplingConfig
from repro.core.taskset import TaskMap
from repro.core.visualize import to_ascii
from repro.experiments.common import timed_sampling
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.statbench import STATBenchEmulator, ring_hang_states
from repro.statbench.emulator import DaemonTrees
from repro.tbon.network import TBONetwork
from repro.tbon.topology import Topology
from repro.threads.model import ThreadingModel


def main() -> None:
    machine = BGLMachine.with_io_nodes(16, "co")   # 1,024 tasks
    stack_model = BGLStackModel()
    state_of = ring_hang_states(machine.total_tasks)
    task_map = TaskMap.block(machine.num_daemons, machine.tasks_per_daemon)
    topo = Topology.bgl_two_deep(machine.num_daemons)

    print(f"{'threads':>8} {'stacks/sample':>14} {'sampling s':>11} "
          f"{'merge s':>9} {'equivalent tasks':>17}")
    baseline = {}
    for threads in (1, 2, 4, 8):
        model = ThreadingModel(machine, threads)
        report, _ = timed_sampling(
            machine, stack_model, staging="nfs",
            config=model.sampling_config(SamplingConfig(jitter_sigma=0.0)))
        emulator = STATBenchEmulator(
            task_map, HierarchicalLabelScheme(), stack_model, state_of,
            num_samples=10, threads_per_process=threads)
        forest = emulator.build_forest()
        merge = TBONetwork(topo, machine).reduce(
            forest.__getitem__, emulator.merge_filter(),
            DaemonTrees.serialized_bytes, DaemonTrees.node_count)
        if threads == 1:
            baseline["sample"] = report.max_seconds
            baseline["merge"] = merge.sim_time
        print(f"{threads:>8} {model.total_threads:>14} "
              f"{report.max_seconds:>11.2f} {merge.sim_time:>9.3f} "
              f"{model.equivalent_task_count():>17}")
        last_merge = merge

    print()
    print("Section VII predictions, checked:")
    print(f"  sampling slowdown at 8 threads: "
          f"{report.max_seconds / baseline['sample']:.1f}x "
          f"(prediction: ~8x, 'a constant slowdown per thread')")
    print(f"  merge slowdown at 8 threads:    "
          f"{last_merge.sim_time / baseline['merge']:.2f}x "
          f"(prediction: far below 8x - thread stacks coalesce)")
    print()
    print("worker-thread paths stay attached to the *process* classes:")
    tree = last_merge.payload.tree_3d
    from repro.core.merge import HierarchicalLabelScheme as _H
    final = _H().finalize(tree, task_map)
    print(to_ascii(final.truncated_at_depth(4)))


if __name__ == "__main__":
    main()
