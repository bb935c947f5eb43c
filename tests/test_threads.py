"""Unit tests for the Section VII threading extension."""

import pytest

from repro.core.merge import HierarchicalLabelScheme
from repro.core.sampling import SamplingConfig
from repro.core.taskset import TaskMap
from repro.machine.bgl import BGLMachine
from repro.statbench import STATBenchEmulator, ring_hang_states
from repro.statbench.emulator import DaemonTrees
from repro.tbon.network import TBONetwork
from repro.tbon.topology import Topology
from repro.threads.model import ThreadingModel


class TestThreadingModel:
    def test_paper_equivalence_example(self):
        """10,000 nodes x 8 threads ~ 80,000 unthreaded tasks."""
        machine = BGLMachine.with_io_nodes(1, "co")
        model = ThreadingModel(machine, 8)
        assert model.equivalent_task_count() == machine.total_tasks * 8

    def test_data_multiplier(self):
        machine = BGLMachine.with_io_nodes(2, "co")
        assert ThreadingModel(machine, 4).data_multiplier() == 4

    def test_thread_count_validated(self):
        machine = BGLMachine.with_io_nodes(2, "co")
        with pytest.raises(ValueError):
            ThreadingModel(machine, 0)

    def test_expected_sampling_slowdown(self):
        machine = BGLMachine.with_io_nodes(2, "co")
        assert ThreadingModel(machine, 8).expected_sampling_slowdown() == 8.0

    def test_merge_slowdown_bound(self):
        machine = BGLMachine.with_io_nodes(2, "co")
        model = ThreadingModel(machine, 4)
        assert model.expected_merge_slowdown_bound(10, 5) == 1.5
        with pytest.raises(ValueError):
            model.expected_merge_slowdown_bound(0, 1)

    def test_sampling_config_carries_threads(self):
        machine = BGLMachine.with_io_nodes(2, "co")
        cfg = ThreadingModel(machine, 4).sampling_config(
            SamplingConfig(num_samples=3, jitter_sigma=0.0))
        assert cfg.threads_per_process == 4
        assert cfg.num_samples == 3

    def test_describe_mentions_equivalent_scale(self):
        machine = BGLMachine.with_io_nodes(2, "co")
        text = ThreadingModel(machine, 8).describe()
        assert str(machine.total_tasks * 8) in text


class TestThreadedMerge:
    def _merge_time(self, threads, bgl_stacks):
        machine = BGLMachine.with_io_nodes(8, "co")
        tm = TaskMap.block(machine.num_daemons, machine.tasks_per_daemon)
        em = STATBenchEmulator(tm, HierarchicalLabelScheme(), bgl_stacks,
                               ring_hang_states(machine.total_tasks),
                               num_samples=5, threads_per_process=threads)
        forest = em.build_forest()
        net = TBONetwork(Topology.bgl_two_deep(machine.num_daemons), machine)
        return net.reduce(forest.__getitem__, em.merge_filter(),
                          DaemonTrees.serialized_bytes,
                          DaemonTrees.node_count)

    def test_thread_traces_enter_the_tree(self, bgl_stacks):
        res = self._merge_time(4, bgl_stacks)
        fns = {f.function for p, _ in res.payload.tree_3d.edges()
               for f in p}
        assert "omp_worker_loop" in fns

    def test_process_remains_the_label_unit(self, bgl_stacks):
        """Thread stacks are labelled with the owning process's slots."""
        res = self._merge_time(2, bgl_stacks)
        tree = res.payload.tree_3d
        worker_paths = [(p, lbl) for p, lbl in tree.leaf_paths()
                        if p.leaf.function == "do_team_chunk"]
        assert worker_paths
        # every process has a worker thread -> the label covers all tasks
        _, label = worker_paths[0]
        assert label.count() == 512  # 8 io nodes x 64 tasks

    def test_merge_grows_sublinearly_in_threads(self, bgl_stacks):
        """Section VII: merge slowdown far below the data multiplier."""
        t1 = self._merge_time(1, bgl_stacks).sim_time
        t8 = self._merge_time(8, bgl_stacks).sim_time
        assert t8 / t1 < 2.0  # 8x threads, < 2x merge time
