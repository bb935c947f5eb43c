"""Integration edge cases: degraded sessions, tiny machines, odd configs."""

import pytest

from repro.core.frontend import STATFrontEnd
from repro.core.merge import DenseLabelScheme
from repro.core.queries import TreeQuery
from repro.faults import FaultPlan
from repro.machine.atlas import AtlasMachine
from repro.machine.bgl import BGLMachine
from repro.statbench import ring_hang_states, uniform_class_states
from repro.tbon.topology import Topology


def crashed_session(machine, dead):
    """A block-mapped ring-hang session whose ``dead`` daemons crash
    before the merge."""
    pipeline = STATFrontEnd(machine, seed=5).pipeline(
        ring_hang_states(machine.total_tasks), mapping="block")
    pipeline.ctx.fault_plan = FaultPlan(seed=5).with_crashes(dead)
    return pipeline.run()


class TestDegradedSessions:
    def test_dead_daemons_skipped_end_to_end(self, bgl_small):
        result = crashed_session(bgl_small, {3, 7})
        assert sorted(result.merge.missing_daemons) == [3, 7]
        q = TreeQuery(result.tree_3d)
        absent = set(q.absent_tasks().to_ranks().tolist())
        # block mapping: daemon d owns ranks [64d, 64d+64)
        expected = set(range(3 * 64, 4 * 64)) | set(range(7 * 64, 8 * 64))
        assert absent == expected

    def test_degraded_classes_still_triage(self, bgl_small):
        """Losing an unrelated daemon must not hide the bug."""
        result = crashed_session(bgl_small, {9})
        singles = [c for c in result.classes if c.size == 1]
        assert {c.ranks[0] for c in singles} == {1, 2}

    def test_losing_the_bug_daemon_hides_the_bug(self, bgl_small):
        """If daemon 0 (owning ranks 0..63) dies, ranks 1 and 2 vanish —
        the tool can only report what it can reach."""
        result = crashed_session(bgl_small, {0})
        assert all(c.size > 1 for c in result.classes)
        q = TreeQuery(result.tree_3d)
        assert 1 in q.absent_tasks()


class TestTinyConfigurations:
    def test_single_daemon_machine(self):
        machine = AtlasMachine.with_nodes(1)
        fe = STATFrontEnd(machine, seed=1)
        result = fe.attach_and_analyze(ring_hang_states(8))
        total = sum(c.size for c in result.classes)
        assert total == 8

    def test_single_io_node_bgl(self):
        machine = BGLMachine.with_io_nodes(1, "co")
        fe = STATFrontEnd(machine, seed=1)
        result = fe.attach_and_analyze(ring_hang_states(64))
        assert sum(c.size for c in result.classes) == 64

    def test_three_task_minimum_ring(self):
        """The smallest population where the hang signature exists."""
        from repro.apps import ring_program
        from repro.mpi.runtime import MPIRuntime
        from repro.sim.engine import Engine
        rt = MPIRuntime(Engine(), 3)
        rt.run_program(ring_program())
        kinds = {rt.state_of(r).kind for r in range(3)}
        assert kinds == {"stall", "waitall", "barrier"}


class TestManyClassWorkloads:
    @pytest.mark.parametrize("classes", [2, 8, 16])
    def test_uniform_classes_survive_pipeline(self, bgl_small, classes):
        fe = STATFrontEnd(bgl_small, seed=17)
        result = fe.attach_and_analyze(
            uniform_class_states(1024, classes, seed=3))
        total = sum(c.size for c in result.classes)
        assert total == 1024
        assert len(result.classes) >= classes // 2  # triage view may merge

    def test_dense_scheme_full_pipeline_with_flat_topology(self):
        machine = AtlasMachine.with_nodes(8)
        fe = STATFrontEnd(machine,
                          topology=Topology.flat(8),
                          scheme=DenseLabelScheme(machine.total_tasks),
                          seed=23)
        result = fe.attach_and_analyze(ring_hang_states(64))
        assert [c.size for c in result.classes] == [62, 1, 1]

    def test_three_deep_topology_full_pipeline(self):
        machine = BGLMachine.with_io_nodes(64, "co")
        fe = STATFrontEnd(machine,
                          topology=Topology.bgl_three_deep(64),
                          seed=29)
        result = fe.attach_and_analyze(
            ring_hang_states(machine.total_tasks))
        assert [c.size for c in result.classes] == [4094, 1, 1]


class TestSummaryRendering:
    def test_summary_includes_map_gather_phase(self, bgl_small):
        fe = STATFrontEnd(bgl_small, seed=5)
        result = fe.attach_and_analyze(ring_hang_states(1024))
        assert "map_gather" in result.timings
        assert "map_gather" in result.summary()

    def test_network_profile_renders(self, bgl_small):
        fe = STATFrontEnd(bgl_small, seed=5)
        result = fe.attach_and_analyze(ring_hang_states(1024))
        profile = result.merge.network_profile()
        assert "messages" in profile and "MB" in profile
