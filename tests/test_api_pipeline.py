"""SessionPipeline: phase composition, observers, frontend equivalence."""

import pytest

from repro.api import (
    PhaseObserver,
    PipelineError,
    SessionPipeline,
    SessionSpec,
    TimingObserver,
)
from repro.apps.ring import RingApp
from repro.core.frontend import STATFrontEnd, STATResult
from repro.faults import FaultPlan
from repro.statbench import ring_hang_states

SPEC = SessionSpec(machine="bgl", daemons=4, num_samples=2, seed=11)


class TestPhaseExecution:
    def test_full_run_produces_result(self):
        result = SessionPipeline.from_spec(SPEC).run()
        assert isinstance(result, STATResult)
        assert set(result.timings) == \
            {"launch", "map_gather", "sample", "merge", "remap"}
        assert [c.size for c in result.classes] == [254, 1, 1]

    def test_run_until_partial(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        ctx = pipeline.run_until("map_gather")
        assert pipeline.completed == ("launch", "map_gather")
        assert ctx.launch is not None and ctx.merge is None
        assert ctx.result is None
        assert set(ctx.timings) == {"launch", "map_gather"}

    def test_phases_individually_invokable_in_order(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        for name in ("launch", "map_gather", "stage", "sample",
                     "merge", "finalize"):
            pipeline.run_phase(name)
        assert pipeline.ctx.result is not None
        assert pipeline.remaining == ()

    def test_out_of_order_phase_rejected(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        with pytest.raises(PipelineError, match="needs"):
            pipeline.run_phase("merge")

    def test_rerun_phase_rejected(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        pipeline.run_phase("launch")
        with pytest.raises(PipelineError, match="already ran"):
            pipeline.run_phase("launch")

    def test_unknown_phase_rejected(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        with pytest.raises(PipelineError, match="unknown phase"):
            pipeline.run_until("teardown")

    def test_resume_after_partial(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        pipeline.run_until("sample")
        result = pipeline.run()
        assert result is pipeline.ctx.result
        assert result.timings == SessionPipeline.from_spec(SPEC).run().timings

    def test_sbrs_spec_adds_stage_timing(self):
        spec = SPEC.replace(machine="atlas", mode="co", use_sbrs=True)
        ctx = spec.run()
        assert "sbrs" in ctx.timings
        assert ctx.result.relocation is not None


class TestObservers:
    def test_phase_hooks_fire_in_order(self):
        events = []

        class Recorder(PhaseObserver):
            def on_phase_start(self, phase, ctx):
                events.append(("start", phase))

            def on_phase_end(self, phase, ctx, sim_seconds):
                events.append(("end", phase, sim_seconds >= 0))

            def on_session_end(self, ctx):
                events.append(("session_end",))

        SessionPipeline.from_spec(SPEC, observers=(Recorder(),)).run()
        starts = [e[1] for e in events if e[0] == "start"]
        assert starts == ["launch", "map_gather", "stage", "sample",
                          "merge", "finalize"]
        assert all(e[2] for e in events if e[0] == "end")
        assert events[-1] == ("session_end",)

    def test_timing_observer_captures_wall_clock(self):
        timer = TimingObserver()
        SessionPipeline.from_spec(SPEC, observers=(timer,)).run()
        assert set(timer.wall_seconds) == \
            {"launch", "map_gather", "stage", "sample", "merge", "finalize"}
        assert all(v >= 0 for v in timer.wall_seconds.values())

    def test_daemon_kill_observer_degrades_merge(self):
        class DaemonKiller(PhaseObserver):
            """Crash daemons 1 and 2 right before the merge."""

            def on_phase_start(self, phase, ctx):
                if phase == "merge":
                    ctx.fault_plan = FaultPlan(seed=ctx.seed).with_crashes(
                        [1, 2])

        result = SessionPipeline.from_spec(
            SPEC, observers=(DaemonKiller(),)).run()
        assert sorted(result.merge.missing_daemons) == [1, 2]
        # 2 of 4 daemons x 64 tasks are gone from the tree.
        total = sum(c.size for c in result.classes)
        assert total == 4 * 64 - 2 * 64

    def test_observer_can_abort_session(self):
        class Abort(PhaseObserver):
            def on_phase_start(self, phase, ctx):
                if phase == "sample":
                    raise RuntimeError("injected abort")

        pipeline = SessionPipeline.from_spec(SPEC, observers=(Abort(),))
        with pytest.raises(RuntimeError, match="injected abort"):
            pipeline.run()
        assert pipeline.completed == ("launch", "map_gather", "stage")


class TestFrontEndEquivalence:
    def test_attach_and_analyze_timings_reproduced_exactly(self):
        """The acceptance criterion: spec run == legacy monolith, bit-equal."""
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        legacy = fe.attach_and_analyze(
            ring_hang_states(machine.total_tasks), num_samples=2)
        via_spec = SPEC.run().result
        assert via_spec.timings == legacy.timings
        assert [c.ranks for c in via_spec.classes] == \
            [c.ranks for c in legacy.classes]

    def test_dead_daemons_path_equivalent(self):
        """A front-end pipeline given a crash plan == a spec carrying the
        legacy ``dead_daemons`` alias."""
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        pipeline = fe.pipeline(ring_hang_states(machine.total_tasks),
                               num_samples=2)
        pipeline.ctx.fault_plan = FaultPlan(seed=SPEC.seed).with_crashes(
            [3])
        via_frontend = pipeline.run()
        data = SPEC.to_dict()
        data["dead_daemons"] = [3]
        via_spec = SessionSpec.from_dict(data).run().result
        assert via_spec.timings == via_frontend.timings
        assert via_spec.merge.missing_daemons == \
            via_frontend.merge.missing_daemons == [3]
        assert via_spec.degradation == via_frontend.degradation

    def test_frontend_pipeline_method(self):
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        pipeline = fe.pipeline(ring_hang_states(machine.total_tasks),
                               num_samples=2)
        result = pipeline.run()
        assert result.timings == \
            fe.attach_and_analyze(ring_hang_states(machine.total_tasks),
                                  num_samples=2).timings


class TestFrontEndRun:
    def test_run_with_ring_app(self):
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        result = fe.run(RingApp.with_hang(machine.total_tasks),
                        num_samples=2)
        assert [c.size for c in result.classes] == [254, 1, 1]

    def test_run_with_plain_callable(self):
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        result = fe.run(ring_hang_states(machine.total_tasks),
                        num_samples=2)
        assert len(result.classes) == 3

    def test_run_rejects_wrong_size_workload(self):
        fe = STATFrontEnd(SPEC.build_machine())
        with pytest.raises(ValueError, match="sized for"):
            fe.run(RingApp.with_hang(8))

    def test_run_rejects_non_workload(self):
        fe = STATFrontEnd(SPEC.build_machine())
        with pytest.raises(TypeError, match="state_provider"):
            fe.run(42)


class TestRingApp:
    def test_with_hang_ids_and_states(self):
        app = RingApp.with_hang(64, hang_rank=5)
        assert app.workload_id == "ring_hang:5"
        assert app.state_provider()(5).kind == "stall"

    def test_healthy_has_no_hung_states(self):
        app = RingApp.healthy(64)
        assert not app.hung
        with pytest.raises(ValueError):
            app.state_provider()
        with pytest.raises(ValueError):
            app.workload_id

    def test_program_is_runnable(self):
        fe = STATFrontEnd(SessionSpec(machine="atlas", daemons=4,
                                      seed=5).build_machine(), seed=5)
        app = RingApp.with_hang(fe.machine.total_tasks)
        result = fe.debug_hung_application(app.program(), num_samples=2)
        assert len(result.classes) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RingApp.with_hang(2)
        with pytest.raises(ValueError):
            RingApp.with_hang(8, hang_rank=9)


def _ranks(task_map):
    """Each daemon's ranks, in daemon order."""
    return [task_map.ranks_of(d).tolist() for d in task_map.daemons()]


def _rows(tree, depth=None):
    """(path, ranks) per node, in node order (``depth`` truncates)."""
    if depth is not None:
        tree = tree.truncated_at_depth(depth)
    return [(str(path), node.tasks.to_ranks().tolist())
            for path, node in tree.walk()]


class TestShuffledMapping:
    SHUFFLED = SessionSpec(machine="bgl", daemons=8, num_samples=3,
                           seed=5, mapping="shuffled")

    def test_shuffled_spec_runs_and_shuffles(self):
        ctx = self.SHUFFLED.run()
        block = self.SHUFFLED.replace(mapping="block").run()
        assert ctx.result is not None
        assert _ranks(ctx.task_map) != _ranks(block.task_map)
        assert sorted(r for ranks in _ranks(ctx.task_map)
                      for r in ranks) == \
            list(range(ctx.machine.total_tasks))

    def test_replays_identically_per_seed(self):
        first = self.SHUFFLED.run()
        again = self.SHUFFLED.run()
        other = self.SHUFFLED.replace(seed=6).run()
        assert _ranks(first.task_map) == _ranks(again.task_map)
        assert _ranks(first.task_map) != _ranks(other.task_map)
        assert first.timings == again.timings
        for tree in ("tree_2d", "tree_3d"):
            assert _rows(getattr(first, tree)) == \
                _rows(getattr(again, tree))
        assert first.classes == again.classes

    def test_finalizes_like_the_block_map(self):
        shuffled = self.SHUFFLED.run().result
        block = self.SHUFFLED.replace(mapping="block").run().result
        assert shuffled.classes == block.classes
        # Each daemon draws its progress-engine recursion depths from its
        # own stream, so which ranks sit under each depth follows the
        # rank map (for cyclic maps too); every frame above that
        # recursion is the same, rank for rank.
        for tree in ("tree_2d", "tree_3d"):
            assert sorted(_rows(getattr(shuffled, tree), depth=4)) == \
                sorted(_rows(getattr(block, tree), depth=4))
