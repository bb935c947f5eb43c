"""Tests for timeline sampling, triage queries, and session persistence."""

import pytest

from repro.apps import ring_program
from repro.apps.bugs import NO_BUG, HangBeforeSend
from repro.core.frames import StackTrace
from repro.core.frontend import STATFrontEnd
from repro.core.merge import HierarchicalLabelScheme
from repro.core.queries import TreeQuery
from repro.core.session import load_session, save_session
from repro.core.equivalence import equivalence_classes
from repro.core.taskset import TaskMap
from repro.core.timeline import TimelineSampler
from repro.mpi.runtime import STATES
from repro.perf.reference import ReferenceDaemon
from repro.sim.random import SeedStream
from repro.statbench import ring_hang_states


@pytest.fixture
def timeline_sampler(atlas_small, linux_stacks):
    tm = TaskMap.block(atlas_small.num_daemons,
                       atlas_small.tasks_per_daemon)
    return TimelineSampler(atlas_small, tm, HierarchicalLabelScheme(),
                           linux_stacks, seed=3)


#: the two timeline scenarios: a running ring and a ring hung at rank 1
SCENARIOS = {
    "healthy": (lambda: ring_program(bug=NO_BUG, compute_seconds=2.0e-4),
                [1e-4, 3e-4, 1.0]),
    "hung": (lambda: ring_program(bug=HangBeforeSend(rank=1)), [0.5, 1.0]),
}


def _edges(tree):
    return [(path, label.to_ranks().tolist()) for path, label in tree.edges()]


class TestTimeline:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_per_object_oracle(self, timeline_sampler, scenario):
        """The forest-built trees equal per-object daemon walks that
        sample the recorded per-instant states one instant at a time."""
        make_program, times = SCENARIOS[scenario]
        result = timeline_sampler.run(make_program(), sample_times=times)
        sampler = timeline_sampler
        assert result.states.shape == (len(times),
                                       sampler.task_map.total_tasks)
        seeds = SeedStream(sampler.seed).child("timeline")
        trees_2d, trees_3d = [], []
        for d in sorted(sampler.task_map.daemons()):
            oracle = ReferenceDaemon(d, sampler.task_map, sampler.scheme,
                                     sampler.stack_model,
                                     rng=seeds.rng(f"daemon-{d}"))
            for row in result.states:
                oracle.sample_once(
                    lambda r, row=row: STATES.state_of(int(row[r])))
            tree_2d, tree_3d = oracle.trees_arrays()
            trees_2d.append(tree_2d)
            trees_3d.append(tree_3d)
        scheme, task_map = sampler.scheme, sampler.task_map
        want_2d = scheme.finalize(scheme.merge(trees_2d), task_map)
        want_3d = scheme.finalize(scheme.merge(trees_3d), task_map)
        assert _edges(result.tree_2d) == _edges(want_2d)
        assert _edges(result.tree_3d) == _edges(want_3d)
        assert equivalence_classes(result.tree_2d) == \
            equivalence_classes(want_2d)
        assert equivalence_classes(result.tree_3d) == \
            equivalence_classes(want_3d)

    def test_healthy_app_shows_multiple_states_over_time(
            self, timeline_sampler):
        """A *running* app's 3D tree spans genuinely different states."""
        result = timeline_sampler.run(
            ring_program(bug=NO_BUG, compute_seconds=2.0e-4),
            sample_times=[1e-4, 3e-4, 1.0])
        assert not result.hung
        all_kinds = set().union(*result.states_seen)
        assert "compute" in all_kinds
        assert "done" in all_kinds
        # 3D tree saw more behaviours than the final 2D snapshot
        assert result.tree_3d.node_count() > result.tree_2d.node_count()

    def test_hung_app_converges_to_figure1(self, timeline_sampler):
        result = timeline_sampler.run(
            ring_program(bug=HangBeforeSend(rank=1)),
            sample_times=[0.5, 1.0])
        assert result.hung
        fns = {p.leaf.function for p, _ in result.tree_3d.leaf_paths()}
        assert "do_SendOrStall" in fns

    def test_sample_times_validated(self, timeline_sampler):
        with pytest.raises(ValueError):
            timeline_sampler.run(ring_program(), sample_times=[])
        with pytest.raises(ValueError):
            timeline_sampler.run(ring_program(), sample_times=[2.0, 1.0])

    def test_task_map_must_match_machine(self, atlas_small, linux_stacks):
        with pytest.raises(ValueError, match="task map"):
            TimelineSampler(atlas_small, TaskMap.block(2, 4),
                            HierarchicalLabelScheme(), linux_stacks)


@pytest.fixture
def session_result(bgl_small):
    fe = STATFrontEnd(bgl_small, seed=5)
    return fe.attach_and_analyze(ring_hang_states(bgl_small.total_tasks))


class TestTreeQuery:
    def test_requires_dense_labels(self):
        from repro.core.prefix_tree import PrefixTree
        with pytest.raises(ValueError):
            TreeQuery(PrefixTree())

    def test_all_tasks(self, session_result):
        q = TreeQuery(session_result.tree_2d)
        assert q.all_tasks().count() == 1024
        assert q.absent_tasks().count() == 0

    def test_tasks_in_function(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        assert q.tasks_in_function("do_SendOrStall").to_ranks().tolist() \
            == [1]
        assert q.tasks_in_function("PMPI_Barrier").count() == 1022

    def test_reached_but_not(self, session_result):
        """The hang question: in main but never at the barrier."""
        q = TreeQuery(session_result.tree_3d)
        suspects = q.reached_but_not("main", "PMPI_Barrier")
        assert suspects.to_ranks().tolist() == [1, 2]

    def test_outliers_find_the_bug(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        outliers = q.outliers(max_class_size=1)
        ranks = {r for _, rs in outliers for r in rs}
        assert ranks == {1, 2}

    def test_where_is_rank_one(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        paths = q.where_is(1)
        assert paths
        assert all(p.leaf.function == "do_SendOrStall" for p in paths)

    def test_tasks_at_path(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        path = StackTrace.from_names(
            ["_start_blrts", "main", "PMPI_Waitall"],
            module="ring_test_bgl")
        assert q.tasks_at(path).to_ranks().tolist() == [2]

    def test_missing_path_is_empty(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        nowhere = StackTrace.from_names(["nope"])
        assert q.tasks_at(nowhere).is_empty()

    def test_class_of(self, session_result):
        q = TreeQuery(session_result.tree_2d)
        assert q.class_of(1).to_ranks().tolist() == [1]


class TestSessionPersistence:
    def test_save_load_roundtrip(self, session_result, tmp_path):
        save_session(session_result, tmp_path / "s1", machine_name="bgl-16")
        archive = load_session(tmp_path / "s1")
        assert archive.tree_3d.structurally_equal(session_result.tree_3d)
        assert [c.label() for c in archive.classes] == \
            [c.label() for c in session_result.classes]
        assert archive.meta["machine"] == "bgl-16"
        assert archive.timings.keys() == session_result.timings.keys()

    def test_saved_files_present(self, session_result, tmp_path):
        out = save_session(session_result, tmp_path / "s2")
        for name in ("tree_2d.stpt", "tree_3d.stpt", "tree_3d.dot",
                     "session.json"):
            assert (out / name).exists()
        dot = (out / "tree_3d.dot").read_text()
        assert dot.startswith("digraph")

    def test_queries_work_on_archive(self, session_result, tmp_path):
        save_session(session_result, tmp_path / "s3")
        archive = load_session(tmp_path / "s3")
        q = TreeQuery(archive.tree_3d)
        assert q.tasks_in_function("do_SendOrStall").count() == 1

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_session(tmp_path / "nope")

    def test_version_check(self, session_result, tmp_path):
        out = save_session(session_result, tmp_path / "s4")
        meta = (out / "session.json").read_text().replace(
            '"format_version": 2', '"format_version": 9')
        (out / "session.json").write_text(meta)
        with pytest.raises(ValueError, match="version"):
            load_session(out)
