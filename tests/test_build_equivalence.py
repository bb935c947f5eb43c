"""Randomized property tests pinning the one production build path.

:func:`repro.core.forest.build_forest` (reached via
:meth:`STATBenchEmulator.build_forest`) must agree bit for bit with the
frozen per-object oracle
(:func:`repro.perf.reference.reference_daemon_trees`) for any (seed,
provider, map, threads, scheme, model) combination.

``TreeArrays.arrays_equal`` asserts *every* array including row order —
stronger than structural equality — so these tests pin the forest kernel
to the exact construction the per-object code performs.
"""

import numpy as np
import pytest

from repro.core.forest import build_forest
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.sampling import BatchWalkSampler
from repro.core.taskset import TaskMap
from repro.mpi.runtime import STATES
from repro.mpi.stacks import BGLStackModel, LinuxStackModel
from repro.perf.reference import ReferenceDaemon, reference_daemon_trees
from repro.sim.random import SeedStream
from repro.statbench.emulator import STATBenchEmulator
from repro.statbench.generator import (
    distinct_leaf_states,
    ring_hang_states,
    uniform_class_states,
)


class ScalarOnly:
    """A provider without the batch ``states_array`` API."""

    def __init__(self, provider):
        self.provider = provider

    def __call__(self, rank):
        return self.provider(rank)


def _providers(total, prov_seed):
    return [
        ("ring", ring_hang_states(total)),
        ("uniform", uniform_class_states(total, 4, seed=prov_seed)),
        ("distinct", distinct_leaf_states(total)),
    ]


def _ragged_map(rng):
    """Random per-daemon widths, one of them zero, over shuffled ranks."""
    widths = rng.integers(1, 8, size=int(rng.integers(3, 7)))
    widths[int(rng.integers(widths.size))] = 0
    ranks = rng.permutation(int(widths.sum()))
    parts = np.split(ranks, np.cumsum(widths)[:-1])
    return TaskMap({d: part for d, part in enumerate(parts)})


def _map(kind, rng):
    if kind == "ragged":
        return _ragged_map(rng)
    daemons = int(rng.integers(3, 7))
    width = int(rng.integers(3, 12))
    if kind == "block":
        return TaskMap.block(daemons, width)
    if kind == "cyclic":
        return TaskMap.cyclic(daemons, width)
    return TaskMap.shuffled(daemons, width, rng)


def _schemes(total):
    return [HierarchicalLabelScheme(), DenseLabelScheme(total)]


def _assert_pairs_equal(got, want, context):
    assert got.tree_2d.arrays_equal(want.tree_2d), f"2D diverged: {context}"
    assert got.tree_3d.arrays_equal(want.tree_3d), f"3D diverged: {context}"


def _seeded(seed):
    seeds = SeedStream(seed)
    return lambda d: seeds.rng(f"daemon-{d}")


class TestForestVsPerDaemon:
    """build_forest must be bit-identical to the per-daemon oracle."""

    #: map kinds, cycled over the trials so every kind meets both models
    MAP_KINDS = ("block", "cyclic", "shuffled", "ragged")

    @pytest.mark.parametrize("trial", range(8))
    def test_randomized_populations(self, trial):
        rng = np.random.default_rng(9200 + trial)
        kind = self.MAP_KINDS[trial % 4]
        task_map = _map(kind, rng)
        total = task_map.total_tasks
        seed = int(rng.integers(1, 1 << 20))
        samples = int(rng.integers(1, 4))
        threads = 1 + trial % 3
        model_cls = BGLStackModel if trial < 4 else LinuxStackModel
        scalar_only = ScalarOnly(uniform_class_states(total, 3, seed=trial))
        for pname, provider in _providers(total, prov_seed=trial) + [
                ("scalar-only", scalar_only)]:
            for scheme in _schemes(total):
                emulator = STATBenchEmulator(
                    task_map, scheme, model_cls(), provider,
                    num_samples=samples, threads_per_process=threads,
                    seed=seed)
                got = emulator.build_forest()
                assert len(got) == len(task_map)
                for d, pair in enumerate(got):
                    ref_2d, ref_3d = reference_daemon_trees(
                        d, task_map, scheme, model_cls(), provider,
                        num_samples=samples, threads_per_process=threads,
                        seed=seed)
                    context = (f"trial={trial} map={kind} "
                               f"threads={threads} provider={pname} "
                               f"scheme={scheme.name} daemon={d}")
                    assert pair.tree_2d.arrays_equal(ref_2d), context
                    assert pair.tree_3d.arrays_equal(ref_3d), context

    def test_daemon_ids_subset_matches_full_population(self):
        task_map = TaskMap.cyclic(6, 5)
        provider = ring_hang_states(task_map.total_tasks)
        scheme = HierarchicalLabelScheme()
        full = STATBenchEmulator(task_map, scheme, BGLStackModel(),
                                 provider, num_samples=2, seed=11)
        sub = STATBenchEmulator(task_map, scheme, BGLStackModel(),
                                provider, num_samples=2, seed=11)
        want = full.build_forest()
        got = sub.build_forest(daemon_ids=[4, 1])
        assert len(got) == 2
        _assert_pairs_equal(got[0], want[4], "daemon 4")
        _assert_pairs_equal(got[1], want[1], "daemon 1")

    def test_build_forest_validates_and_handles_empty(self):
        task_map = TaskMap.block(2, 3)
        scheme = HierarchicalLabelScheme()
        with pytest.raises(ValueError, match="num_samples"):
            build_forest(task_map, scheme, BGLStackModel(),
                         np.zeros((0, 6), dtype=np.int64), _seeded(1))
        states = ring_hang_states(6).states_array(np.arange(6))[None, :]
        assert build_forest(task_map, scheme, BGLStackModel(), states,
                            _seeded(1), daemon_ids=[]) == []

    def test_bad_states_array_size_raises(self):
        task_map = TaskMap.block(2, 3)
        scheme = HierarchicalLabelScheme()
        with pytest.raises(ValueError, match="2 columns for 6 ranks"):
            build_forest(task_map, scheme, BGLStackModel(),
                         np.zeros((1, 2), dtype=np.int64), _seeded(1))


class TestDaemonWithoutTasks:
    """A daemon that owns no tasks gets the oracle's empty trees."""

    def test_empty_daemon_matches_oracle(self):
        task_map = TaskMap({0: np.array([0, 1, 2]),
                            1: np.array([], dtype=np.int64),
                            2: np.array([3, 4, 5])})
        provider = ring_hang_states(6)
        for scheme in _schemes(6):
            for threads in (1, 2):
                got = STATBenchEmulator(
                    task_map, scheme, BGLStackModel(), provider,
                    num_samples=3, threads_per_process=threads,
                    seed=5).build_forest()
                assert got[1].tree_2d.node_count() == 0
                assert got[1].tree_3d.node_count() == 0
                for d in range(3):
                    ref_2d, ref_3d = reference_daemon_trees(
                        d, task_map, scheme, BGLStackModel(), provider,
                        num_samples=3, threads_per_process=threads,
                        seed=5)
                    context = f"{scheme.name} threads={threads} daemon={d}"
                    assert got[d].tree_2d.arrays_equal(ref_2d), context
                    assert got[d].tree_3d.arrays_equal(ref_3d), context

    def test_trace_ids_of_no_states_is_empty(self):
        sampler = BatchWalkSampler(BGLStackModel(),
                                   np.random.default_rng(1), 2)
        ids = sampler.trace_ids(np.zeros(0, dtype=np.int64))
        assert ids.dtype == np.int64 and ids.shape == (0,)


class TestForestInstants:
    """Rows of the state matrix are sampling instants."""

    def test_3d_accumulates_2d_replaced(self):
        task_map = TaskMap.cyclic(4, 8)
        first = STATES.intern("stall", "f1")
        second = STATES.intern("stall", "f2")
        states = np.array([[first] * 32, [second] * 32], dtype=np.int64)
        for scheme in _schemes(32):
            pairs = build_forest(task_map, scheme, BGLStackModel(), states,
                                 _seeded(3))
            tree_2d, tree_3d = (t.to_prefix_tree() for t in pairs[1])
            leaves_2d = [p.leaf.function for p, _ in tree_2d.leaf_paths()]
            leaves_3d = [p.leaf.function for p, _ in tree_3d.leaf_paths()]
            assert leaves_2d == ["f2"]               # last instant only
            assert leaves_3d == ["f1", "f2"]         # union over time

    def test_instants_match_the_oracle_walking_them_in_turn(self):
        task_map = TaskMap.cyclic(3, 5)
        kinds = [("barrier", "main"), ("waitall", "main"),
                 ("stall", "do_SendOrStall"), ("compute", "main")]
        rng = np.random.default_rng(12)
        states = np.array([[STATES.intern(*kinds[k]) for k in row]
                           for row in rng.integers(0, 4, size=(3, 15))],
                          dtype=np.int64)
        for scheme in _schemes(15):
            pairs = build_forest(task_map, scheme, BGLStackModel(), states,
                                 _seeded(8))
            for d, (got_2d, got_3d) in enumerate(pairs):
                oracle = ReferenceDaemon(
                    d, task_map, scheme, BGLStackModel(),
                    rng=SeedStream(8).rng(f"daemon-{d}"))
                for row in states:
                    oracle.sample_once(
                        lambda r, row=row: STATES.state_of(int(row[r])))
                want_2d, want_3d = oracle.trees_arrays()
                assert got_2d.arrays_equal(want_2d), (scheme.name, d)
                assert got_3d.arrays_equal(want_3d), (scheme.name, d)


class TestProviderBatchScalarAgreement:
    """states_array must agree rank-by-rank with the scalar __call__."""

    @pytest.mark.parametrize("trial", range(4))
    def test_batch_matches_scalar(self, trial):
        total = 13 + 5 * trial
        for pname, provider in _providers(total, prov_seed=trial):
            ranks = np.arange(total, dtype=np.int64)
            sids = provider.states_array(ranks)
            assert sids.shape == (total,)
            for rank in ranks.tolist():
                state = provider(rank)
                kind, where = STATES.key_of(int(sids[rank]))
                context = f"provider={pname} rank={rank}"
                assert state.kind == kind, context
                assert state.where == where, context
