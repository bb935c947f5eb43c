"""Finalize equivalence: array-native remap and classes vs the frozen oracle.

Randomized bit-equality between the production finalize path
(``HierarchicalLabelScheme.finalize`` over one ``RankRemapper.remap_rows``
call, and the whole-tree ``equivalence_classes`` kernels) and the
per-node / per-rank implementations frozen in :mod:`repro.perf.reference`.
Cases cover both schemes; block, cyclic and shuffled rank maps; daemon
widths that are not a multiple of 8 (padding slots); missing daemons;
2D and 3D trees (3D gives multi-path classes, and some ranks terminate at
internal nodes); forced multi-chunk kernels; and empty trees.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.spec import SessionSpec
from repro.api.pipeline import SessionPipeline
from repro.core import equivalence
from repro.core.equivalence import equivalence_classes, triage_classes
from repro.core.frames import Frame, StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.prefix_tree import PrefixTree, PrefixTreeNode
from repro.core.taskset import (
    DaemonLayout,
    HierarchicalTaskSet,
    RankRemapper,
    TaskMap,
)
from repro.core.treearrays import KIND_HIER, TreeArrays
from repro.perf.reference import (
    reference_equivalence_classes,
    reference_hierarchical_finalize,
    reference_triage_classes,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def random_vocabulary(rng, size=10):
    """Call paths grown from ``main``; each new frame has a fresh name.

    Every path is a prefix-extension of an earlier one, so many traces end
    at nodes that other traces pass through.  Fresh function names keep
    every path's function-name tuple distinct.
    """
    paths = [(Frame("main", "app"),)]
    for i in range(size - 1):
        base = paths[int(rng.integers(len(paths)))]
        name = f"PMPI_op{i}" if rng.random() < 0.25 else f"fn{i}"
        paths.append(base + (Frame(name, f"mod{i % 3}"),))
    return [StackTrace(p) for p in paths]


def make_task_map(kind, daemons, width, rng):
    if kind == "block":
        return TaskMap.block(daemons, width)
    if kind == "cyclic":
        return TaskMap.cyclic(daemons, width)
    return TaskMap.shuffled(daemons, width, rng)


def daemon_trees(rng, scheme, task_map, samples):
    """Per live daemon, a tree where every slot samples ``samples`` paths.

    A few slots sample nothing, and about a fifth of the daemons are
    missing (dead), so some ranks appear in no label at all.
    """
    vocab = random_vocabulary(rng)
    trees = []
    for d in task_map.daemons():
        if rng.random() < 0.2:
            continue
        width = task_map.tasks_of(d)
        tree = scheme.make_empty_tree()
        for slot in range(width):
            if rng.random() < 0.1:
                continue
            for j in rng.choice(len(vocab), size=samples).tolist():
                tree.insert(vocab[j],
                            scheme.daemon_label(d, width, [slot], task_map))
        if tree.node_count():
            trees.append(tree)
    order = rng.permutation(len(trees)).tolist()
    return [trees[i] for i in order]


def tree_rows(tree):
    """Preorder node list: path, label width, label bytes."""
    return [(tuple((f.function, f.module) for f in path),
             node.tasks.width, node.tasks.data.tobytes())
            for path, node in tree.walk()]


CASES = [(mapping, width, samples, seed)
         for mapping in ("block", "cyclic", "shuffled")
         for width, samples in ((8, 1), (13, 1), (5, 3), (16, 2))
         for seed in range(3)]


class TestHierarchicalFinalize:
    @pytest.mark.parametrize("mapping,width,samples,seed", CASES)
    def test_matches_reference(self, mapping, width, samples, seed):
        rng = np.random.default_rng([seed, width, samples])
        scheme = HierarchicalLabelScheme()
        tm = make_task_map(mapping, 6, width, rng)
        trees = daemon_trees(rng, scheme, tm, samples)
        if not trees:
            pytest.skip("every daemon drawn dead")
        merged_obj = scheme.merge(trees)
        merged_arr = scheme.merge(
            [TreeArrays.from_prefix_tree(t) for t in trees])
        expect = reference_hierarchical_finalize(merged_obj, tm)
        for merged in (merged_obj, merged_arr):
            got = scheme.finalize(merged, tm)
            assert tree_rows(got) == tree_rows(expect)
        assert equivalence_classes(got) == \
            reference_equivalence_classes(expect)
        assert triage_classes(got) == reference_triage_classes(expect)

    @pytest.mark.parametrize("seed", range(4))
    def test_chunked_kernels_match(self, seed, monkeypatch):
        """Tiny element caps force many row and column chunks."""
        rng = np.random.default_rng(seed)
        scheme = HierarchicalLabelScheme()
        tm = make_task_map("shuffled", 5, 11, rng)
        trees = daemon_trees(rng, scheme, tm, samples=2)
        merged = scheme.merge(trees)
        expect = reference_hierarchical_finalize(merged, tm)
        monkeypatch.setattr(RankRemapper, "_REMAP_LIMIT", 64)
        monkeypatch.setattr(equivalence, "_SIGNATURE_LIMIT", 16)
        got = scheme.finalize(merged, tm)
        assert tree_rows(got) == tree_rows(expect)
        assert equivalence_classes(got) == \
            reference_equivalence_classes(expect)

    def test_many_nodes_use_byte_signatures(self):
        """Over 64 nodes the signature keys are raw bytes, not uint64."""
        tm = TaskMap.cyclic(2, 10)
        scheme = HierarchicalLabelScheme()
        trees = []
        for d in (0, 1):
            tree = scheme.make_empty_tree()
            for slot in range(10):
                for k in range(slot % 7, 70, 7):
                    tree.insert(StackTrace((Frame("main", "app"),
                                            Frame(f"leaf{k}", "x"))),
                                scheme.daemon_label(d, 10, [slot], tm))
            trees.append(tree)
        merged = scheme.merge(trees)
        got = scheme.finalize(merged, tm)
        assert got.node_count() > 64
        classes = equivalence_classes(got)
        assert len(classes) == 7
        assert classes == reference_equivalence_classes(
            reference_hierarchical_finalize(merged, tm))

    def test_empty_tree(self):
        tm = TaskMap.block(2, 4)
        layout = DaemonLayout.from_task_map(tm)
        empty = TreeArrays.empty(KIND_HIER, layout=layout)
        scheme = HierarchicalLabelScheme()
        assert scheme.finalize(empty, tm).node_count() == 0
        assert reference_hierarchical_finalize(empty, tm).node_count() == 0
        assert equivalence_classes(PrefixTree()) == []
        assert reference_equivalence_classes(PrefixTree()) == []
        with pytest.raises(ValueError, match="empty tree"):
            scheme.finalize(PrefixTree(), tm)


class TestDenseScheme:
    @pytest.mark.parametrize("mapping,width,samples,seed", CASES[::3])
    def test_classes_match_reference(self, mapping, width, samples, seed):
        rng = np.random.default_rng([seed, width, samples, 1])
        tm = make_task_map(mapping, 6, width, rng)
        scheme = DenseLabelScheme(tm.total_tasks)
        trees = daemon_trees(rng, scheme, tm, samples)
        if not trees:
            pytest.skip("every daemon drawn dead")
        final = scheme.finalize(scheme.merge(trees), tm)
        assert equivalence_classes(final) == \
            reference_equivalence_classes(final)
        assert triage_classes(final) == reference_triage_classes(final)

    @pytest.mark.parametrize("seed", range(4))
    def test_schemes_finalize_identically(self, seed):
        """Same traces under either scheme give the same final tree."""
        tm = make_task_map("shuffled", 4, 9, np.random.default_rng(seed))
        finals = []
        for scheme in (DenseLabelScheme(tm.total_tasks),
                       HierarchicalLabelScheme()):
            rng = np.random.default_rng([seed, 99])
            trees = daemon_trees(rng, scheme, tm, samples=2)
            finals.append(scheme.finalize(scheme.merge(trees), tm))
        assert tree_rows(finals[0]) == tree_rows(finals[1])


class TestRemapKernel:
    def test_remap_many_matches_per_label_reference(self, rng):
        tm = TaskMap.shuffled(7, 13, rng)
        order = rng.permutation(7).tolist()[:5]  # two daemons missing
        layout = DaemonLayout(order, [13] * 5)
        labels = [HierarchicalTaskSet(
            layout, np.packbits(rng.random(layout.nbytes * 8) < 0.4)
            & HierarchicalTaskSet.full(layout).data) for _ in range(9)]
        got = RankRemapper(layout, tm).remap_many(labels)
        tree = PrefixTree()
        for i, label in enumerate(labels):
            tree.root.children[Frame(f"f{i}")] = \
                PrefixTreeNode(Frame(f"f{i}"), label)
        expect = [node.tasks for _, node in
                  reference_hierarchical_finalize(tree, tm).walk()]
        assert got == expect

    def test_remap_many_empty_batch(self):
        tm = TaskMap.block(2, 3)
        assert RankRemapper(DaemonLayout.from_task_map(tm), tm) \
            .remap_many([]) == []

    def test_rank_beyond_job_width_rejected(self):
        tm = TaskMap({0: np.array([0, 5])})
        with pytest.raises(ValueError, match="out of range"):
            RankRemapper(DaemonLayout.from_task_map(tm), tm)

    def test_rank_in_two_slots_rejected(self):
        tm = TaskMap({0: np.array([1, 1]), 1: np.array([0, 2])})
        with pytest.raises(ValueError, match="more than one slot"):
            RankRemapper(DaemonLayout.from_task_map(tm), tm)


class TestPipelineSessions:
    @pytest.mark.parametrize("mapping", ["block", "cyclic", "shuffled"])
    def test_session_finalize_matches_reference(self, mapping):
        spec = SessionSpec(machine="bgl", mode="vn", daemons=8,
                           workload="ring_hang", scheme="hierarchical",
                           mapping=mapping, seed=11, num_samples=3)
        pipe = SessionPipeline.from_spec(spec)
        pipe.run()
        ctx = pipe.ctx
        pair = ctx.merge.payload
        for final, merged in ((ctx.tree_2d, pair.tree_2d),
                              (ctx.tree_3d, pair.tree_3d)):
            expect = reference_hierarchical_finalize(merged, ctx.task_map)
            assert tree_rows(final) == tree_rows(expect)
        assert ctx.classes == reference_triage_classes(ctx.tree_2d)
        assert equivalence_classes(ctx.tree_3d) == \
            reference_equivalence_classes(ctx.tree_3d)


_TIE_SCRIPT = """
import json
from repro.core.equivalence import equivalence_classes
from repro.core.frames import Frame, StackTrace
from repro.core.prefix_tree import PrefixTree, PrefixTreeNode
from repro.core.queries import TreeQuery
from repro.core.taskset import DenseBitVector

tree = PrefixTree()
for module in ("zeta", "alpha", "mid"):
    tree.insert(StackTrace((Frame("main", "app"), Frame("work", module))),
                DenseBitVector.from_ranks([0, 1], 4))
(cls,) = equivalence_classes(tree)
print(json.dumps({
    "classes": [[f.module for f in p] for p in cls.paths],
    "where_is": [[f.module for f in p] for p in TreeQuery(tree).where_is(0)],
}))
"""


class TestPathOrder:
    def test_module_ties_ignore_hash_seed(self):
        """Paths equal by function names order the same in every process."""
        outputs = []
        for hash_seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(SRC))
            proc = subprocess.run([sys.executable, "-c", _TIE_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  check=True)
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        expect = [["app", "alpha"], ["app", "mid"], ["app", "zeta"]]
        assert outputs[0] == {"classes": expect, "where_is": expect}
