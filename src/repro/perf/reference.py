"""Retained reference kernels (pre-vectorization).

These are the per-object implementations the repo shipped before the
vectorized rewrites landed — the recursive pairwise-union *merge*
kernels, the scalar-walk *build* path (one ``StackWalker.walk`` per
slot/thread into ``PrefixTree`` slot trees), and the per-node
*finalize* path (a recursive per-label rank remap and per-rank
equivalence-class grouping).  They are kept for two jobs:

* the equivalence property tests (``tests/test_merge_equivalence.py``,
  ``tests/test_build_equivalence.py``,
  ``tests/test_finalize_equivalence.py``) assert that the vectorized
  kernels produce bit-identical trees and classes on randomized inputs;
* ``stat-repro bench`` measures the vectorized kernels *against* them
  and records the speedups in ``BENCH_merge.json`` /
  ``BENCH_build.json``.

Do not "improve" these: their value is being the frozen baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.equivalence import EquivalenceClass, mpi_api_boundary
from repro.core.frames import Frame, StackTrace
from repro.lint.contracts import exempt
from repro.core.prefix_tree import PrefixTree, PrefixTreeNode
from repro.core.taskset import (
    DaemonLayout,
    DenseBitVector,
    HierarchicalTaskSet,
    TaskMap,
)

__all__ = [
    "reference_dense_merge",
    "reference_hierarchical_merge",
    "reference_merge",
    "reference_daemon_trees",
    "reference_hierarchical_finalize",
    "reference_equivalence_classes",
    "reference_triage_classes",
]


def _ordered_frame_union(nodes: Sequence[PrefixTreeNode]) -> List[Frame]:
    """Union of children frames, preserving first-seen order."""
    seen: Dict[Frame, None] = {}
    for node in nodes:
        for frame in node.children:
            if frame not in seen:
                seen[frame] = None
    return list(seen)


@exempt
def reference_dense_merge(trees: Sequence[PrefixTree]) -> PrefixTree:
    """Recursive structure merge; label merge is pairwise bitwise OR."""
    out = PrefixTree()

    def rec(dst: PrefixTreeNode, srcs: List[PrefixTreeNode]) -> None:
        for frame in _ordered_frame_union(srcs):
            contributors = [n.children[frame] for n in srcs
                            if frame in n.children]
            label = contributors[0].tasks.copy()
            for other in contributors[1:]:
                label.union_inplace(other.tasks)
            node = PrefixTreeNode(frame, label)
            dst.children[frame] = node
            rec(node, contributors)

    rec(out.root, [t.root for t in trees])
    return out


def _tree_layout(tree: PrefixTree) -> DaemonLayout:
    for _, label in tree.edges():
        if not isinstance(label, HierarchicalTaskSet):
            raise TypeError("tree does not carry hierarchical labels")
        return label.layout
    raise ValueError("cannot determine layout of an empty tree")


@exempt
def reference_hierarchical_merge(trees: Sequence[PrefixTree]) -> PrefixTree:
    """Recursive concatenation merge: per-node zero-fill plus pastes."""
    if not trees:
        raise ValueError("merge of zero trees")
    layouts = [_tree_layout(t) for t in trees]
    merged_layout = DaemonLayout.concat(layouts)
    offsets = np.concatenate(
        ([0], np.cumsum([lay.nbytes for lay in layouts])))[:-1]

    out = PrefixTree()

    def rec(dst: PrefixTreeNode,
            srcs: List[Tuple[int, PrefixTreeNode]]) -> None:
        for frame in _ordered_frame_union([n for _, n in srcs]):
            contributors = [(i, n.children[frame]) for i, n in srcs
                            if frame in n.children]
            data = np.zeros(merged_layout.nbytes, dtype=np.uint8)
            for i, node in contributors:
                off = int(offsets[i])
                data[off:off + layouts[i].nbytes] = node.tasks.data
            child = PrefixTreeNode(
                frame, HierarchicalTaskSet(merged_layout, data))
            dst.children[frame] = child
            rec(child, contributors)

    rec(out.root, list(enumerate(t.root for t in trees)))
    return out


@exempt
def reference_merge(scheme_name: str,
                    trees: Sequence[PrefixTree]) -> PrefixTree:
    """Dispatch by scheme name ("original" / "optimized")."""
    if scheme_name == "original":
        return reference_dense_merge(trees)
    if scheme_name == "optimized":
        return reference_hierarchical_merge(trees)
    raise ValueError(f"unknown scheme name {scheme_name!r}")


@exempt
def reference_daemon_trees(daemon_id: int, task_map, scheme, stack_model,
                           state_of: Callable, num_samples: int = 10,
                           threads_per_process: int = 1,
                           seed: int = 208_000):
    """Build one daemon's ``(2D, 3D)`` trees through the per-object path.

    This is the frozen pre-vectorization emulator hot path: scalar walks
    (one RNG draw sequence per slot/thread) into slot-set prefix trees,
    then object-level label materialization.  The per-daemon RNG is
    derived exactly as :class:`~repro.statbench.emulator.STATBenchEmulator`
    derives it (``SeedStream(seed).rng(f"daemon-{id}")``), so for any
    state provider the result must be bit-identical to the array path's
    for the same arguments.  ``state_of`` is always consumed through its
    scalar ``__call__`` — a provider's batch API is deliberately ignored.
    """
    from repro.core.daemon import STATDaemon
    from repro.sim.random import SeedStream

    daemon = STATDaemon(
        daemon_id, task_map, scheme, stack_model,
        rng=SeedStream(seed).rng(f"daemon-{daemon_id}"),
        threads_per_process=threads_per_process)
    daemon.collect_samples(state_of, num_samples)
    return daemon.trees_arrays()


# -- finalize: per-node rank remap and per-rank classes ----------------------

def _reference_slot_to_rank(layout: DaemonLayout,
                            task_map: TaskMap) -> np.ndarray:
    """Padded-slot -> global rank table (padding slots = -1)."""
    parts = []
    for i, daemon_id in enumerate(layout.daemon_ids):
        ranks = task_map.ranks_of(daemon_id)
        if ranks.size != layout.widths[i]:
            raise ValueError(
                f"daemon {daemon_id}: layout width {layout.widths[i]} != "
                f"task map size {ranks.size}")
        parts.append(ranks)
    slot_to_rank = np.full(layout.nbytes * 8, -1, dtype=np.int64)
    for i in range(len(layout)):
        start_bit = int(layout.byte_offsets[i]) * 8
        slot_to_rank[start_bit:start_bit + layout.widths[i]] = parts[i]
    return slot_to_rank


def _reference_from_ranks(ranks, width: int) -> DenseBitVector:
    """``DenseBitVector.from_ranks`` through a Python set."""
    idx = np.asarray(sorted(set(int(r) for r in ranks)), dtype=np.int64)
    if idx.size and (idx[0] < 0 or idx[-1] >= width):
        raise ValueError(
            f"rank out of range [0, {width}): {idx[0 if idx[0] < 0 else -1]}")
    bits = np.zeros(width, dtype=np.uint8)
    if idx.size:
        bits[idx] = 1
    data = np.packbits(bits) if width else np.zeros(0, dtype=np.uint8)
    return DenseBitVector(width, data)


def _reference_remap(slot_to_rank: np.ndarray, total_tasks: int,
                     tset: HierarchicalTaskSet) -> DenseBitVector:
    """One label: unpack, look up each set slot's rank, rebuild."""
    bits = np.unpackbits(tset.data).astype(bool)
    ranks = slot_to_rank[np.nonzero(bits)[0]]
    ranks = ranks[ranks >= 0]
    return _reference_from_ranks(ranks, total_tasks)


@exempt
def reference_hierarchical_finalize(root_tree, task_map: TaskMap) -> PrefixTree:
    """Recursive front-end remap: one remap per node, fresh label each."""
    from repro.core.treearrays import TreeArrays

    if isinstance(root_tree, TreeArrays):
        layout = root_tree.layout
        root_tree = root_tree.to_prefix_tree()
    else:
        layout = _tree_layout(root_tree)
    slot_to_rank = _reference_slot_to_rank(layout, task_map)
    total = task_map.total_tasks
    out = PrefixTree()

    def rec(dst: PrefixTreeNode, src: PrefixTreeNode) -> None:
        for frame, child in src.children.items():
            if child.tasks.layout != layout:
                raise ValueError(
                    "task set layout does not match remapper layout")
            node = PrefixTreeNode(
                frame, _reference_remap(slot_to_rank, total, child.tasks))
            dst.children[frame] = node
            rec(node, child)

    rec(out.root, root_tree.root)
    return out


@exempt
def reference_equivalence_classes(
        tree: PrefixTree,
        rank_resolver: Optional[Callable[[object], np.ndarray]] = None,
) -> List[EquivalenceClass]:
    """Per-rank grouping: a dict of terminal paths per rank.

    Paths inside a class are sorted by function names only; ties follow
    ``frozenset`` iteration order, which depends on string hashing.
    """
    resolve = rank_resolver or (lambda label: label.to_ranks())
    membership: Dict[int, List[StackTrace]] = {}
    for path, node in tree.walk():
        ranks = np.asarray(resolve(node.tasks))
        if node.children:
            child_ranks = np.unique(np.concatenate(
                [np.asarray(resolve(c.tasks))
                 for c in node.children.values()]))
            terminal = np.setdiff1d(ranks, child_ranks)
        else:
            terminal = ranks
        for rank in terminal:
            membership.setdefault(int(rank), []).append(path)

    groups: Dict[FrozenSet[StackTrace], List[int]] = {}
    for rank, paths in membership.items():
        groups.setdefault(frozenset(paths), []).append(rank)

    classes = [
        EquivalenceClass(
            paths=tuple(sorted(key, key=lambda p: tuple(f.function for f in p))),
            ranks=tuple(sorted(ranks)),
        )
        for key, ranks in groups.items()
    ]
    classes.sort(key=lambda c: (-c.size, c.representative))
    return classes


@exempt
def reference_triage_classes(tree: PrefixTree) -> List[EquivalenceClass]:
    """Per-rank classes at the MPI API boundary."""
    return reference_equivalence_classes(tree.truncated(mpi_api_boundary))
