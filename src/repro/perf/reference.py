"""Retained reference kernels (pre-vectorization).

These are the per-object implementations the repo shipped before the
vectorized rewrites landed — the recursive pairwise-union *merge*
kernels, the two per-daemon *build* paths (scalar walks into
``PrefixTree`` slot trees, and the per-daemon array kernel that
preceded :func:`repro.core.forest.build_forest`), and the per-node
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
Only :mod:`repro.perf` and the tests may import this module (lint rule
``oracle-isolation``).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.core.buildarrays import TreeStructure, build_structure
from repro.core.equivalence import EquivalenceClass, mpi_api_boundary
from repro.core.frames import Frame, StackTrace
from repro.core.merge import DenseLabelScheme, LabelScheme
from repro.core.prefix_tree import PrefixTree, PrefixTreeNode
from repro.core.sampling import BatchWalkSampler
from repro.core.stackwalk import StackWalker
from repro.core.taskset import (
    DaemonLayout,
    DenseBitVector,
    HierarchicalTaskSet,
    TaskMap,
    _pack_indices,
)
from repro.core.treearrays import KIND_DENSE, KIND_HIER, TreeArrays
from repro.lint.contracts import exempt
from repro.mpi.runtime import RankState
from repro.mpi.stacks import StackModel
from repro.perf.counters import (
    BUILD_DAEMONS,
    BUILD_STRUCT_HITS,
    BUILD_STRUCT_MISSES,
    BUILD_TRACES,
    PERF,
)
from repro.sim.random import SeedStream

__all__ = [
    "reference_dense_merge",
    "reference_hierarchical_merge",
    "reference_merge",
    "ReferenceDaemon",
    "reference_daemon_trees",
    "reference_daemon_arrays",
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


# -- build: the per-daemon paths the forest kernel replaced ----------------

def _slot_union(a: set, b: set) -> set:
    """In-place union for slot-set labels (module-level: must pickle)."""
    a.update(b)
    return a


def _slot_tree() -> PrefixTree:
    """A prefix tree whose labels are mutable slot sets."""
    return PrefixTree(label_union=_slot_union, label_copy=set)


class _BuildPlan:
    """Everything about one element-array tree except its label bytes."""

    __slots__ = ("struct", "slot_sets", "row_keys", "label_refs",
                 "hier_labels")

    def __init__(self, struct: TreeStructure, slot_sets: List[np.ndarray],
                 row_keys: List[bytes], label_refs: np.ndarray) -> None:
        self.struct = struct
        self.slot_sets = slot_sets
        self.row_keys = row_keys
        self.label_refs = label_refs
        self.hier_labels: Optional[np.ndarray] = None


class ReferenceDaemon:
    """One daemon's local build, as the repo did it before the forest.

    Two frozen paths share the object:

    * the per-object walk — :meth:`sample_once` (one scalar
      ``StackWalker.walk`` per slot/thread into slot-set prefix trees)
      then :meth:`trees_arrays` (object-level label materialization);
    * the per-daemon array kernel — :meth:`sample_many_arrays`, which
      ``stat-repro bench --build`` times as its reference.
    """

    def __init__(self, daemon_id: int, task_map: TaskMap,
                 scheme: LabelScheme, stack_model: StackModel,
                 rng: Optional[np.random.Generator] = None,
                 threads_per_process: int = 1) -> None:
        self.daemon_id = daemon_id
        self.task_map = task_map
        self.scheme = scheme
        self.stack_model = stack_model
        self.walker = StackWalker(stack_model, rng)
        self.threads_per_process = threads_per_process
        self.local_ranks = task_map.ranks_of(daemon_id)
        self.width = int(self.local_ranks.size)
        self._tree_3d = _slot_tree()
        self._tree_2d: Optional[PrefixTree] = None
        self.samples_taken = 0

    # -- per-object walk ------------------------------------------------------
    def sample_once(self, state_of: Callable[[int], RankState]) -> int:
        """Walk every local process (and thread) once; merge locally.

        Traces identical across slots share one insertion with a combined
        label.  Returns the number of traces gathered.
        """
        groups: Dict[StackTrace, Set[int]] = {}
        traces = 0
        for slot in range(self.width):
            state = state_of(int(self.local_ranks[slot]))
            for tid in range(self.threads_per_process):
                trace = self.walker.walk(state, thread_id=tid)
                traces += 1
                groups.setdefault(trace, set()).add(slot)

        tree_2d = _slot_tree()
        for trace, slots in groups.items():
            tree_2d.insert(trace, slots)
            self._tree_3d.insert(trace, slots)
        self._tree_2d = tree_2d
        self.samples_taken += 1
        return traces

    def collect_samples(self, state_of: Callable[[int], RankState],
                        num_samples: int) -> None:
        """Gather ``num_samples`` instants without materializing labels."""
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        for _ in range(num_samples):
            self.sample_once(state_of)

    def _label_for(self, slots: Set[int], cache: Dict[frozenset, Any]) -> Any:
        """The scheme label for a slot set, shared across equal sets."""
        key = frozenset(slots)
        label = cache.get(key)
        if label is None:
            label = cache[key] = self.scheme.daemon_label(
                self.daemon_id, self.width, sorted(slots), self.task_map)
        return label

    def _materialize_arrays(self, slot_tree: PrefixTree,
                            cache: Dict[frozenset, Any]) -> TreeArrays:
        """Convert a slot-set tree into an array-backed tree (BFS order)."""
        scheme = self.scheme
        dense = isinstance(scheme, DenseLabelScheme)
        frame_ids: List[int] = []
        parents: List[int] = []
        label_refs: List[int] = []
        level_offsets = [0]
        rows: List[np.ndarray] = []
        spans: List[Tuple[int, int]] = []
        row_of: Dict[frozenset, int] = {}
        first_label: Any = None

        level = [(-1, child) for child in slot_tree.root.children.values()]
        while level:
            nxt = []
            for parent_gid, node in level:
                gid = len(frame_ids)
                frame_ids.append(node.frame.id)
                parents.append(parent_gid)
                key = frozenset(node.tasks)
                row = row_of.get(key)
                if row is None:
                    label = self._label_for(node.tasks, cache)
                    if first_label is None:
                        first_label = label
                    row = row_of[key] = len(rows)
                    rows.append(label.data)
                    if dense:
                        spans.append(scheme.leaf_span(
                            self.daemon_id, sorted(node.tasks),
                            self.task_map))
                label_refs.append(row)
                for child in node.children.values():
                    nxt.append((gid, child))
            level_offsets.append(len(frame_ids))
            level = nxt

        if dense:
            kind, width, layout = KIND_DENSE, scheme.total_tasks, None
            nbytes = (width + 7) // 8
        else:
            kind, width = KIND_HIER, None
            layout = first_label.layout if first_label is not None \
                else DaemonLayout.for_daemon(self.daemon_id, self.width)
            nbytes = layout.nbytes
        labels = np.stack(rows) if rows \
            else np.zeros((0, nbytes), dtype=np.uint8)
        return TreeArrays(
            kind,
            np.asarray(frame_ids, dtype=np.int64),
            np.asarray(parents, dtype=np.int64),
            np.asarray(label_refs, dtype=np.int64),
            np.asarray(level_offsets, dtype=np.int64),
            labels,
            spans=np.asarray(spans, dtype=np.int64).reshape(-1, 2)
            if dense else None,
            width=width, layout=layout)

    def trees_arrays(self) -> Tuple[TreeArrays, TreeArrays]:
        """Array-backed ``(2D, 3D)`` trees of the per-object walk."""
        if self._tree_2d is None:
            raise RuntimeError("no samples taken yet")
        cache: Dict[frozenset, Any] = {}
        return (self._materialize_arrays(self._tree_2d, cache),
                self._materialize_arrays(self._tree_3d, cache))

    # -- per-daemon array kernel ---------------------------------------------
    def sample_many_arrays(self, states_array: Callable[[np.ndarray],
                                                        np.ndarray],
                           num_samples: int
                           ) -> Tuple[TreeArrays, TreeArrays]:
        """Array twin of ``collect_samples`` + ``trees_arrays``.

        ``states_array(ranks)`` returns interned state ids for the
        daemon's local ranks and is queried once per sampling instant.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        parts: List[np.ndarray] = []
        for _ in range(num_samples):
            sids = np.asarray(states_array(self.local_ranks),
                              dtype=np.int64)
            if sids.size != self.width:
                raise ValueError(
                    f"states_array returned {sids.size} ids for "
                    f"{self.width} local ranks")
            parts.append(sids)
        all_sids = np.concatenate(parts) if num_samples > 1 else parts[0]
        sampler = BatchWalkSampler(self.stack_model, self.walker.rng,
                                   self.threads_per_process)
        elems_3d = sampler.trace_ids(all_sids)
        elems_2d = elems_3d[-(self.width * self.threads_per_process):] \
            if num_samples > 1 else elems_3d
        self.samples_taken += num_samples
        self.walker.walks_performed += int(elems_3d.size)
        PERF.add(BUILD_DAEMONS)
        PERF.add(BUILD_TRACES, float(elems_3d.size))
        row_cache: Dict[bytes, Tuple[np.ndarray, Tuple[int, int]]] = {}
        return (self._tree_from_plan(self._build_plan(elems_2d), row_cache),
                self._tree_from_plan(self._build_plan(elems_3d), row_cache))

    def _build_plan(self, trace_ids: np.ndarray) -> _BuildPlan:
        """Analyse one element array into a :class:`_BuildPlan`."""
        model = self.stack_model
        uniq, first, inverse = np.unique(trace_ids, return_index=True,
                                         return_inverse=True)
        seen_order = np.argsort(first, kind="stable")
        rank = np.empty(uniq.size, dtype=np.int64)
        rank[seen_order] = np.arange(uniq.size)
        pos = rank[inverse.reshape(-1)]
        ordered = uniq[seen_order]
        skey = tuple(ordered.tolist())
        struct: Optional[TreeStructure] = model.struct_cache.get(skey)
        if struct is None:
            paths, depths = model.trace_paths()
            struct = model.struct_cache[skey] = build_structure(
                paths[ordered], depths[ordered])
            PERF.add(BUILD_STRUCT_MISSES)
        else:
            PERF.add(BUILD_STRUCT_HITS)
        order = np.argsort(pos, kind="stable")
        bounds = np.searchsorted(pos[order], np.arange(ordered.size + 1))
        slots = np.arange(self.width, dtype=np.int64)
        if self.threads_per_process > 1:
            slots = np.repeat(slots, self.threads_per_process)
        instants = trace_ids.size // slots.size
        if instants > 1:
            slots = np.tile(slots, instants)
        slots_sorted = slots[order]

        slot_sets: List[np.ndarray] = []
        row_keys: List[bytes] = []
        combo_rows = np.empty(len(struct.combos), dtype=np.int64)
        row_of: Dict[bytes, int] = {}
        for g, combo in enumerate(struct.combos):
            if combo.size == 1:
                p = int(combo[0])
                combo_slots = slots_sorted[bounds[p]:bounds[p + 1]]
            else:
                combo_slots = np.concatenate(
                    [slots_sorted[bounds[p]:bounds[p + 1]] for p in combo])
            combo_slots = np.unique(combo_slots)
            rkey = combo_slots.tobytes()
            row = row_of.get(rkey)
            if row is None:
                row = row_of[rkey] = len(slot_sets)
                slot_sets.append(combo_slots)
                row_keys.append(rkey)
            combo_rows[g] = row
        label_refs = combo_rows[struct.combo_refs] \
            if struct.combo_refs.size else np.zeros(0, dtype=np.int64)
        return _BuildPlan(struct, slot_sets, row_keys, label_refs)

    def _tree_from_plan(self, plan: _BuildPlan,
                        row_cache: Dict[bytes, Tuple[np.ndarray,
                                                     Tuple[int, int]]]
                        ) -> TreeArrays:
        """Materialize this daemon's labels onto a plan."""
        scheme = self.scheme
        struct = plan.struct
        if isinstance(scheme, DenseLabelScheme):
            width = scheme.total_tasks
            rows: List[np.ndarray] = []
            spans: List[Tuple[int, int]] = []
            for rkey, slot_ids in zip(plan.row_keys, plan.slot_sets):
                data, span = self._label_row(slot_ids, rkey, row_cache)
                rows.append(data)
                spans.append(span)
            labels = np.stack(rows) if rows \
                else np.zeros((0, (width + 7) // 8), dtype=np.uint8)
            return TreeArrays._trusted(
                KIND_DENSE, struct.frame_ids, struct.parents,
                plan.label_refs, struct.level_offsets, labels,
                spans=np.asarray(spans, dtype=np.int64).reshape(-1, 2),
                width=width)
        layout = DaemonLayout.shared(self.daemon_id, self.width)
        labels = plan.hier_labels
        if labels is None:
            labels = plan.hier_labels = np.stack(
                [_pack_indices(s, self.width) for s in plan.slot_sets]) \
                if plan.slot_sets \
                else np.zeros((0, layout.nbytes), dtype=np.uint8)
        return TreeArrays._trusted(
            KIND_HIER, struct.frame_ids, struct.parents, plan.label_refs,
            struct.level_offsets, labels, layout=layout)

    def _label_row(self, slot_ids: np.ndarray, key: bytes,
                   row_cache: Dict[bytes, Tuple[np.ndarray,
                                                Tuple[int, int]]]
                   ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Packed dense label row + span for one sorted-unique slot set."""
        hit = row_cache.get(key)
        if hit is None:
            ranks = np.sort(self.local_ranks[slot_ids])
            data = _pack_indices(ranks, self.scheme.total_tasks)
            span = (0, 0) if ranks.size == 0 \
                else (int(ranks[0]) >> 3, (int(ranks[-1]) >> 3) + 1)
            hit = row_cache[key] = (data, span)
        return hit

    def __repr__(self) -> str:
        return (f"<ReferenceDaemon {self.daemon_id} tasks={self.width} "
                f"samples={self.samples_taken}>")


@exempt
def reference_daemon_trees(daemon_id: int, task_map, scheme, stack_model,
                           state_of: Callable, num_samples: int = 10,
                           threads_per_process: int = 1,
                           seed: int = 208_000):
    """Build one daemon's ``(2D, 3D)`` trees through the per-object path.

    Scalar walks (one RNG draw sequence per slot/thread) into slot-set
    prefix trees, then object-level label materialization.  The
    per-daemon RNG is derived exactly as
    :class:`~repro.statbench.emulator.STATBenchEmulator` derives it
    (``SeedStream(seed).rng(f"daemon-{id}")``), so for any state provider
    the result must be bit-identical to the forest's for the same
    arguments.  ``state_of`` is always consumed through its scalar
    ``__call__`` — a provider's batch API is deliberately ignored.
    """
    daemon = ReferenceDaemon(
        daemon_id, task_map, scheme, stack_model,
        rng=SeedStream(seed).rng(f"daemon-{daemon_id}"),
        threads_per_process=threads_per_process)
    daemon.collect_samples(state_of, num_samples)
    return daemon.trees_arrays()


@exempt
def reference_daemon_arrays(daemon_id: int, task_map, scheme, stack_model,
                            states_array: Callable[[np.ndarray],
                                                   np.ndarray],
                            num_samples: int,
                            rng: Optional[np.random.Generator],
                            threads_per_process: int = 1):
    """Build one daemon's ``(2D, 3D)`` trees through the per-daemon kernel."""
    daemon = ReferenceDaemon(daemon_id, task_map, scheme, stack_model,
                             rng=rng,
                             threads_per_process=threads_per_process)
    return daemon.sample_many_arrays(states_array, num_samples)


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
