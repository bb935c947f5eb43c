"""Process equivalence classes — STAT's end product.

STAT's purpose is search-space reduction: group the job's tasks into
classes that "exhibit similar behavior" so a heavyweight debugger can be
aimed at one representative per class instead of at 200K tasks.

For a **2D trace-space** tree each task lies on exactly one root→leaf path,
so classes are simply the leaf paths.  For a **3D trace-space-time** tree a
task may traverse several paths (its behaviour over the sampling window);
tasks are then equivalent iff they visited the *same set* of paths.
Both cases are handled by :func:`equivalence_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.frames import StackTrace
from repro.core.interning import FRAMES
from repro.core.prefix_tree import PrefixTree
from repro.core.ranklist import format_edge_label
from repro.core.treearrays import KIND_DENSE, TreeArrays
from repro.lint.contracts import contract

__all__ = ["EquivalenceClass", "equivalence_classes", "representatives",
           "path_order"]


@dataclass(frozen=True)
class EquivalenceClass:
    """A set of tasks exhibiting identical sampled behaviour.

    ``paths`` is the set of leaf call paths the class's tasks visited
    (singleton for 2D trees).  ``ranks`` is the sorted member ranks.
    """

    paths: Tuple[StackTrace, ...]
    ranks: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of member tasks."""
        return len(self.ranks)

    @property
    def representative(self) -> int:
        """Lowest member rank — the task to hand to a heavyweight debugger."""
        return self.ranks[0]

    def label(self, max_runs: int = 4) -> str:
        """``count:[ranks]`` display form."""
        return format_edge_label(self.ranks, max_runs=max_runs)

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [f"class {self.label()}  (representative rank {self.representative})"]
        for path in self.paths:
            lines.append(f"  {path}")
        return "\n".join(lines)


def equivalence_classes(tree: PrefixTree) -> List[EquivalenceClass]:
    """Extract equivalence classes from a merged, finalized prefix tree.

    Parameters
    ----------
    tree:
        A prefix tree with dense (:class:`~repro.core.taskset.DenseBitVector`)
        edge labels — normally the front end's finalized tree.

    Returns
    -------
    list of :class:`EquivalenceClass`, largest class first (ties broken by
    lowest representative rank) — the order a user triages in.  Paths
    inside a class are ordered by their function names, then module names.

    Notes
    -----
    A task's trace may *terminate* at an internal node (e.g. a shallower
    progress-engine recursion than a sibling's), so classes are built from
    **terminal ranks** — a node's ranks minus the union of its children's
    ranks — not from leaf paths alone.  The work is whole-tree array
    kernels: terminal bits for every node at once, then one packed
    per-rank signature (which nodes the rank terminates at) and one
    ``np.unique`` over those signatures.
    """
    arrays = TreeArrays.from_prefix_tree(tree, kind=KIND_DENSE)
    n = arrays.node_count()
    if not n:
        return []
    frames = FRAMES.frames_of(arrays.frame_ids)
    paths: List[StackTrace] = []
    for frame, parent in zip(frames, arrays.parents.tolist()):
        prefix = paths[parent].frames if parent >= 0 else ()
        paths.append(StackTrace(prefix + (frame,)))

    terminal = _terminal_rows(arrays.labels[arrays.label_refs],
                              arrays.parents)
    sigs = _rank_signatures(terminal, arrays.width)
    present = np.nonzero(sigs.any(axis=1))[0]
    uniq, inverse, counts = np.unique(_signature_keys(sigs[present]),
                                      return_inverse=True,
                                      return_counts=True)
    # Stable grouping keeps each class's ranks ascending; the narrowest
    # integer dtype lets numpy use its linear-time radix sort.
    order = np.argsort(inverse.astype(np.min_scalar_type(uniq.size)),
                       kind="stable")
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    node_bits = np.unpackbits(uniq.view(np.uint8).reshape(uniq.size, -1),
                              axis=1, count=n).astype(bool)

    classes = [
        EquivalenceClass(
            paths=tuple(sorted(
                (paths[i] for i in np.nonzero(node_bits[u])[0].tolist()),
                key=path_order)),
            ranks=tuple(present[order[bounds[u]:bounds[u + 1]]].tolist()),
        )
        for u in range(uniq.size)
    ]
    classes.sort(key=lambda c: (-c.size, c.representative))
    return classes


def path_order(path: StackTrace) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Sort key for call paths: function names, then module names.

    Distinct paths never tie, so the order is the same in every process
    (it never depends on hash randomization).
    """
    return (tuple(f.function for f in path), tuple(f.module for f in path))


#: largest unpacked bit matrix (elements) one :func:`_rank_signatures`
#: chunk may hold; bounds the kernel's transient memory
_SIGNATURE_LIMIT = 1 << 22


@contract("labels:(n,b):uint8, parents:(n):int64 -> terminal:(n,b):uint8")
def _terminal_rows(labels: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each node's label minus the union of its children's labels."""
    child_union = np.zeros_like(labels)
    inner = parents >= 0
    np.bitwise_or.at(child_union, parents[inner], labels[inner])
    return labels & ~child_union


@contract("sigs:(m,k):uint8 -> keys:(m)")
def _signature_keys(sigs: np.ndarray) -> np.ndarray:
    """One sortable scalar per signature row: a ``uint64`` when the row
    fits in 8 bytes (every tree of at most 64 nodes), else raw bytes."""
    m, k = sigs.shape
    size = max(k, 8)
    buf = np.zeros((m, size), dtype=np.uint8)
    buf[:, :k] = sigs
    return buf.view(np.uint64 if size == 8 else f"V{size}").reshape(m)


@contract("terminal:(n,b):uint8 -> sigs:(w,k):uint8")
def _rank_signatures(terminal: np.ndarray, width: int) -> np.ndarray:
    """Per rank, its column of terminal bits packed into ``k`` bytes.

    Row ``r`` has bit ``i`` set when rank ``r`` terminates at node ``i``;
    columns are transposed in byte-aligned chunks to bound memory.
    """
    n, nbytes = terminal.shape
    sigs = np.empty((nbytes * 8, (n + 7) // 8), dtype=np.uint8)
    step = max(1, _SIGNATURE_LIMIT // (8 * n))
    for lo in range(0, nbytes, step):
        hi = min(lo + step, nbytes)
        bits = np.unpackbits(terminal[:, lo:hi], axis=1)
        sigs[lo * 8:hi * 8] = np.packbits(bits.T, axis=1)
    return sigs[:width]


def mpi_api_boundary(path: StackTrace, frame) -> bool:
    """Truncation predicate: stop at the first MPI API entry frame.

    Cutting the tree here groups tasks by *which MPI call they are in*
    rather than by transient progress-engine recursion depth — the
    altitude at which Figure 1's population reads ``1022 / 1 / 1``.
    """
    return frame.function.startswith(("PMPI_", "MPI_"))


def triage_classes(tree: PrefixTree) -> List[EquivalenceClass]:
    """Equivalence classes at the MPI API boundary (the triage view)."""
    return equivalence_classes(tree.truncated(mpi_api_boundary))


def representatives(classes: Sequence[EquivalenceClass],
                    per_class: int = 1) -> List[int]:
    """Pick ``per_class`` representative ranks from each class.

    This is the "manageable subset of tasks" the paper's debugging strategy
    attaches a full-featured debugger to.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    picked: List[int] = []
    for cls in classes:
        picked.extend(cls.ranks[:per_class])
    return picked
