"""Vectorized BFS construction of per-daemon trees from trace-id arrays.

The object build path inserts every sampled trace into a
:class:`~repro.core.prefix_tree.PrefixTree` and flattens it level by
level (the oracle in :mod:`repro.perf.reference`).  This module produces the
same BFS-level arrays straight from a daemon's *distinct-trace* table —
padded frame-id rows in first-seen order — with sort/segment-boundary
operations, no per-node objects:

* per level, nodes are ``np.unique`` groups over ``(parent node, frame
  id)`` integer keys, re-ranked to first-occurrence order so child order
  matches object-tree insertion order exactly;
* each node's **contributor combination** (which distinct traces pass
  through it, by position in the trace tuple) is deduplicated across the
  whole tree, so downstream label work runs once per combination.

A :class:`TreeStructure` depends only on the ordered tuple of distinct
trace ids — not on which slots produced them — so daemons sharing a
trace tuple (the overwhelmingly common case in homogeneous populations)
share one cached structure and only compute label rows per daemon.
"""

from __future__ import annotations

# repro-lint: hot-path — build kernels must stay per-array, not per-node.

from typing import Dict, List, Tuple

import numpy as np

from repro.core.interning import FRAMES
from repro.lint.contracts import contract

__all__ = ["TreeStructure", "build_structure", "dedup_segments"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: largest padded dedup matrix (elements) before degrading to a
#: per-segment loop — guards the degenerate many-wide-segments case.
_DEDUP_MATRIX_LIMIT = 1 << 24

#: below this many segments the per-segment hash loop beats the matrix
#: kernel's fixed launch cost (~10 array ops).
_DEDUP_SMALL = 128


@contract("bounds:(q):int64, columns:[(e):int64] "
          "-> refs:(s):int64, reps:(d):int64")
def dedup_segments(bounds: np.ndarray,
                   columns: Tuple[np.ndarray, ...]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate variable-length segments of parallel value columns.

    ``bounds`` (length ``S + 1``, starting at 0) delimits ``S``
    contiguous segments in each equal-length 1-D column; two segments are
    equal when their lengths and all column values match element-wise.
    Returns ``(refs, reps)``: ``refs[s]`` is the distinct-segment index
    of segment ``s`` and ``reps`` holds one representative segment id per
    distinct segment, both in first-occurrence order.

    The kernel scatters the segments into a ``-1``-padded matrix and
    runs one lexicographic ``np.unique(axis=0)`` — the
    sort/segment-boundary replacement for a per-segment Python loop.
    Column values must be non-negative (the pad is the sentinel).
    """
    counts = np.diff(bounds)
    num = int(counts.size)
    if num == 0:
        return _EMPTY_I64, _EMPTY_I64
    maxlen = int(counts.max())
    ncols = len(columns)
    if num < _DEDUP_SMALL or num * maxlen * ncols > _DEDUP_MATRIX_LIMIT:
        # Few segments (the matrix kernel's launch cost dominates) or a
        # degenerate shape (many segments x one very wide segment, where
        # the padded matrix would dwarf the data): hash per segment.
        index: dict = {}
        refs = np.empty(num, dtype=np.int64)
        reps: List[int] = []
        for s in range(num):  # repro-lint: disable=hot-path-loop (small-input/memory-guard fallback, bounded by segment count)
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            key = b"".join(c[lo:hi].tobytes() for c in columns)
            ref = index.get(key)
            if ref is None:
                ref = index[key] = len(reps)
                reps.append(s)
            refs[s] = ref
        return refs, np.asarray(reps, dtype=np.int64)
    total = int(bounds[-1])
    matrix = np.full((num, maxlen * ncols), -1, dtype=np.int64)
    row = np.repeat(np.arange(num, dtype=np.int64), counts)
    col = np.arange(total, dtype=np.int64) - np.repeat(bounds[:-1], counts)
    for c, values in enumerate(columns):  # repro-lint: disable=hot-path-loop (per column, arity-bounded)
        matrix[row, col * ncols + c] = values
    # One fixed-width byte string per row sidesteps np.unique(axis=0)'s
    # structured-dtype machinery (~10x call overhead).  Safe: trailing-
    # NUL stripping cannot alias equal-length strings — if two stripped
    # forms match, the full rows were already identical.
    rows = matrix.view(f"S{matrix.shape[1] * 8}").ravel()
    _, first, inverse = np.unique(rows, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse.reshape(-1)], first[order]


class TreeStructure:
    """Shape of one daemon tree over an ordered distinct-trace tuple.

    Arrays follow the :class:`~repro.core.treearrays.TreeArrays` BFS
    conventions; ``combo_refs[n]`` indexes ``combos``, whose entries are
    sorted position arrays into the trace tuple (which traces contribute
    to node ``n``).  Structures are immutable and shared across every
    daemon whose sample produced the same trace tuple.
    """

    __slots__ = ("frame_ids", "parents", "level_offsets", "combo_refs",
                 "combos")

    def __init__(self, frame_ids: np.ndarray, parents: np.ndarray,
                 level_offsets: np.ndarray, combo_refs: np.ndarray,
                 combos: List[np.ndarray]) -> None:
        self.frame_ids = frame_ids
        self.parents = parents
        self.level_offsets = level_offsets
        self.combo_refs = combo_refs
        self.combos = combos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TreeStructure nodes={self.frame_ids.size} "
                f"combos={len(self.combos)}>")


@contract("paths:(g,m):int64, depths:(g):int64 -> *")
def build_structure(paths: np.ndarray,
                    depths: np.ndarray) -> TreeStructure:
    """BFS tree arrays for traces given as padded frame-id rows.

    ``paths[g]`` is trace ``g``'s frame ids (``-1``-padded), rows in
    trace insertion order; ``depths[g]`` its frame count.  The result is
    exactly what inserting the traces into a prefix tree one by one and
    flattening it level by level produces: per level, nodes appear
    parent-major (parents in their own BFS order) and, within a parent,
    in the order the traces that introduce them were inserted.
    """
    num_traces = int(depths.size)
    key_base = np.int64(len(FRAMES))
    node_of = np.full(num_traces, -1, dtype=np.int64)
    alive = np.arange(num_traces, dtype=np.int64)
    alive = alive[depths > 0]
    out_frames: List[np.ndarray] = []
    out_parents: List[np.ndarray] = []
    offsets = [0]
    combos: List[np.ndarray] = []
    combo_refs: List[np.ndarray] = []
    combo_index: Dict[bytes, int] = {}
    base = 0
    lvl = 0
    while alive.size:  # repro-lint: disable=hot-path-loop (per tree level, depth-bounded)
        pvals = node_of[alive]
        # Stable parent-major sort: ties keep ascending trace position,
        # so first occurrence below reproduces object insertion order.
        order = np.argsort(pvals, kind="stable")
        members_sorted = alive[order]
        frames_sorted = paths[members_sorted, lvl]
        parents_sorted = pvals[order]
        key = (parents_sorted + 1) * key_base + frames_sorted
        uniq, first, inverse = np.unique(key, return_index=True,
                                         return_inverse=True)
        seen_order = np.argsort(first, kind="stable")
        rank = np.empty(uniq.size, dtype=np.int64)
        rank[seen_order] = np.arange(uniq.size)
        local = rank[inverse.reshape(-1)]
        node_of[members_sorted] = base + local
        rep = first[seen_order]
        out_frames.append(frames_sorted[rep])
        out_parents.append(parents_sorted[rep])
        base += int(uniq.size)
        offsets.append(base)

        # Contributor combinations, deduplicated tree-wide.
        member_order = np.argsort(local, kind="stable")
        members = members_sorted[member_order]
        node_bounds = np.searchsorted(local[member_order],
                                      np.arange(uniq.size + 1))
        refs, reps = dedup_segments(node_bounds, (members,))
        gmap = np.empty(reps.size, dtype=np.int64)
        for j, r in enumerate(reps):  # repro-lint: disable=hot-path-loop (per distinct contributor combination, not per node)
            combo = members[int(node_bounds[r]):int(node_bounds[r + 1])]
            ck = combo.tobytes()
            gid = combo_index.get(ck)
            if gid is None:
                gid = combo_index[ck] = len(combos)
                combos.append(combo)
            gmap[j] = gid
        combo_refs.append(gmap[refs])

        alive = alive[depths[alive] > lvl + 1]
        lvl += 1

    if not out_frames:
        return TreeStructure(_EMPTY_I64, _EMPTY_I64,
                             np.zeros(1, dtype=np.int64), _EMPTY_I64, [])
    return TreeStructure(np.concatenate(out_frames),
                         np.concatenate(out_parents),
                         np.asarray(offsets, dtype=np.int64),
                         np.concatenate(combo_refs),
                         combos)
