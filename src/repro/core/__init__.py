"""STAT core: the paper's primary contribution.

Subpackages of :mod:`repro` implement the substrates (TBO̅N, launchers, file
systems, MPI runtime, machines); this package implements the Stack Trace
Analysis Tool itself:

* :mod:`repro.core.taskset` — edge-label representations (Section V): the
  original global-width :class:`DenseBitVector` and the optimized
  :class:`HierarchicalTaskSet` with front-end :class:`RankRemapper`.
* :mod:`repro.core.ranklist` — compressed rank lists for edge labels
  (``"1022:[0,3-1023]"`` as in Figure 1).
* :mod:`repro.core.frames` / :mod:`repro.core.prefix_tree` — stack frames and
  the 2D trace-space / 3D trace-space-time call graph prefix trees.
* :mod:`repro.core.merge` — the STAT filter kernel that merges trees.
* :mod:`repro.core.equivalence` — process equivalence classes and
  representative-task selection.
* :mod:`repro.core.stackwalk` / :mod:`repro.core.sampling` — the
  StackWalker-style sampler and its cost model.
* :mod:`repro.core.forest` — the daemons' local build: every daemon's
  locally merged 2D/3D trees from a sampled-state matrix, in one pass.
* :mod:`repro.core.frontend` — the front end orchestrating launch →
  attach → sample → merge → report.
"""

from repro.core.codec import pack_tree, unpack_tree
from repro.core.equivalence import EquivalenceClass, equivalence_classes, \
    triage_classes
from repro.core.frames import Frame, StackTrace
from repro.core.prefix_tree import PrefixTree, PrefixTreeNode
from repro.core.queries import TreeQuery
from repro.core.ranklist import format_rank_list, parse_rank_list
from repro.core.session import load_session, save_session
from repro.core.taskset import (
    DaemonLayout,
    DenseBitVector,
    HierarchicalTaskSet,
    RankRemapper,
    TaskMap,
)

__all__ = [
    "DenseBitVector",
    "HierarchicalTaskSet",
    "DaemonLayout",
    "TaskMap",
    "RankRemapper",
    "Frame",
    "StackTrace",
    "PrefixTree",
    "PrefixTreeNode",
    "EquivalenceClass",
    "equivalence_classes",
    "triage_classes",
    "format_rank_list",
    "parse_rank_list",
    "pack_tree",
    "unpack_tree",
    "TreeQuery",
    "save_session",
    "load_session",
]
