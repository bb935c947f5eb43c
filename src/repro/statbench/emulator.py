"""Daemon-tree emulation at scale.

The emulator stands in for a fleet of live daemons: given a rank-state
provider it samples every rank's state ``num_samples`` times and builds
each daemon's locally merged trees in one forest-scope pass
(:func:`repro.core.forest.build_forest`).  Callers build the forest once
and hand ``forest.__getitem__`` to a TBO̅N reduction as its
``leaf_payload_fn``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core.forest import build_forest as _build_forest_arrays
from repro.core.merge import LabelScheme
from repro.core.taskset import TaskMap
from repro.mpi.runtime import STATES, RankState
from repro.mpi.stacks import StackModel
from repro.sim.random import SeedStream

__all__ = ["STATBenchEmulator", "DaemonTrees"]


class DaemonTrees:
    """The payload a daemon ships upward: its 2D and 3D trees together.

    Section V-A: "we measure the time it takes for each STAT daemon to
    send its locally-merged 2D trace-space and 3D trace-space-time prefix
    trees through the MRNet tree" — both travel in one packet, so the wire
    size is the sum.

    Trees may be :class:`~repro.core.prefix_tree.PrefixTree` or (on the
    emulator hot path) :class:`~repro.core.treearrays.TreeArrays`; both
    expose the same size/traversal API and merge through the same scheme
    kernels.
    """

    __slots__ = ("tree_2d", "tree_3d")

    def __init__(self, tree_2d, tree_3d) -> None:
        self.tree_2d = tree_2d
        self.tree_3d = tree_3d

    def serialized_bytes(self) -> int:
        """Combined wire size."""
        return self.tree_2d.serialized_bytes() + self.tree_3d.serialized_bytes()

    def node_count(self) -> int:
        """Combined complexity (filter CPU model input)."""
        return self.tree_2d.node_count() + self.tree_3d.node_count()


class STATBenchEmulator:
    """Builder of a daemon population's locally merged trees."""

    def __init__(self, task_map: TaskMap, scheme: LabelScheme,
                 stack_model: StackModel,
                 state_of: Callable[[int], RankState],
                 num_samples: int = 10,
                 threads_per_process: int = 1,
                 seed: int = 208_000) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.task_map = task_map
        self.scheme = scheme
        self.stack_model = stack_model
        self.state_of = state_of
        self.num_samples = num_samples
        self.threads_per_process = threads_per_process
        self._seeds = SeedStream(seed)

    def _sampled_states(self) -> np.ndarray:
        """The ``(num_samples, total_tasks)`` matrix of sampled state ids.

        One provider query per instant for the whole job: providers with
        the batch ``states_array`` API (all statbench generators) answer
        it directly; plain ``state_of`` callables — e.g. a live runtime's
        — are walked rank by rank and interned through
        :data:`~repro.mpi.runtime.STATES`.
        """
        total = self.task_map.total_tasks
        batch = getattr(self.state_of, "states_array", None)
        if batch is not None:
            ranks = np.arange(total, dtype=np.int64)
            rows = [batch(ranks) for _ in range(self.num_samples)]
        else:
            rows = [STATES.ids_of(map(self.state_of, range(total)))
                    for _ in range(self.num_samples)]
        return np.vstack(rows)

    def build_forest(self, daemon_ids: Optional[List[int]] = None
                     ) -> List[DaemonTrees]:
        """Build daemons' ``(2D, 3D)`` trees in one forest-scope pass.

        Deterministic per (seed, daemon): a daemon's trees do not depend
        on which other daemons are built alongside it, or in what order.
        ``daemon_ids`` defaults to every daemon of the task map.
        """
        pairs = _build_forest_arrays(
            self.task_map, self.scheme, self.stack_model,
            self._sampled_states(),
            lambda d: self._seeds.rng(f"daemon-{d}"),
            daemon_ids=daemon_ids,
            threads_per_process=self.threads_per_process)
        return [DaemonTrees(t2, t3) for t2, t3 in pairs]

    def merge_filter(self):
        """Merge callable over :class:`DaemonTrees` payloads."""
        scheme = self.scheme

        def merge(payloads):
            return DaemonTrees(
                scheme.merge([p.tree_2d for p in payloads]),
                scheme.merge([p.tree_3d for p in payloads]),
            )

        return merge

    def __repr__(self) -> str:
        return (f"<STATBenchEmulator daemons={len(self.task_map)} "
                f"scheme={self.scheme.name} samples={self.num_samples}>")
