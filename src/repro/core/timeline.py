"""Time-series sampling of a *running* application.

The "time" axis of the 3D trace-space-time tree comes from sampling the
same tasks at several instants.  Against a hung application the variation
is only the progress engine's polling depth; against a **running**
application the tasks genuinely move between states — compute, send,
waitall, barrier — and the 3D tree records the union of behaviours over
the window, exactly what STAT's users read to see *where time goes*.

:class:`TimelineSampler` interleaves the application's discrete-event
execution with sampling pauses: run the engine to t₁, walk every rank,
resume to t₂, walk again, …  This mirrors the real tool, which stops and
resumes the processes around each walk.  Each pause records one row of
interned rank states; the daemons' trees are then built from the whole
recording in one :func:`~repro.core.forest.build_forest` pass.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.forest import build_forest
from repro.core.merge import LabelScheme
from repro.core.prefix_tree import PrefixTree
from repro.core.taskset import TaskMap
from repro.machine.base import MachineModel
from repro.mpi.runtime import STATES, MPIRuntime
from repro.mpi.stacks import StackModel
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.random import SeedStream

__all__ = ["TimelineSampler", "TimelineResult"]


class TimelineResult:
    """Everything one timeline run produced."""

    __slots__ = ("runtime", "sample_times", "tree_2d", "tree_3d",
                 "states", "states_seen")

    def __init__(self, runtime: MPIRuntime, sample_times: List[float],
                 tree_2d: PrefixTree, tree_3d: PrefixTree,
                 states: np.ndarray) -> None:
        self.runtime = runtime
        self.sample_times = sample_times
        #: merged 2D tree of the *last* instant
        self.tree_2d = tree_2d
        #: merged 3D tree across all instants
        self.tree_3d = tree_3d
        #: ``(instants, ranks)`` interned state ids the trees were built from
        self.states = states
        #: per-instant sets of observed state kinds (diagnostics)
        self.states_seen = [{STATES.key_of(sid)[0] for sid in
                             np.unique(row).tolist()} for row in states]

    @property
    def hung(self) -> bool:
        """True if some ranks had not completed by the last sample."""
        return bool(self.runtime.unfinished_ranks())


class TimelineSampler:
    """Sample a live application at chosen simulated instants."""

    def __init__(self, machine: MachineModel, task_map: TaskMap,
                 scheme: LabelScheme, stack_model: StackModel,
                 seed: int = 208_000) -> None:
        if task_map.total_tasks != machine.total_tasks:
            raise ValueError(
                f"task map covers {task_map.total_tasks} tasks but the "
                f"machine runs {machine.total_tasks}")
        self.machine = machine
        self.task_map = task_map
        self.scheme = scheme
        self.stack_model = stack_model
        self.seed = seed

    def run(self, program: Callable,
            sample_times: Sequence[float]) -> TimelineResult:
        """Execute ``program`` and sample at each time in ``sample_times``.

        Times must be strictly increasing.  After the last sample the
        application is left wherever it is (finished or hung); the
        returned trees merge all daemons' local trees.
        """
        times = list(sample_times)
        if not times:
            raise ValueError("need at least one sample time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")

        engine = Engine()
        runtime = MPIRuntime(engine, self.machine.total_tasks)

        # Start rank programs without running to completion.
        def wrapped(ctx):
            ctx._set_state("compute", "main")
            result = yield from program(ctx)
            ctx._set_state("done", "exited")
            return result

        for rank, ctx in enumerate(runtime.contexts):
            runtime.processes[rank] = Process(engine, wrapped(ctx),
                                              name=f"rank{rank}")

        rows = []
        for t in times:
            engine.run(until=t)
            rows.append(STATES.ids_of(map(runtime.state_of,
                                          range(runtime.size))))
        states = np.vstack(rows)

        seeds = SeedStream(self.seed).child("timeline")
        pairs = build_forest(self.task_map, self.scheme, self.stack_model,
                             states, lambda d: seeds.rng(f"daemon-{d}"),
                             daemon_ids=sorted(self.task_map.daemons()))
        trees_2d = [t2 for t2, _ in pairs]
        trees_3d = [t3 for _, t3 in pairs]
        merged_2d = self.scheme.merge(trees_2d) if len(trees_2d) > 1 \
            else trees_2d[0]
        merged_3d = self.scheme.merge(trees_3d) if len(trees_3d) > 1 \
            else trees_3d[0]
        return TimelineResult(
            runtime, times,
            self.scheme.finalize(merged_2d, self.task_map),
            self.scheme.finalize(merged_3d, self.task_map),
            states,
        )
