"""The benchmark's workloads: seeded session specs and output checks.

Each workload is a list of :class:`~repro.api.spec.SessionSpec` derived
from the workload seed alone, so the program under test only ever sees
the resulting specs.  A session is timed from spec resolution through
the finished ``STATResult`` (plus the archive round trip on
``faults-archive``); :func:`check_session` runs after that interval and
raises :class:`CheckFailed` on a wrong answer.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api.pipeline import PhaseObserver, SessionPipeline
from repro.api.spec import SessionSpec
from repro.core.session import load_session, save_session
from repro.faults.plan import (
    DaemonCrash,
    DaemonStall,
    FaultPlan,
    LinkFault,
    Straggler,
)

__all__ = ["WORKLOADS", "Workload", "SessionRun", "CheckFailed",
           "session_seed", "run_session", "check_session"]


class CheckFailed(AssertionError):
    """A session finished but its output is wrong."""


def session_seed(workload_seed: int, index: int) -> int:
    """Seed of session ``index``: a pure function of the workload seed.

    Index -1 is the untimed warm-up session.
    """
    entropy = [workload_seed % 2**63, index + 1]
    state = np.random.SeedSequence(entropy).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def _hang_batch(seed: int, daemons: int) -> SessionSpec:
    return SessionSpec(machine="bgl", mode="vn", daemons=daemons,
                       workload="ring_hang", scheme="hierarchical",
                       mapping="cyclic", seed=seed)


def _classes_stream(seed: int, daemons: int) -> SessionSpec:
    return SessionSpec(machine="bgl", mode="vn", daemons=daemons,
                       workload="uniform:8", scheme="dense",
                       mapping="block", seed=seed)


def _faults_archive(seed: int, daemons: int) -> SessionSpec:
    rng = np.random.default_rng(seed)
    crash, stall = (int(r) for r in rng.choice(daemons, 2, replace=False))
    plan = FaultPlan(
        seed=seed,
        # A positive crash time kills the daemon mid-merge, after launch.
        crashes=(DaemonCrash(rank=crash, time=0.05),),
        # Well inside the default retry budget, so it is absorbed.
        stalls=(DaemonStall(rank=stall, time=0.0, duration=1.0),),
        links=(LinkFault(drop_p=0.1, corrupt_p=0.1),),
        stragglers=(Straggler(fraction=0.2),),
    )
    return SessionSpec(machine="atlas", daemons=daemons,
                       workload="ring_hang", scheme="hierarchical",
                       seed=seed, faults=plan)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a spec shape plus how sessions run."""

    name: str
    make_spec: Callable[[int, int], SessionSpec]
    #: daemon count of the measured runs
    daemons: int
    #: streamed merge (``ctx.stream``), which specs cannot express yet
    stream: bool = False
    #: save and reload every result inside the timed interval
    archive: bool = False

    def specs(self, workload_seed: int, count: int,
              daemons: Optional[int] = None) -> List[SessionSpec]:
        """The first ``count`` session specs for ``workload_seed``."""
        return [self.spec(workload_seed, i, daemons) for i in range(count)]

    def spec(self, workload_seed: int, index: int,
             daemons: Optional[int] = None) -> SessionSpec:
        """Session ``index``'s spec (index -1 is the warm-up session)."""
        return self.make_spec(session_seed(workload_seed, index),
                              daemons or self.daemons)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("hang-batch", _hang_batch, daemons=416),
    Workload("classes-stream", _classes_stream, daemons=128, stream=True),
    Workload("faults-archive", _faults_archive, daemons=1152,
             archive=True),
)}


class _FirstTree(PhaseObserver):
    """Wall time at which the first merged tree exists.

    Streamed: the merge phase's ``first_tree`` progress event.  Batch:
    the end of the merge phase, the only time a merged tree exists.
    """

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def on_progress(self, phase, ctx, event, info) -> None:
        if event == "first_tree" and self.at is None:
            self.at = time.perf_counter()

    def on_phase_end(self, phase, ctx, sim_seconds) -> None:
        if phase == "merge" and self.at is None:
            self.at = time.perf_counter()


@dataclass
class SessionRun:
    """One timed session and what the checks need from it."""

    spec: SessionSpec
    ctx: object
    wall_s: float
    first_tree_s: float
    archive: object = None
    archive_bytes: int = 0

    @property
    def result(self):
        return self.ctx.result

    @property
    def tasks(self) -> int:
        return self.ctx.task_map.total_tasks

    @property
    def sim_seconds(self) -> float:
        return self.ctx.total_seconds


def run_session(workload: Workload, spec: SessionSpec,
                scratch: Path) -> SessionRun:
    """Run one session; the returned ``wall_s`` is its timed interval."""
    first = _FirstTree()
    start = time.perf_counter()
    pipeline = SessionPipeline.from_spec(spec, observers=[first])
    pipeline.ctx.stream = workload.stream
    result = pipeline.run()
    archive = None
    if workload.archive:
        target = scratch / "archive"
        save_session(result, target, spec=spec)
        archive = load_session(target)
    wall = time.perf_counter() - start
    run = SessionRun(spec, pipeline.ctx, wall, first.at - start, archive)
    if workload.archive:
        run.archive_bytes = sum(p.stat().st_size
                                for p in target.iterdir())
        shutil.rmtree(target)
    return run


# -- output checks (outside the timed interval) -------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _class_key(classes) -> list:
    return [(c.ranks, c.paths) for c in classes]


def _check_partition(run: SessionRun) -> None:
    """Classes partition exactly the ranks of the non-missing daemons."""
    task_map = run.ctx.task_map
    missing = set(run.result.merge.missing_daemons)
    expect = np.sort(np.concatenate(
        [task_map.ranks_of(d) for d in task_map.daemons()
         if d not in missing]))
    got = np.sort(np.concatenate(
        [np.asarray(c.ranks, dtype=np.int64) for c in run.result.classes]))
    _require(got.size == expect.size and np.array_equal(got, expect),
             f"classes cover {got.size} ranks, expected {expect.size} "
             f"(ranks of the {len(task_map) - len(missing)} live daemons)")


def _check_hang(run: SessionRun) -> None:
    """The ring hang isolates ranks 1 and 2 in singleton classes."""
    singles = {c.ranks for c in run.result.classes if c.size == 1}
    _require({(1,), (2,)} <= singles,
             f"ranks 1 and 2 are not singleton classes: {singles}")


def _check_states(run: SessionRun) -> None:
    """Each generator state lands in exactly one class."""
    total = run.tasks
    class_of = np.full(total, -1, dtype=np.int64)
    for i, c in enumerate(run.result.classes):
        class_of[np.asarray(c.ranks, dtype=np.int64)] = i
    states = run.ctx.state_of.states_array(np.arange(total))
    for state in np.unique(states):
        homes = np.unique(class_of[states == state])
        _require(homes.size == 1,
                 f"state {int(state)} spread over classes {homes.tolist()}")


def _check_batch_equal(run: SessionRun) -> None:
    """A batch run of the same spec finds the same classes."""
    batch = run.spec.run().result
    _require(_class_key(batch.classes) == _class_key(run.result.classes),
             "streamed classes differ from the batch run's classes")


def _check_degradation(run: SessionRun) -> None:
    """Coverage is covered / daemons, and the archive matches."""
    report = run.result.degradation
    task_map = run.ctx.task_map
    seen = np.zeros(task_map.total_tasks, dtype=bool)
    for c in run.result.classes:
        seen[np.asarray(c.ranks, dtype=np.int64)] = True
    covered = sum(1 for d in task_map.daemons()
                  if seen[task_map.ranks_of(d)].any())
    _require(report is not None and report.daemons == len(task_map),
             "missing or mis-sized degradation report")
    _require(report.coverage == covered / len(task_map),
             f"coverage {report.coverage} != {covered}/{len(task_map)}")
    _require(_class_key(run.archive.classes) ==
             _class_key(run.result.classes),
             "reloaded archive classes differ from the live classes")


def check_session(workload: Workload, run: SessionRun,
                  first: bool) -> None:
    """Every output check for one session of ``workload``.

    ``first`` marks the run's first session, which on the streamed
    workload is also compared with a batch run of the same spec.
    """
    _require(run.result is not None, "session produced no result")
    _check_partition(run)
    if workload.name == "hang-batch":
        _check_hang(run)
    elif workload.name == "classes-stream":
        _check_states(run)
        if first:
            _check_batch_equal(run)
    elif workload.name == "faults-archive":
        _check_degradation(run)
