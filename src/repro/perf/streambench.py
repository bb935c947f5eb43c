"""``stat-repro bench --stream`` — streaming-TBO̅N benchmark + gates.

Regenerates the Figure 7 merge workload (ring-hang population, BG/L
trees) and runs the reduction both ways over the same forest and the
same cost model:

* **batch** — :class:`~repro.tbon.network.TBONetwork` lockstep rounds;
* **streamed** — :class:`~repro.tbon.streaming.StreamingTBON` with
  asynchronous daemon emissions and incremental folds.

The report (``BENCH_stream.json``) records, per (scheme, scale):

* **time-to-first-tree** (ttft): the earliest simulated instant a
  best-effort front-end snapshot is non-empty — the paper-motivated
  payoff of streaming (a tree while the machine is still misbehaving);
* **time-to-final** (ttfinal): simulated completion at the front end;
* the **streamed payload is** ``arrays_equal`` **to the batch payload**
  (2D and 3D), asserted every run;
* wall-clock for both modes, for the hardware-normalized ratio gate.

Gates in :func:`check_stream_baseline`:

* ``equal`` must hold (bit-identity is the contract, not a statistic);
* ``ttft < TTFT_GATE × ttfinal`` — the acceptance criterion that
  streaming delivers a first tree in under 20% of the full merge;
* simulated ttft/ttfinal must match the baseline to float precision
  (they are deterministic — drift means the timing model changed);
* the streamed/batch wall ratio must not regress by more than
  ``REGRESSION_FACTOR`` vs the baseline ratio (both sides measured on
  the same machine, so the ratio transfers across hardware).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.merge import (
    DenseLabelScheme,
    HierarchicalLabelScheme,
    LabelScheme,
)
from repro.core.taskset import TaskMap
from repro.faults.plan import DaemonCrash, DaemonStall, FaultPlan, \
    LinkFault
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.perf.bench import FULL_DAEMONS, REGRESSION_FACTOR, \
    VN_TASKS_PER_DAEMON, _best
from repro.perf.counters import FAULTS_INJECTED, PERF, \
    TBON_CORRUPT_DETECTED, TBON_RETRIES
from repro.statbench import ring_hang_states
from repro.statbench.emulator import DaemonTrees, STATBenchEmulator
from repro.tbon.network import TBONetwork
from repro.tbon.streaming import StreamConfig, StreamingTBON
from repro.tbon.topology import Topology

__all__ = ["StreamBenchEntry", "StreamBenchReport", "run_stream_bench",
           "check_stream_baseline", "TTFT_GATE", "STREAM_BENCH_VERSION"]

STREAM_BENCH_VERSION = 1
#: acceptance gate: time-to-first-tree under 20% of time-to-final
TTFT_GATE = 0.20
#: relative tolerance when pinning deterministic simulated times
SIM_TOLERANCE = 1e-6


@dataclass
class StreamBenchEntry:
    """One (scheme, scale) streamed-vs-batch measurement."""

    name: str
    scheme: str
    daemons: int
    tasks: int
    samples: int
    repeats: int
    #: simulated seconds until the first best-effort tree exists
    ttft: float = 0.0
    #: simulated seconds until the final tree commits at the front end
    ttfinal: float = 0.0
    #: ttft / ttfinal — gated below :data:`TTFT_GATE`
    ttft_ratio: float = 0.0
    #: the batch reduction's simulated completion, for context
    batch_sim_time: float = 0.0
    partial_merges: int = 0
    messages: int = 0
    bytes_total: int = 0
    stream_wall_seconds: float = 0.0
    batch_wall_seconds: float = 0.0
    #: streamed wall / batch wall on the same hardware (ratio transfers)
    wall_ratio: float = 0.0
    #: streamed final tree ``arrays_equal`` to the batch tree (2D + 3D)
    equal: bool = False


@dataclass
class StreamBenchReport:
    """Everything one streaming bench measured (→ BENCH_stream.json)."""

    version: int = STREAM_BENCH_VERSION
    workload: str = "fig07-ring-hang-bgl-stream"
    seed: int = 208_000
    entries: List[StreamBenchEntry] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: fault-path visibility (``faults.injected``, ``tbon.retries``,
    #: ``tbon.corrupt_detected``) from the seeded fault demo — shown in
    #: the table and recorded in the JSON, never gated against the
    #: baseline (entries without a baseline match fail the strict gate,
    #: so fault visibility rides as an extra report field instead).
    fault_counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every entry is bit-identical and under the gate."""
        return all(e.equal and e.ttft_ratio < TTFT_GATE
                   for e in self.entries)

    def to_dict(self) -> Dict:
        return {"version": self.version, "workload": self.workload,
                "seed": self.seed, "wall_seconds": self.wall_seconds,
                "fault_counters": dict(self.fault_counters),
                "entries": [asdict(e) for e in self.entries]}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def table(self) -> str:
        """Printable ttft-vs-ttfinal table."""
        header = (f"{'entry':<26} {'tasks':>9} {'ttft':>9} "
                  f"{'ttfinal':>9} {'ratio':>7} {'folds':>6} "
                  f"{'equal':>6}")
        lines = [header, "-" * len(header)]
        for e in self.entries:
            lines.append(
                f"{e.name:<26} {e.tasks:>9} "
                f"{e.ttft * 1e3:>7.2f}ms {e.ttfinal:>8.3f}s "
                f"{e.ttft_ratio:>6.1%} {e.partial_merges:>6} "
                f"{str(e.equal):>6}")
        if self.fault_counters:
            pairs = ", ".join(f"{name}={value:g}" for name, value
                              in sorted(self.fault_counters.items()))
            lines.append(f"fault demo: {pairs}")
        lines.append(f"({len(self.entries)} entries in "
                     f"{self.wall_seconds:.1f} wall s)")
        return "\n".join(lines)


def _topology_for(daemons: int) -> Topology:
    """The paper's shape at each scale: 3-deep for the full machine,
    2-deep (``min(sqrt(D), 28)`` CPs) below it."""
    if daemons >= 1024:
        return Topology.bgl_three_deep(daemons)
    return Topology.bgl_two_deep(daemons)


def _bench_stream_scheme(scheme: LabelScheme, daemons: int, samples: int,
                         repeats: int, seed: int) -> StreamBenchEntry:
    """Build the forest once, then time batch vs streamed reductions."""
    tasks = daemons * VN_TASKS_PER_DAEMON
    task_map = TaskMap.block(daemons, VN_TASKS_PER_DAEMON)
    emulator = STATBenchEmulator(
        task_map, scheme, BGLStackModel(),
        ring_hang_states(tasks), num_samples=samples, seed=seed)
    forest = emulator.build_forest()
    machine = BGLMachine.with_io_nodes(daemons, "vn")
    topology = _topology_for(daemons)
    kwargs = dict(
        leaf_payload_fn=lambda rank: forest[rank],
        merge_fn=emulator.merge_filter(),
        payload_nbytes=DaemonTrees.serialized_bytes,
        payload_nodes=DaemonTrees.node_count,
    )

    batch_net = TBONetwork(topology, machine)
    batch_wall, batch = _best(lambda: batch_net.reduce(**kwargs), repeats)

    stream_net = StreamingTBON(topology, machine)
    config = StreamConfig(seed=seed)
    stream_wall, streamed = _best(
        lambda: stream_net.reduce(**kwargs, config=config), repeats)

    equal = (streamed.payload.tree_2d.arrays_equal(batch.payload.tree_2d)
             and streamed.payload.tree_3d.arrays_equal(
                 batch.payload.tree_3d))
    return StreamBenchEntry(
        name=f"stream-{scheme.name}-vn-{daemons}",
        scheme=scheme.name,
        daemons=daemons,
        tasks=tasks,
        samples=samples,
        repeats=repeats,
        ttft=streamed.first_tree_time,
        ttfinal=streamed.sim_time,
        ttft_ratio=streamed.first_tree_time / streamed.sim_time
        if streamed.sim_time else float("inf"),
        batch_sim_time=batch.sim_time,
        partial_merges=streamed.partial_merges,
        messages=streamed.messages,
        bytes_total=streamed.bytes_total,
        stream_wall_seconds=stream_wall,
        batch_wall_seconds=batch_wall,
        wall_ratio=stream_wall / batch_wall if batch_wall
        else float("inf"),
        equal=equal,
    )


def _fault_demo(seed: int, daemons: int = 16,
                samples: int = 2) -> Dict[str, float]:
    """One small seeded faulted streamed reduction; PERF deltas.

    Exercises every fault counter on a fixed plan — a crashed daemon,
    a stalled daemon absorbed by retries, and a mildly corrupting
    ingress link — so ``bench --stream`` output shows the fault path
    is alive.  Deterministic for a given ``seed``.
    """
    tasks = daemons * VN_TASKS_PER_DAEMON
    emulator = STATBenchEmulator(
        TaskMap.block(daemons, VN_TASKS_PER_DAEMON),
        HierarchicalLabelScheme(), BGLStackModel(),
        ring_hang_states(tasks), num_samples=samples, seed=seed)
    forest = emulator.build_forest()
    plan = FaultPlan(
        seed=seed,
        crashes=(DaemonCrash(rank=daemons - 1),),
        stalls=(DaemonStall(rank=1, duration=4.0),),
        links=(LinkFault(corrupt_p=0.12),),
    )
    before = {name: PERF.get(name) for name in
              (FAULTS_INJECTED, TBON_RETRIES, TBON_CORRUPT_DETECTED)}
    StreamingTBON(Topology.bgl_two_deep(daemons),
                  BGLMachine.with_io_nodes(daemons, "vn")).reduce(
        leaf_payload_fn=lambda rank: forest[rank],
        merge_fn=emulator.merge_filter(),
        payload_nbytes=DaemonTrees.serialized_bytes,
        payload_nodes=DaemonTrees.node_count,
        config=StreamConfig(seed=seed),
        faults=plan.bind(daemons),
    )
    return {name: PERF.get(name) - start
            for name, start in before.items()}


def run_stream_bench(daemons: Optional[int] = None,
                     samples: Optional[int] = None,
                     repeats: Optional[int] = None,
                     quick: bool = False,
                     seed: int = 208_000,
                     progress=print) -> StreamBenchReport:
    """Run the streaming-TBO̅N benchmark suite.

    ``quick`` shrinks the defaults to CI smoke scale (64 daemons);
    the full scale is fig07's 1,664 daemons (212,992 tasks, VN mode).
    """
    daemons = daemons if daemons is not None else (64 if quick
                                                   else FULL_DAEMONS)
    samples = samples if samples is not None else (4 if quick else 10)
    repeats = repeats if repeats is not None else (3 if quick else 5)
    if daemons < 1 or samples < 1 or repeats < 1:
        raise ValueError("daemons, samples, and repeats must be >= 1")
    report = StreamBenchReport(seed=seed)
    start = time.perf_counter()
    for scheme in (DenseLabelScheme(daemons * VN_TASKS_PER_DAEMON),
                   HierarchicalLabelScheme()):
        progress(f"bench: streamed merge — {scheme.name} scheme, "
                 f"{daemons} daemons "
                 f"({daemons * VN_TASKS_PER_DAEMON} tasks) ...")
        report.entries.append(
            _bench_stream_scheme(scheme, daemons, samples, repeats, seed))
    progress("bench: seeded fault demo (crash + stall + corrupt) ...")
    report.fault_counters = _fault_demo(seed)
    report.wall_seconds = time.perf_counter() - start
    return report


def check_stream_baseline(report: StreamBenchReport, baseline_path: str,
                          factor: float = REGRESSION_FACTOR
                          ) -> Tuple[bool, List[str]]:
    """Gate a streaming report against a checked-in baseline JSON.

    Four checks per entry, strictest first: bit-identity with the batch
    merge; the :data:`TTFT_GATE` acceptance criterion; deterministic
    simulated times pinned to the baseline; and the hardware-normalized
    streamed/batch wall-ratio regression bound.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_entries = {e["name"]: e for e in baseline.get("entries", [])}
    messages: List[str] = []
    ok = True
    for entry in report.entries:
        if not entry.equal:
            ok = False
            messages.append(f"{entry.name}: streamed output diverged "
                            "from the batch merge")
            continue
        if entry.ttft_ratio >= TTFT_GATE:
            ok = False
            messages.append(
                f"{entry.name}: TTFT GATE — first tree at "
                f"{entry.ttft_ratio:.1%} of time-to-final "
                f"(gate {TTFT_GATE:.0%})")
            continue
        base = base_entries.get(entry.name)
        if base is None:
            # Strict: a rename or scale change must not silently disarm
            # the gate — refresh the baseline file instead.
            ok = False
            messages.append(
                f"{entry.name}: no matching baseline entry — regenerate "
                f"the baseline ({sorted(base_entries) or 'empty'})")
            continue
        drift = [
            name for name, got, want in (
                ("ttft", entry.ttft, base["ttft"]),
                ("ttfinal", entry.ttfinal, base["ttfinal"]),
            )
            if abs(got - want) > SIM_TOLERANCE * max(abs(want), 1e-12)
        ]
        if drift:
            ok = False
            messages.append(
                f"{entry.name}: simulated {'/'.join(drift)} drifted from "
                f"the baseline — the timing model changed; regenerate "
                f"the baseline if intentional")
            continue
        ceiling = base["wall_ratio"] * factor
        if entry.wall_ratio > ceiling:
            ok = False
            messages.append(
                f"{entry.name}: REGRESSION — streamed/batch wall ratio "
                f"{entry.wall_ratio:.2f} > baseline "
                f"{base['wall_ratio']:.2f} x {factor:.0f} "
                f"(streamed {entry.stream_wall_seconds * 1e3:.1f}ms)")
        else:
            messages.append(
                f"{entry.name}: ok (ttft {entry.ttft * 1e3:.2f}ms = "
                f"{entry.ttft_ratio:.1%} of final {entry.ttfinal:.3f}s; "
                f"wall ratio {entry.wall_ratio:.2f} vs ceiling "
                f"{ceiling:.2f})")
    return ok, messages
