"""Bind a :class:`~repro.faults.plan.FaultPlan` to a concrete run.

The :class:`FaultInjector` resolves a plan against a daemon count:
straggler ranks are drawn once from the plan's seed stream, link-fault
draws are labelled per ``(node, slot, attempt)`` so they are independent
of event ordering, and crash/stall windows become pure time arithmetic.
Everything is deterministic for a given ``(plan, num_daemons)``; the
injector holds only bookkeeping counters as mutable state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plan import (
    FAILURE_DETECT_S,
    FaultPlan,
    RetryPolicy,
    corrupted_checksum,
    payload_checksum,
)
from repro.perf.counters import FAULTS_INJECTED, PERF
from repro.sim.random import SeedStream

__all__ = ["FaultInjector"]


def _combine_p(probs: List[float]) -> float:
    """Probability that at least one independent event fires."""
    survive = 1.0
    for p in probs:
        survive *= 1.0 - p
    return 1.0 - survive


class FaultInjector:
    """A :class:`FaultPlan` resolved against ``num_daemons`` daemons.

    Construct via :meth:`FaultPlan.bind`.  All randomness comes from
    ``SeedStream(plan.seed).child("faults")`` with stable labels, so two
    injectors bound from equal plans behave bit-identically.
    """

    def __init__(self, plan: FaultPlan, num_daemons: int) -> None:
        if num_daemons < 1:
            raise ValueError(
                f"num_daemons must be >= 1, got {num_daemons}")
        self.plan = plan
        self.num_daemons = num_daemons
        self._stream = SeedStream(plan.seed).child("faults")

        # crash: earliest configured death per rank
        self._crash: Dict[int, float] = {}
        for crash in plan.crashes:
            t = self._crash.get(crash.rank)
            if t is None or crash.time < t:
                self._crash[crash.rank] = crash.time

        # stalls: recovery windows per rank, earliest first
        self._stalls: Dict[int, List[Tuple[float, float]]] = {}
        for stall in plan.stalls:
            self._stalls.setdefault(stall.rank, []).append(
                (stall.time, stall.duration))
        for windows in self._stalls.values():
            windows.sort()

        # stragglers: membership drawn once per entry from the stream
        self._stragglers: List[Tuple[Set[int], float, float]] = []
        for i, entry in enumerate(plan.stragglers):
            count = int(round(entry.fraction * num_daemons))
            picked: Set[int] = set()
            if count > 0:
                rng = self._stream.rng(f"stragglers/{i}")
                picks = rng.choice(num_daemons,
                                   size=min(count, num_daemons),
                                   replace=False)
                picked = {int(r) for r in picks}
            self._stragglers.append(
                (picked, entry.dilation, entry.extra_s))

        # links: global probability plus per-node overrides, combined as
        # independent events
        global_drop = _combine_p(
            [f.drop_p for f in plan.links if f.node_id is None])
        global_corrupt = _combine_p(
            [f.corrupt_p for f in plan.links if f.node_id is None])
        self._link_global = (global_drop, global_corrupt)
        self._link_by_node: Dict[int, Tuple[float, float]] = {}
        targeted = sorted({f.node_id for f in plan.links
                           if f.node_id is not None})
        for node_id in targeted:
            drop = _combine_p(
                [global_drop] + [f.drop_p for f in plan.links
                                 if f.node_id == node_id])
            corrupt = _combine_p(
                [global_corrupt] + [f.corrupt_p for f in plan.links
                                    if f.node_id == node_id])
            self._link_by_node[node_id] = (drop, corrupt)

        #: fault events fired, by kind
        self.counts: Dict[str, int] = {}
        #: transient faults fully absorbed by the retry policy
        self.absorbed = 0

    # -- bookkeeping -------------------------------------------------------
    @property
    def retry(self) -> RetryPolicy:
        """The plan's retry policy."""
        return self.plan.retry

    @property
    def injected(self) -> int:
        """Total fault events fired so far."""
        return sum(self.counts.values())

    def note(self, kind: str) -> None:
        """Record one fired fault event of ``kind``."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        PERF.add(FAULTS_INJECTED)

    def note_absorbed(self) -> None:
        """Record one transient fault fully absorbed by retries."""
        self.absorbed += 1

    # -- daemon faults -----------------------------------------------------
    def crash_time(self, rank: int) -> float:
        """When ``rank`` dies permanently (``inf`` if never)."""
        return self._crash.get(rank, math.inf)

    def dead_at_start(self) -> Set[int]:
        """Ranks already dead when the session starts (crash at t<=0)."""
        return {rank for rank, t in self._crash.items() if t <= 0.0}

    def delayed_ready(self, rank: int, ready: float) -> float:
        """Apply straggler dilation and stall windows to a ready time.

        Identity (and zero RNG draws, zero events noted) when the rank
        is unaffected — the empty-plan bit-identity guarantee.
        """
        out = ready
        for ranks, dilation, extra_s in self._stragglers:
            if rank in ranks:
                out = out * dilation + extra_s
        if out != ready:
            self.note("straggler")
        windows = self._stalls.get(rank)
        if windows:
            for start, duration in windows:
                if start <= out < start + duration:
                    out = start + duration
                    self.note("daemon_stall")
        return out

    def leaf_outcome(self, rank: int, ready: float,
                     policy: RetryPolicy) -> Tuple[float, bool, int]:
        """Resolve crash/stall/straggler faults for one daemon's emit.

        Returns ``(time, alive, retries_spent)``.  When ``alive`` the
        payload is available at ``time`` (transient delays absorbed via
        bounded retry windows); otherwise the daemon is lost and
        ``time`` is when its parent gives up — the
        :data:`~repro.faults.plan.FAILURE_DETECT_S` timeout after a
        crash, or the exhausted retry budget's end for a stall that
        outlasted it.
        """
        crash = self.crash_time(rank)
        if crash <= max(ready, 0.0):
            self.note("daemon_crash")
            return max(crash, 0.0) + FAILURE_DETECT_S, False, 0
        delayed = self.delayed_ready(rank, ready)
        if crash <= delayed:
            self.note("daemon_crash")
            return max(crash, 0.0) + FAILURE_DETECT_S, False, 0
        if delayed > ready:
            when, spent, ok = policy.absorb(ready, delayed)
            if not ok:
                return when, False, spent
            self.note_absorbed()
            return when, True, spent
        return ready, True, 0

    # -- link faults -------------------------------------------------------
    def link_params(self, node_id: int) -> Optional[Tuple[float, float]]:
        """(drop_p, corrupt_p) on ``node_id``'s ingress links, or None."""
        params = self._link_by_node.get(node_id, self._link_global)
        if params[0] <= 0.0 and params[1] <= 0.0:
            return None
        return params

    def link_fate(self, node_id: int, slot: int, attempt: int) -> str:
        """Fate of one transmission: ``"ok"``, ``"drop"``, ``"corrupt"``.

        Labelled per ``(node, slot, attempt)`` so the draw is the same
        no matter when the transfer is scheduled, and each retransmission
        re-rolls independently.
        """
        params = self.link_params(node_id)
        if params is None:
            return "ok"
        drop_p, corrupt_p = params
        rng = self._stream.rng(f"link/{node_id}/{slot}/{attempt}")
        draws = rng.random(2)
        if draws[0] < drop_p:
            self.note("link_fault")
            return "drop"
        if draws[1] < corrupt_p:
            self.note("link_fault")
            return "corrupt"
        return "ok"

    def deliver_ok(self, payload, fate: str) -> bool:
        """Receiver-side checksum verification of one transmission.

        The sender stamps :func:`payload_checksum`; corruption flips
        bits in flight, so the receiver's recomputed checksum can never
        match — the attempt fails and is retried.
        """
        if fate != "corrupt":
            return True
        sent = payload_checksum(payload)
        wire = corrupted_checksum(sent)
        return payload_checksum(payload) == wire
