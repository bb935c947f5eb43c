"""Declarative seeded fault injection (the paper's Section V lessons).

``repro.faults`` turns fault scenarios into data: a frozen, seeded
:class:`FaultPlan` embedded in :class:`~repro.api.spec.SessionSpec`
describes crashes, stalls, link drop/corruption, stragglers and
pool-worker kills; the TBO̅N absorbs transient faults under a bounded
:class:`RetryPolicy` and degrades the rest to ``missing_daemons``,
summarized by a :class:`DegradationReport` on every
:class:`~repro.core.frontend.STATResult`.

The chaos harness lives in :mod:`repro.faults.chaos` (imported lazily —
it depends on the TBO̅N and benchmark layers).
"""

from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    FAILURE_DETECT_S,
    PLAN_VERSION,
    DaemonCrash,
    DaemonStall,
    DegradationReport,
    FaultPlan,
    FaultPlanError,
    LinkFault,
    RetryPolicy,
    Straggler,
    WorkerKill,
    corrupted_checksum,
    payload_checksum,
)

__all__ = [
    "FAILURE_DETECT_S",
    "PLAN_VERSION",
    "DaemonCrash",
    "DaemonStall",
    "DegradationReport",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "LinkFault",
    "RetryPolicy",
    "Straggler",
    "WorkerKill",
    "corrupted_checksum",
    "payload_checksum",
]
