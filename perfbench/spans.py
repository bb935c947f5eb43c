"""Per-layer spans for the traced benchmark run.

:class:`Tracer` wraps the public entry point of each layer from the
outside, so the program itself carries no tracing code.  Every wrapped
call records a span (name, start, end, parent, session); spans stay in
memory and are written out as Chrome trace-event JSON, which Perfetto
and ``chrome://tracing`` open directly.

Layer boundaries and the span each one records:

============================================  =====================
entry point                                   span
============================================  =====================
``SessionPipeline.run_phase(name)``           ``phase.<name>``
``STATBenchEmulator.build_forest``            ``build.forest``
``StreamingTBON.reduce``                      ``tbon.stream``
``TBONetwork.reduce`` (merge phase only)      ``tbon.reduce``
callable from ``STATBenchEmulator.merge_filter``  ``merge.kernel``
``LabelScheme.finalize`` (both schemes)       ``finalize.remap``
``triage_classes`` as the pipeline calls it   ``finalize.classes``
``save_session`` / ``load_session``           ``archive.save`` / ``.load``
============================================  =====================
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.api.pipeline as pipeline_mod
from repro.api.pipeline import SessionPipeline
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.statbench.emulator import STATBenchEmulator
from repro.tbon.network import TBONetwork
from repro.tbon.streaming import StreamingTBON

import workloads

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed call at a layer boundary (``end`` is None while open)."""

    name: str
    start: float
    end: Optional[float]
    parent: int
    session: int


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the code."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._session = -1
        self._phase: Optional[str] = None
        self._saved: List[tuple] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record the enclosed code as span ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), None, parent,
                               self._session))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def session(self, index: int):
        """Root span of one session; its spans carry ``index``."""
        self._session = index
        with self.span("session"):
            yield

    # -- wrappers --------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _traced(self, name: str) -> Callable:
        def wrap(fn):
            def call(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return call
        return wrap

    def install(self) -> None:
        """Wrap every layer's entry point until :meth:`uninstall`."""
        tracer = self

        def run_phase(fn):
            def call(pipeline, name, *args, **kwargs):
                tracer._phase = name
                try:
                    with tracer.span(f"phase.{name}"):
                        return fn(pipeline, name, *args, **kwargs)
                finally:
                    tracer._phase = None
            return call

        def batch_reduce(fn):
            def call(*args, **kwargs):
                # The rank-map gather reduces too; only the merge phase's
                # reduction is the TBO̅N layer the benchmark reports.
                if tracer._phase != "merge":
                    return fn(*args, **kwargs)
                with tracer.span("tbon.reduce"):
                    return fn(*args, **kwargs)
            return call

        def merge_filter(fn):
            def call(*args, **kwargs):
                return tracer._traced("merge.kernel")(fn(*args, **kwargs))
            return call

        self._patch(SessionPipeline, "run_phase", run_phase)
        self._patch(STATBenchEmulator, "build_forest",
                    self._traced("build.forest"))
        self._patch(STATBenchEmulator, "merge_filter", merge_filter)
        self._patch(StreamingTBON, "reduce", self._traced("tbon.stream"))
        self._patch(TBONetwork, "reduce", batch_reduce)
        for scheme in (DenseLabelScheme, HierarchicalLabelScheme):
            self._patch(scheme, "finalize", self._traced("finalize.remap"))
        # Modules are patched where the name is looked up at call time.
        self._patch(pipeline_mod, "triage_classes",
                    self._traced("finalize.classes"))
        self._patch(workloads, "save_session", self._traced("archive.save"))
        self._patch(workloads, "load_session", self._traced("archive.load"))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_seconds(self) -> Dict[int, Dict[str, float]]:
        """Per session: span name -> summed self seconds.

        Self time is a span's duration minus the time its child spans
        cover; calls are single-threaded, so children never overlap.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            out[span.session][span.name] += \
                span.end - span.start - child[i]
        return out

    def write_chrome(self, path: Path) -> Path:
        """Write the spans as Chrome trace-event JSON (one process)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"session": s.session,
                     "parent": (self.spans[s.parent].name
                                if s.parent >= 0 else None)},
        } for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
        return path

