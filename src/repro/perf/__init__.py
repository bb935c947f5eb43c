"""Performance measurement subsystem.

* :mod:`repro.perf.counters` — lightweight process-wide counters and
  timers threaded through the merge kernels, the TBO̅N network, and the
  session pipeline phases.
* :mod:`repro.perf.reference` — the retained pre-vectorization merge,
  build and finalize kernels, kept as the equivalence/benchmark baseline.
* :mod:`repro.perf.bench` — the ``stat-repro bench`` harness: kernel
  microbenchmarks at fig07 full scale (and the million-task sweep
  point), written to ``BENCH_merge.json`` so the perf trajectory is
  tracked across PRs.
"""

from repro.perf.counters import PERF, PerfCounters

__all__ = ["PERF", "PerfCounters"]
