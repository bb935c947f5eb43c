"""Whole-session benchmark: ``SessionSpec -> STATResult``, end to end.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload hang-batch --seed 1 --seconds 25 \\
        --trace 0

One process runs whole sessions back to back: a closed loop with one
client, no process pool and no extra threads.  It times ``--seconds`` of
sessions, and at least :data:`MIN_SESSIONS` of them.  Each session's
output is checked after its timed interval (:mod:`workloads`); a session
that raises or fails a check counts in ``failed``.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` prints the median and tail wall seconds per session, tasks
per wall second, wall seconds to the first merged tree, set-up time (the
median of :data:`SETUP_PROBES` fresh processes, each importing ``repro``
and running one warm-up session), the run's peak resident memory, the
median simulated session seconds and ``failed_frac``.  The result line
carries the metrics ``BENCHMARK.json`` declares: the wall-time ones
there are divided by a :class:`ReferenceKernel` timed before each
session, because the raw ones drift with the machine's speed by more
than any useful bound; ``failed_frac`` travels as ``failed`` /
``attempted``.
``--trace 1`` is a separate run that wraps each layer's entry point
(:mod:`spans`) and reports the per-layer metrics instead: median
per-session self seconds and counter deltas.  Its sessions alternate
traced and untraced, which gives the tracing overhead.  The spans are
written as Chrome trace-event JSON under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: set-up is measured in this many fresh processes; the median is kept
SETUP_PROBES = 3
#: the timed loop stops here even if ``--seconds`` is not yet reached,
#: so that a run ends within three minutes on a slow machine
LOOP_DEADLINE_S = 150.0
#: sessions beyond the tail percentile (choosing-metrics guide)
TAIL_BEYOND = 10
#: a run goes on past ``--seconds`` until it has this many sessions, so
#: that the tail percentile is at least p60
MIN_SESSIONS = 25

#: what the metrics need from one timed session
Sample = namedtuple("Sample", "wall_s first_tree_s tasks sim_seconds "
                              "archive_bytes ref_s")

#: units of the metrics printed beside the declared ones
REPORTED_UNITS = {"session_s_p50": "s", "session_s_tail": "s",
                  "tasks_per_s": "tasks/s", "first_tree_s": "s",
                  "reference_s": "s", "failed_frac": "ratio"}

# Per-layer metric -> span name whose per-session self time it reports.
SPAN_METRICS = {
    "phase.launch_s": "phase.launch",
    "phase.map_gather_s": "phase.map_gather",
    "phase.stage_s": "phase.stage",
    "phase.sample_s": "phase.sample",
    "phase.merge_s": "phase.merge",
    "phase.finalize_s": "phase.finalize",
    "remap_s": "finalize.remap",
    "classes_s": "finalize.classes",
    "build.forest_s": "build.forest",
    "tbon.stream_s": "tbon.stream",
    "tbon.reduce_s": "tbon.reduce",
    "merge.kernel_s": "merge.kernel",
    "archive.save_s": "archive.save",
    "archive.load_s": "archive.load",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--daemons", type=int, default=None,
                        help="override the workload's daemon count "
                             "(the smoke test runs tiny sessions)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    """The run environment recorded with every result."""
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_CONTRACTS": os.environ.get("REPRO_CONTRACTS"),
    }


def declared_metrics() -> dict:
    """``BENCHMARK.json``'s metric lists, the one place units live."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure_setup(args) -> list:
    """Seconds from process start to the first timed session.

    Each probe is a new interpreter that imports ``repro``, runs the
    untimed warm-up session and then reports when it was ready.
    """
    setup = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed)]
    if args.daemons is not None:
        command += ["--daemons", str(args.daemons)]
    for _ in range(SETUP_PROBES):
        # CLOCK_MONOTONIC is shared by all processes, so the probe's
        # own reading marks when it was ready.
        start = time.monotonic()
        probe = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=60)
        word, _, ready = probe.stdout.partition(" ")
        if probe.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed with code "
                               f"{probe.returncode}:\n{probe.stderr}")
        setup.append(float(ready) - start)
    return setup


@contextmanager
def scratch_dir():
    """A private directory under :data:`OUT`, removed afterwards."""
    path = OUT / f"scratch-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)


class ReferenceKernel:
    """A fixed piece of work, timed before every session.

    The machine's speed drifts by tens of percent over minutes when other
    tenants share it, and session times drift with it.  Dividing by this
    kernel's time in the same run cancels most of that drift.  The kernel
    mixes what sessions spend time on (large sorts and row dedup, many
    small array calls, interpreter loops over dicts) and never calls the
    program, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._ints = rng.integers(0, 1 << 20, size=20_000)
        self._rows = rng.integers(0, 4, size=(2000, 64), dtype=np.uint8)
        self._small = [rng.integers(0, 512, size=64) for _ in range(150)]

    def __call__(self) -> float:
        """Wall seconds of one pass."""
        np = self._np
        start = time.perf_counter()
        np.unique(self._ints)
        np.unique(self._rows, axis=0)
        counts = {}
        for i in range(60_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
        for chunk in self._small:
            np.setdiff1d(chunk, self._small[0])
        return time.perf_counter() - start


def tail(values: list) -> tuple:
    """``(value, percentile)``: the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it (the maximum when too few)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    return ordered[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def _counter_delta(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def _layer_values(selfs: dict, counts: dict, sample: Sample) -> dict:
    """One traced session's per-layer metrics."""
    from repro.perf import counters as c
    values = {metric: selfs.get(span, 0.0)
              for metric, span in SPAN_METRICS.items()}
    hits = counts.get(c.BUILD_STRUCT_HITS, 0)
    misses = counts.get(c.BUILD_STRUCT_MISSES, 0)
    messages = counts.get(c.TBON_MESSAGES, 0)
    retries = counts.get(c.TBON_RETRIES, 0)
    values.update({
        "build.struct_cache_hits": hits,
        "build.struct_cache_misses": misses,
        "build.struct_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "build.traces": counts.get(c.BUILD_TRACES, 0),
        "tbon.partial_merges": counts.get(c.TBON_PARTIAL_MERGES, 0),
        "merge.calls": counts.get(c.MERGE_CALLS, 0),
        "merge.trees_in": counts.get(c.MERGE_TREES_IN, 0),
        "merge.nodes_out": counts.get(c.MERGE_NODES_OUT, 0),
        "tbon.messages": messages,
        "tbon.bytes": counts.get(c.TBON_BYTES, 0),
        "tbon.retries": retries,
        "tbon.corrupt_detected": counts.get(c.TBON_CORRUPT_DETECTED, 0),
        "tbon.retry_ratio": retries / messages if messages else 0.0,
        "faults.injected": counts.get(c.FAULTS_INJECTED, 0),
        "archive.bytes": sample.archive_bytes,
    })
    return values


def run_loop(workload, args, deadline: float) -> dict:
    """Run sessions until ``seconds`` of timed work and
    :data:`MIN_SESSIONS` sessions, or until the deadline."""
    from repro.perf import PERF
    from spans import Tracer
    from workloads import CheckFailed, check_session, run_session

    tracer = Tracer() if args.trace else None
    reference = ReferenceKernel()
    timed = attempted = failed = 0
    runs, plain, layers = [], [], []
    with scratch_dir() as scratch:
        while ((timed < args.seconds or attempted < MIN_SESSIONS)
               and time.monotonic() < deadline):
            index = attempted
            spec = workload.spec(args.seed, index, args.daemons)
            trace_this = tracer is not None and index % 2 == 0
            # A CLI user runs one session per process, so the garbage of
            # earlier sessions is collected outside the timed interval.
            gc.collect()
            ref_s = reference()
            before = PERF.snapshot()["counts"]
            attempted += 1
            try:
                if trace_this:
                    tracer.install()
                    try:
                        with tracer.session(index):
                            run = run_session(workload, spec, scratch)
                    finally:
                        tracer.uninstall()
                else:
                    run = run_session(workload, spec, scratch)
            except Exception:  # a failed session counts, the loop goes on
                failed += 1
                traceback.print_exc()
                continue
            timed += run.wall_s
            counts = _counter_delta(before, PERF.snapshot()["counts"])
            try:
                check_session(workload, run, first=index == 0)
            except CheckFailed as err:
                failed += 1
                if failed <= 5:
                    print(f"check failed in session {index}: {err}",
                          file=sys.stderr)
            # A wrong answer fails the run, but its timing still counts.
            # Only scalars are kept: holding every session's trees would
            # grow the process from one session to the next.
            sample = Sample(run.wall_s, run.first_tree_s, run.tasks,
                            run.sim_seconds, run.archive_bytes, ref_s)
            if trace_this:
                layers.append((index, counts, sample))
            else:
                plain.append(sample)
            runs.append(sample)
    return {"runs": runs, "plain": plain, "layers": layers,
            "attempted": attempted, "failed": failed, "tracer": tracer}


def end_to_end(loop: dict, setup_s: list) -> dict:
    """The end-to-end metrics of an untraced run.

    Each ``*_ref`` metric divides a session's wall time by the
    :class:`ReferenceKernel` time taken just before it (unit ``x_ref``),
    which keeps it steady while the machine's speed drifts.  The plain
    wall times are reported beside them.
    """
    runs = loop["runs"]
    walls = [r.wall_s for r in runs]
    ratios = [r.wall_s / r.ref_s for r in runs]
    tail_s, tail_pct = tail(walls)
    print(f"{len(runs)} sessions; the tails are p{tail_pct}; setup_s is "
          f"the median of {[round(x, 4) for x in setup_s]}")
    return {
        "session_s_p50": statistics.median(walls),
        "session_s_tail": tail_s,
        "tasks_per_s": sum(r.tasks for r in runs) / sum(walls),
        "first_tree_s": statistics.median(r.first_tree_s for r in runs),
        "reference_s": statistics.median(r.ref_s for r in runs),
        "session_ref_p50": statistics.median(ratios),
        "session_ref_tail": tail(ratios)[0],
        "tasks_per_ref": sum(r.tasks for r in runs) / sum(ratios),
        "first_tree_ref":
            statistics.median(r.first_tree_s / r.ref_s for r in runs),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_session_s": statistics.median(r.sim_seconds for r in runs),
    }


def per_layer(loop: dict) -> dict:
    """The per-layer metrics of a traced run."""
    selfs = loop["tracer"].self_seconds()
    rows = [_layer_values(selfs[i], counts, sample)
            for i, counts, sample in loop["layers"]]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    traced = [sample for _, _, sample in loop["layers"]]
    metrics["trace.session_s_p50"] = statistics.median(
        r.wall_s for r in traced)
    # Compared through the reference kernel, as the machine's speed may
    # drift between the traced and the untraced sessions.
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s / r.ref_s for r in traced)
        / statistics.median(r.wall_s / r.ref_s for r in loop["plain"]) - 1
        if loop["plain"] else 0.0)
    print(f"{len(rows)} traced and {len(loop['plain'])} untraced sessions")
    return metrics


def _print_self_times(metrics: dict) -> None:
    """Per-layer self seconds as shares of the traced session median."""
    session = metrics["trace.session_s_p50"]
    print(f"per-layer self time (median per traced session; "
          f"session p50 {session:.4f} s)")
    for name in SPAN_METRICS:
        value = metrics[name]
        print(f"  {name:<20} {value:10.4f} s {100 * value / session:6.1f} %")
    finalize = metrics["remap_s"] + metrics["classes_s"]
    print(f"  finalize (remap_s + classes_s) {100 * finalize / session:.1f} "
          f"% of session; build.forest_s "
          f"{100 * metrics['build.forest_s'] / session:.1f} %")
    print(f"  tracing overhead {100 * metrics['trace.overhead_ratio']:+.1f} "
          f"% of the untraced session p50")


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, run_session
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    warm_up = workload.spec(args.seed, -1, args.daemons)
    if args.setup_probe:
        with scratch_dir() as scratch:
            run_session(workload, warm_up, scratch)
        print(f"ready {time.monotonic()!r}")
        return 0

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics()[kind]
    setup = None if args.trace else measure_setup(args)
    with scratch_dir() as scratch:
        run_session(workload, warm_up, scratch)
    loop = run_loop(workload, args, started + LOOP_DEADLINE_S)
    print(f"environment: {json.dumps(environment())}")
    if not loop["runs"] or (args.trace and not loop["layers"]):
        print("perfbench: no session completed", file=sys.stderr)
        return 1
    attempted, failed = loop["attempted"], loop["failed"]
    if args.trace:
        metrics = per_layer(loop)
        _print_self_times(metrics)
        path = loop["tracer"].write_chrome(
            OUT / f"trace-{args.workload}-seed{args.seed}.json")
        print(f"spans written to {path} (Chrome trace-event JSON)")
    else:
        metrics = end_to_end(loop, setup)
    shown = dict(metrics)
    if not args.trace:
        shown["failed_frac"] = failed / attempted
    print(f"{args.workload} (seed {args.seed}):")
    for name, value in shown.items():
        unit = units.get(name) or REPORTED_UNITS[name]
        print(f"  {name:<28} {value:>14.6g} {unit}")
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
