"""Smoke test of the benchmark itself, at a tiny daemon count.

Run from the root of the repository::

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced twice and traced once,
one session each, and checks that:

* every metric ``BENCHMARK.json`` names is reported, with its unit;
* no session failed (``failed_frac`` is 0);
* one workload seed gives the same spec list and the same
  ``sim_session_s`` every time.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DAEMONS = 4
SEED = 7


def bench(workload: str, trace: int) -> dict:
    """One benchmark run's result line, parsed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.01", "--trace", str(trace),
         "--daemons", str(DAEMONS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list, where: str) -> None:
    expect = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expect, f"{where}: metrics {got} != declared {expect}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name}"
    assert result["attempted"] >= 1 and result["failed"] == 0, \
        f"{where}: {result['failed']}/{result['attempted']} sessions failed"
    assert result["correct"] is True, where


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    assert declared == set(WORKLOADS), \
        f"BENCHMARK.json workloads {declared} != {set(WORKLOADS)}"
    failures = 0
    for name, workload in WORKLOADS.items():
        try:
            assert workload.specs(SEED, 3, DAEMONS) == \
                workload.specs(SEED, 3, DAEMONS), f"{name}: specs differ"
            first = bench(name, 0)
            again = bench(name, 0)
            check_metrics(first, spec["end_to_end"], f"{name} untraced")
            check_metrics(again, spec["end_to_end"], f"{name} untraced")
            sim = [r["metrics"]["sim_session_s"]["value"]
                   for r in (first, again)]
            assert sim[0] == sim[1], f"{name}: sim_session_s {sim}"
            check_metrics(bench(name, 1), spec["per_layer"],
                          f"{name} traced")
        except AssertionError as err:
            failures += 1
            print(f"FAIL {err}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
