"""Known-clean: the perf package's other modules, and look-alike names."""

import importlib

import repro.perf.bench
from repro.perf import counters
from repro.perf.counters import PERF
from repro.core import reference_frames  # a different "reference"


def load_bench():
    return importlib.import_module("repro.perf.bench")
