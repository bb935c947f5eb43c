"""Known-bad: production code reaching for the frozen oracles."""

import importlib

import repro.perf.reference
import repro.perf.reference as oracles
from repro.perf import reference
from repro.perf.reference import reference_daemon_trees


def build_slowly():
    return importlib.import_module("repro.perf.reference")
