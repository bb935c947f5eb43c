"""Built-in repo-specific rules.

Importing this package registers every rule with the engine registry
(:func:`repro.lint.engine.all_rules` triggers the import).  One module
per rule family:

* :mod:`~repro.lint.rules.pickle_safety` — callables that cannot cross
  the ``ScenarioSuite`` process pool;
* :mod:`~repro.lint.rules.determinism` — unordered iteration, unseeded
  randomness, wall-clock reads;
* :mod:`~repro.lint.rules.hot_path` — per-node Python loops/recursion in
  modules marked ``# repro-lint: hot-path``;
* :mod:`~repro.lint.rules.perf_counters` — PERF counter-name discipline;
* :mod:`~repro.lint.rules.oracle_isolation` — production code importing
  the frozen oracles in :mod:`repro.perf.reference`;
* :mod:`~repro.lint.rules.spec_drift` — ``SessionSpec`` fields and
  workload ids versus the session-format docs;
* :mod:`~repro.lint.rules.spec_hygiene` — mutable defaults and
  non-frozen spec/config dataclasses.

The whole-program passes live one level up (they are analysis layers,
not just rule modules) and register here too:

* :mod:`repro.lint.taint` — ``determinism-taint`` and
  ``pickle-reachability``, dataflow over the project call graph;
* :mod:`repro.lint.contracts` — ``kernel-contract``, shape/dtype
  consistency for ``@contract``-decorated kernels.
"""

from repro.lint.rules import (  # noqa: F401 - imported for registration
    determinism,
    hot_path,
    oracle_isolation,
    perf_counters,
    pickle_safety,
    spec_drift,
    spec_hygiene,
)
from repro.lint import taint  # noqa: F401 - imported for registration
from repro.lint import contracts as _contracts

_contracts.register_rules()
