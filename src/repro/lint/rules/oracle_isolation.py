"""Rule ``oracle-isolation``: production code never imports the oracles.

:mod:`repro.perf.reference` holds the frozen implementations the
vectorized kernels replaced — the per-object build walk, the per-daemon
build kernel, the recursive merges and the per-node finalize.  They
exist to pin the production kernels in equivalence tests and to be
timed against by ``stat-repro bench``; a production module that calls
one has quietly grown a second code path.  Only :mod:`repro.perf` (the
benches) may import the module; tests sit outside ``src/`` and are not
linted.  Flagged: ``import repro.perf.reference``, ``from
repro.perf.reference import ...``, ``from repro.perf import reference``
(absolute or relative), and ``importlib.import_module`` /
``__import__`` of the module by literal name.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.lint.engine import Finding, ModuleContext, Rule, register

_ORACLE = "repro.perf.reference"
_ALLOWED_PACKAGE = "repro.perf"
_DYNAMIC_IMPORTS = {"import_module", "__import__"}


def _from_base(ctx: ModuleContext, node: ast.ImportFrom) -> Optional[str]:
    """Absolute module named by a ``from ... import`` (relative resolved)."""
    if not node.level:
        return node.module
    package = ctx.module.split(".")
    if not ctx.rel.endswith("__init__.py"):
        package = package[:-1]
    if node.level > 1:
        package = package[:len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


@register
class OracleIsolationRule(Rule):
    rule_id = "oracle-isolation"
    summary = ("only repro.perf may import the frozen oracles in "
               "repro.perf.reference")

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.module == _ALLOWED_PACKAGE \
                or ctx.module.startswith(_ALLOWED_PACKAGE + "."):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                hit = any(a.name == _ORACLE
                          or a.name.startswith(_ORACLE + ".")
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = _from_base(ctx, node)
                hit = base == _ORACLE or (
                    base == _ALLOWED_PACKAGE
                    and any(a.name == "reference" for a in node.names))
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else "")
                hit = (name in _DYNAMIC_IMPORTS and bool(node.args)
                       and isinstance(node.args[0], ast.Constant)
                       and node.args[0].value == _ORACLE)
            else:
                continue
            if hit:
                findings.append(ctx.finding(
                    node.lineno, self.rule_id,
                    f"{_ORACLE} is a test oracle; production code outside "
                    f"{_ALLOWED_PACKAGE} must not import it"))
        return findings
