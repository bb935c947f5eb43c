"""Figure 1 — an example 3D trace/space/time call graph prefix tree.

Reproduces the paper's opening figure: the ring test hung at 1,024 tasks
on BG/L, sampled over time, rendered with ``count:[ranks]`` edge labels
(``1024:[0-1023]`` at main, ``1022:[0,3-1023]`` down the barrier path,
``1:[1]`` at ``do_SendOrStall``, ``1:[2]`` down the Waitall path, and the
varying-depth ``BGLML`` progress recursion below).
"""

from __future__ import annotations

from repro.core.frontend import STATFrontEnd
from repro.core.visualize import to_ascii
from repro.experiments.common import ExperimentResult, Row
from repro.machine.bgl import BGLMachine
from repro.statbench import ring_hang_states

__all__ = ["run"]


def run(quick: bool = False, seed: int = 208_000) -> ExperimentResult:
    """Build the Figure 1 tree; rows give structural statistics."""
    io_nodes = 4 if quick else 16           # 16 IO x 64 = 1,024 tasks
    machine = BGLMachine.with_io_nodes(io_nodes, "co")
    fe = STATFrontEnd(machine, seed=seed)
    session = fe.attach_and_analyze(ring_hang_states(machine.total_tasks),
                                    num_samples=10)

    result = ExperimentResult(
        figure="Figure 1",
        title="example 3D trace/space/time call graph prefix tree",
        xlabel="n/a", ylabel="count",
    )
    tree = session.tree_3d
    result.rows = [
        Row("tasks", 0, machine.total_tasks, unit=""),
        Row("tree nodes (3D)", 0, tree.node_count(), unit=""),
        Row("tree depth (3D)", 0, tree.depth(), unit=""),
        Row("equivalence classes", 0, len(session.classes), unit=""),
    ]
    result.notes.append("ASCII rendering (truncated to 6 levels):")
    result.notes.extend(
        to_ascii(tree.truncated_at_depth(6)).splitlines())
    result.notes.append("classes: " + "; ".join(
        c.label() for c in session.classes))
    return result

