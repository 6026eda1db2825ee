"""Graphviz DOT rendering of time-layered explanation graphs.

One cluster per time slice, causal arcs inside clusters, dashed linkage edges
joining the instances of a shared variable across consecutive slices.
Abnormal-evidenced nodes are filled. Output is deterministic.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Sequence

from .engine import CubicGraph
from .kb import KnowledgeBase

_SHAPES = {"B": "box", "X": "ellipse", "D": "diamond", "BX": "hexagon", "G": "triangle"}
_ABNORMAL_FILL = "#f4cccc"


def _node_name(ordinal: int, var: int) -> str:
    return f"t{ordinal}_v{var}"


def export_dot(layers: Sequence[CubicGraph], kb: KnowledgeBase) -> str:
    """Draw one root's ``layers``, oldest first; the root is the last one's."""
    lines: list[str] = [
        f'digraph "cubic_B{layers[-1].root}" {{',
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
    ]
    for ordinal, layer in enumerate(layers, start=1):
        s = layer.latest
        lines.append(f"  subgraph cluster_t{ordinal} {{")
        lines.append(f'    label="t_{ordinal} (tick {layer.tick})";')
        for var_id in sorted(s.variables):
            var = kb.variables[var_id]
            shape = _SHAPES.get(var.kind, "ellipse")
            state = s.states.get(var_id)
            label = f"{var.kind}{var_id}"
            attrs = [f'label="{label}"', f"shape={shape}"]
            if state is not None:
                name = var.state(state).name.replace("\\", "\\\\").replace('"', '\\"')
                attrs[0] = f'label="{label}\\n{name}"'
                if state != 0:
                    attrs.append("style=filled")
                    attrs.append(f'fillcolor="{_ABNORMAL_FILL}"')
            lines.append(f'    "{_node_name(ordinal, var_id)}" [{", ".join(attrs)}];')
        for arc in sorted(s.arcs, key=lambda a: (a.parent, a.child)):
            lines.append(
                f'    "{_node_name(ordinal, arc.parent)}" -> '
                f'"{_node_name(ordinal, arc.child)}";'
            )
        lines.append("  }")
    for ordinal, (a, b) in enumerate(pairwise(layers), start=1):
        for var_id in sorted(a.latest.variables & b.latest.variables):
            lines.append(
                f'  "{_node_name(ordinal, var_id)}" -> "{_node_name(ordinal + 1, var_id)}" '
                "[style=dashed, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
