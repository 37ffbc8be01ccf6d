"""Export BDDs in Graphviz DOT and a compact text form.

Figure 6 of the paper shows the OBDDs of the two mixed-circuit outputs with
the composite value ``D`` injected; :func:`to_dot` reproduces such pictures
and :func:`to_text` gives an order-stable textual rendering used in tests
and the experiment logs.
"""

from __future__ import annotations

from .manager import FALSE, TRUE, BddManager

__all__ = ["to_dot", "to_text"]


def _depth_first(mgr: BddManager, f: int) -> list[int]:
    """Internal nodes under ``f`` in depth-first preorder (low edge
    first).  A node's position in this list is its label, so equal
    functions get equal labels whatever the manager's history."""
    order: list[int] = []
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node in seen or node in (FALSE, TRUE):
            continue
        seen.add(node)
        order.append(node)
        _var, lo, hi = mgr.node_info(node)
        stack.append(hi)
        stack.append(lo)
    return order


def to_dot(mgr: BddManager, f: int, name: str = "bdd") -> str:
    """Render the BDD rooted at ``f`` as a Graphviz digraph string.

    Low (0) edges are dashed, high (1) edges solid, matching textbook and
    paper figures.  Internal nodes are ``n0, n1, …`` in depth-first
    order from the root; the terminals are ``node0`` and ``node1``.
    """
    order = _depth_first(mgr, f)
    labels = {FALSE: "node0", TRUE: "node1"}
    labels.update({node: f"n{index}" for index, node in enumerate(order)})
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    lines.append('  node0 [label="0", shape=box];')
    lines.append('  node1 [label="1", shape=box];')
    for node in order:
        var, lo, hi = mgr.node_info(node)
        label = labels[node]
        lines.append(f'  {label} [label="{var}", shape=circle];')
        lines.append(f"  {label} -> {labels[lo]} [style=dashed];")
        lines.append(f"  {label} -> {labels[hi]} [style=solid];")
    lines.append("}")
    return "\n".join(lines)


def to_text(mgr: BddManager, f: int) -> str:
    """Deterministic multi-line rendering: one ``id: var ? hi : lo`` per node.

    Nodes are labelled ``n0, n1, …`` in depth-first order from the root
    (low edge first) and listed children before parents, so two
    structurally equal BDDs always print identically, in any manager.
    """
    if f == FALSE:
        return "const 0"
    if f == TRUE:
        return "const 1"
    order = _depth_first(mgr, f)
    labels = {FALSE: "0", TRUE: "1"}
    labels.update({node: f"n{index}" for index, node in enumerate(order)})
    lines: list[str] = []
    emitted: set[int] = set()

    def emit(node: int) -> None:
        if node in (FALSE, TRUE) or node in emitted:
            return
        emitted.add(node)
        var, lo, hi = mgr.node_info(node)
        emit(lo)
        emit(hi)
        lines.append(f"{labels[node]}: {var} ? {labels[hi]} : {labels[lo]}")

    emit(f)
    return "\n".join(lines + [f"root {labels[f]}"])
