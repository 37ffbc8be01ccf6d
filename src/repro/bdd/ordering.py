"""The variable-ordering heuristic for circuit-derived BDDs.

BDD size is exquisitely sensitive to variable order.  The reproduction uses
the classic *fan-in* (depth-first cone traversal) heuristic of Malik et al.:
inputs feeding deeper logic are placed earlier.  For ISCAS85-class circuits
this keeps output BDDs small enough to build in pure Python.

The heuristic is expressed over an abstract dependency view so that the
``bdd`` package does not import the ``digital`` package: callers supply, for
every sink, the ordered list of sources feeding it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["fanin_order"]


def fanin_order(
    outputs: Sequence[object],
    fanins: Mapping[object, Sequence[object]],
    inputs: Sequence[object],
) -> list[object]:
    """Depth-first fan-in ordering.

    Walks each output cone depth-first (first fan-in first), emitting primary
    inputs in order of first visit.  Inputs never reached from any output are
    appended in declaration order so the result is always a permutation of
    ``inputs``.
    """
    input_set = set(inputs)
    order: list[object] = []
    emitted: set[object] = set()
    visited: set[object] = set()
    for out in outputs:
        stack = [out]
        while stack:
            signal = stack.pop()
            if signal in input_set:
                if signal not in emitted:
                    emitted.add(signal)
                    order.append(signal)
                continue
            if signal in visited:
                continue
            visited.add(signal)
            # Reversed so the first fan-in is processed first (DFS order).
            for src in reversed(list(fanins.get(signal, ()))):
                stack.append(src)
    for name in inputs:
        if name not in emitted:
            order.append(name)
    return order
