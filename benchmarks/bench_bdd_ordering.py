"""Ablation: BDD variable ordering (fan-in DFS vs declaration order).

The fan-in heuristic should never lose badly and should win clearly on
circuits with structured cones (the synthetic benchmarks).
"""

import pytest

from repro.atpg import CircuitBdd
from repro.bdd import BddManager
from repro.digital import iscas85_like, ripple_adder


def _build_both(circuit):
    """Node counts compiled in fan-in order and in declaration order."""
    fanin = CircuitBdd(circuit).total_nodes()
    declared = CircuitBdd(
        circuit, manager=BddManager(list(circuit.inputs))
    ).total_nodes()
    return fanin, declared


@pytest.mark.parametrize("name", ["c432", "c499"])
def test_ordering_ablation_benchmarks(benchmark, name, record_table):
    circuit = iscas85_like(name)
    fanin_nodes, declared_nodes = benchmark.pedantic(
        _build_both, args=(circuit,), rounds=1, iterations=1
    )
    record_table(
        f"ablation_ordering_{name}",
        f"{name}: fanin={fanin_nodes} nodes, declaration={declared_nodes} "
        f"nodes (ratio {declared_nodes / fanin_nodes:.2f}x)",
    )
    # Fan-in must be competitive: never more than 2x worse.
    assert fanin_nodes <= 2 * declared_nodes


def test_ordering_ablation_adder(benchmark):
    # The ripple adder's interleaved dependence is the classic case where
    # fan-in (which naturally interleaves A_i/B_i) beats declaration.
    circuit = ripple_adder(8)
    fanin_nodes, declared_nodes = benchmark.pedantic(
        _build_both, args=(circuit,), rounds=1, iterations=1
    )
    assert fanin_nodes <= declared_nodes
