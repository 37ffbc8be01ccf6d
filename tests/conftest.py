"""Fixtures shared across the test packages."""

import pytest

from repro.atpg import CircuitBdd


@pytest.fixture
def circuit_bdd_builds(monkeypatch):
    """Names of the netlists compiled to a :class:`CircuitBdd`, in order."""
    builds: list[str] = []
    compile_circuit = CircuitBdd.__init__

    def counting_init(self, circuit, manager=None):
        builds.append(circuit.name)
        compile_circuit(self, circuit, manager=manager)

    monkeypatch.setattr(CircuitBdd, "__init__", counting_init)
    return builds
