"""Bit-exact pins of ``deviation_batch``: every voltage, as ``float.hex``.

The differential suite (``test_deviation_batch.py``) checks the kernel
against fresh solves to a tolerance.  Campaign digests are stricter: a
gain that moves in its last ulp can move a comparator code, so a change
to how the kernel forms its stamp deltas must keep every voltage bit for
bit.  This module pins them on the dense and sparse backends:

* ``bandpass_filter`` at 0 Hz (capacitors stamp nothing at DC) and
  2.5 kHz, with ``Rd ∥ C1`` sharing one row key;
* ``rc_ladder(64)`` at its cut-off and above it;
* the registry ``state-variable`` filter, whose ``FiniteOpAmp`` gain
  takes the per-fault route;
* a hand-made netlist with a resistor to ground, an ``R ∥ C`` pair, a
  VCCS in the 2×2 pattern, VCCSs in the single-row and single-column
  shapes, an inductor, a ``Skewed`` element (a ``Resistor`` subclass
  with a rank-one stamp that is not the ±admittance pattern) and zero
  deviations, in element order and shuffled.

Each case pins the whole batch, then every fault again as a batch of one
on the same factorization (the campaign's tail gains).

Regenerate (after an *intentional* change of the kernel's arithmetic)::

    PYTHONPATH=src python tests/spice/test_deviation_pins.py
"""

import json
import random
import sys
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parents[2] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np
import pytest

from repro.api import default_registry
from repro.circuits import bandpass_filter, rc_ladder
from repro.spice import VCCS, AnalogCircuit, MnaSolver, Resistor, VoltageSource

PINS = Path(__file__).parent / "goldens" / "deviation_batch_pins.json"
BACKENDS = ("dense", "sparse")


class Skewed(Resistor):
    """Rank one, ``Δg·[[1, −1], [−2, 2]]``, but not the ±admittance
    pattern: the kernel solves its faults densely."""

    def stamp(self, ctx, s, value):
        i, j = ctx.index(self.n1), ctx.index(self.n2)
        g = 1.0 / value
        ctx.add(i, i, g)
        ctx.add(i, j, -g)
        ctx.add(j, i, -2.0 * g)
        ctx.add(j, j, 2.0 * g)


def _handmade() -> AnalogCircuit:
    circuit = AnalogCircuit("ports")
    circuit.vsource("Vin", "in", "0", dc=1.0, ac=1.0)
    circuit.resistor("R1", "in", "a", 1000.0)
    circuit.resistor("Rg", "a", "0", 4700.0)
    circuit.resistor("Rp", "a", "b", 2200.0)
    circuit.capacitor("Cp", "a", "b", 1.0e-8)
    circuit.capacitor("Cg", "b", "0", 2.2e-8)
    circuit.resistor("Rc", "c", "0", 3300.0)
    circuit.resistor("Rd", "d", "0", 1500.0)
    circuit.resistor("Re", "e", "0", 6800.0)
    circuit.add(VCCS("Gdiff", "c", "d", "a", "b", 2.0e-4))
    circuit.add(VCCS("Grow", "e", "0", "a", "b", -3.0e-4))
    circuit.add(VCCS("Gcol", "e", "c", "b", "0", 1.0e-4))
    circuit.inductor("L1", "b", "f", 1.0e-3)
    circuit.resistor("Rf", "f", "0", 820.0)
    circuit.add(Skewed("RX", "f", "g", 2200.0))
    circuit.resistor("Rh", "g", "0", 4700.0)
    return circuit


def _drive(circuit) -> AnalogCircuit:
    for component in circuit.components:
        if isinstance(component, VoltageSource):
            component.ac, component.dc = 1.0, 1.0
            return circuit
    raise AssertionError(f"no source in {circuit.name}")


def _population(circuit, deviations):
    return [
        (element, deviation)
        for element in circuit.element_names()
        for deviation in deviations
    ]


def _cases():
    """``(key, circuit, frequency, faults, node)`` of every pinned batch."""
    bandpass = _drive(bandpass_filter())
    ladder = rc_ladder(64)
    state_variable = _drive(default_registry().build("state-variable"))
    handmade = _handmade()
    wide = (-0.5, -0.05, 0.0, 0.25, 2.0)
    shuffled = _population(handmade, wide)
    random.Random(7).shuffle(shuffled)
    specs = [
        ("bandpass", bandpass, "V2", (0.0, 2.5e3),
         _population(bandpass, wide)),
        ("rc-ladder-64", ladder, "out", (1.0 / (64**2 * 1.0e-6), 2.0e3),
         _population(ladder, (-0.5, 0.25))),
        ("state-variable", state_variable, "V2", (0.0, 1.0e3),
         _population(state_variable, wide)),
        ("handmade", handmade, "e", (0.0, 2.5e3),
         _population(handmade, wide)),
        ("handmade", handmade, "c", (2.5e3,), _population(handmade, wide)),
        ("handmade-shuffled", handmade, "e", (2.5e3,), shuffled),
    ]
    for name, circuit, node, frequencies, faults in specs:
        for frequency in frequencies:
            yield f"{name}:{node}@{frequency!r}", circuit, frequency, faults, node


def _hex(voltages) -> list[str]:
    return [f"{v.real.hex()} {v.imag.hex()}" for v in voltages.tolist()]


def _voltages(circuit, frequency, faults, node, backend) -> dict:
    factorized = MnaSolver(circuit, backend=backend).factorized(frequency)
    batch = factorized.deviation_batch(faults, node)
    singles = np.concatenate(
        [factorized.deviation_batch([fault], node) for fault in faults]
    )
    return {"batch": _hex(batch), "singles": _hex(singles)}


CASES = {key: case for key, *case in _cases()}


def _record() -> dict:
    return {
        f"{key}/{backend}": _voltages(*case, backend)
        for key, case in CASES.items()
        for backend in BACKENDS
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("key", sorted(CASES))
def test_voltages_bit_identical(pins, key, backend):
    got = _voltages(*CASES[key], backend)
    assert got == pins[f"{key}/{backend}"]


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
