"""How much measurement work fig4's generation does.

fig4's sensitivity, deviation and stimulus stages measure the band-pass
block at a few hundred deviation states.  The spies count full
:class:`~repro.spice.AcModel` compiles and peak searches (the 120-point
stacked scan plus its golden-section refine) over one cold generation.

Before measurement scopes, every measurement compiled its own model and
ran its own peak search: 871 compiles and 658 peak searches on 410
distinct (state, window) pairs.  Now each
:class:`~repro.spice.MeasurementScope` compiles once per (source,
output) and derives every other state as a stamp delta, and searches
each distinct (state, window) once.  The three stage scopes
(sensitivity matrix, deviation matrix, stimulus choices) re-search 2
states another stage already searched; the other compiles are the
comparator read-outs of fault activation, one-shot measurements.
"""

import collections

import pytest

from repro.api import Workbench
from repro.spice import MeasurementScope, acmodel, measure

GENERATION = ("sensitivity", "deviation", "stimulus")


@pytest.fixture
def traffic(monkeypatch):
    counts = collections.Counter()
    scopes: list[MeasurementScope] = []
    searched: set[tuple] = set()
    compile_ac = acmodel.AcModel._compile_ac
    peak = measure._peak
    scope_init = MeasurementScope.__init__

    def counting_compile(self):
        counts["compiles"] += 1
        return compile_ac(self)

    def counting_peak(model, f_low, f_high, coarse_points=120):
        counts["peaks"] += 1
        searched.add((tuple(sorted(model._state.items())), f_low, f_high))
        return peak(model, f_low, f_high, coarse_points)

    def keeping_init(self, circuit):
        scope_init(self, circuit)
        scopes.append(self)

    monkeypatch.setattr(acmodel.AcModel, "_compile_ac", counting_compile)
    monkeypatch.setattr(measure, "_peak", counting_peak)
    monkeypatch.setattr(MeasurementScope, "__init__", keeping_init)
    return counts, scopes, searched


def test_fig4_generation_compiles_and_peak_searches(traffic):
    counts, scopes, searched = traffic
    Workbench().generate("fig4", stages=GENERATION)
    assert counts == {"compiles": 31, "peaks": 412}
    assert len(searched) == 410
    # No scope compiled a state in full beyond its one (source, output)
    # model: every other state was a stamp delta.
    assert all(len(scope._compiled) <= 1 for scope in scopes)
    assert counts["compiles"] == sum(len(scope._compiled) for scope in scopes)
    # Each scope searched each distinct (state, window) exactly once.
    assert counts["peaks"] == sum(
        1 for scope in scopes for key in scope._values if key[0] == "peak"
    )
