"""Tests of the parametric RC-ladder / R-2R-mesh generators."""

import pytest

from repro.api import default_registry
from repro.circuits import (
    LADDER_OUTPUT,
    LADDER_SIZES,
    LADDER_SOURCE,
    r2r_mesh,
    rc_ladder,
)
from repro.spice import AnalogError, MnaSolver, dc_gain


class TestRcLadder:
    def test_node_count_scales_with_sections(self):
        assert len(rc_ladder(8).nodes()) == 9
        assert len(rc_ladder(500).nodes()) == 501

    def test_dc_transfer_is_unity(self):
        # Capacitors open at DC and nothing loads the output except the
        # solver's GMIN, so the source level appears at the final tap
        # essentially unattenuated.
        gain = dc_gain(rc_ladder(12), LADDER_SOURCE, LADDER_OUTPUT)
        assert gain == pytest.approx(1.0, rel=1e-6)

    def test_ac_response_rolls_off(self):
        circuit = rc_ladder(12)
        from repro.spice import gain_at

        low = gain_at(circuit, LADDER_SOURCE, LADDER_OUTPUT, 10.0)
        high = gain_at(circuit, LADDER_SOURCE, LADDER_OUTPUT, 1.0e6)
        assert high < low

    def test_rejects_empty_ladder(self):
        with pytest.raises(AnalogError):
            rc_ladder(0)


class TestR2rMesh:
    def test_node_count_scales_with_stages(self):
        assert len(r2r_mesh(8).nodes()) == 9

    def test_dc_transfer_attenuates(self):
        gain = dc_gain(r2r_mesh(6), LADDER_SOURCE, LADDER_OUTPUT)
        assert 0.0 < gain < 0.5

    def test_rejects_empty_mesh(self):
        with pytest.raises(AnalogError):
            r2r_mesh(0)


class TestRegistryEntries:
    def test_all_sizes_registered_as_analog(self):
        registry = default_registry()
        for sections in LADDER_SIZES:
            for family in ("rc-ladder", "r2r-mesh"):
                spec = registry.get(f"{family}-{sections}")
                assert spec.kind == "analog"

    def test_largest_ladder_exceeds_500_nodes(self):
        circuit = default_registry().build(f"rc-ladder-{max(LADDER_SIZES)}")
        assert len(circuit.nodes()) > 500

    def test_large_ladder_auto_selects_sparse(self):
        circuit = default_registry().build(f"rc-ladder-{max(LADDER_SIZES)}")
        solver = MnaSolver(circuit)
        assert solver.backend.name == "sparse"
        result = solver.solve_dc()
        # Source dc level is 0: the whole ladder rests at 0 V.
        assert abs(result.voltage(LADDER_OUTPUT)) < 1e-9
