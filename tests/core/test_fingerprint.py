"""The one canonical digest: every fingerprint helper agrees.

The repo historically had three canonical-JSON digest implementations
(sharding, the job queue, the artifact store).  They are now all routed
through :mod:`repro.core.fingerprint`; these tests pin the canonical
form and the cross-implementation equalities the dedup story rests on.
"""

import hashlib
import json

from repro.core.fingerprint import (
    analog_fingerprint,
    canonical_json,
    fingerprint_of,
    netlist_fingerprint,
    sha256_bytes,
    sha256_text,
)
from repro.digital.netlist import Circuit
from repro.digital.gates import GateType
from repro.spice import AnalogCircuit, gain_at


class TestCanonicalForm:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_fingerprint_is_sha256_of_canonical_json(self):
        document = {"z": [1.5, -0.25], "a": "x"}
        expected = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert fingerprint_of(document) == expected

    def test_key_order_does_not_matter(self):
        assert fingerprint_of({"a": 1, "b": 2}) == fingerprint_of(
            {"b": 2, "a": 1}
        )

    def test_value_changes_do_matter(self):
        assert fingerprint_of({"a": 1}) != fingerprint_of({"a": 2})

    def test_sha256_text_matches_sha256_bytes(self):
        assert sha256_text("abc") == sha256_bytes(b"abc")
        assert sha256_text("abc") == hashlib.sha256(b"abc").hexdigest()


class TestCrossImplementationEquality:
    """The three pre-unification digests still hash identically."""

    def test_store_fingerprint_is_fingerprint_of(self):
        from repro.service import fingerprint_of as store_fp

        document = {"kind": "campaign", "seed": 7}
        assert store_fp(document) == fingerprint_of(document)

    def test_job_spec_fingerprint_matches_direct_hash(self):
        from repro.service.jobs import JobSpec

        spec = JobSpec(circuit="fig4")
        campaign = spec.campaign
        document = {
            "kind": "campaign-job",
            "circuit": "fig4",
            "campaign": {
                "seed": campaign.seed,
                "faults_per_element": campaign.faults_per_element,
                "severity_range": list(campaign.severity_range),
                "engine": "factorized",
                "backend": "auto",
                "digital_engine": "compiled",
            },
            "generator": spec.generator.as_dict(),
        }
        assert spec.fingerprint() == fingerprint_of(document)

    def test_campaign_fingerprint_matches_legacy_form(self):
        # The pre-refactor implementation hashed
        # json.dumps(document, sort_keys=True).encode("utf-8") directly;
        # the routed version must stay byte-compatible so existing
        # checkpoints and store entries keep their keys.
        from repro.api.config import CampaignConfig
        from repro.core.sharding import campaign_fingerprint

        config = CampaignConfig(faults_per_element=2, seed=7)
        document = {
            "circuit": "fig4-mixed",
            "seed": config.seed,
            "faults_per_element": config.faults_per_element,
            "severity_range": list(config.severity_range),
            "engine": "factorized",
            "backend": "auto",
            "digital_engine": "compiled",
            "faults": [],
            "steps": [],
        }
        legacy = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert campaign_fingerprint("fig4-mixed", config, []) == legacy


class TestNetlistFingerprint:
    def _circuit(self):
        c = Circuit("c")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ["a", "b"])
        c.add_output("y")
        return c

    def test_equal_netlists_share_a_digest(self):
        assert netlist_fingerprint(self._circuit()) == netlist_fingerprint(
            self._circuit()
        )

    def test_structural_change_changes_the_digest(self):
        changed = self._circuit()
        changed.add_gate("z", GateType.NOT, ["y"])
        changed.add_output("z")
        assert netlist_fingerprint(self._circuit()) != netlist_fingerprint(
            changed
        )


class TestAnalogFingerprint:
    def _circuit(self):
        c = AnalogCircuit("rc")
        c.vsource("Vin", "in", "0", ac=1.0)
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 1e-9)
        return c

    def test_equal_blocks_share_a_digest(self):
        assert analog_fingerprint(self._circuit()) == analog_fingerprint(
            self._circuit()
        )

    def test_every_kind_of_edit_moves_the_digest(self):
        base = analog_fingerprint(self._circuit())
        value = self._circuit()
        value.component("R1").value = 1.1e3  # in place, no count change
        node = self._circuit()
        node.component("C1").n2 = "in"
        source = self._circuit()
        source.component("Vin").ac = 2.0
        digests = {analog_fingerprint(c) for c in (value, node, source)}
        assert base not in digests and len(digests) == 3

    def test_measuring_at_a_state_keeps_the_digest(self):
        # A deviation state is an argument of the measurement, not part
        # of the circuit, so measuring at one never moves the digest.
        circuit = self._circuit()
        base = analog_fingerprint(circuit)
        deviated = gain_at(circuit, "Vin", "out", 1e5, {"R1": 0.1, "C1": -0.2})
        assert deviated != gain_at(circuit, "Vin", "out", 1e5)
        assert analog_fingerprint(circuit) == base
