"""The one canonical digest: every fingerprint helper agrees.

The repo historically had three canonical-JSON digest implementations
(sharding, the job queue, the artifact store).  They are now all routed
through :mod:`repro.core.fingerprint`; these tests pin the canonical
form and the cross-implementation equalities the dedup story rests on.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.analog.faultsim import FaultSpec
from repro.api.config import CampaignConfig
from repro.core.fingerprint import (
    analog_fingerprint,
    canonical_json,
    fingerprint_of,
    fingerprint_with_encoded,
    netlist_fingerprint,
    sha256_bytes,
    sha256_text,
)
from repro.core.sharding import (
    _campaign_keys,
    campaign_fingerprint,
    shard_bounds,
    shard_fingerprint,
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


class TestFingerprintWithEncoded:
    """A pre-encoded value may sit at any sorted position."""

    DOCUMENT = {"b": [1, 2.5], "d": {"y": None, "x": "é"}, "f": 0.1}

    @pytest.mark.parametrize(
        "values",
        [
            {"a": [[1, 2]]},                      # first
            {"c": {"k": [0.30000000000000004]}},  # in the middle
            {"z": []},                            # last
            {"a": "x", "e": [1e-300], "g": {}},   # several, interleaved
        ],
    )
    def test_equals_fingerprint_of_the_whole_document(self, values):
        encoded = {key: canonical_json(value) for key, value in values.items()}
        assert fingerprint_with_encoded(self.DOCUMENT, encoded) == (
            fingerprint_of({**self.DOCUMENT, **values})
        )

    def test_empty_document(self):
        assert fingerprint_with_encoded({}, {"k": "[1]"}) == fingerprint_of(
            {"k": [1]}
        )

    def test_a_key_in_both_is_refused(self):
        with pytest.raises(ValueError):
            fingerprint_with_encoded({"a": 1}, {"a": "1"})


#: program steps with every field a campaign key hashes.
_STEPS = (
    SimpleNamespace(
        element="R1",
        stimulus=SimpleNamespace(
            frequency_hz=1591.5494309189535, amplitude=1.0
        ),
        vector={"b": 1, "a": 0},
        observing_output="y",
    ),
    SimpleNamespace(
        element="C1", stimulus=None, vector=None, observing_output=None
    ),
)


def _population(n: int) -> list[FaultSpec]:
    return [
        FaultSpec(("R1", "C1", "R2")[i % 3], (i - 4) * 0.1 + 1e-3 * i, 0.5 + i / 7)
        for i in range(n)
    ]


class TestCampaignKeys:
    """The campaign and shard keys built from one shared encoding of the
    population equal the keys of the whole documents, and the digests
    recorded before the encoding was shared."""

    #: ``(faults, shards) -> (campaign key, shard keys)``, recorded from
    #: ``campaign_fingerprint``/``shard_fingerprint`` when each encoded
    #: its own document.
    RECORDED = {
        (7, 1): (
            "269545f68dfc548aa4a4e0ace9b01a894be74afda2db25b609b62a9a1dbc32a8",
            ["622cafa9e2c7a38fce31aa74d7a8a38a634464a916764c7dc4049ecf9b7e9eea"],
        ),
        (10, 4): (
            "eb404fe3e601fc3d517ef84983a53be9fa4e52399c7f6b2105e9d12c7a786986",
            [
                "cd41f1ff73a65ac000f0044a72a764b3a8f03d78a8fca68b80311f65cafd9d35",
                "a2a6bae2f96693f5650930632767412ff7ba2f3d5359f3f5cd7ee0021363fe78",
                "32fdd68e639de38ee6b9d6d90f2ec6571a33a59621e8b0d3b9ea1edb531f7173",
                "b4531b0398f1065d9a271e4bdc0d8759336bb160efa1d309f50cc43df84e64c6",
            ],
        ),
        (3, 5): (
            "e455cb5cb6658c1e9704dd47069b76b7fb9759093315d49857d231a688c4b8bc",
            [
                "526a9c3c3499d4f39496807d980762df6e4ce75e70e249b85bd6961e2a5f9dd4",
                "483b132391e9ca6f72ae117526ec950ecd54a0cf7f832a57c7ef107a5c2f38ef",
                "a9c5f441a57c49565c8df0ad17f86e594398a68f7c13cc5e46f1340889906ffb",
                "893b7fcbf6188f2cf47ab356a7ad59e62caeacace718441d52d015ae5251ef98",
                "893b7fcbf6188f2cf47ab356a7ad59e62caeacace718441d52d015ae5251ef98",
            ],
        ),
    }

    @staticmethod
    def _documents(config, faults, bounds):
        triples = [[f.element, f.deviation, f.severity] for f in faults]
        steps = [
            ["R1", 1591.5494309189535, 1.0, [["a", 0], ["b", 1]], "y"],
            ["C1", None, None, None, None],
        ]
        campaign = {
            "circuit": "fig4-mixed",
            "seed": config.seed,
            "faults_per_element": config.faults_per_element,
            "severity_range": list(config.severity_range),
            "engine": "factorized",
            "backend": "auto",
            "digital_engine": "compiled",
            "faults": triples,
            "steps": steps,
        }
        shards = [
            {
                "kind": "campaign-shard",
                "circuit": "fig4-mixed",
                "engine": "factorized",
                "backend": "auto",
                "digital_engine": "compiled",
                "faults": triples[start:stop],
                "steps": steps,
            }
            for start, stop in bounds
        ]
        return campaign, shards

    @pytest.mark.parametrize("n_faults,shards", sorted(RECORDED))
    def test_shared_encoding_keeps_every_key(self, n_faults, shards):
        config = CampaignConfig(faults_per_element=2, seed=7, shards=shards)
        faults = _population(n_faults)
        bounds = shard_bounds(n_faults, shards)
        campaign, shard_fps = _campaign_keys(
            "fig4-mixed", config, faults, _STEPS, bounds
        )
        campaign_doc, shard_docs = self._documents(config, faults, bounds)
        assert campaign == fingerprint_of(campaign_doc)
        assert shard_fps == [fingerprint_of(doc) for doc in shard_docs]
        assert (campaign, shard_fps) == self.RECORDED[(n_faults, shards)]
        # The key builders agree when they encode the faults themselves.
        assert campaign == campaign_fingerprint(
            "fig4-mixed", config, faults, _STEPS
        )
        assert shard_fps == [
            shard_fingerprint("fig4-mixed", config, faults[start:stop], _STEPS)
            for start, stop in bounds
        ]


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
