"""Typed config validation: constructors reject out-of-range values."""

import json

import pytest

from repro.api import (
    AtpgConfig,
    CampaignConfig,
    ConfigError,
    GeneratorConfig,
    SessionConfig,
)


class TestGeneratorConfig:
    def test_defaults_match_the_paper(self):
        config = GeneratorConfig()
        assert config.tolerance == 0.05
        assert config.element_tolerance == 0.05
        assert config.comparator_budget is None
        assert config.include_digital

    @pytest.mark.parametrize("tolerance", [0.0, 1.0, -0.1, 2.0])
    def test_tolerance_out_of_range(self, tolerance):
        with pytest.raises(ConfigError):
            GeneratorConfig(tolerance=tolerance)

    def test_element_tolerance_out_of_range(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(element_tolerance=1.5)

    def test_comparator_budget_must_be_positive(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(comparator_budget=0)

    def test_replace_returns_validated_copy(self):
        config = GeneratorConfig().replace(tolerance=0.1)
        assert config.tolerance == 0.1
        assert GeneratorConfig().tolerance == 0.05  # original untouched
        with pytest.raises(ConfigError):
            config.replace(tolerance=7.0)

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="no field"):
            GeneratorConfig().replace(tollerance=0.1)

    def test_frozen(self):
        with pytest.raises(Exception):
            GeneratorConfig().tolerance = 0.2

    def test_as_dict(self):
        assert GeneratorConfig().as_dict()["tolerance"] == 0.05


class TestCampaignConfig:
    def test_faults_per_element_must_be_positive(self):
        with pytest.raises(ConfigError):
            CampaignConfig(faults_per_element=0)

    @pytest.mark.parametrize(
        "rng", [(3.0, 0.5), (0.0, 2.0), (-1.0, 1.0), (1.0, 2.0, 3.0)]
    )
    def test_severity_range_validated(self, rng):
        with pytest.raises(ConfigError):
            CampaignConfig(severity_range=rng)

    def test_from_document_round_trips_json(self):
        config = CampaignConfig(seed=9, severity_range=(0.25, 4.0), shards=3)
        document = json.loads(json.dumps(config.as_dict()))
        assert isinstance(document["severity_range"], list)
        assert CampaignConfig.from_document(document) == config

    def test_from_document_drops_only_retired_fields(self):
        document = CampaignConfig(seed=9).as_dict()
        document.update(batch=False, checkpoint_dir="/tmp/ck")
        assert CampaignConfig.from_document(document) == CampaignConfig(seed=9)
        document["warp_factor"] = 9
        with pytest.raises(ConfigError, match="warp_factor"):
            CampaignConfig.from_document(document)


class TestAtpgConfig:
    def test_ordering_validated(self):
        with pytest.raises(ConfigError, match="ordering"):
            AtpgConfig(ordering="alphabetical")
        assert AtpgConfig(ordering="declaration").ordering == "declaration"


class TestSessionConfig:
    def test_bundles_defaults(self):
        config = SessionConfig()
        assert config.generator == GeneratorConfig()
        assert config.campaign == CampaignConfig()
        assert config.atpg == AtpgConfig()

    def test_max_workers_validated(self):
        with pytest.raises(ConfigError):
            SessionConfig(max_workers=0)


class TestDigitalEngineKnobs:
    def test_atpg_engine_validated(self):
        with pytest.raises(ConfigError, match="engine"):
            AtpgConfig(engine="quantum")
        assert AtpgConfig().engine == "compiled"
        assert AtpgConfig(engine="reference").engine == "reference"

    def test_campaign_digital_engine_validated(self):
        with pytest.raises(ConfigError, match="digital_engine"):
            CampaignConfig(digital_engine="quantum")
        assert CampaignConfig().digital_engine == "compiled"

    def test_session_digital_engine_validated(self):
        # Each stage config owns its engine; the session has no copy.
        with pytest.raises(TypeError, match="digital_engine"):
            SessionConfig(digital_engine="reference")
        with pytest.raises(ConfigError, match="engine"):
            SessionConfig(atpg=AtpgConfig(engine="quantum"))

    def test_names_mirror_simulate_module(self):
        from repro.api.config import DIGITAL_ENGINES
        from repro.digital.simulate import DIGITAL_ENGINES as SIM

        assert tuple(DIGITAL_ENGINES) == tuple(SIM)
