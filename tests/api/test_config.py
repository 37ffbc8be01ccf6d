"""Typed config validation: constructors reject out-of-range values."""

import dataclasses
import json

import pytest

from repro.api import (
    AtpgConfig,
    CampaignConfig,
    ConfigError,
    GeneratorConfig,
    SessionConfig,
    Workbench,
)
from repro.api.config import RETIRED_CAMPAIGN_FIELDS


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
        document.update(batch=False, checkpoint_dir="/tmp/ck", max_workers=4)
        assert CampaignConfig.from_document(document) == CampaignConfig(seed=9)
        document["warp_factor"] = 9
        with pytest.raises(ConfigError, match="warp_factor"):
            CampaignConfig.from_document(document)

    def test_max_workers_is_not_a_field(self):
        with pytest.raises(TypeError, match="max_workers"):
            CampaignConfig(max_workers=2)
        with pytest.raises(ConfigError, match="max_workers"):
            CampaignConfig().replace(max_workers=2)

    @pytest.mark.parametrize("field", sorted(RETIRED_CAMPAIGN_FIELDS))
    def test_each_retired_field_loads_alone(self, field):
        # A document of an earlier release may carry any one of them.
        document = CampaignConfig(seed=9).as_dict()
        assert field not in document
        document[field] = 2
        assert CampaignConfig.from_document(document) == CampaignConfig(seed=9)
        with pytest.raises(ConfigError, match=field):
            CampaignConfig().replace(**{field: 2})
        if field == "shard_workers":
            return  # still a constructor keyword, see below
        with pytest.raises(TypeError, match=field):
            CampaignConfig(**{field: 2})

    def test_shard_workers_keyword_is_accepted_and_discarded(self):
        # Callers that still pass the retired process fan-out get the
        # same config; it is no field, so nothing records or reads it.
        assert CampaignConfig(shard_workers=2) == CampaignConfig()
        assert CampaignConfig(shards=4, shard_workers=2) == CampaignConfig(
            shards=4
        )
        assert "shard_workers" not in CampaignConfig(shard_workers=2).as_dict()


class TestAtpgConfig:
    def test_four_fields(self):
        names = [f.name for f in dataclasses.fields(AtpgConfig)]
        assert names == [
            "compact", "collapse", "constrained", "simulation_check"
        ]
        assert list(AtpgConfig().as_dict()) == names

    def test_retired_engine_field_is_dropped_from_documents(self):
        # Report metadata of earlier releases records ``engine`` and
        # ``ordering``; both still load, and new code cannot set them.
        with pytest.raises(TypeError, match="engine"):
            AtpgConfig(engine="reference")
        with pytest.raises(TypeError, match="ordering"):
            AtpgConfig(ordering="fanin")
        document = AtpgConfig(compact=False).as_dict()
        assert "engine" not in document
        assert "ordering" not in document
        document["engine"] = "reference"
        document["ordering"] = "declaration"
        assert AtpgConfig.from_document(document) == AtpgConfig(compact=False)
        document["warp_factor"] = 9
        with pytest.raises(ConfigError, match="warp_factor"):
            AtpgConfig.from_document(document)


class TestSessionConfig:
    def test_bundles_defaults(self):
        config = SessionConfig()
        assert config.generator == GeneratorConfig()
        assert config.campaign == CampaignConfig()
        assert config.atpg == AtpgConfig()

    def test_max_workers_is_retired(self):
        # run_batch is a loop: there is no thread pool to size.
        with pytest.raises(TypeError, match="max_workers"):
            SessionConfig(max_workers=2)
        with pytest.raises(ConfigError, match="max_workers"):
            Workbench().session(max_workers=2)
        with pytest.raises(ConfigError, match="max_workers"):
            SessionConfig().replace(max_workers=2)
        assert "max_workers" in SessionConfig._retired

