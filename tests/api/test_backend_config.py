"""Backend selection through the facade: configs, session, CLI."""

import pytest

from repro.api import (
    CampaignConfig,
    ConfigError,
    SessionConfig,
    Workbench,
)
from repro.api.cli import build_parser


class TestCampaignConfigBackend:
    def test_defaults(self):
        config = CampaignConfig()
        assert config.backend == "auto"
        assert "factor_cache_size" not in config.as_dict()

    def test_backend_validated(self):
        with pytest.raises(ConfigError, match="backend"):
            CampaignConfig(backend="gpu")

    def test_factor_cache_size_is_retired(self):
        # The solver keeps no LU cache, so there is nothing to bound:
        # documents of earlier releases still load, new code cannot
        # set the knob.
        with pytest.raises(TypeError, match="factor_cache_size"):
            CampaignConfig(factor_cache_size=8)
        document = CampaignConfig(seed=5).as_dict()
        document["factor_cache_size"] = 64
        assert CampaignConfig.from_document(document) == CampaignConfig(seed=5)

    def test_session_backend_validated(self):
        # The backend is a campaign setting only: a session-wide copy
        # that silently lost to any explicit campaign value is gone.
        with pytest.raises(TypeError, match="backend"):
            SessionConfig(backend="sparse")
        with pytest.raises(ConfigError, match="backend"):
            SessionConfig(campaign=CampaignConfig(backend="gpu"))


class TestSessionInjection:
    def test_session_backend_flows_into_campaign_stage(self):
        session = Workbench().session(
            config=SessionConfig(
                campaign=CampaignConfig(
                    faults_per_element=1, seed=5, backend="sparse"
                ),
            )
        )
        result = session.run(
            "fig4", stages=("sensitivity", "stimulus", "campaign")
        )
        assert result.campaign.diagnostics["backend"] == "sparse"
        campaign_timing = [
            t for t in result.timings if t.stage == "campaign"
        ][0]
        assert campaign_timing.backend == "sparse"
        assert "[sparse]" in result.outcome.timing_table()

    def test_explicit_campaign_backend_wins_over_session(self):
        session = Workbench().session(
            config=SessionConfig(campaign=CampaignConfig(backend="sparse"))
        )
        result = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "campaign"),
            campaign=CampaignConfig(
                faults_per_element=1, seed=5, backend="dense"
            ),
        )
        assert result.campaign.diagnostics["backend"] == "dense"

    def test_auto_resolves_to_dense_for_fig4(self):
        # fig4's analog block is far below the sparse threshold: the
        # historical dense path must keep serving it.
        session = Workbench().session(
            campaign=CampaignConfig(faults_per_element=1, seed=5)
        )
        result = session.run(
            "fig4", stages=("sensitivity", "stimulus", "campaign")
        )
        assert result.campaign.diagnostics["backend"] == "dense"


class TestCliBackendFlag:
    def test_campaign_accepts_backend(self):
        args = build_parser().parse_args(
            ["campaign", "fig4", "--backend", "sparse"]
        )
        assert args.backend == "sparse"

    def test_generate_accepts_backend(self):
        args = build_parser().parse_args(
            ["generate", "fig4", "--backend", "dense"]
        )
        assert args.backend == "dense"

    def test_campaign_rejects_factor_cache_size(self, capsys):
        from repro.api.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "fig4", "--factor-cache-size", "8"])
        assert exit_info.value.code == 2
        assert "--factor-cache-size" in capsys.readouterr().err

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "fig4", "--backend", "gpu"]
            )


class TestDigitalEngineInjection:
    def test_session_digital_engine_flows_into_stages(self):
        from repro.api import AtpgConfig

        session = Workbench().session(
            config=SessionConfig(
                atpg=AtpgConfig(engine="reference"),
                campaign=CampaignConfig(
                    faults_per_element=1, seed=5, digital_engine="reference"
                ),
            )
        )
        result = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "atpg", "campaign"),
        )
        assert result.report.digital_run.diagnostics["digital_engine"] == (
            "reference"
        )
        assert result.campaign.diagnostics["digital_engine"] == "reference"
        atpg_timing = [t for t in result.timings if t.stage == "atpg"][0]
        assert atpg_timing.backend == "reference"

    def test_default_runs_compiled_everywhere(self):
        session = Workbench().session(
            campaign=CampaignConfig(faults_per_element=1, seed=5)
        )
        result = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "atpg", "campaign"),
        )
        assert result.report.digital_run.diagnostics["digital_engine"] == (
            "compiled"
        )
        assert result.campaign.diagnostics["digital_engine"] == "compiled"
        assert "[compiled]" in result.outcome.timing_table()


class TestCliDigitalEngineFlag:
    def test_campaign_accepts_digital_engine(self):
        args = build_parser().parse_args(
            ["campaign", "fig4", "--digital-engine", "reference"]
        )
        assert args.digital_engine == "reference"

    def test_generate_accepts_digital_engine(self):
        args = build_parser().parse_args(
            ["generate", "fig4", "--digital-engine", "compiled"]
        )
        assert args.digital_engine == "compiled"

    def test_unknown_digital_engine_rejected(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "fig4", "--digital-engine", "quantum"]
            )
