"""The ``python -m repro`` CLI, driven in-process."""

import json
from pathlib import Path

import pytest

from repro.api.cli import main

#: a fig4 report artifact (``faults_per_element=1``, ``seed=3``) recorded
#: by the release whose campaign configs still carried ``batch`` and
#: ``checkpoint_dir``.
LEGACY_REPORT = Path(__file__).parent / "goldens" / "legacy_fig4_report.json"


class TestList:
    def test_lists_circuits_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "example3-c432" in out
        assert "table1" in out

    def test_kind_filter(self, capsys):
        assert main(["list", "--kind", "digital"]) == 0
        out = capsys.readouterr().out
        assert "c432" in out
        assert "fig4 " not in out


class TestGenerate:
    def test_writes_a_report_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "fig4.json"
        program_path = tmp_path / "fig4-program.json"
        code = main(
            [
                "generate", "fig4",
                "--stages", "sensitivity,stimulus",
                "--json", str(out_path),
                "--program", str(program_path),
            ]
        )
        assert code == 0
        assert "elements testable" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["artifact_version"] == 1
        assert document["kind"] == "report"
        assert document["circuit"] == "fig4-mixed"
        assert document["meta"]["stages"] == ["sensitivity", "stimulus"]
        program = json.loads(program_path.read_text())
        assert program["kind"] == "program"
        assert program["payload"]["format_version"] == 1

    def test_unknown_circuit_is_a_clean_error(self, capsys):
        assert main(["generate", "fig5"]) == 2
        assert "did you mean" in capsys.readouterr().err


class TestExperiment:
    def test_runs_and_persists(self, tmp_path, capsys):
        out_path = tmp_path / "figure6.json"
        assert main(["experiment", "figure6", "--json", str(out_path)]) == 0
        assert "figure6" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["kind"] == "experiment"
        assert document["payload"]["name"] == "figure6"

    def test_unknown_experiment_is_a_clean_error(self, capsys):
        assert main(["experiment", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestBenchSmoke:
    def test_passes(self, capsys):
        assert main(["bench-smoke"]) == 0
        assert "all checks passed" in capsys.readouterr().out


class TestCampaignCacheDirFlag:
    def test_parser_accepts_cache_dir(self):
        from repro.api.cli import build_parser

        args = build_parser().parse_args(
            ["campaign", "fig4", "--cache-dir", "/tmp/cc"]
        )
        assert args.cache_dir == "/tmp/cc"
        # Default stays None so the config dataclass owns the default.
        bare = build_parser().parse_args(["campaign", "fig4"])
        assert bare.cache_dir is None

    def test_resume_from_is_an_alias_for_cache_dir(self):
        from repro.api.cli import _campaign_config, build_parser

        def config(*flags):
            args = build_parser().parse_args(["campaign", "fig4", *flags])
            return _campaign_config(args)

        assert config("--resume-from", "/tmp/cc") == config(
            "--cache-dir", "/tmp/cc"
        )
        assert config("--resume-from", "/tmp/cc").cache_dir == "/tmp/cc"
        # Naming the same directory twice is fine.
        assert config(
            "--resume-from", "/tmp/cc", "--cache-dir", "/tmp/cc/"
        ) == config("--cache-dir", "/tmp/cc")

    def test_resume_from_and_a_different_cache_dir_exit_2(self, capsys):
        code = main(
            ["campaign", "fig4", "--resume-from", "/tmp/a",
             "--cache-dir", "/tmp/b"]
        )
        assert code == 2
        assert "--resume-from" in capsys.readouterr().err

    def test_no_batch_flag_is_gone(self, capsys):
        from repro.api.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "fig4", "--no-batch"])


class TestCacheVerb:
    def _populated(self, tmp_path):
        """A cache holding one real sharded campaign's entries."""
        from repro.api import CampaignConfig, Workbench
        from repro.core import run_campaign

        cache_dir = tmp_path / "cache"
        session = Workbench().session()
        mixed = session.circuit("fig4")
        report = session.run(mixed, stages=("sensitivity", "stimulus")).report
        run_campaign(
            mixed,
            report,
            config=CampaignConfig(
                faults_per_element=1,
                seed=3,
                shards=2,
                cache_dir=str(cache_dir),
            ),
        )
        return cache_dir

    def test_stats_verify_and_gc(self, tmp_path, capsys):
        cache_dir = self._populated(tmp_path)

        assert main(["cache", "stats", str(cache_dir)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["namespaces"]["campaign-shard"]["entries"] == 2

        assert main(["cache", "verify", str(cache_dir)]) == 0
        assert "entries ok" in capsys.readouterr().out

        assert main(["cache", "gc", str(cache_dir), "--keep-gb", "1"]) == 0
        assert "0 entries evicted" in capsys.readouterr().out

    def test_verify_flags_corruption_with_exit_1(self, tmp_path, capsys):
        from repro.core.cache import ResultCache
        from repro.core.fingerprint import fingerprint_of

        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        path = cache.put_bytes("unit-test", fingerprint_of({"n": 1}), b"x")
        path.write_bytes(b"torn")
        assert main(["cache", "verify", str(cache_dir)]) == 1
        captured = capsys.readouterr()
        assert "corrupt unit-test/" in captured.err
        assert "0/1 entries ok" in captured.out

    def test_gc_without_keep_gb_is_a_usage_error(self, tmp_path, capsys):
        assert main(["cache", "gc", str(tmp_path)]) == 2
        assert "--keep-gb" in capsys.readouterr().err


class TestAuditVerb:
    def _report_artifact(self, tmp_path):
        from repro.api import CampaignConfig, Workbench

        session = Workbench().session(
            campaign=CampaignConfig(faults_per_element=1, seed=3)
        )
        result = session.run(
            "fig4",
            stages=("sensitivity", "stimulus", "conversion", "atpg",
                    "campaign"),
        )
        path = tmp_path / "report.json"
        result.to_artifact().save(path)
        return path

    def test_audit_agrees_and_writes_the_bundle(self, tmp_path, capsys):
        path = self._report_artifact(tmp_path)
        bundle = tmp_path / "bundle"
        summary = tmp_path / "audit.json"
        code = main(
            ["audit", str(path), "--out", str(bundle),
             "--json", str(summary)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all engine pairs agree" in out
        assert "[ok ] recorded-vs-replayed" in out
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert "audit.json" in manifest
        assert any(name.startswith("replay-") for name in manifest)
        document = json.loads(summary.read_text())
        assert document["ok"] is True
        assert len(document["comparisons"]) == 3

    def test_unresolvable_target_is_a_clean_error(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_legacy_report_audits_its_recorded_campaign(self, tmp_path):
        """Retired config fields in a recorded report are dropped, not a
        reason to replay the default campaign instead."""
        from repro.api import Artifact
        from repro.api.audit import run_audit

        artifact = Artifact.load(LEGACY_REPORT)
        recorded = artifact.meta["configs"]["campaign"]
        assert {"batch", "checkpoint_dir", "factor_cache_size"} <= set(
            recorded
        )
        audit = run_audit(artifact)
        assert audit.recorded_match is True
        assert audit.ok
        assert audit.n_faults == len(artifact.payload["campaign"]["outcomes"])

    def test_unknown_recorded_config_field_exits_2(self, tmp_path, capsys):
        document = json.loads(LEGACY_REPORT.read_text())
        document["meta"]["configs"]["campaign"]["warp_factor"] = 9
        path = tmp_path / "report.json"
        path.write_text(json.dumps(document))
        assert main(["audit", str(path)]) == 2
        assert "warp_factor" in capsys.readouterr().err
