"""The ``python -m repro`` CLI, driven in-process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import main

#: a fig4 report artifact (``faults_per_element=1``, ``seed=3``) recorded
#: by the release whose campaign configs still carried ``batch`` and
#: ``checkpoint_dir``.
LEGACY_REPORT = Path(__file__).parent / "goldens" / "legacy_fig4_report.json"


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestList:
    def test_lists_circuits_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "example3-c432" in out
        assert "table1" in out

    def test_runs_without_networkx(self):
        """networkx is no dependency (numpy is, and scipy for sparse
        and larger dense systems): a clean interpreter that cannot
        import networkx still runs the CLI."""
        completed = run_python(
            "import runpy, sys\n"
            "sys.modules['networkx'] = None\n"
            "sys.argv = ['repro', 'list']\n"
            "runpy.run_module('repro', run_name='__main__')\n"
        )
        assert completed.returncode == 0, completed.stderr
        assert "fig4" in completed.stdout

    @pytest.mark.parametrize(
        "argv",
        [["list"], ["experiment", "figure6"], ["campaign", "fig4"]],
        ids=["list", "experiment-figure6", "campaign-fig4"],
    )
    def test_runs_without_scipy(self, argv):
        """Paper-scale circuits need no scipy (only the sparse backend
        and dense systems of ``DENSE_LU_THRESHOLD`` unknowns and more
        do): listing, a digital experiment and a dense analog campaign
        run without it."""
        completed = run_python(
            "import runpy, sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.argv = ['repro', *{argv!r}]\n"
            "runpy.run_module('repro', run_name='__main__')\n"
        )
        assert completed.returncode == 0, completed.stderr

    def test_cli_import_loads_no_scipy(self):
        completed = run_python(
            "import sys\n"
            "import repro.api.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

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


class TestRetiredFlags:
    @pytest.mark.parametrize("verb", ["generate", "campaign", "submit"])
    @pytest.mark.parametrize(
        "flag",
        [
            ("--engine", "reference"),
            ("--backend", "sparse"),
            ("--digital-engine", "reference"),
            ("--factor-cache-size", "8"),
            ("--shard-workers", "2"),
            ("--shard-timeout", "1.0"),
            ("--shard-attempts", "3"),
            ("--no-quarantine",),
            ("--chaos", "{}"),
        ],
        ids=[
            "engine", "backend", "digital-engine", "factor-cache-size",
            "shard-workers", "shard-timeout", "shard-attempts",
            "no-quarantine", "chaos",
        ],
    )
    def test_flag_is_a_usage_error(self, verb, flag, capsys):
        # The engines' choices are exercised by ``audit``, not set from
        # the command line; shards run in the caller's process, with no
        # pool to size and no worker to time out, and a deterministic
        # shard that raises is resumed, not retried.
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "fig4", *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_serve_job_attempts_is_a_usage_error(self, capsys):
        # A job runs once: its campaign is deterministic.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--job-attempts", "2"])
        assert exit_info.value.code == 2
        assert "--job-attempts" in capsys.readouterr().err


class TestCampaignShardFailure:
    def test_failing_shard_escapes_and_a_rerun_resumes(
        self, tmp_path, monkeypatch, capsys
    ):
        """A shard that raises is a bug, not bad input: its
        ``ShardExecutionError`` escapes ``main`` (a traceback and exit 1
        from the interpreter) rather than becoming an exit-2 ``error:``
        line.  Re-running with the same ``--cache-dir`` serves the shard
        that finished and writes the undisturbed campaign."""
        from repro.core import sharding

        execute = sharding._execute_shard

        def failing(program, faults, index):
            if index == 1:
                raise RuntimeError("singular system")
            return execute(program, faults, index)

        monkeypatch.setattr(sharding, "_execute_shard", failing)
        argv = [
            "campaign", "fig4", "--faults-per-element", "2", "--seed", "3",
        ]
        sharded = [*argv, "--shards", "3", "--cache-dir", str(tmp_path / "c")]
        with pytest.raises(sharding.ShardExecutionError, match="shard 1 "):
            main(sharded)
        assert "error:" not in capsys.readouterr().err

        monkeypatch.undo()
        resumed, fresh = tmp_path / "resumed.json", tmp_path / "fresh.json"
        assert main([*sharded, "--json", str(resumed)]) == 0
        shard_rows = [
            line
            for line in capsys.readouterr().out.splitlines()
            if "campaign:shard" in line
        ]
        assert ["(resumed)" in row for row in shard_rows] == [
            True, False, False,
        ]
        assert main([*argv, "--json", str(fresh)]) == 0
        assert (
            json.loads(resumed.read_text())["payload"]["campaign"]
            == json.loads(fresh.read_text())["payload"]["campaign"]
        )


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

    def test_campaign_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "fig4", "--campaign-workers", "2"])
        assert exit_info.value.code == 2
        assert "--campaign-workers" in capsys.readouterr().err


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
        assert sorted(document["variants"]) == [
            "dense", "digital-reference", "factorized", "reference", "sparse",
        ]
        assert [row["pair"] for row in document["comparisons"]] == [
            "reference-vs-factorized",
            "dense-vs-sparse",
            "compiled-vs-reference-digital",
        ]

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
        assert {
            "batch", "checkpoint_dir", "factor_cache_size", "max_workers"
        } <= set(recorded)
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
