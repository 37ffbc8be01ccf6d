"""Per-rule corpus: a known-bad snippet and a clean twin for each rule.

Each test pins the rule id and finding line, so a rule that drifts
(stops firing, or fires on its clean twin) fails here first.
"""

import pytest

from repro.devtools.lint import Project, lint_source_text
from repro.devtools.lint.source_rules import (
    Art005ArtifactKind,
    Cch008DirectDigest,
    Cfg006ConfigTruthiness,
    Det001UnseededRandomness,
    Eng004UnknownEngineName,
    FingerprintContract,
    Fpr002FingerprintCompleteness,
    Lck003UnguardedMemoWrite,
    Res007SwallowedException,
    lint_project,
)


def _rules_hit(report):
    return {(f.rule, f.line) for f in report.unsuppressed}


# ----------------------------------------------------------------------
class TestDet001:
    def test_flags_global_random_and_wall_clock(self):
        report = lint_source_text(
            "import random\n"
            "import time\n"
            "x = random.random()\n"
            "t = time.time()\n",
            rules=[Det001UnseededRandomness()],
        )
        assert _rules_hit(report) == {("DET001", 3), ("DET001", 4)}

    def test_flags_unseeded_random_instance_and_numpy_global(self):
        report = lint_source_text(
            "import random\n"
            "import numpy as np\n"
            "rng = random.Random()\n"
            "y = np.random.rand(3)\n",
            rules=[Det001UnseededRandomness()],
        )
        assert _rules_hit(report) == {("DET001", 3), ("DET001", 4)}

    def test_flags_from_imports_and_datetime(self):
        report = lint_source_text(
            "from random import shuffle\n"
            "from time import time\n"
            "import datetime\n"
            "shuffle([1, 2])\n"
            "t = time()\n"
            "d = datetime.datetime.now()\n",
            rules=[Det001UnseededRandomness()],
        )
        assert _rules_hit(report) == {
            ("DET001", 4), ("DET001", 5), ("DET001", 6),
        }

    def test_clean_twin(self):
        report = lint_source_text(
            "import random\n"
            "import time\n"
            "import numpy as np\n"
            "rng = random.Random(7)\n"
            "x = rng.random()\n"
            "gen = np.random.default_rng(7)\n"
            "t0 = time.perf_counter()\n"
            "t1 = time.monotonic()\n",
            rules=[Det001UnseededRandomness()],
        )
        assert report.unsuppressed == []

    def test_suppression_comment(self):
        report = lint_source_text(
            "import time\n"
            "t = time.time()  # repro-lint: disable=DET001\n",
            rules=[Det001UnseededRandomness()],
        )
        assert report.unsuppressed == []
        assert [f.rule for f in report.suppressed] == ["DET001"]


# ----------------------------------------------------------------------
_FPR_CONFIG = (
    "class CampaignConfig:\n"
    "    seed: int = 0\n"
    "    engine: str = 'factorized'\n"
    "    max_workers: int | None = None\n"
)


def _fpr_project(
    fingerprint_body: str,
    excludes: str = "'max_workers'",
    config: str = _FPR_CONFIG,
):
    return Project(
        files={
            "repro/api/config.py": config,
            "repro/core/sharding.py": (
                f"FINGERPRINT_EXCLUDED_FIELDS = frozenset({{{excludes}}})\n"
                "def campaign_fingerprint(circuit, config, faults, steps):\n"
                f"    return {fingerprint_body}\n"
            ),
        }
    )


class TestFpr002:
    def test_complete_fingerprint_is_clean(self):
        project = _fpr_project("(config.seed, config.engine)")
        report = lint_project(project, [Fpr002FingerprintCompleteness()])
        assert report.unsuppressed == []

    def test_missing_field_is_flagged(self):
        project = _fpr_project("(config.seed,)")
        report = lint_project(project, [Fpr002FingerprintCompleteness()])
        [finding] = report.unsuppressed
        assert finding.rule == "FPR002"
        assert "'engine'" in finding.message
        assert finding.path == "repro/core/sharding.py"
        assert finding.line == 2  # the campaign_fingerprint def line

    def test_stale_exclude_entry_is_flagged(self):
        project = _fpr_project(
            "(config.seed, config.engine)",
            excludes="'max_workers', 'bogus'",
        )
        report = lint_project(project, [Fpr002FingerprintCompleteness()])
        [finding] = report.unsuppressed
        assert "'bogus'" in finding.message
        assert "stale" in finding.message

    def test_contradicted_exclude_is_flagged(self):
        project = _fpr_project("(config.seed, config.engine, config.max_workers)")
        report = lint_project(project, [Fpr002FingerprintCompleteness()])
        [finding] = report.unsuppressed
        assert "'max_workers'" in finding.message
        assert "pick one" in finding.message

    @pytest.mark.parametrize(
        "annotation", ["InitVar[int | None]", "dataclasses.InitVar[int]"]
    )
    def test_initvar_is_not_a_field(self, annotation):
        # An init-only keyword is no dataclass field: it needs neither a
        # fingerprint read nor an exclude entry, and listing it as
        # excluded is stale.
        config = _FPR_CONFIG + f"    shard_workers: {annotation} = None\n"
        project = _fpr_project("(config.seed, config.engine)", config=config)
        report = lint_project(project, [Fpr002FingerprintCompleteness()])
        assert report.unsuppressed == []
        stale = _fpr_project(
            "(config.seed, config.engine)",
            excludes="'max_workers', 'shard_workers'",
            config=config,
        )
        [finding] = lint_project(
            stale, [Fpr002FingerprintCompleteness()]
        ).unsuppressed
        assert "'shard_workers'" in finding.message
        assert "stale" in finding.message

    def _implied_contract(self, implied):
        return FingerprintContract(
            config_module="repro/api/config.py",
            config_class="CampaignConfig",
            fingerprint_module="repro/core/sharding.py",
            function="campaign_fingerprint",
            exclude_module="repro/core/sharding.py",
            exclude_constant="FINGERPRINT_EXCLUDED_FIELDS",
            implied_fields=implied,
        )

    def test_implied_field_counts_as_classified(self):
        # `seed` is neither read nor excluded, but the contract declares
        # it implied (covered via another argument) — clean.
        project = _fpr_project("(config.engine,)")
        rule = Fpr002FingerprintCompleteness(
            [self._implied_contract(("seed",))]
        )
        report = lint_project(project, [rule])
        assert report.unsuppressed == []

    def test_implied_field_that_is_read_is_flagged(self):
        # Declaring a field implied *and* reading it means one of the
        # two statements is stale.
        project = _fpr_project("(config.seed, config.engine)")
        rule = Fpr002FingerprintCompleteness(
            [self._implied_contract(("seed",))]
        )
        report = lint_project(project, [rule])
        [finding] = report.unsuppressed
        assert "'seed'" in finding.message
        assert "implied" in finding.message


# ----------------------------------------------------------------------
class TestLck003:
    def test_unguarded_attr_write_is_flagged(self):
        report = lint_source_text(
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._memo = {}\n"
            "    def fast(self, key):\n"
            "        self._memo[key] = 1\n"
            "    def slow(self, key):\n"
            "        with self._lock:\n"
            "            self._memo[key] = 2\n",
            rules=[Lck003UnguardedMemoWrite()],
        )
        assert _rules_hit(report) == {("LCK003", 7)}

    def test_guarded_everywhere_is_clean(self):
        report = lint_source_text(
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._memo = {}\n"
            "    def fast(self, key):\n"
            "        with self._lock:\n"
            "            self._memo.setdefault(key, 1)\n",
            rules=[Lck003UnguardedMemoWrite()],
        )
        assert report.unsuppressed == []

    def test_init_construction_is_exempt(self):
        # __init__ publishes the memo before any thread exists.
        report = lint_source_text(
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._memo = {}\n"
            "        self._memo['warm'] = 0\n"
            "    def read(self, key):\n"
            "        with self._lock:\n"
            "            self._memo[key] = 1\n",
            rules=[Lck003UnguardedMemoWrite()],
        )
        assert report.unsuppressed == []

    def test_locked_suffix_convention_is_guarded(self):
        # ``*_locked`` methods document that the caller holds the lock
        # (the JobQueue._load_locked idiom).
        report = lint_source_text(
            "import threading\n"
            "class Queue:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._jobs = {}\n"
            "    def load(self):\n"
            "        with self._lock:\n"
            "            self._load_locked()\n"
            "    def _load_locked(self):\n"
            "        self._jobs['a'] = 1\n"
            "    def put(self, job):\n"
            "        with self._lock:\n"
            "            self._jobs[job] = 2\n",
            rules=[Lck003UnguardedMemoWrite()],
        )
        assert report.unsuppressed == []

    def test_local_lock_flavour(self):
        report = lint_source_text(
            "import threading\n"
            "def run():\n"
            "    lock = threading.Lock()\n"
            "    memo = {}\n"
            "    def guarded():\n"
            "        with lock:\n"
            "            memo['k'] = 1\n"
            "    def racy():\n"
            "        memo['k'] = 2\n",
            rules=[Lck003UnguardedMemoWrite()],
        )
        assert _rules_hit(report) == {("LCK003", 9)}

    def test_unlocked_state_is_not_the_rules_business(self):
        # No lock in the class at all: plain single-threaded mutation.
        report = lint_source_text(
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._memo = {}\n"
            "    def put(self, key):\n"
            "        self._memo[key] = 1\n",
            rules=[Lck003UnguardedMemoWrite()],
        )
        assert report.unsuppressed == []


# ----------------------------------------------------------------------
_ENG_KNOWN = {
    "engine": frozenset({"factorized", "reference"}),
    "backend": frozenset({"auto", "dense", "sparse"}),
    "digital_engine": frozenset({"compiled", "reference"}),
}


class TestEng004:
    def test_typo_in_keyword_and_compare(self):
        report = lint_source_text(
            "run(engine='factorised')\n"
            "if config.backend == 'spare':\n"
            "    pass\n",
            rules=[Eng004UnknownEngineName(known=_ENG_KNOWN)],
        )
        assert _rules_hit(report) == {("ENG004", 1), ("ENG004", 2)}

    def test_membership_tuple_is_checked(self):
        report = lint_source_text(
            "ok = engine in ('factorized', 'refrence')\n",
            rules=[Eng004UnknownEngineName(known=_ENG_KNOWN)],
        )
        [finding] = report.unsuppressed
        assert "refrence" in finding.message

    def test_registered_names_are_clean(self):
        report = lint_source_text(
            "run(engine='factorized', backend='sparse')\n"
            "if config.digital_engine == 'compiled':\n"
            "    pass\n"
            "backend = 'auto'\n",
            rules=[Eng004UnknownEngineName(known=_ENG_KNOWN)],
        )
        assert report.unsuppressed == []

    def test_engine_registry_extracted_from_simulator_module(self):
        project = Project(
            files={
                "repro/digital/simulate.py": (
                    "DIGITAL_ENGINES = ('compiled', 'reference')\n"
                ),
                "repro/use.py": "run(engine='compild')\n",
            }
        )
        report = lint_project(project, [Eng004UnknownEngineName()])
        [finding] = report.unsuppressed
        assert finding.path == "repro/use.py"

    def test_registries_extracted_from_their_owning_modules(self):
        # Each registry is read where it is defined: the backends from
        # the solver module, the digital engines from the simulator.
        project = Project(
            files={
                "repro/spice/backends.py": (
                    "BACKEND_NAMES = ('auto', 'dense', 'sparse')\n"
                ),
                "repro/digital/simulate.py": (
                    "DIGITAL_ENGINES = ('compiled', 'reference')\n"
                ),
                "repro/use.py": (
                    "run(backend='spare')\n"
                    "run(digital_engine='compild')\n"
                    "run(engine='compiled', backend='sparse')\n"
                    "run(digital_engine='reference')\n"
                ),
            }
        )
        report = lint_project(project, [Eng004UnknownEngineName()])
        assert {(f.path, f.line) for f in report.unsuppressed} == {
            ("repro/use.py", 1),
            ("repro/use.py", 2),
        }

    def test_the_shipped_registries_are_found(self):
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        owners = ("repro/spice/backends.py", "repro/digital/simulate.py")
        files = {path: (src / path).read_text() for path in owners}
        files["repro/use.py"] = (
            "run(engine='compiled', backend='auto')\n"
            "run(digital_engine='compiled', engine='reference')\n"
            "run(backend='gpu')\n"
            "run(digital_engine='quantum')\n"
        )
        report = lint_project(
            Project(files=files), [Eng004UnknownEngineName()]
        )
        assert {(f.path, f.line) for f in report.unsuppressed} == {
            ("repro/use.py", 3),
            ("repro/use.py", 4),
        }

    def test_no_registries_means_no_findings(self):
        # A partial project (corpus snippet) without the registry
        # modules: silent.
        report = lint_source_text(
            "run(engine='anything-goes')\n",
            rules=[Eng004UnknownEngineName()],
        )
        assert report.unsuppressed == []


# ----------------------------------------------------------------------
class TestArt005:
    def test_unregistered_kind_is_flagged(self):
        report = lint_source_text(
            "a = Artifact(kind='mystery', circuit=None, payload={})\n",
            rules=[
                Art005ArtifactKind(
                    kinds=("report", "job"), require_test_coverage=False
                )
            ],
        )
        [finding] = report.unsuppressed
        assert finding.rule == "ART005"
        assert "mystery" in finding.message

    def test_registered_kind_and_foreign_kind_kwarg_are_clean(self):
        report = lint_source_text(
            "a = Artifact(kind='report', circuit=None, payload={})\n"
            "b = read_artifact(path, kind='job')\n"
            # Other APIs reuse the keyword name; not this rule's business.
            "registry.register('fig9', build, kind='mixed')\n",
            rules=[
                Art005ArtifactKind(
                    kinds=("report", "job"), require_test_coverage=False
                )
            ],
        )
        assert report.unsuppressed == []

    def test_uncovered_kind_needs_a_round_trip_test(self):
        project = Project(
            files={
                "repro/api/artifact.py": "ARTIFACT_KINDS = ('report', 'job')\n",
                "tests/test_artifact.py": "def test_report():\n    assert kind == 'report'\n",
            }
        )
        report = lint_project(project, [Art005ArtifactKind()])
        [finding] = report.unsuppressed
        assert "'job'" in finding.message
        assert finding.path == "repro/api/artifact.py"

    def test_covered_kinds_are_clean(self):
        project = Project(
            files={
                "repro/api/artifact.py": "ARTIFACT_KINDS = ('report', 'job')\n",
                "tests/test_artifact.py": "KINDS = ['report', 'job']\n",
            }
        )
        report = lint_project(project, [Art005ArtifactKind()])
        assert report.unsuppressed == []


# ----------------------------------------------------------------------
class TestCfg006:
    def test_or_chain_on_numeric_field_is_flagged(self):
        report = lint_source_text(
            "workers = config.max_workers or 4\n",
            rules=[Cfg006ConfigTruthiness(fields=("max_workers", "seed"))],
        )
        [finding] = report.unsuppressed
        assert finding.rule == "CFG006"
        assert finding.line == 1
        assert "max_workers" in finding.message

    def test_is_none_twin_is_clean(self):
        report = lint_source_text(
            "workers = 4 if config.max_workers is None else config.max_workers\n"
            "label = name or 'anonymous'\n",
            rules=[Cfg006ConfigTruthiness(fields=("max_workers", "seed"))],
        )
        assert report.unsuppressed == []

    def test_fields_derived_from_config_annotations(self):
        project = Project(
            files={
                "repro/api/config.py": (
                    "class CampaignConfig:\n"
                    "    seed: int = 0\n"
                    "    batch: bool = True\n"
                    "    severity_range: tuple = (0.5, 2.0)\n"
                ),
                "repro/use.py": (
                    "s = config.seed or 1\n"
                    "b = config.batch or True\n"
                    "r = config.severity_range or ()\n"
                ),
            }
        )
        report = lint_project(project, [Cfg006ConfigTruthiness()])
        # Only the int field is risky: bools and containers are fine.
        assert _rules_hit(report) == {("CFG006", 1)}


# ----------------------------------------------------------------------
class TestRes007:
    def test_silent_broad_except_is_flagged(self):
        report = lint_source_text(
            "try:\n"
            "    run()\n"
            "except Exception:\n"
            "    pass\n",
            path="repro/core/x.py",
            rules=[Res007SwallowedException()],
        )
        assert _rules_hit(report) == {("RES007", 3)}

    def test_bare_except_and_tuple_are_flagged(self):
        report = lint_source_text(
            "try:\n"
            "    run()\n"
            "except:\n"
            "    count += 1\n"
            "try:\n"
            "    run()\n"
            "except (Exception, OSError):\n"
            "    count += 1\n",
            path="repro/service/x.py",
            rules=[Res007SwallowedException()],
        )
        assert _rules_hit(report) == {("RES007", 3), ("RES007", 7)}

    def test_reraise_twin_is_clean(self):
        report = lint_source_text(
            "try:\n"
            "    run()\n"
            "except Exception:\n"
            "    cleanup()\n"
            "    raise\n",
            path="repro/core/x.py",
            rules=[Res007SwallowedException()],
        )
        assert report.unsuppressed == []

    def test_failure_record_twin_is_clean(self):
        report = lint_source_text(
            "try:\n"
            "    run()\n"
            "except Exception as error:\n"
            "    records.append(FailureRecord.from_exception('job', error))\n",
            path="repro/service/x.py",
            rules=[Res007SwallowedException()],
        )
        assert report.unsuppressed == []

    def test_using_the_caught_exception_is_clean(self):
        # Passing the exception anywhere (a log line, a result row)
        # counts as preserving the evidence.
        report = lint_source_text(
            "try:\n"
            "    run()\n"
            "except Exception as error:\n"
            "    log(f'failed: {error}')\n",
            path="repro/core/x.py",
            rules=[Res007SwallowedException()],
        )
        assert report.unsuppressed == []

    def test_narrow_except_is_out_of_scope(self):
        report = lint_source_text(
            "try:\n"
            "    run()\n"
            "except KeyError:\n"
            "    pass\n",
            path="repro/core/x.py",
            rules=[Res007SwallowedException()],
        )
        assert report.unsuppressed == []

    def test_only_core_and_service_are_in_scope(self):
        snippet = "try:\n    run()\nexcept Exception:\n    pass\n"
        for path in ("repro/experiments/x.py", "repro/devtools/x.py"):
            report = lint_source_text(
                snippet, path=path, rules=[Res007SwallowedException()]
            )
            assert report.unsuppressed == []

    def test_suppression_comment(self):
        report = lint_source_text(
            "try:\n"
            "    run()\n"
            "except Exception:  # repro-lint: disable=RES007\n"
            "    pass\n",
            path="repro/core/x.py",
            rules=[Res007SwallowedException()],
        )
        assert report.unsuppressed == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
class TestCch008:
    def test_direct_hashlib_call_is_flagged(self):
        report = lint_source_text(
            "import hashlib\n"
            "digest = hashlib.sha256(b'x').hexdigest()\n",
            path="repro/service/store.py",
            rules=[Cch008DirectDigest()],
        )
        assert _rules_hit(report) == {("CCH008", 2)}

    def test_from_import_alias_is_flagged(self):
        report = lint_source_text(
            "from hashlib import sha256 as mk\n"
            "digest = mk(b'x').hexdigest()\n",
            path="repro/core/sharding.py",
            rules=[Cch008DirectDigest()],
        )
        assert _rules_hit(report) == {("CCH008", 2)}

    def test_fingerprint_module_is_exempt(self):
        report = lint_source_text(
            "import hashlib\n"
            "digest = hashlib.sha256(b'x').hexdigest()\n",
            path="repro/core/fingerprint.py",
            rules=[Cch008DirectDigest()],
        )
        assert report.unsuppressed == []

    def test_routed_digest_is_clean(self):
        report = lint_source_text(
            "from repro.core.fingerprint import fingerprint_of\n"
            "digest = fingerprint_of({'kind': 'x'})\n",
            path="repro/service/store.py",
            rules=[Cch008DirectDigest()],
        )
        assert report.unsuppressed == []


# ----------------------------------------------------------------------
class TestRepoTreeIsClean:
    def test_src_lints_clean(self):
        # The CI gate, as a test: the shipped tree has zero unsuppressed
        # findings (intentional deviations carry inline suppressions).
        from pathlib import Path

        import repro

        from repro.devtools.lint import lint_source_tree

        src_root = Path(repro.__file__).resolve().parents[1]
        tests_root = src_root.parent / "tests"
        report = lint_source_tree(
            src_root, tests_root=tests_root if tests_root.is_dir() else None
        )
        assert report.unsuppressed == []
        assert report.files_checked > 50
