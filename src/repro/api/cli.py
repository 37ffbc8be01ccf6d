"""``python -m repro`` — the command-line workbench.

Subcommands::

    list         registered circuits and experiments
    generate     run the test-generation pipeline on a circuit
    campaign     full flow incl. fault-injection scoring
    experiment   regenerate one of the paper's tables/figures
    bench-smoke  fast end-to-end self-check (CI gate)
    lint         static analysis: codebase rules / netlist semantics
    serve        run the campaign service (HTTP/JSON job API)
    submit       submit a campaign job to a running service
    status       show a job (or all jobs) on a running service
    fetch        download a stored artifact by fingerprint
    audit        replay a recorded campaign and cross-check engine pairs
    cache        inspect a result cache: stats / gc / verify

Every result-producing subcommand accepts ``--json PATH`` to persist
the result as a versioned :class:`repro.api.Artifact` document.  The
service verbs default their ``--url`` to ``$REPRO_SERVICE_URL`` (or
``http://127.0.0.1:8080``).

Error contract: unknown circuit/experiment/job names, malformed config
values and unreachable-service failures exit with code ``2`` and a
one-line ``error:`` message — never a traceback; ``Ctrl-C`` exits
``130`` cleanly.  A ``campaign`` whose shard raises stops with a
:class:`repro.core.sharding.ShardExecutionError` traceback naming the
shard (exit ``1``): it is a bug, not bad input.  The shards before it
are cached when ``--cache-dir`` is set, so a re-run with the same
directory resumes there.  ``audit`` exits ``1`` when any engine pair
disagrees (the evidence bundle is still written), and ``cache verify``
exits ``1`` when any stored entry no longer reads back.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .config import CampaignConfig, ConfigError, GeneratorConfig
from .pipeline import FULL_STAGES, STAGE_ORDER
from .session import Workbench

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="mixed-signal test-generation workbench "
        "(Ayari, BenHamida & Kaminska, DATE 1995 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list circuits and experiments")
    p_list.add_argument(
        "--kind",
        choices=("mixed", "analog", "digital"),
        default=None,
        help="only circuits of this kind",
    )

    p_gen = sub.add_parser(
        "generate", help="generate a test program for a circuit"
    )
    p_gen.add_argument("circuit", help="registry name, e.g. fig4")
    p_gen.add_argument(
        "--stages",
        default=None,
        help="comma-separated subset of: " + ",".join(STAGE_ORDER),
    )
    p_gen.add_argument("--json", metavar="PATH", default=None)
    p_gen.add_argument(
        "--program", metavar="PATH", default=None,
        help="also write the emitted program as a program artifact",
    )
    _add_generator_options(p_gen)

    p_camp = sub.add_parser(
        "campaign", help="generate, then score via fault injection"
    )
    p_camp.add_argument("circuit", help="registry name, e.g. fig4")
    p_camp.add_argument("--faults-per-element", type=int, default=None)
    p_camp.add_argument("--seed", type=int, default=None)
    p_camp.add_argument(
        "--severity", nargs=2, type=float, metavar=("LOW", "HIGH"),
        default=None,
    )
    p_camp.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the seeded fault population into N deterministic "
        "shards, cached and resumed one by one (outcomes identical to "
        "the unsharded run)",
    )
    p_camp.add_argument(
        "--resume-from", metavar="DIR", default=None,
        help="alias for --cache-dir: generation stages and completed "
        "shards are cached here and a re-run resumes from them instead "
        "of restarting",
    )
    p_camp.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed result cache: generation stages and "
        "shard results persist here, keyed by their content, so an "
        "identical re-run is a lookup and an edited campaign recomputes "
        "only the shards it invalidated",
    )
    p_camp.add_argument("--json", metavar="PATH", default=None)
    _add_generator_options(p_camp)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    p_exp.add_argument("name", help="experiment name, e.g. table1 (or 'all')")
    p_exp.add_argument("--json", metavar="PATH", default=None)

    p_smoke = sub.add_parser(
        "bench-smoke", help="fast end-to-end self-check (fig4 pipeline)"
    )
    p_smoke.add_argument("--json", metavar="PATH", default=None)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: codebase invariants and netlist semantics",
        description="Run the repro.devtools.lint rules.  With no "
        "arguments, lints the source tree AND every registry circuit. "
        "Exit codes: 0 clean, 1 unsuppressed findings, 2 usage error.",
    )
    p_lint.add_argument(
        "names", nargs="*", metavar="CIRCUIT",
        help="registry circuits to check semantically (netlist rules)",
    )
    p_lint.add_argument(
        "--src", action="store_true",
        help="run the codebase rules (DET/FPR/LCK/ENG/ART/CFG) over "
        "the repro source tree",
    )
    p_lint.add_argument(
        "--circuits", dest="sweep", action="store_true",
        help="run the netlist rules (NET1xx) over every registry circuit",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI gate's input)",
    )
    p_lint.add_argument(
        "--rules", action="store_true",
        help="list every rule (id, title, rationale) and exit",
    )
    p_lint.add_argument(
        "--src-root", metavar="DIR", default=None,
        help="source root containing the repro package (default: the "
        "directory this installation imports repro from)",
    )
    p_lint.add_argument(
        "--tests-root", metavar="DIR", default=None,
        help="tests root for coverage-style rules (default: ./tests "
        "when present)",
    )

    # -- service verbs --------------------------------------------------
    p_serve = sub.add_parser(
        "serve", help="run the campaign service (HTTP/JSON job API)"
    )
    p_serve.add_argument(
        "--store", metavar="DIR", default=".repro-service",
        help="service root: job records and the content-addressed "
        "artifact store live here (default: .repro-service)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="bounded campaign-execution worker pool (default: 2)",
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request socket deadline; 0 disables (default: 30)",
    )

    p_submit = sub.add_parser(
        "submit", help="submit a campaign job to a running service"
    )
    p_submit.add_argument("circuit", help="registry name, e.g. fig4")
    _add_url_option(p_submit)
    p_submit.add_argument(
        "--spec", metavar="PATH", default=None,
        help="JSON job-spec file; the flags below override its values",
    )
    p_submit.add_argument("--faults-per-element", type=int, default=None)
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument(
        "--severity", nargs=2, type=float, metavar=("LOW", "HIGH"),
        default=None,
    )
    p_submit.add_argument("--shards", type=int, default=None, metavar="N")
    p_submit.add_argument("--tolerance", type=float, default=None)
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    p_submit.add_argument(
        "--events", action="store_true",
        help="stream progress events while waiting (implies --wait)",
    )
    p_submit.add_argument(
        "--json", metavar="PATH", default=None,
        help="fetch the result artifact here once done (implies --wait)",
    )

    p_status = sub.add_parser(
        "status", help="show a job (or all jobs) on a running service"
    )
    p_status.add_argument(
        "job", nargs="?", default=None,
        help="job id; omitted = one summary line per job",
    )
    _add_url_option(p_status)
    p_status.add_argument(
        "--events", action="store_true", help="also print the event log"
    )
    p_status.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )

    p_fetch = sub.add_parser(
        "fetch", help="download a stored artifact by fingerprint"
    )
    p_fetch.add_argument("fingerprint", help="sha256 store key (64 hex chars)")
    _add_url_option(p_fetch)
    p_fetch.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the artifact here instead of stdout",
    )

    p_audit = sub.add_parser(
        "audit",
        help="replay a recorded campaign and cross-check every engine pair",
    )
    p_audit.add_argument(
        "target",
        help="report-artifact JSON path, a run directory holding one, "
        "or a 64-hex store fingerprint (with --store)",
    )
    p_audit.add_argument(
        "--store", metavar="DIR", default=None,
        help="service artifact-store root (required for fingerprint "
        "targets)",
    )
    p_audit.add_argument(
        "--out", metavar="DIR", default=None,
        help="write the hash-manifested evidence bundle here",
    )
    p_audit.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result cache: replays of unchanged campaigns are served "
        "from (and published to) the 'audit' namespace",
    )
    p_audit.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the audit summary document here",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect a result cache: stats / gc / verify"
    )
    p_cache.add_argument(
        "action", choices=("stats", "gc", "verify"),
        help="stats: occupancy per namespace; gc: evict oldest entries "
        "down to --keep-gb; verify: re-read and re-hash every entry",
    )
    p_cache.add_argument("dir", help="cache root directory")
    p_cache.add_argument(
        "--keep-gb", type=float, default=None, metavar="G",
        help="gc: size bound in GiB the cache is trimmed down to",
    )
    p_cache.add_argument(
        "--namespace", metavar="NS", default=None,
        help="restrict gc/verify to one namespace",
    )
    return parser


def _add_url_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url", metavar="URL",
        default=os.environ.get("REPRO_SERVICE_URL", "http://127.0.0.1:8080"),
        help="service base URL (default: $REPRO_SERVICE_URL or "
        "http://127.0.0.1:8080)",
    )


def _add_generator_options(parser: argparse.ArgumentParser) -> None:
    # Defaults stay None: the config dataclasses own the real defaults
    # and with_overrides() only applies values the user actually passed.
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--element-tolerance", type=float, default=None)
    parser.add_argument("--comparator-budget", type=int, default=None)
    parser.add_argument(
        "--no-digital", action="store_true",
        help="skip the digital ATPG stage",
    )
    parser.add_argument(
        "--unconstrained", action="store_true",
        help="also run the stand-alone (unconstrained) digital ATPG",
    )


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig().with_overrides(
        tolerance=args.tolerance,
        element_tolerance=args.element_tolerance,
        comparator_budget=args.comparator_budget,
        include_digital=False if args.no_digital else None,
        include_unconstrained=True if args.unconstrained else None,
    )


def _stages(args: argparse.Namespace) -> tuple[str, ...] | None:
    # --no-digital needs no handling here: the pipeline itself vetoes
    # the atpg stage when include_digital is False.
    if getattr(args, "stages", None) is None:
        return None
    return tuple(s.strip() for s in args.stages.split(",") if s.strip())


# ----------------------------------------------------------------------
def _cmd_list(wb: Workbench, args: argparse.Namespace) -> int:
    print("circuits:")
    for spec in wb.list_circuits(args.kind):
        aliases = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"  {spec.name:16s} [{spec.kind:7s}] {spec.description}{aliases}")
    if args.kind is None:
        print("experiments:")
        print("  " + ", ".join(wb.list_experiments()))
    return 0


def _cmd_generate(wb: Workbench, args: argparse.Namespace) -> int:
    result = wb.generate(
        args.circuit,
        stages=_stages(args),
        generator=_generator_config(args),
    )
    print(result.summary())
    if args.json:
        path = result.to_artifact().save(args.json)
        print(f"artifact written: {path}")
    if args.program:
        path = result.program_artifact().save(args.program)
        print(f"program written: {path}")
    return 0


def _campaign_config(args: argparse.Namespace) -> CampaignConfig:
    cache_dir = args.cache_dir
    if args.resume_from is not None:
        if cache_dir is not None and (
            os.path.abspath(cache_dir) != os.path.abspath(args.resume_from)
        ):
            raise ConfigError(
                "--resume-from is an alias for --cache-dir; got two "
                f"directories ({args.resume_from!r} and {cache_dir!r})"
            )
        cache_dir = args.resume_from
    return CampaignConfig().with_overrides(
        faults_per_element=args.faults_per_element,
        severity_range=None if args.severity is None else tuple(args.severity),
        seed=args.seed,
        shards=args.shards,
        cache_dir=cache_dir,
    )


def _cmd_campaign(wb: Workbench, args: argparse.Namespace) -> int:
    result = wb.campaign(
        args.circuit,
        campaign=_campaign_config(args),
        generator=_generator_config(args),
    )
    print(result.summary())
    if args.json:
        path = result.to_artifact().save(args.json)
        print(f"artifact written: {path}")
    return 0


def _cmd_experiment(wb: Workbench, args: argparse.Namespace) -> int:
    from ..experiments.runner import format_section

    if args.name == "all":
        runs = [wb.run_experiment(name) for name in wb.list_experiments()]
        combined = "\n\n".join(format_section(run) for run in runs)
        print(combined)
        if args.json:
            from .artifact import Artifact

            seconds = sum(run.seconds for run in runs)
            path = Artifact.from_experiment("all", combined, seconds).save(
                args.json
            )
            print(f"artifact written: {path}")
        return 0
    run = wb.run_experiment(args.name)
    print(format_section(run))
    if args.json:
        path = run.to_artifact().save(args.json)
        print(f"artifact written: {path}")
    return 0


def _cmd_bench_smoke(wb: Workbench, args: argparse.Namespace) -> int:
    """End-to-end smoke: the fig4 flow must stay fast and healthy."""
    session = wb.session(
        campaign=CampaignConfig(faults_per_element=3, seed=7),
    )
    # Every stage except the (slow) deviation-matrix study: the smoke
    # must stay a few seconds to be a useful CI gate.
    result = session.run(
        "fig4",
        stages=("sensitivity", "stimulus", "conversion", "atpg", "campaign"),
    )
    print(result.summary())
    checks = {
        "analog coverage == 1": result.report.analog_coverage == 1.0,
        "digital vectors emitted": result.report.digital_run is not None
        and result.report.digital_run.n_vectors > 0,
        "campaign ran": result.campaign is not None
        and result.campaign.n_injected > 0,
        "guaranteed faults all caught": result.campaign is not None
        and result.campaign.guaranteed_detection_rate == 1.0,
        "artifact round-trips": _artifact_round_trips(result),
    }
    failed = [name for name, ok in checks.items() if not ok]
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    if args.json:
        path = result.to_artifact().save(args.json)
        print(f"artifact written: {path}")
    if failed:
        print(f"bench-smoke: {len(failed)} check(s) failed", file=sys.stderr)
        return 1
    print("bench-smoke: all checks passed")
    return 0


def _artifact_round_trips(result) -> bool:
    from .artifact import Artifact

    artifact = result.to_artifact()
    return Artifact.from_json(artifact.to_json()).to_json() == artifact.to_json()


# ----------------------------------------------------------------------
def _cmd_lint(wb: Workbench, args: argparse.Namespace) -> int:
    from ..devtools.lint import (
        LintError,
        LintReport,
        lint_registry,
        lint_source_tree,
        netlist_rules,
        source_rules,
    )

    if args.rules:
        for rule in [*source_rules(), *netlist_rules()]:
            print(f"{rule.id}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0

    # No selector at all means "lint everything".
    lint_src = args.src or not (args.sweep or args.names)
    lint_all_circuits = args.sweep or not (args.src or args.names)

    report = LintReport()
    try:
        if lint_src:
            src_root = args.src_root
            if src_root is None:
                from pathlib import Path

                # The directory `import repro` resolves from: works for
                # a checkout (src/) and an installed package alike.
                src_root = Path(__file__).resolve().parents[2]
            tests_root = args.tests_root
            if tests_root is None:
                from pathlib import Path

                tests_root = "tests" if Path("tests").is_dir() else None
            report.extend(lint_source_tree(src_root, tests_root=tests_root))
        if args.names:
            report.extend(lint_registry(names=args.names))
        elif lint_all_circuits:
            report.extend(lint_registry())
    except LintError as error:
        raise ConfigError(str(error)) from None

    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code


# ----------------------------------------------------------------------
# service verbs
# ----------------------------------------------------------------------
def _cmd_serve(wb: Workbench, args: argparse.Namespace) -> int:
    from ..service.http import serve

    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers!r}")
    return serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        verbose=not args.quiet,
        request_timeout=args.request_timeout or None,
    )


def _client(args: argparse.Namespace):
    from ..service.client import ServiceClient

    return ServiceClient(args.url)


def _load_spec_file(path: str) -> dict:
    """A job-spec JSON file as a dict (malformed files exit cleanly)."""
    import json as _json
    from pathlib import Path

    try:
        document = _json.loads(Path(path).read_text())
    except ValueError as error:
        raise ConfigError(f"spec file {path!r} is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"spec file {path!r} must hold a JSON object")
    return document


def _job_line(job: dict) -> str:
    # Accepts both the summary row (flat "circuit") and the full job
    # document (circuit nested in the spec).
    circuit = job.get("circuit") or job.get("spec", {}).get("circuit", "?")
    flags = " (from store)" if job.get("served_from_store") else ""
    suffix = f"  error: {job['error']}" if job.get("error") else ""
    return f"{job['job_id']}  {job['state']:9s} {circuit:16s}{flags}{suffix}"


def _print_events(events) -> None:
    for event in events:
        detail = ", ".join(
            f"{k}={v}" for k, v in event.items() if k not in ("seq", "ts", "kind")
        )
        print(f"  [{event['seq']:3d}] {event['kind']}" + (f": {detail}" if detail else ""))


def _finish_job(client, job: dict, args: argparse.Namespace) -> int:
    """Shared tail of submit/status --wait: report, fetch, exit code."""
    if getattr(args, "events", False):
        _print_events(client.stream_events(job["job_id"]))
        job = client.status(job["job_id"])
    elif args.wait or getattr(args, "json", None):
        job = client.wait(job["job_id"])
    print(_job_line(job))
    if job["state"] == "done" and getattr(args, "json", None):
        from pathlib import Path

        Path(args.json).write_text(client.artifact_text(job["artifact"]))
        print(f"artifact written: {args.json}")
    return 0 if job["state"] == "done" else 1


def _cmd_submit(wb: Workbench, args: argparse.Namespace) -> int:
    spec = _load_spec_file(args.spec) if args.spec else {}
    spec["circuit"] = args.circuit
    campaign = dict(spec.get("campaign") or {})
    campaign.update(
        {
            key: value
            for key, value in {
                "faults_per_element": args.faults_per_element,
                "seed": args.seed,
                "severity_range": None
                if args.severity is None
                else list(args.severity),
                "shards": args.shards,
            }.items()
            if value is not None
        }
    )
    generator = dict(spec.get("generator") or {})
    if args.tolerance is not None:
        generator["tolerance"] = args.tolerance
    client = _client(args)
    job = client.submit(
        args.circuit,
        campaign=campaign or None,
        generator=generator or None,
        atpg=spec.get("atpg") or None,
    )
    dedup = "  (deduplicated: identical work already known)" if job["deduplicated"] else ""
    print(f"submitted: {_job_line(job)}{dedup}")
    if args.wait or args.events or args.json:
        return _finish_job(client, job, args)
    return 0


def _cmd_status(wb: Workbench, args: argparse.Namespace) -> int:
    client = _client(args)
    if args.job is None:
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
            return 0
        for job in jobs:
            print(_job_line(job))
        return 0
    if args.wait:
        job = client.wait(args.job)
    else:
        job = client.status(args.job)
    print(_job_line(job))
    if job.get("fingerprint"):
        print(f"  fingerprint: {job['fingerprint']}")
    if args.events:
        _print_events(job.get("events") or client.status(args.job)["events"])
    return 0 if job["state"] not in ("failed", "cancelled") else 1


def _cmd_fetch(wb: Workbench, args: argparse.Namespace) -> int:
    text = _client(args).artifact_text(args.fingerprint)
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(text)
        print(f"artifact written: {args.json}")
    else:
        print(text, end="")
    return 0


def _cmd_audit(wb: Workbench, args: argparse.Namespace) -> int:
    from .audit import resolve_target, run_audit

    cache = None
    if args.cache_dir is not None:
        from ..core.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    artifact = resolve_target(args.target, store=args.store)
    audit = run_audit(
        artifact, out_dir=args.out, cache=cache, registry=wb.registry
    )
    print(audit.render_text())
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(audit.to_document(), indent=2, sort_keys=True) + "\n"
        )
        print(f"audit summary written: {args.json}")
    # 1 (not 2) on disagreement: the audit itself worked; what it
    # found is an engine-parity failure, which scripts must be able to
    # tell apart from usage errors.
    return 0 if audit.ok else 1


def _cmd_cache(wb: Workbench, args: argparse.Namespace) -> int:
    import json

    from ..core.cache import ResultCache

    cache = ResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if args.action == "gc":
        if args.keep_gb is None:
            raise ConfigError("cache gc needs --keep-gb")
        evicted = cache.gc(
            max_bytes=int(args.keep_gb * 2**30), namespace=args.namespace
        )
        for space, fingerprint in evicted:
            print(f"evicted {space}/{fingerprint}")
        print(f"gc: {len(evicted)} entr{'y' if len(evicted) == 1 else 'ies'} "
              "evicted")
        return 0
    report = cache.verify(namespace=args.namespace)
    for row in report["corrupt"]:
        print(
            f"corrupt {row['namespace']}/{row['fingerprint']}: {row['path']}",
            file=sys.stderr,
        )
    print(f"verify: {report['ok']}/{report['checked']} entries ok")
    return 0 if not report["corrupt"] else 1


_COMMANDS = {
    "list": _cmd_list,
    "generate": _cmd_generate,
    "campaign": _cmd_campaign,
    "experiment": _cmd_experiment,
    "bench-smoke": _cmd_bench_smoke,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "audit": _cmd_audit,
    "cache": _cmd_cache,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    wb = Workbench()
    try:
        return _COMMANDS[args.command](wb, args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `| head`): not an error.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't trip over the dead pipe.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # Ctrl-C on a long campaign (or a foreground `serve`) is a
        # deliberate stop, not a bug: no traceback, conventional 130.
        print("\ninterrupted", file=sys.stderr)
        return 130
    except (ConfigError, OSError) as error:
        # ConfigError covers bad values and unknown names (the service
        # layer's JobStateError included); OSError the --json file
        # writes and every client-side service failure (ServiceError).
        # Anything else is a genuine bug and keeps its traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
