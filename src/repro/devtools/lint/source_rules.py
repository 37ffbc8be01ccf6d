"""Frontend 1: codebase invariant rules over ``src/``.

Every rule here encodes an invariant the repository's trust story
depends on — byte-identical engine parity, fingerprint-keyed dedup,
deterministic sharding — that previously lived only in review
folklore.  Each rule's ``rationale`` names the historical bug class it
guards against; ``docs/lint-rules.md`` renders them.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from dataclasses import dataclass

from .engine import (
    Finding,
    LintReport,
    Project,
    Rule,
    SourceModule,
    apply_suppressions,
)

__all__ = [
    "FingerprintContract",
    "Det001UnseededRandomness",
    "Fpr002FingerprintCompleteness",
    "Lck003UnguardedMemoWrite",
    "Eng004UnknownEngineName",
    "Art005ArtifactKind",
    "Cfg006ConfigTruthiness",
    "Res007SwallowedException",
    "Cch008DirectDigest",
    "source_rules",
    "lint_source_text",
    "lint_source_tree",
]

#: where the repo's registries live, relative to the ``src`` root.
_CONFIG_MODULE = "repro/api/config.py"
_ARTIFACT_MODULE = "repro/api/artifact.py"
_SHARDING_MODULE = "repro/core/sharding.py"
_JOBS_MODULE = "repro/service/jobs.py"
_FINGERPRINT_MODULE = "repro/core/fingerprint.py"
_BACKENDS_MODULE = "repro/spice/backends.py"
_SIMULATE_MODULE = "repro/digital/simulate.py"


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _import_aliases(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """(module aliases, member aliases) for every import in the module.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import time as t`` -> ``{"t": ("time", "time")}``.
    """
    modules: dict[str, str] = {}
    members: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                members[alias.asname or alias.name] = (
                    node.module.split(".")[0],
                    alias.name,
                )
    return modules, members


def _is_self_attr(node: ast.expr) -> str | None:
    """``self.<name>`` -> name, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_initvar(annotation: ast.expr) -> bool:
    """``InitVar[...]``/``dataclasses.InitVar[...]``: an init-only
    parameter, not a dataclass field."""
    if not isinstance(annotation, ast.Subscript):
        return False
    base = annotation.value
    return (isinstance(base, ast.Name) and base.id == "InitVar") or (
        isinstance(base, ast.Attribute) and base.attr == "InitVar"
    )


def _dataclass_fields(tree: ast.Module, class_name: str) -> dict[str, str]:
    """Field name -> annotation source for a (data)class's AnnAssigns."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields: dict[str, str] = {}
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    name = statement.target.id
                    if name.startswith("_") or _is_initvar(
                        statement.annotation
                    ):
                        continue
                    fields[name] = ast.unparse(statement.annotation)
            return fields
    return {}


def _function_node(
    tree: ast.Module, qualname: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """Resolve ``fn`` or ``Class.method`` to its def node."""
    parts = qualname.split(".")
    body: Sequence[ast.stmt] = tree.body
    for index, part in enumerate(parts):
        found = None
        for node in body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == part
                and index == len(parts) - 1
            ):
                return node
            if isinstance(node, ast.ClassDef) and node.name == part:
                found = node
                break
        if found is None:
            return None
        body = found.body
    return None


# ----------------------------------------------------------------------
# DET001 — unseeded randomness / wall-clock reads
# ----------------------------------------------------------------------
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "paretovariate", "triangular",
        "vonmisesvariate", "weibullvariate", "getrandbits", "seed",
    }
)
_WALL_CLOCK_TIME = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})


class Det001UnseededRandomness(Rule):
    """Unseeded / global RNG and wall-clock reads."""

    id = "DET001"
    title = "unseeded randomness or wall-clock read"
    rationale = (
        "Campaign outcomes, fault populations and fingerprints must be "
        "functions of the config seed alone.  Module-level random.* "
        "calls, the global numpy RNG, random.Random() without a seed "
        "and wall-clock reads (time.time, datetime.now) all smuggle "
        "ambient state into results that are supposed to be "
        "reproducible artifacts.  time.perf_counter/monotonic stay "
        "legal: intervals are diagnostics, not identity."
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        modules, members = _import_aliases(module.tree)
        random_aliases = {a for a, m in modules.items() if m == "random"}
        numpy_aliases = {a for a, m in modules.items() if m == "numpy"}
        time_aliases = {a for a, m in modules.items() if m == "time"}
        datetime_aliases = {a for a, m in modules.items() if m == "datetime"}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                origin = members.get(func.id)
                if origin == ("random", "Random") and _unseeded(node):
                    yield self._flag(node, module, "random.Random() without a seed")
                elif origin and origin[0] == "random" and origin[1] in _GLOBAL_RANDOM_FNS:
                    yield self._flag(node, module, f"global random.{origin[1]}()")
                elif origin == ("time", "time") or origin == ("time", "time_ns"):
                    yield self._flag(node, module, f"wall-clock time.{origin[1]}()")
                continue
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in random_aliases:
                    if func.attr in _GLOBAL_RANDOM_FNS:
                        yield self._flag(
                            node, module, f"global random.{func.attr}()"
                        )
                    elif func.attr == "Random" and _unseeded(node):
                        yield self._flag(
                            node, module, "random.Random() without a seed"
                        )
                elif base.id in time_aliases and func.attr in _WALL_CLOCK_TIME:
                    yield self._flag(
                        node, module, f"wall-clock time.{func.attr}()"
                    )
                elif func.attr in _WALL_CLOCK_DATETIME and (
                    base.id in datetime_aliases
                    or members.get(base.id, ("", ""))[0] == "datetime"
                ):
                    yield self._flag(
                        node, module, f"wall-clock {base.id}.{func.attr}()"
                    )
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
            ):
                if base.value.id in numpy_aliases and base.attr == "random":
                    if func.attr == "default_rng" and not _unseeded(node):
                        continue  # np.random.default_rng(seed) is the fix
                    yield self._flag(
                        node, module, f"global numpy.random.{func.attr}()"
                    )
                elif (
                    base.value.id in datetime_aliases
                    and base.attr in ("datetime", "date")
                    and func.attr in _WALL_CLOCK_DATETIME
                ):
                    yield self._flag(
                        node,
                        module,
                        f"wall-clock datetime.{base.attr}.{func.attr}()",
                    )

    def _flag(self, node: ast.AST, module: SourceModule, what: str) -> Finding:
        return self.finding(
            f"{what} — thread a seeded random.Random / config value "
            "through instead (suppress only where the value is pure "
            "metadata, never outcome identity)",
            module.path,
            node.lineno,
        )


def _unseeded(call: ast.Call) -> bool:
    if call.keywords:
        return False
    if not call.args:
        return True
    return (
        len(call.args) == 1
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value is None
    )


# ----------------------------------------------------------------------
# FPR002 — fingerprint completeness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FingerprintContract:
    """One config-class/fingerprint-function pair under the rule.

    ``config_vars`` names the variables the fingerprint function reads
    config fields from (``config.seed`` / ``campaign.shards``);
    ``exclude_constant`` is the module-level collection listing fields
    deliberately outside the fingerprint.  ``implied_fields`` are
    config fields the function covers *through another argument*
    rather than by reading them — e.g. ``shard_fingerprint`` hashes
    the drawn fault slice itself, which fully determines ``seed`` /
    ``faults_per_element`` / ``severity_range`` — so they count as
    classified without an attribute access.
    """

    config_module: str
    config_class: str
    fingerprint_module: str
    function: str
    exclude_module: str
    exclude_constant: str
    config_vars: tuple[str, ...] = ("config",)
    implied_fields: tuple[str, ...] = ()


_DEFAULT_CONTRACTS = (
    FingerprintContract(
        config_module=_CONFIG_MODULE,
        config_class="CampaignConfig",
        fingerprint_module=_SHARDING_MODULE,
        function="campaign_fingerprint",
        exclude_module=_SHARDING_MODULE,
        exclude_constant="FINGERPRINT_EXCLUDED_FIELDS",
        config_vars=("config",),
    ),
    FingerprintContract(
        config_module=_CONFIG_MODULE,
        config_class="CampaignConfig",
        fingerprint_module=_JOBS_MODULE,
        function="JobSpec.fingerprint",
        exclude_module=_SHARDING_MODULE,
        exclude_constant="FINGERPRINT_EXCLUDED_FIELDS",
        config_vars=("campaign",),
    ),
    FingerprintContract(
        config_module=_CONFIG_MODULE,
        config_class="CampaignConfig",
        fingerprint_module=_SHARDING_MODULE,
        function="shard_fingerprint",
        exclude_module=_SHARDING_MODULE,
        exclude_constant="FINGERPRINT_EXCLUDED_FIELDS",
        config_vars=("config",),
        # The shard key hashes the fault slice itself; the knobs that
        # drew the population are determined by it.
        implied_fields=("seed", "faults_per_element", "severity_range"),
    ),
)


class Fpr002FingerprintCompleteness(Rule):
    """Every config field in the fingerprint or the documented excludes."""

    id = "FPR002"
    title = "config field missing from fingerprint include/exclude sets"
    rationale = (
        "Dedup identity and checkpoint validity are exactly the "
        "fingerprint.  A new CampaignConfig knob that is neither read "
        "by the fingerprint function nor listed in "
        "FINGERPRINT_EXCLUDED_FIELDS silently merges campaigns that "
        "differ (stale cache hits) or splits campaigns that agree "
        "(dedup misses).  The exclude list keeps every omission a "
        "reviewed decision."
    )

    def __init__(
        self, contracts: Sequence[FingerprintContract] | None = None
    ) -> None:
        self.contracts = tuple(
            contracts if contracts is not None else _DEFAULT_CONTRACTS
        )

    def check_project(self, project: Project) -> Iterable[Finding]:
        for contract in self.contracts:
            yield from self._check_contract(project, contract)

    def _check_contract(
        self, project: Project, contract: FingerprintContract
    ) -> Iterable[Finding]:
        config = project.module(contract.config_module)
        target = project.module(contract.fingerprint_module)
        if config is None or target is None:
            return  # partial projects (corpus snippets) check what exists
        fields = _dataclass_fields(config.tree, contract.config_class)
        function = _function_node(target.tree, contract.function)
        if not fields or function is None:
            return
        accessed = {
            node.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in contract.config_vars
        }
        excluded: tuple[str, ...] = ()
        exclude_module = project.module(contract.exclude_module)
        if exclude_module is not None:
            from .engine import _string_collection

            excluded = _string_collection(
                exclude_module.tree, contract.exclude_constant
            )
        line = function.lineno
        implied = set(contract.implied_fields)
        missing = sorted(set(fields) - accessed - set(excluded) - implied)
        if missing:
            yield self.finding(
                f"{contract.config_class} field(s) {missing} are neither "
                f"read by {contract.function} nor listed in "
                f"{contract.exclude_constant} — a knob must be consciously "
                "inside or outside the dedup identity",
                target.path,
                line,
            )
        stale = sorted(set(excluded) - set(fields))
        if stale:
            yield self.finding(
                f"{contract.exclude_constant} lists {stale}, which are not "
                f"fields of {contract.config_class} — stale exclude entries "
                "hide future completeness gaps",
                target.path,
                line,
            )
        contradicted = sorted(set(excluded) & accessed & set(fields))
        if contradicted:
            yield self.finding(
                f"field(s) {contradicted} are read by {contract.function} "
                f"but also listed in {contract.exclude_constant} — pick one",
                target.path,
                line,
            )
        implied_but_read = sorted(implied & accessed & set(fields))
        if implied_but_read:
            yield self.finding(
                f"field(s) {implied_but_read} are declared implied for "
                f"{contract.function} but the function reads them — drop "
                "the implied_fields entry or the attribute access",
                target.path,
                line,
            )


# ----------------------------------------------------------------------
# LCK003 — unguarded writes to lock-guarded shared memos
# ----------------------------------------------------------------------
_MUTATORS = frozenset(
    {
        "setdefault", "pop", "update", "clear", "append", "extend",
        "add", "remove", "discard", "insert", "popitem",
    }
)


@dataclass(frozen=True)
class _Mutation:
    base: tuple[str, str]  # ("attr"|"name", identifier)
    line: int
    guarded: bool
    method: str | None  # enclosing method name for class scopes


class Lck003UnguardedMemoWrite(Rule):
    """Writes to lock-guarded shared state outside the lock."""

    id = "LCK003"
    title = "write to a lock-guarded shared memo outside its lock"
    rationale = (
        "The threaded fan-out's determinism rests on first-write-wins "
        "memos: every mutation of a memo that is lock-guarded anywhere "
        "must be lock-guarded everywhere (construction in __init__ "
        "excepted).  PR 5 fixed exactly this class of race in the "
        "factorized engine's gain/detect memos and FactorizedMna._ys."
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        for node in module.tree.body:
            yield from self._scan_toplevel(node, module)

    def _scan_toplevel(
        self, node: ast.stmt, module: SourceModule
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            yield from self._check_class(node, module)
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(child, module)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_function(node, module)

    # -- instance-attribute flavour ------------------------------------
    def _check_class(
        self, cls: ast.ClassDef, module: SourceModule
    ) -> Iterator[Finding]:
        locks = {
            attr
            for stmt in ast.walk(cls)
            if isinstance(stmt, ast.Assign)
            and _is_lock_call(stmt.value)
            for target in stmt.targets
            if (attr := _is_self_attr(target)) is not None
        }
        if not locks:
            return
        mutations = self._collect(cls, locks, kind="attr")
        yield from self._verdicts(mutations, module, exempt_method="__init__")

    # -- local-variable flavour ----------------------------------------
    def _check_function(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        module: SourceModule,
    ) -> Iterator[Finding]:
        locks = {
            target.id
            for stmt in ast.walk(fn)
            if isinstance(stmt, ast.Assign) and _is_lock_call(stmt.value)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        if not locks:
            return
        mutations = self._collect(fn, locks, kind="name")
        yield from self._verdicts(mutations, module, exempt_method=None)

    def _verdicts(
        self,
        mutations: list[_Mutation],
        module: SourceModule,
        exempt_method: str | None,
    ) -> Iterator[Finding]:
        guarded_names = {m.base for m in mutations if m.guarded}
        for mutation in mutations:
            if mutation.guarded or mutation.base not in guarded_names:
                continue
            if exempt_method is not None and mutation.method == exempt_method:
                continue
            kind, name = mutation.base
            display = f"self.{name}" if kind == "attr" else name
            yield self.finding(
                f"{display} is mutated under its lock elsewhere, but this "
                "write is unguarded — take the lock (first-write-wins via "
                "setdefault) or suppress with a why-this-is-single-threaded "
                "comment",
                module.path,
                mutation.line,
            )

    def _collect(self, scope, locks: set[str], kind: str) -> list[_Mutation]:
        mutations: list[_Mutation] = []

        def visit(node: ast.AST, guarded: bool, method: str | None) -> None:
            if isinstance(node, ast.With):
                covers = any(
                    self._names_lock(item.context_expr, locks, kind)
                    for item in node.items
                )
                for child in ast.iter_child_nodes(node):
                    visit(child, guarded or covers, method)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Entering a method of a class scope names it; nested
                # defs inherit the enclosing guard state (a with-lock
                # wrapping a def does not guard the def's later calls).
                # ``*_locked`` methods are guarded by convention: they
                # document that the caller holds the lock.
                inner_method = node.name if method is None and kind == "attr" else method
                for child in ast.iter_child_nodes(node):
                    visit(child, node.name.endswith("_locked"), inner_method)
                return
            base = self._mutated_base(node, kind)
            if base is not None:
                mutations.append(_Mutation(base, node.lineno, guarded, method))
            for child in ast.iter_child_nodes(node):
                visit(child, guarded, method)

        if isinstance(scope, ast.ClassDef):
            for child in scope.body:
                visit(child, False, None)
        else:
            for child in scope.body:
                visit(child, False, getattr(scope, "name", None) if kind == "attr" else None)
        return mutations

    def _names_lock(self, expr: ast.expr, locks: set[str], kind: str) -> bool:
        if kind == "attr":
            attr = _is_self_attr(expr)
            return attr is not None and attr in locks
        return isinstance(expr, ast.Name) and expr.id in locks

    def _mutated_base(
        self, node: ast.AST, kind: str
    ) -> tuple[str, str] | None:
        def base_of(expr: ast.expr) -> tuple[str, str] | None:
            if kind == "attr":
                attr = _is_self_attr(expr)
                return None if attr is None else ("attr", attr)
            if isinstance(expr, ast.Name):
                return ("name", expr.id)
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    base = base_of(target.value)
                    if base is not None:
                        return base
                elif kind == "attr" and not isinstance(node, ast.AugAssign):
                    # Rebinding a published self-attr outside __init__.
                    base = base_of(target)
                    if base is not None and not _is_lock_call(node.value):
                        return base
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            return base_of(node.func.value)
        return None


def _is_lock_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("Lock", "RLock", "Condition", "Semaphore")
    )


# ----------------------------------------------------------------------
# ENG004 — engine/backend literals must be registered names
# ----------------------------------------------------------------------
class Eng004UnknownEngineName(Rule):
    """``engine=``/``backend=`` string literals outside the registries."""

    id = "ENG004"
    title = "engine/backend literal is not a registered name"
    rationale = (
        "Engine and backend names are registries (BACKEND_NAMES, "
        "DIGITAL_ENGINES) that configs and engines validate at "
        "runtime — but comparisons and call sites deep in "
        "the stack are not validated, so a typo ('factorised', 'spare') "
        "silently selects a dead branch instead of failing.  Every "
        "literal must be a member of its registry."
    )

    #: keyword / attribute name -> (module, registry constant) pairs
    #: that define it; each registry is read where it is defined.
    _SOURCES = {
        "engine": ((_SIMULATE_MODULE, "DIGITAL_ENGINES"),),
        "backend": ((_BACKENDS_MODULE, "BACKEND_NAMES"),),
        "digital_engine": ((_SIMULATE_MODULE, "DIGITAL_ENGINES"),),
    }

    def __init__(self, known: Mapping[str, frozenset[str]] | None = None):
        self._known = None if known is None else dict(known)

    def _registry(self, project: Project) -> dict[str, frozenset[str]]:
        if self._known is None:
            self._known = {
                key: frozenset(
                    name
                    for module, constant in sources
                    for name in project.tuple_constant(module, constant)
                )
                for key, sources in self._SOURCES.items()
            }
        return self._known

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        known = self._registry(project)
        if not any(known.values()):
            return  # no registries found (partial project): nothing to check
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg in known:
                        yield from self._check_literal(
                            keyword.value, keyword.arg, known, module
                        )
            elif isinstance(node, ast.Compare):
                left = node.left
                key = (
                    left.attr
                    if isinstance(left, ast.Attribute)
                    else left.id
                    if isinstance(left, ast.Name)
                    else None
                )
                if key in known and all(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    for op in node.ops
                ):
                    for comparator in node.comparators:
                        yield from self._check_literal(
                            comparator, key, known, module
                        )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in known:
                        if node.value is not None:
                            yield from self._check_literal(
                                node.value, target.id, known, module
                            )

    def _check_literal(
        self,
        value: ast.expr,
        key: str,
        known: Mapping[str, frozenset[str]],
        module: SourceModule,
    ) -> Iterator[Finding]:
        literals: list[ast.Constant] = []
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            literals.append(value)
        elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            literals.extend(
                e
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
        for literal in literals:
            if literal.value not in known[key]:
                registered = sorted(known[key])
                yield self.finding(
                    f"{key}={literal.value!r} is not a registered name; "
                    f"known: {registered}",
                    module.path,
                    literal.lineno,
                )


# ----------------------------------------------------------------------
# ART005 — artifact kinds: registered and round-trip-tested
# ----------------------------------------------------------------------
class Art005ArtifactKind(Rule):
    """Artifact ``kind=`` literals registered; each kind test-covered."""

    id = "ART005"
    title = "artifact kind unregistered or without round-trip coverage"
    rationale = (
        "Artifacts are the durable interface: checkpoints, job records "
        "and service results all round-trip through kind-specific "
        "codecs.  A kind constructed but not in ARTIFACT_KINDS fails "
        "only when first loaded; a registered kind with no test "
        "mentioning it can drift silently.  Both directions are "
        "checked."
    )

    def __init__(
        self,
        kinds: Sequence[str] | None = None,
        require_test_coverage: bool = True,
    ) -> None:
        self._kinds = None if kinds is None else tuple(kinds)
        self.require_test_coverage = require_test_coverage

    def _registered(self, project: Project) -> tuple[str, ...]:
        if self._kinds is None:
            self._kinds = project.tuple_constant(
                _ARTIFACT_MODULE, "ARTIFACT_KINDS"
            )
        return self._kinds

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        kinds = self._registered(project)
        if not kinds:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_artifact_constructor(node, module):
                continue
            for keyword in node.keywords:
                if (
                    keyword.arg == "kind"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                    and keyword.value.value not in kinds
                ):
                    yield self.finding(
                        f"artifact kind {keyword.value.value!r} is not in "
                        f"ARTIFACT_KINDS {sorted(kinds)} — register it (and "
                        "add a round-trip test) before constructing it",
                        module.path,
                        keyword.value.lineno,
                    )

    def _is_artifact_constructor(
        self, node: ast.Call, module: SourceModule
    ) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("Artifact", "read_artifact"):
                return True
            # ``cls(kind=...)`` inside Artifact's own classmethods.
            return func.id == "cls" and "class Artifact" in module.text
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id == "Artifact"
        return False

    def check_project(self, project: Project) -> Iterable[Finding]:
        if not self.require_test_coverage:
            return
        kinds = self._registered(project)
        if not kinds:
            return
        uncovered = set(kinds)
        for _, text in project.tests_texts():
            uncovered -= {
                kind
                for kind in uncovered
                if re.search(rf"[\"']{re.escape(kind)}[\"']", text)
            }
            if not uncovered:
                return
        artifact = project.module(_ARTIFACT_MODULE)
        path = _ARTIFACT_MODULE if artifact is not None else "<project>"
        for kind in sorted(uncovered):
            yield self.finding(
                f"artifact kind {kind!r} appears in no test file — every "
                "kind needs a round-trip test exercising its codec",
                path,
                _constant_line(artifact, "ARTIFACT_KINDS") if artifact else 0,
            )


def _constant_line(module: SourceModule | None, name: str) -> int:
    if module is None:
        return 0
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.lineno
    return 0


# ----------------------------------------------------------------------
# CFG006 — truthiness on config fields admitting 0/False
# ----------------------------------------------------------------------
class Cfg006ConfigTruthiness(Rule):
    """``or``-chains on config fields whose type admits falsy values."""

    id = "CFG006"
    title = "or-chain default on a config field that admits 0"
    rationale = (
        "`value or default` treats an explicit 0 as unset — the PR 5 "
        "max_workers=0 trap, generalized.  For every numeric config "
        "field (seed, shards, workers, budgets, tolerances) the unset "
        "sentinel is None, so the test must be `is None`, never "
        "truthiness."
    )

    #: config classes whose numeric fields are protected.
    _CLASSES = (
        "GeneratorConfig", "CampaignConfig", "AtpgConfig", "SessionConfig",
    )

    def __init__(self, fields: Sequence[str] | None = None) -> None:
        self._fields = None if fields is None else frozenset(fields)

    def _risky_fields(self, project: Project) -> frozenset[str]:
        if self._fields is None:
            config = project.module(_CONFIG_MODULE)
            risky: set[str] = set()
            if config is not None:
                for class_name in self._CLASSES:
                    for name, annotation in _dataclass_fields(
                        config.tree, class_name
                    ).items():
                        if annotation.startswith(("tuple", "list", "dict")):
                            continue
                        if "bool" in annotation:
                            continue
                        if "int" in annotation or "float" in annotation:
                            risky.add(name)
            self._fields = frozenset(risky)
        return self._fields

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        risky = self._risky_fields(project)
        if not risky:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BoolOp) or not isinstance(
                node.op, ast.Or
            ):
                continue
            # Every operand but the last is truthiness-tested.
            for operand in node.values[:-1]:
                name = (
                    operand.attr
                    if isinstance(operand, ast.Attribute)
                    else operand.id
                    if isinstance(operand, ast.Name)
                    else None
                )
                if name in risky:
                    yield self.finding(
                        f"`{ast.unparse(operand)} or ...` treats an explicit "
                        f"0 as unset; {name} admits 0 — test `is None` "
                        "explicitly (the PR 5 max_workers trap)",
                        module.path,
                        operand.lineno,
                    )


# ----------------------------------------------------------------------
# RES007 — broad excepts must record or re-raise, never swallow
# ----------------------------------------------------------------------
class Res007SwallowedException(Rule):
    """Broad ``except`` in core/service that neither records nor raises."""

    id = "RES007"
    title = "broad except swallows a failure without evidence"
    rationale = (
        "The resilience contract is: every failure leaves evidence — a "
        "FailureRecord artifact, an event, or a re-raise the "
        "caller can see.  A bare `except Exception: pass` (or one that "
        "only logs a message and drops the exception object) in the "
        "executor or service layers converts a real fault into silent "
        "data loss: a shard that never ran, a job stuck forever.  "
        "Handlers must re-raise, build a FailureRecord, or at minimum "
        "use the caught exception in a call (error propagation)."
    )

    #: only the layers whose failures must leave durable evidence;
    #: experiments, plotting and devtools may legitimately best-effort.
    _SCOPES = ("repro/core/", "repro/service/")

    #: callables whose invocation counts as "recording the failure".
    _RECORDERS = frozenset(
        {"FailureRecord", "from_exception", "from_failure", "record_failure"}
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        if not module.path.startswith(self._SCOPES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_responsibly(node):
                continue
            caught = ast.unparse(node.type) if node.type else "everything"
            yield self.finding(
                f"`except {caught}` neither re-raises, records a "
                "FailureRecord, nor uses the caught exception — a "
                "swallowed failure leaves no evidence for the caller "
                "or the job log (narrow the except, or suppress with "
                "a why-silence-is-correct comment)",
                module.path,
                node.lineno,
            )

    def _is_broad(self, annotation: ast.expr | None) -> bool:
        if annotation is None:
            return True  # a bare `except:`
        names = (
            annotation.elts
            if isinstance(annotation, ast.Tuple)
            else [annotation]
        )
        return any(
            isinstance(name, ast.Name)
            and name.id in ("Exception", "BaseException")
            for name in names
        )

    def _handles_responsibly(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if callee in self._RECORDERS:
                return True
            if handler.name is not None and any(
                isinstance(leaf, ast.Name) and leaf.id == handler.name
                for arg in [*node.args, *[k.value for k in node.keywords]]
                for leaf in ast.walk(arg)
            ):
                # The exception object flows onward (into an event, an
                # error message, a failure row): not swallowed.
                return True
        return False


# ----------------------------------------------------------------------
# CCH008 — digests flow through the one fingerprint module
# ----------------------------------------------------------------------
class Cch008DirectDigest(Rule):
    """``hashlib`` digests belong in :mod:`repro.core.fingerprint`."""

    id = "CCH008"
    title = "direct hashlib digest outside repro/core/fingerprint.py"
    rationale = (
        "Every cache key, store fingerprint and manifest hash must be "
        "one implementation away from the canonical-JSON contract in "
        "repro/core/fingerprint.py.  A direct hashlib call elsewhere "
        "can drift (different separators, key order, encoding) and "
        "silently split or merge cache identities; route it through "
        "fingerprint_of/sha256_bytes/sha256_text instead."
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        if module.path == _FINGERPRINT_MODULE:
            return
        modules, members = _import_aliases(module.tree)
        hash_modules = {
            alias for alias, name in modules.items() if name == "hashlib"
        }
        hash_members = {
            alias
            for alias, (origin, _) in members.items()
            if origin == "hashlib"
        }
        if not hash_modules and not hash_members:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            direct = (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in hash_modules
            )
            imported = isinstance(func, ast.Name) and func.id in hash_members
            if direct or imported:
                yield self.finding(
                    f"`{ast.unparse(func)}(...)` hashes outside "
                    "repro/core/fingerprint.py — use fingerprint_of/"
                    "sha256_bytes/sha256_text so every digest shares the "
                    "canonical contract",
                    module.path,
                    node.lineno,
                )


# ----------------------------------------------------------------------
# the frontend drivers
# ----------------------------------------------------------------------
def source_rules() -> list[Rule]:
    """Fresh instances of every codebase rule, repo defaults applied."""
    return [
        Det001UnseededRandomness(),
        Fpr002FingerprintCompleteness(),
        Lck003UnguardedMemoWrite(),
        Eng004UnknownEngineName(),
        Art005ArtifactKind(),
        Cfg006ConfigTruthiness(),
        Res007SwallowedException(),
        Cch008DirectDigest(),
    ]


def lint_project(
    project: Project, rules: Sequence[Rule] | None = None
) -> LintReport:
    """Run codebase rules over a :class:`Project`."""
    active = list(rules) if rules is not None else source_rules()
    report = LintReport()
    for module in project.modules():
        found: list[Finding] = []
        for rule in active:
            found.extend(rule.check_module(module, project))
        report.findings.extend(apply_suppressions(found, module))
        report.files_checked += 1
    # Cross-file rules: suppressions of the module a finding lands in
    # still apply (so an exclude-list decision can be annotated there).
    for rule in active:
        for finding in rule.check_project(project):
            module = project.module(finding.path)
            if module is not None:
                finding = apply_suppressions([finding], module)[0]
            report.findings.append(finding)
    return report


def lint_source_tree(
    src_root: str | Path,
    tests_root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint a source tree on disk (the ``--src`` frontend)."""
    return lint_project(Project(src_root, tests_root), rules)


def lint_source_text(
    text: str,
    path: str = "snippet.py",
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint one in-memory snippet (the self-test corpus entry point)."""
    return lint_project(Project(files={path: text}), rules)
