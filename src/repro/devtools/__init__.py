"""Developer tooling: static analysis over the codebase and circuits.

:mod:`repro.devtools.lint` is the two-frontend linter — codebase
invariant rules over ``src/`` and semantic netlist rules over registry
circuits — exposed as ``python -m repro lint``.
"""

from .lint import (
    Finding,
    LintReport,
    Rule,
    lint_circuit,
    lint_registry,
    lint_source_text,
    lint_source_tree,
    netlist_rules,
    source_rules,
)

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "lint_circuit",
    "lint_registry",
    "lint_source_text",
    "lint_source_tree",
    "netlist_rules",
    "source_rules",
]
