"""Reduced ordered BDD package — the paper's Boolean-manipulation substrate."""

from .manager import FALSE, TRUE, BddError, BddManager
from .ops import (
    cofactor_generalized,
    constraint_from_terms,
    equivalent,
    is_contradiction,
    is_tautology,
    minimize_path,
    project,
)
from .ordering import fanin_order
from .dumper import to_dot, to_text

__all__ = [
    "BddManager",
    "BddError",
    "FALSE",
    "TRUE",
    "constraint_from_terms",
    "minimize_path",
    "project",
    "cofactor_generalized",
    "is_tautology",
    "is_contradiction",
    "equivalent",
    "fanin_order",
    "to_dot",
    "to_text",
]
