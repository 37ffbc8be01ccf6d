"""repro — reproduction of "Automatic Test Vector Generation for
Mixed-Signal Circuits" (Ayari, BenHamida & Kaminska, DATE 1995).

The package is organized as the paper's system is:

* :mod:`repro.bdd` — ROBDD engine (the Boolean-manipulation substrate),
* :mod:`repro.digital` — gate-level netlists, faults, simulation,
* :mod:`repro.atpg` — backtrack-free constrained stuck-at ATPG and
  composite-value (D) propagation,
* :mod:`repro.spice` — linear MNA analog simulator,
* :mod:`repro.analog` — sensitivities, worst-case element deviations,
  test-parameter selection,
* :mod:`repro.conversion` — flash ADC, thermometer constraints, ladder
  element testing,
* :mod:`repro.core` — the mixed-signal test generator tying it together,
* :mod:`repro.circuits` — the paper's example circuits,
* :mod:`repro.experiments` — regenerators for every table and figure,
* :mod:`repro.api` — the unified workbench: typed configs, a circuit
  registry, a staged pipeline, batch runs, versioned artifacts, and
  the ``python -m repro`` CLI.

Quickstart (the workbench is the canonical entry point)::

    from repro.api import Workbench

    wb = Workbench()                      # all circuits, by name
    result = wb.session().run("fig4")     # sensitivity→stimulus→…→atpg
    print(result.summary())               # report + per-stage timings
    result.to_artifact().save("fig4.json")  # one versioned JSON scheme

Batch mode runs the same pipeline over many circuits::

    results = wb.session().run_batch(["fig4", "example3-c432"])

The same flows are scriptable from the shell::

    python -m repro list
    python -m repro generate fig4 --json out.json
    python -m repro campaign fig4 --faults-per-element 8
    python -m repro experiment table1
    python -m repro bench-smoke

The object layer underneath (:class:`MixedSignalTestGenerator`'s
per-element recipes and comparator observability, ``run_campaign``,
``run_atpg``) takes the same typed configs as ``config=``; the whole
flow is :class:`repro.api.Pipeline`.
"""

from .core import (
    MixedSignalCircuit,
    MixedSignalTestGenerator,
    MixedTestReport,
    StateVariableBoard,
)

# The configs are dependency-free and already loaded via repro.core.
from .api.config import (
    AtpgConfig,
    CampaignConfig,
    GeneratorConfig,
    SessionConfig,
)

__version__ = "1.1.0"

#: workbench symbols re-exported lazily (PEP 562) so that a bare
#: ``import repro`` doesn't pull in the whole facade stack.
_API_LAZY = ("Workbench", "TestSession", "Artifact")


def __getattr__(name: str):
    if name in _API_LAZY:
        from . import api

        value = getattr(api, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_LAZY))

__all__ = [
    "MixedSignalCircuit",
    "MixedSignalTestGenerator",
    "MixedTestReport",
    "StateVariableBoard",
    "Workbench",
    "TestSession",
    "Artifact",
    "GeneratorConfig",
    "CampaignConfig",
    "AtpgConfig",
    "SessionConfig",
    "__version__",
]
