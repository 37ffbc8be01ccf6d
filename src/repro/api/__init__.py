"""repro.api — the unified workbench over the whole reproduction.

One typed, batch-capable front door to test generation, campaigns,
experiments and serialization:

* :mod:`repro.api.config`   — frozen, validated config dataclasses,
* :mod:`repro.api.registry` — every circuit addressable by name,
* :mod:`repro.api.pipeline` — composable stages with per-stage timing,
* :mod:`repro.api.session`  — :class:`Workbench` / :class:`TestSession`
  facade with ``run_batch`` and a shared compiled-BDD pool,
* :mod:`repro.api.artifact` — one versioned JSON scheme for reports,
  programs, campaigns, ATPG runs and experiments,
* :mod:`repro.api.cli`      — the ``python -m repro`` command line.

Only the config module is imported eagerly (it is dependency-free, so
lower layers such as :mod:`repro.core` can import it without cycles);
everything else loads on first attribute access.
"""

from .config import (
    AtpgConfig,
    CampaignConfig,
    ConfigError,
    GeneratorConfig,
    SessionConfig,
    UnknownNameError,
)

__all__ = [
    "AtpgConfig",
    "CampaignConfig",
    "ConfigError",
    "GeneratorConfig",
    "SessionConfig",
    "UnknownNameError",
    "CircuitRegistry",
    "CircuitSpec",
    "default_registry",
    "Artifact",
    "AtpgSummary",
    "Pipeline",
    "PipelineOutcome",
    "StageTiming",
    "DEFAULT_STAGES",
    "FULL_STAGES",
    "STAGE_ORDER",
    "Workbench",
    "TestSession",
    "SessionResult",
    "ExperimentRun",
    "main",
]

#: attribute name -> submodule that defines it (loaded lazily, PEP 562).
_LAZY = {
    "CircuitRegistry": "registry",
    "CircuitSpec": "registry",
    "default_registry": "registry",
    "Artifact": "artifact",
    "AtpgSummary": "artifact",
    "Pipeline": "pipeline",
    "PipelineOutcome": "pipeline",
    "StageTiming": "pipeline",
    "DEFAULT_STAGES": "pipeline",
    "FULL_STAGES": "pipeline",
    "STAGE_ORDER": "pipeline",
    "Workbench": "session",
    "TestSession": "session",
    "SessionResult": "session",
    "ExperimentRun": "session",
    "main": "cli",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
