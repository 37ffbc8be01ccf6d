"""Analog test method (reproduction of BenHamida & Kaminska, ITC 1993)."""

from .parameters import (
    ParameterKind,
    PerformanceParameter,
    standard_filter_parameters,
)
from .sensitivity import SensitivityMatrix, sensitivity, sensitivity_matrix
from .deviation import (
    UNTESTABLE,
    DeviationMatrix,
    DeviationResult,
    deviation_matrix,
    worst_case_deviation,
)
from .selection import (
    TestSetSelection,
    coverage_document,
    select_parameters_greedy,
    select_parameters_maxcoverage,
    select_parameters_mincover,
)
from .faults import (
    AnalogFault,
    AnalogFaultKind,
    catastrophic_faults,
    open_fault,
    parametric,
    short_fault,
)
from .faultsim import (
    CampaignResult,
    FactorizedEngine,
    FaultSpec,
    InjectionOutcome,
    ReferenceEngine,
    draw_faults,
    step_order,
)

__all__ = [
    "ParameterKind",
    "PerformanceParameter",
    "standard_filter_parameters",
    "sensitivity",
    "SensitivityMatrix",
    "sensitivity_matrix",
    "worst_case_deviation",
    "DeviationResult",
    "DeviationMatrix",
    "deviation_matrix",
    "UNTESTABLE",
    "TestSetSelection",
    "coverage_document",
    "select_parameters_greedy",
    "select_parameters_maxcoverage",
    "select_parameters_mincover",
    "AnalogFault",
    "AnalogFaultKind",
    "parametric",
    "open_fault",
    "short_fault",
    "catastrophic_faults",
    "InjectionOutcome",
    "CampaignResult",
    "FaultSpec",
    "draw_faults",
    "step_order",
    "ReferenceEngine",
    "FactorizedEngine",
]
