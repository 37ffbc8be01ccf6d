"""Mixed-signal automatic test vector generation — the paper's contribution."""

from .mixed_circuit import MixedSignalCircuit
from .stimulus import Bound, StimulusChoice, choose_stimulus, gain_exchange_rate
from .activation import ActivationResult, activate
from .coverage import AnalogElementTest, AnalogTestStatus, MixedTestReport
from .generator import MixedSignalTestGenerator
from .board import StateVariableBoard, Table8Row
from .campaign import CampaignResult, InjectionOutcome, run_campaign
from .resilience import FailureRecord, RetryPolicy
from .sharding import (
    ShardExecutionError,
    ShardHeartbeat,
    ShardRetry,
    run_sharded_campaign,
    shard_bounds,
)
from .diagnose import Diagnosis, build_dictionary, diagnose
from .program_io import TestProgram, dumps, loads, program_from_report
from .report import format_ed, format_seconds, format_table

__all__ = [
    "MixedSignalCircuit",
    "Bound",
    "StimulusChoice",
    "choose_stimulus",
    "gain_exchange_rate",
    "ActivationResult",
    "activate",
    "AnalogElementTest",
    "AnalogTestStatus",
    "MixedTestReport",
    "MixedSignalTestGenerator",
    "StateVariableBoard",
    "Table8Row",
    "Diagnosis",
    "build_dictionary",
    "diagnose",
    "TestProgram",
    "program_from_report",
    "dumps",
    "loads",
    "CampaignResult",
    "InjectionOutcome",
    "run_campaign",
    "run_sharded_campaign",
    "shard_bounds",
    "ShardExecutionError",
    "ShardHeartbeat",
    "ShardRetry",
    "FailureRecord",
    "RetryPolicy",
    "format_table",
    "format_ed",
    "format_seconds",
]
