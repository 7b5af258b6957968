"""The reproduction pipeline: staged sessions, batching, reports."""

from .batch import BatchResult, run_many, select_scenarios
from .bundle import ProgramBundle
from .config import ReproductionConfig
from .report import (
    PhaseTimings,
    READABLE_SCHEMAS,
    ReproductionReport,
    SCHEMA_VERSION,
)
from .session import (
    AnalysisResult,
    CsvPlan,
    ReproSession,
    run_passing_with_alignment,
)
from .stress import StressResult, stress_test, verify_passes_on_single_core

__all__ = [
    "AnalysisResult",
    "BatchResult",
    "CsvPlan",
    "PhaseTimings",
    "ProgramBundle",
    "READABLE_SCHEMAS",
    "ReproSession",
    "ReproductionConfig",
    "ReproductionReport",
    "SCHEMA_VERSION",
    "StressResult",
    "run_many",
    "run_passing_with_alignment",
    "select_scenarios",
    "stress_test",
    "verify_passes_on_single_core",
]
