"""Schedule search: CHESS baseline, Algorithm 2, strategies, aligners."""

from .base import (
    MemoEntry,
    ScheduleSearchBase,
    SearchOutcome,
    TestrunMemo,
    plan_fingerprint,
)
from .chess import ChessSearch
from .chessx import ChessXSearch
from .instcount import ContextPCAligner, InstructionCountAligner
from .parallel import (
    WorkerSessionSpec,
    default_worker_budget,
    in_worker,
    run_search,
    shared_pool,
    shutdown_shared_pool,
)
from .preemption import (
    BOTTOM_WEIGHT,
    FutureCSVIndex,
    PlannedPreemption,
    PreemptingScheduler,
    PreemptionCandidate,
    enumerate_candidates,
)
from .replay import (
    CheckpointCache,
    ReplayEngine,
    SchedulerPrefixState,
)
from .strategies import (
    SearchContext,
    build_chessx,
    resolve_strategy,
    strategy_names,
)

__all__ = [
    "MemoEntry",
    "ScheduleSearchBase",
    "SearchOutcome",
    "TestrunMemo",
    "WorkerSessionSpec",
    "default_worker_budget",
    "in_worker",
    "plan_fingerprint",
    "run_search",
    "shared_pool",
    "shutdown_shared_pool",
    "ChessSearch",
    "ChessXSearch",
    "FutureCSVIndex",
    "ContextPCAligner",
    "InstructionCountAligner",
    "BOTTOM_WEIGHT",
    "PlannedPreemption",
    "PreemptingScheduler",
    "PreemptionCandidate",
    "enumerate_candidates",
    "CheckpointCache",
    "ReplayEngine",
    "SchedulerPrefixState",
    "SearchContext",
    "build_chessx",
    "resolve_strategy",
    "strategy_names",
]
