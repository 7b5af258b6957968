"""Fault-tolerant execution: supervision over the shared process pool.

The reproduction pipeline fans work out over one persistent process pool
(:func:`repro.exec.pool.shared_pool`) at four layers — plan-level
schedule search, stress seed sweeps, scenario-level batches and service
jobs.  A pool worker is not immortal: it can be OOM-killed mid-shard,
wedge on a pathological schedule, return a blob that does not unpickle,
or die in its initializer.  This package makes every one of those
failures a recoverable event instead of a lost batch:

* :mod:`.backoff` — the codebase's one bounded-retry/exponential-backoff
  implementation (deterministic jitter, no ``PYTHONHASHSEED`` leaks);
* :mod:`.faults` — a seed-deterministic :class:`FaultPlan` that injects
  worker kills, hangs, corrupted result blobs, and initializer failures
  at reproducible points, so every recovery path is property-testable;
* :mod:`.supervisor` — the :class:`Supervisor` wrapping pool submission
  with per-task deadlines, heartbeat liveness checks, bounded retry,
  automatic pool rebuild, poisoned-task quarantine (serial in-process
  re-run), and structured degradation notes;
* :mod:`.pool` — the process-wide shared pool and its lifecycle
  (liveness checks, rebuilds, signal-safe shutdown, :func:`in_worker`);
* :mod:`.fanout` — :func:`first_match`, the one ordered fan-out
  primitive: the lowest-index hit of a canonical worklist plus the
  serial-equivalent prefix before it (search and stress are its
  clients).

Nothing here imports the search or pipeline layers.
"""

from .backoff import backoff_delay, backoff_delays, call_with_backoff, seed_int
from .faults import (
    CORRUPT_RESULT,
    FAULT_KINDS,
    HANG_WORKER,
    INIT_FAILURE,
    KILL_WORKER,
    FaultInstruction,
    FaultPlan,
    corrupt_or,
    maybe_inject,
)
from .fanout import ResolvedPrefix, first_match
from .supervisor import (
    ExecStats,
    ExecutionDegraded,
    SupervisedTask,
    Supervisor,
    SupervisionPolicy,
    policy_from_config,
    record_degradation,
)

__all__ = [
    "CORRUPT_RESULT",
    "ExecStats",
    "ExecutionDegraded",
    "FAULT_KINDS",
    "FaultInstruction",
    "FaultPlan",
    "HANG_WORKER",
    "INIT_FAILURE",
    "KILL_WORKER",
    "ResolvedPrefix",
    "SupervisedTask",
    "Supervisor",
    "SupervisionPolicy",
    "backoff_delay",
    "backoff_delays",
    "call_with_backoff",
    "corrupt_or",
    "first_match",
    "maybe_inject",
    "policy_from_config",
    "record_degradation",
    "seed_int",
]
