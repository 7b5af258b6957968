"""Reproduction as a service: async front-end over the repro pipeline.

The service turns the batch-shaped system into a long-lived one: an
asyncio HTTP front-end (:mod:`repro.service.http`) accepts scenario
submissions, dedups them by program fingerprint, runs each as a
supervised job on the process-wide shared pool
(:mod:`repro.service.manager`), streams per-stage progress, and
persists completed reports in a queryable store
(:mod:`repro.service.store`).  ``python -m repro serve`` starts it;
:class:`ServiceClient` (or plain ``curl``) talks to it.  The full HTTP
API is documented in ``docs/api.md``.
"""

from .client import ServiceClient, ServiceError
from .http import ReproService, ServiceThread
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STAGES,
    TERMINAL_STATES,
    JobRecord,
    JobStateError,
    ProgressSpool,
    read_progress,
)
from .manager import (
    JobManager,
    UnknownJobError,
    UnknownScenarioError,
)
from .store import ReportStore, signature_key

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "STAGES",
    "TERMINAL_STATES",
    "JobManager",
    "JobRecord",
    "JobStateError",
    "ProgressSpool",
    "ReportStore",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "UnknownJobError",
    "UnknownScenarioError",
    "read_progress",
    "signature_key",
]
