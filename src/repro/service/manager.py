"""The job manager: dedup, queueing, and supervised execution.

:class:`JobManager` is the service's engine room, deliberately
HTTP-agnostic (the front-end in :mod:`repro.service.http` is a thin
translation layer over it, and tests drive it directly):

* **Submission dedup.**  Every submission is identified before it is
  enqueued by :func:`repro.pipeline.batch.submission_identity` — the
  same ``(fingerprint, effective config)`` identity ``run_many`` aliases
  duplicate batch entries by.  A submission matching a live or completed
  job returns that canonical job instead of creating a second run; only
  failed or cancelled jobs are eligible for re-submission.
* **One shared pool.**  Jobs execute through
  :class:`repro.exec.Supervisor` on the process-wide shared pool
  (:func:`repro.exec.pool.shared_pool`), so service traffic,
  ``run_many`` batches, and plan-level search sharding all draw from a
  single worker budget — and every supervision rung (retry with
  backoff, deadline reclamation, pool rebuild, quarantine to an
  in-process re-run) applies to service jobs unchanged.
* **One worker body.**  A job runs
  :func:`repro.pipeline.batch._run_one` — byte-for-byte the batch
  driver's worker — so a report served by the service is identical to
  the one ``run_many`` would produce for the same scenario and config
  (pinned by ``tests/service/test_equivalence.py``).
* **KB on the same path.**  A manager configured with ``kb_path`` hands
  it to every job's config, so sessions warm-start from the knowledge
  base and record their winning plans exactly as batch sessions do.

The dispatcher is one daemon thread alternating between launching
queued jobs (keeping at most ``workers`` in flight) and ticking the
supervisor; with ``workers=1`` jobs run inline in the dispatcher thread
— the exact serial path of ``run_many`` — which is also the mode the
byte-identity property is pinned in.
"""

import dataclasses
import os
import tempfile
import threading
from functools import partial

from ..exec.supervisor import Supervisor, policy_from_config
from ..pipeline.batch import _run_one, submission_identity, valid_row
from ..pipeline.config import ReproductionConfig
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    ProgressSpool,
    new_job_id,
    read_progress,
)
from .store import ReportStore


class UnknownScenarioError(KeyError):
    """Submission names a scenario the registry does not know."""


class UnknownJobError(KeyError):
    """A job id the manager has never issued."""


class JobManager:
    """Accept, dedup, schedule, and serve reproduction jobs.

    Parameters
    ----------
    config:
        Base :class:`ReproductionConfig` for every job; per-submission
        overrides are merged field-wise on top.
    workers:
        Jobs in flight at once.  ``1`` (default) runs jobs inline in the
        dispatcher thread; ``> 1`` dispatches them onto the shared
        process pool under supervision.
    stress_seed_stop:
        Default stress seed-sweep bound per job (overridable per
        submission).
    store:
        A :class:`~repro.service.store.ReportStore` (or a path to root
        one at) persisting every completed report.  ``None`` keeps
        reports in memory only.
    spool_dir:
        Directory for per-job progress spool files (a temp dir by
        default).
    """

    def __init__(self, config=None, workers=1, stress_seed_stop=8000,
                 store=None, spool_dir=None):
        self.config = (config or ReproductionConfig()).validate()
        self.workers = max(1, int(workers))
        self.stress_seed_stop = stress_seed_stop
        if store is not None and not isinstance(store, ReportStore):
            store = ReportStore(store)
        self.store = store
        self._spool_dir = spool_dir or tempfile.mkdtemp(prefix="repro-svc-")
        os.makedirs(self._spool_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        self._queue: list[str] = []
        #: (fingerprint, config_key) -> canonical job id
        self._by_identity: dict[tuple, str] = {}
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread = None
        self._supervisor = None
        self._task_job: dict = {}
        #: worker body; tests substitute a stub to drive lifecycle
        #: scenarios (slow jobs, failures) without real sessions
        self._runner = _run_one

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._dispatch_loop, name="repro-service-dispatch",
                    daemon=True)
                self._thread.start()
        return self

    def stop(self, timeout_s=10.0):
        """Stop dispatching; running pool work is abandoned, not killed."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # -- submission ---------------------------------------------------------

    def submit(self, scenario, config_overrides=None, stress_seed_stop=None):
        """Submit one scenario; returns ``(job, deduped)``.

        ``config_overrides`` is a dict of :class:`ReproductionConfig`
        field overrides (unknown fields and invalid values raise
        ``ValueError`` before anything is enqueued).  A submission
        identical to a live or completed job — same program
        fingerprint, same effective config — is deduped: the canonical
        job is returned with ``deduped=True`` and nothing re-runs.
        """
        config = self._effective_config(config_overrides)
        seed_stop = self.stress_seed_stop if stress_seed_stop is None \
            else stress_seed_stop
        try:
            identity = submission_identity(scenario, config, seed_stop)
        except KeyError as exc:
            raise UnknownScenarioError(str(exc)) from None
        name = scenario if isinstance(scenario, str) else scenario.name
        with self._lock:
            canonical_id = self._by_identity.get(identity)
            if canonical_id is not None:
                canonical = self._jobs[canonical_id]
                # failed/cancelled jobs do not block a retry submission
                if canonical.state not in (FAILED, CANCELLED):
                    canonical.submissions += 1
                    return canonical, True
            job = JobRecord(
                job_id=new_job_id(), scenario=name, fingerprint=identity[0],
                config_key=identity[1], config=config,
                stress_seed_stop=seed_stop)
            job.progress_path = os.path.join(self._spool_dir,
                                             job.job_id + ".progress")
            self._jobs[job.job_id] = job
            self._by_identity[identity] = job.job_id
            self._queue.append(job.job_id)
        self._wake.set()
        return job, False

    def _effective_config(self, overrides):
        if not overrides:
            return self.config
        known = {f.name for f in dataclasses.fields(ReproductionConfig)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError("unknown config field(s): %s"
                             % ", ".join(unknown))
        return dataclasses.replace(self.config, **overrides).validate()

    # -- queries ------------------------------------------------------------

    def job(self, job_id):
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError("unknown job %r" % (job_id,)) \
                    from None

    def status_doc(self, job_id):
        """The job's status document, stage progress included."""
        job = self.job(job_id)
        return job.to_doc(stages=read_progress(job.progress_path))

    def jobs(self, state=None, scenario=None, fingerprint=None):
        """Job records matching every given facet, oldest first."""
        with self._lock:
            records = list(self._jobs.values())
        return [job for job in records
                if (state is None or job.state == state)
                and (scenario is None or job.scenario == scenario)
                and (fingerprint is None or job.fingerprint == fingerprint)]

    def report_json(self, job_id):
        """A done job's report text (memory first, then the store)."""
        job = self.job(job_id)
        if job.report_json is not None:
            return job.report_json
        if self.store is not None:
            return self.store.fetch(job_id)
        raise KeyError("job %s has no report (state: %s)"
                       % (job_id, job.state))

    # -- cancellation -------------------------------------------------------

    def cancel(self, job_id):
        """Cancel a job; terminal jobs raise :class:`JobStateError`.

        Queued jobs cancel immediately.  A running job is *abandoned*:
        its pool task is cancelled if it has not started and its result
        is discarded either way — ``concurrent.futures`` cannot kill a
        busy worker, and tearing the shared pool down would take every
        other tenant's work with it.
        """
        with self._lock:
            job = self.job(job_id)
            job.transition(CANCELLED)
            if job.job_id in self._queue:
                self._queue.remove(job.job_id)
            for task, owner in self._task_job.items():
                if owner == job.job_id:
                    task.cancel()
        self._wake.set()
        return job

    # -- the dispatcher -----------------------------------------------------

    def _dispatch_loop(self):
        while not self._stop.is_set():
            launched = self._launch_ready()
            supervisor = self._supervisor
            if supervisor is not None:
                supervisor.tick()
                for task in supervisor.drain():
                    self._finish_task(task)
            if not launched and not self._inflight():
                self._wake.wait(timeout=0.05)
                self._wake.clear()

    def _inflight(self):
        supervisor = self._supervisor
        return len(supervisor.active()) if supervisor is not None else 0

    def _launch_ready(self):
        """Start queued jobs while capacity remains; returns how many."""
        launched = 0
        while True:
            with self._lock:
                if self._stop.is_set() or not self._queue \
                        or self._inflight() >= self.workers:
                    return launched
                job = self._jobs[self._queue.pop(0)]
                job.transition(RUNNING)
            launched += 1
            if self.workers == 1:
                self._run_inline(job)
            else:
                self._submit_supervised(job)

    def _run_inline(self, job):
        """The serial path: the batch driver's worker body, in-process."""
        try:
            row = self._runner(job.scenario, job.config,
                               job.stress_seed_stop,
                               progress=ProgressSpool(job.progress_path))
        except Exception as exc:  # noqa: BLE001 — a job never kills the loop
            row = (job.scenario, None,
                   _error_doc("exec", type(exc).__name__, str(exc)))
        self._finish(job, row)

    def _submit_supervised(self, job):
        if self._supervisor is None:
            policy = policy_from_config(self.config)
            self._supervisor = Supervisor(self.workers, policy,
                                          stage="service")
        name = job.scenario
        task = self._supervisor.submit(
            self._runner, name, job.config, job.stress_seed_stop,
            ProgressSpool(job.progress_path),
            key=job.job_id,
            deadline_s=self._supervisor.policy.deadline_for(1),
            validate=partial(valid_row, name))
        with self._lock:
            self._task_job[task] = job.job_id

    def _finish_task(self, task):
        with self._lock:
            job_id = self._task_job.pop(task, None)
        if job_id is None:
            return
        job = self._jobs[job_id]
        if task.failed:
            row = (job.scenario, None,
                   _error_doc("exec", type(task.error).__name__,
                              str(task.error)))
        else:
            row = tuple(task.result)
        self._finish(job, row)

    def _finish(self, job, row):
        """Record one finished run; cancelled jobs discard the result."""
        _name, report_json, error = row
        with self._lock:
            if job.state == CANCELLED:
                return
            if error is not None:
                if isinstance(error, dict):
                    job.error = dict(error)
                else:  # a BatchError from the worker body
                    job.error = _error_doc(
                        getattr(error, "stage", "exec"),
                        getattr(error, "exc_type", type(error).__name__),
                        getattr(error, "message", str(error)))
                job.transition(FAILED)
                return
            job.report_json = report_json
            job.transition(DONE)
            # stored under the lock, so no status read sees DONE before
            # the store has the report
            if self.store is not None:
                try:
                    self.store.put(job, report_json)
                except Exception as exc:  # noqa: BLE001 — serve from memory
                    job.error = _error_doc("store", type(exc).__name__,
                                           str(exc))


def _error_doc(stage, exc_type, message):
    return {"stage": stage, "exc_type": exc_type, "message": message}
