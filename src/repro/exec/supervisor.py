"""The pool supervisor: retries, deadlines, quarantine, degradation.

:class:`Supervisor` sits between a driver loop (sharded parallel search,
stress seed sweeps, scenario batches) and the process-wide shared pool.
Drivers submit *tasks* — a picklable function plus arguments and a
stable key — and collect terminal results; the supervisor owns every
way an attempt can die in between:

* **Worker death** (``BrokenProcessPool`` from a kill/OOM/initializer
  failure): the pool is rebuilt — hung or dead workers terminated, a
  fresh executor started — and every in-flight attempt is resubmitted
  after a deterministic-jitter backoff.
* **Hangs**: each task carries a deadline (explicit, or derived from
  recorded step counts by the caller); a heartbeat tick watches running
  attempts and reclaims the pool when one blows its deadline — the only
  way to free a slot occupied by a wedged worker.
* **Corruption**: a per-task validator rejects results that came back
  structurally wrong (fault-injected blobs, truncated shards); invalid
  results are retried like any other failure.  A result that fails to
  *unpickle* surfaces as an attempt exception and takes the same path.
* **Quarantine**: a task that keeps failing past the retry budget is
  poisoned — it is re-run *serially in the driver process*, where no
  pickle boundary and no worker lifecycle can hurt it, so one bad shard
  can never sink the whole search.
* **Degradation**: if even the serial re-run fails, the task is
  terminally failed; drivers turn that into :class:`ExecutionDegraded`
  and fall back to their fully-serial paths, recording a structured
  degradation note in :class:`ExecStats` (surfaced through the report
  schema).

Every recovery preserves determinism: retried work re-executes the same
pure function, so reductions downstream see byte-identical inputs no
matter how many workers died along the way.
"""

import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import Optional

from .backoff import backoff_delay, seed_int
from .faults import INIT_FAILURE, FaultPlan, arm_init_fault, disarm_init_fault
from .pool import rebuild_shared_pool, shared_pool, shared_pool_healthy

#: task states
_PENDING = "pending"
_RUNNING = "running"
_RETRY_WAIT = "retry-wait"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"
_TERMINAL = (_DONE, _FAILED, _CANCELLED)

#: exceptions meaning "the pool (not the task) died under us"
_POOL_FAILURES = (BrokenProcessPool, )


class ExecutionDegraded(RuntimeError):
    """A supervised execution exhausted every recovery rung.

    Drivers catch this to fall back to their serial paths; the
    structured note lands in :meth:`ExecStats.notes` via
    :func:`record_degradation`.
    """

    def __init__(self, stage, reason, detail="", key=None):
        super().__init__("%s execution degraded (%s): %s"
                         % (stage, reason, detail))
        self.stage = stage
        self.reason = reason
        self.detail = detail
        self.key = key


@dataclass
class ExecStats:
    """Counters (and degradation notes) of one supervised scope.

    A :class:`~repro.pipeline.session.ReproSession` owns one instance
    across all its stages; ``run_many`` owns another for the batch
    driver itself.  The counters surface additively in the report
    schema's ``PhaseTimings`` and in ``python -m repro`` output.
    """

    retries: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    deadline_expiries: int = 0
    #: injected faults the ladder saw: counted when the faulted attempt's
    #: outcome is read (an init fault: at its poisoned rebuild)
    faults_injected: int = 0
    degraded: int = 0
    #: structured DegradedExecution notes: {stage, reason, detail} dicts
    notes: list = field(default_factory=list)

    def note(self, stage, reason, detail=""):
        self.notes.append({"stage": stage, "reason": reason,
                           "detail": detail})

    def to_doc(self):
        return {"retries": self.retries, "quarantined": self.quarantined,
                "pool_rebuilds": self.pool_rebuilds,
                "deadline_expiries": self.deadline_expiries,
                "faults_injected": self.faults_injected,
                "degraded": self.degraded, "notes": list(self.notes)}

    def merge_doc(self, doc):
        """Fold another scope's counters (e.g. a worker session's) in."""
        for spec in fields(self):
            if spec.name == "notes":
                self.notes.extend(doc.get("notes", ()))
            else:
                setattr(self, spec.name,
                        getattr(self, spec.name) + int(doc.get(spec.name, 0)))
        return self

    def any_recovery(self):
        return bool(self.retries or self.quarantined or self.pool_rebuilds
                    or self.deadline_expiries or self.degraded)


def record_degradation(stats, stage, reason, detail=""):
    """Count + note one graceful degradation (serial fallback taken)."""
    if stats is not None:
        stats.degraded += 1
        stats.note(stage, reason, detail)


@dataclass
class SupervisionPolicy:
    """Knobs of the supervision layer (defaults favor patience).

    ``deadline_s`` is a per-unit wall allowance (a unit being one plan
    of a shard, one stress seed chunk, one batch scenario).  When None,
    :meth:`deadline_for` derives a deadline from the caller's recorded
    step counts — or imposes none at all when no hint exists, matching
    the pre-supervision behaviour of waiting indefinitely.
    """

    deadline_s: Optional[float] = None
    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    #: liveness-check cadence of the supervisor's wait loop
    heartbeat_s: float = 0.25
    fault_plan: Optional[FaultPlan] = None
    stats: Optional[ExecStats] = None
    #: generous per-step wall bound used when deriving deadlines from
    #: recorded step counts (interpreter steps run in the tens of
    #: microseconds; 1 ms/step is a pure-hang discriminator)
    step_cost_s: float = 1e-3
    min_deadline_s: float = 10.0
    max_deadline_s: float = 600.0

    def deadline_for(self, units=1, step_hint=None):
        """The wall deadline for a task of ``units`` work items.

        ``step_hint`` is the recorded step count of one unit (e.g. the
        passing run's schedule length for a search testrun).
        """
        if self.deadline_s is not None:
            return self.deadline_s * max(1, units)
        if not step_hint:
            return None
        estimate = max(1, units) * step_hint * self.step_cost_s
        return min(self.max_deadline_s, max(self.min_deadline_s, estimate))


def policy_from_config(config, stats=None):
    """The session/batch policy a ``ReproductionConfig`` describes."""
    return SupervisionPolicy(
        deadline_s=config.shard_deadline_s,
        max_retries=config.max_shard_retries,
        backoff_base_s=config.backoff_base_s,
        fault_plan=FaultPlan.parse(config.fault_plan),
        stats=stats)


class SupervisedTask:
    """One retryable unit of pool work and its supervision state."""

    __slots__ = ("fn", "args", "key", "deadline_s", "validate", "serial_fn",
                 "attempts", "future", "deadline_at", "eligible_at",
                 "result", "error", "state", "delivered", "fault")

    def __init__(self, fn, args, key, deadline_s, validate, serial_fn):
        self.fn = fn
        self.args = args
        self.key = key
        self.deadline_s = deadline_s
        self.validate = validate
        self.serial_fn = serial_fn
        self.attempts = 0          # launches so far (pool attempts only)
        self.future = None
        self.deadline_at = None    # monotonic; armed once observed running
        self.eligible_at = 0.0     # backoff gate for the next launch
        self.result = None
        self.error = None          # terminal error after quarantine failed
        self.state = _PENDING
        self.delivered = False
        self.fault = None          # fault injected into the attempt in flight

    @property
    def done(self):
        return self.state == _DONE

    @property
    def failed(self):
        return self.state == _FAILED

    def cancel(self):
        """Drop the task: nothing past this point reads its result."""
        if self.state in _TERMINAL:
            return
        if self.future is not None:
            self.future.cancel()
            self.future = None
        self.state = _CANCELLED
        self.delivered = True


class Supervisor:
    """Supervised submission onto the shared pool (one driver loop each)."""

    def __init__(self, workers, policy=None, stage="exec"):
        self.workers = max(1, workers)
        self.policy = policy or SupervisionPolicy()
        self.stats = self.policy.stats \
            if self.policy.stats is not None else ExecStats()
        self.stage = stage
        self._tasks = []

    # -- pool plumbing --------------------------------------------------------

    def _rebuild_pool(self, poison_init=False):
        """Kill + replace the pool; optionally with a poisoned initializer."""
        if poison_init:
            arm_init_fault()
        else:
            disarm_init_fault()
        rebuild_shared_pool(self.workers)
        self.stats.pool_rebuilds += 1

    # -- submission -----------------------------------------------------------

    def submit(self, fn, *args, key, deadline_s=None, validate=None,
               serial_fn=None):
        """Supervise ``fn(*args)`` on the pool; returns its task handle.

        ``key`` must be stable across retries (it seeds backoff jitter
        and addresses fault injection).  ``validate(result)`` (optional)
        must return truthy for a structurally sound result.
        ``serial_fn()`` (optional, defaults to calling ``fn`` inline) is
        the quarantine path: a fault-free, in-process re-run.
        """
        task = SupervisedTask(fn, args, key, deadline_s, validate, serial_fn)
        self._tasks.append(task)
        self._launch(task)
        return task

    def active(self):
        return [t for t in self._tasks if t.state not in _TERMINAL]

    def _launch(self, task):
        fault = None
        plan = self.policy.fault_plan
        if plan is not None:
            fault = plan.instruction_for(self.stage, task.key, task.attempts)
        task.attempts += 1
        if fault is not None and fault.kind == INIT_FAILURE:
            # arm the env flag and force fresh workers under it: the
            # next result collection surfaces BrokenProcessPool,
            # driving the rebuild path end to end
            self.stats.faults_injected += 1
            self._rebuild_pool(poison_init=True)
            fault = None
        task.fault = fault
        kwargs = {} if fault is None else {"fault": fault}
        try:
            task.future = shared_pool(self.workers).submit(
                task.fn, *task.args, **kwargs)
        except (*_POOL_FAILURES, RuntimeError) as exc:
            # the pool died between health check and submit
            self._rebuild_pool()
            self._attempt_failed(task, exc)
            return
        task.state = _RUNNING
        task.deadline_at = None

    # -- failure ladder -------------------------------------------------------

    def _attempt_failed(self, task, exc):
        task.future = None
        if task.attempts > self.policy.max_retries:
            self._quarantine(task, exc)
            return
        self.stats.retries += 1
        delay = backoff_delay(
            task.attempts - 1, base_s=self.policy.backoff_base_s,
            max_s=self.policy.backoff_max_s,
            seed=seed_int(self.stage, task.key))
        task.eligible_at = time.monotonic() + delay
        task.state = _RETRY_WAIT

    def _quarantine(self, task, exc):
        """Last pool-free rung: re-run the task serially in-process."""
        self.stats.quarantined += 1
        try:
            if task.serial_fn is not None:
                result = task.serial_fn()
            else:
                result = task.fn(*task.args)
            if not self._valid(task, result):
                raise ValueError(
                    "quarantined re-run of task %r returned an invalid "
                    "result" % (task.key,))
        except Exception as serial_exc:  # noqa: BLE001 — terminal rung
            task.error = serial_exc
            task.state = _FAILED
            return
        task.result = result
        task.state = _DONE

    def _valid(self, task, result):
        if task.validate is None:
            return True
        try:
            return bool(task.validate(result))
        except Exception:  # noqa: BLE001 — validator crash == invalid
            return False

    def _collapse_pool(self, reason):
        """Rebuild the pool and resubmit every in-flight attempt.

        Old futures are abandoned (their executor is shut down with
        terminated workers); relying on them to resolve would wait on a
        corpse.
        """
        running = [t for t in self._tasks if t.state == _RUNNING]
        self._rebuild_pool()
        for task in running:
            self._count_fault(task)
            self._attempt_failed(task, reason)

    # -- result absorption ----------------------------------------------------

    def _count_fault(self, task):
        """Count the fault of ``task``'s attempt once its outcome is read.

        An attempt cancelled while still running (a chunk past the
        winner) is never read, so its fault is not counted: the count is
        of faults the recovery ladder saw.
        """
        if task.fault is not None:
            self.stats.faults_injected += 1
            task.fault = None

    def _absorb(self, task, future):
        self._count_fault(task)
        try:
            result = future.result()
        except _POOL_FAILURES as exc:
            self._collapse_pool(exc)
            return
        except Exception as exc:  # raised in the worker, or unpicklable
            self._attempt_failed(task, exc)
            return
        if not self._valid(task, result):
            self._attempt_failed(
                task, ValueError("invalid (corrupt?) result for task %r"
                                 % (task.key,)))
            return
        task.result = result
        task.state = _DONE

    # -- the wait loop --------------------------------------------------------

    def drain(self):
        """Collect every not-yet-delivered terminal task, without blocking.

        Cancelled tasks are never surfaced.  Together with :meth:`tick`
        this is the non-blocking half of the supervision API: a
        long-lived driver (the service front-end's dispatcher) that must
        keep accepting new submissions while work is in flight calls
        ``tick()`` / ``drain()`` in its own loop instead of parking in
        :meth:`wait_any`.
        """
        fresh = [t for t in self._tasks
                 if t.state in (_DONE, _FAILED) and not t.delivered]
        for task in fresh:
            task.delivered = True
        return fresh

    def tick(self):
        """One supervision heartbeat (bounded by ``policy.heartbeat_s``).

        Launches retry-eligible tasks, waits briefly on running futures,
        absorbs results, and enforces deadlines and pool liveness — the
        body of :meth:`wait_any`, exposed so external loops can
        interleave supervision with their own work.  A no-op when
        nothing is active.
        """
        if self.active():
            self._step()

    def wait_any(self):
        """Block until at least one task turns terminal; return those.

        Returns every not-yet-delivered done/failed task (cancelled
        tasks are never surfaced).  Returns ``[]`` only when no task can
        ever finish (nothing active).
        """
        while True:
            fresh = self.drain()
            if fresh:
                return fresh
            if not self.active():
                return []
            self._step()

    def _step(self):
        """One heartbeat tick: resubmit, wait, absorb, enforce deadlines."""
        now = time.monotonic()
        for task in self._tasks:
            if task.state == _RETRY_WAIT and now >= task.eligible_at:
                self._launch(task)

        running = [t for t in self._tasks
                   if t.state == _RUNNING and t.future is not None]
        waiting = [t for t in self._tasks if t.state == _RETRY_WAIT]
        if not running:
            if waiting:
                soonest = min(t.eligible_at for t in waiting)
                time.sleep(min(self.policy.heartbeat_s,
                               max(0.0, soonest - time.monotonic())))
            return

        timeout = self.policy.heartbeat_s
        for task in running:
            if task.deadline_at is not None:
                timeout = min(timeout, task.deadline_at - now)
        for task in waiting:
            timeout = min(timeout, task.eligible_at - now)
        done, _ = wait([t.future for t in running],
                       timeout=max(0.01, timeout),
                       return_when=FIRST_COMPLETED)

        by_future = {t.future: t for t in running}
        for future in done:
            task = by_future[future]
            if task.state != _RUNNING or task.future is not future:
                continue  # collapsed or cancelled while we looped
            self._absorb(task, future)

        # heartbeat: arm deadline clocks once attempts are observed
        # running, expire the overdue, and watch pool liveness — a pool
        # whose workers died without failing a future yet is reclaimed
        # here instead of waited on forever
        now = time.monotonic()
        expired = []
        still_running = [t for t in self._tasks
                         if t.state == _RUNNING and t.future is not None]
        for task in still_running:
            if task.deadline_at is None:
                if task.deadline_s is not None and \
                        (task.future.running() or task.future.done()):
                    task.deadline_at = now + task.deadline_s
            elif now >= task.deadline_at:
                expired.append(task)
        if expired:
            self.stats.deadline_expiries += len(expired)
            self._collapse_pool(
                TimeoutError("deadline expired on %d task(s), first key %r"
                             % (len(expired), expired[0].key)))
        elif still_running and not shared_pool_healthy():
            self._collapse_pool(RuntimeError("shared pool lost a worker"))

    # -- driver conveniences --------------------------------------------------

    def raise_if_failed(self, task):
        """Escalate a terminally failed task to :class:`ExecutionDegraded`."""
        if task.failed:
            raise ExecutionDegraded(
                self.stage, "task-failed",
                "%s: %s" % (type(task.error).__name__, task.error),
                key=task.key)
