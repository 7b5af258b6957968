"""The sharded parallel schedule search executor.

One :meth:`~repro.pipeline.session.ReproSession.search` drives thousands
of testruns whose outcomes are mutually independent — each is a
deterministic function of its preemption plan.  This module fans those
testruns out over a persistent process pool while keeping the reported
:class:`~repro.search.base.SearchOutcome` *provably identical* to serial
search:

* The driver enumerates the strategy's worklist in canonical order
  (exactly the serial ``plans()`` generator), assigns each plan its
  canonical index, and dispatches contiguous, ascending shards.
* Workers are long-lived.  Each lazily rebuilds its testrun context —
  interpreter bundle plus its own prefix-replay
  :class:`~repro.search.replay.ReplayEngine` — from a pickled
  :class:`WorkerSessionSpec`, cached across shards by session token, so
  the per-shard cost is just the runs themselves.
* Reduction is deterministic: the reported reproduction is the
  reproducing plan with the *lowest canonical index* (what serial search
  would have found first), and ``tries`` / ``total_steps`` /
  ``tries_by_size`` are reconstructed from the per-index results of the
  serial-equivalent prefix ``[0, winner]`` — speculative runs beyond the
  winner never pollute the accounting.
* Shards are dispatched in geometrically growing waves (1, 2, 4, ... up
  to :data:`MAX_SHARD_SIZE` plans) so a guided search that reproduces on
  its first try pays one tiny round-trip, while an unguided chess sweep
  amortizes dispatch overhead over large shards.  Once a winner is
  known, shards beyond it are trimmed or cancelled.

The executor shares one process pool across the whole process (see
:func:`shared_pool`): scenario-level batching
(:func:`~repro.pipeline.batch.run_many`) and plan-level sharding draw
from a single worker budget, and a search launched *inside* a pool
worker degrades to serial instead of nesting pools and oversubscribing
the machine.

The session's cross-strategy :class:`~repro.search.base.TestrunMemo` is
consulted in a driver-side pre-pass — duplicate plans are served without
dispatch — and every completed run (including speculative ones) is
folded back in, so chess warms the memo for chessX and vice versa.

Dispatch is *supervised* (:mod:`repro.exec`): shards carry deadlines
derived from the recorded step counts, dead or hung workers trigger a
pool rebuild and a backed-off resubmission, a shard that keeps failing
is quarantined to a serial in-process re-run, and if even that fails the
whole search degrades gracefully to the serial path.  Because every
recovery re-executes the same pure plan→outcome function, the reduction
below sees byte-identical inputs regardless of how many workers died.
"""

import atexit
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from ..exec.faults import corrupt_or, maybe_inject, raise_if_init_fault_armed
from ..exec.supervisor import (
    ExecutionDegraded,
    SupervisionPolicy,
    Supervisor,
    record_degradation,
)
from ..coredump.compare import matches_failure_signature
from .base import MemoEntry, SearchOutcome, plan_fingerprint
from .preemption import PreemptingScheduler
from .replay import ReplayEngine

#: Upper bound on plans per shard; beyond this, dispatch overhead is
#: already well amortized and smaller shards keep cancellation granular.
MAX_SHARD_SIZE = 32

_IN_WORKER_ENV = "REPRO_POOL_WORKER"


# ---------------------------------------------------------------------------
# the shared process pool (one worker budget for the whole process)
# ---------------------------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def default_worker_budget():
    """Workers the machine affords this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def in_worker():
    """True inside a shared-pool worker process.

    Used to flatten nested parallelism: a batch worker running a full
    session keeps its plan-level search serial, so scenario- and
    plan-level parallelism draw from the one pool instead of
    oversubscribing.
    """
    return os.environ.get(_IN_WORKER_ENV) == "1"


def _worker_init():
    os.environ[_IN_WORKER_ENV] = "1"
    raise_if_init_fault_armed()


def _pool_alive(pool):
    """Whether a pool can still be trusted with new submissions."""
    if pool is None:
        return False
    if getattr(pool, "_broken", False):
        return False
    if getattr(pool, "_shutdown_thread", False):
        return False
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            if not proc.is_alive():
                return False
    return True


def shared_pool_healthy():
    """Whether the cached shared pool (if any) is alive and submittable."""
    return _pool_alive(_pool)


def _kill_pool_workers(pool):
    """Terminate a pool's worker processes (hung workers included)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:  # pragma: no cover - racing process teardown
            pass


def _retire_pool(pool, kill=False):
    """Let go of a pool: gracefully on grow, forcibly on failure."""
    if pool is None:
        return
    if kill:
        _kill_pool_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
    else:
        # a healthy-but-small pool finishes its in-flight work
        pool.shutdown(wait=False)


def shared_pool(workers):
    """The process-wide persistent worker pool, grown on demand.

    The pool is created lazily and only ever grows (an old, smaller pool
    is retired without cancelling its in-flight work).  Callers bound
    their own concurrency by how much they submit; the pool size caps
    what actually runs at once.  A cached pool is validated before
    reuse — broken (``BrokenProcessPool``), shut down, or holding dead
    worker processes (OOM kill, segfault) all mean it is killed and
    replaced, so one broken batch never poisons parallelism for the rest
    of the process.
    """
    global _pool, _pool_workers
    workers = max(1, workers)
    alive = _pool_alive(_pool)
    if _pool is None or not alive or _pool_workers < workers:
        old = _pool
        _pool_workers = max(workers, _pool_workers)
        _pool = ProcessPoolExecutor(max_workers=_pool_workers,
                                    initializer=_worker_init)
        _install_signal_shutdown()
        if old is not None:
            _retire_pool(old, kill=not alive)
    return _pool


def rebuild_shared_pool(workers=None):
    """Force-replace the shared pool, terminating its workers.

    The supervisor's recovery primitive: after a worker kill, a blown
    deadline (the only way to reclaim a slot from a wedged worker), or a
    poisoned initializer, the old executor cannot be trusted — its
    workers are terminated outright and a fresh pool takes over.
    """
    global _pool, _pool_workers
    workers = max(1, workers or _pool_workers or default_worker_budget())
    old = _pool
    _pool = None
    _pool_workers = 0
    _retire_pool(old, kill=True)
    return shared_pool(workers)


def shutdown_shared_pool(kill=False):
    """Tear the shared pool down (tests, signals, interpreter exit)."""
    global _pool, _pool_workers
    pool = _pool
    _pool = None
    _pool_workers = 0
    if pool is not None:
        if kill:
            _kill_pool_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)


_signal_shutdown_installed = False


def _install_signal_shutdown():
    """Make SIGTERM/SIGINT reap pool workers before their usual effect.

    A cancelled CI job (SIGTERM) or an interactive Ctrl-C must not leak
    orphan interpreter processes.  Handlers chain to whatever was
    installed before, so default semantics (process death, and
    ``KeyboardInterrupt`` for SIGINT) are preserved.  Installed lazily at
    first pool creation, main thread only.
    """
    global _signal_shutdown_installed
    if _signal_shutdown_installed or in_worker():
        return
    if threading.current_thread() is not threading.main_thread():
        return

    installer = os.getpid()

    def _chained(previous):
        def handler(signum, frame):
            # forked pool workers inherit this handler, possibly before
            # their initializer runs; outside the installing process the
            # copied executor state must not be touched (shutting "its"
            # pool down blocks the worker instead of letting it die) —
            # restore the default disposition and re-deliver
            if os.getpid() == installer:
                shutdown_shared_pool(kill=True)
                if callable(previous):
                    previous(signum, frame)
                    return
                if previous == signal.SIG_IGN:
                    return
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        return handler

    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _chained(signal.getsignal(signum)))
    except (ValueError, OSError):  # pragma: no cover - exotic embeddings
        return
    _signal_shutdown_installed = True


atexit.register(shutdown_shared_pool)


# ---------------------------------------------------------------------------
# what crosses the process boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerSessionSpec:
    """Everything a pool worker needs to rebuild a testrun context.

    Ships the *source* program (plain AST dataclasses — cheap to pickle)
    rather than the compiled bundle; workers lower and analyze once and
    cache the result by ``token``, so repeated shards of one session
    reuse the warm context, checkpoints included.
    """

    token: str
    program: object
    input_overrides: Optional[dict]
    max_steps: int
    target_signature: tuple
    replay: bool
    replay_max_checkpoints: int
    replay_max_bytes: int
    #: ((thread, kind, lock, occurrence), step) pairs — the restore
    #: points of the worker's replay engine
    step_map: tuple
    #: macro-step testruns at block granularity (must match the driver
    #: so worker-side executions are the driver's exact twins)
    block_exec: bool = True
    #: the driver's compiled :class:`~repro.lang.blocks.BlockTable`
    #: (plain lists, cheap to pickle) so workers skip re-partitioning
    block_table: object = None


@dataclass
class ShardRun:
    """One testrun's result crossing back from a worker."""

    index: int           # canonical worklist index of the plan
    steps: int           # schedule length (the paper's cost metric)
    failure: object      # Failure when the run FAILED, else None
    executed: int        # physically interpreted steps (incl. recording)
    skipped: int         # steps restored from a checkpoint


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: pickled spec blob -> built context; a small LRU so interleaved
#: sessions (equivalence suites, batch drivers) do not rebuild per
#: shard.  Keying by the blob keeps repeat shards to one bytes compare —
#: the spec is unpickled only on a cache miss.
_CONTEXTS = OrderedDict()
_CONTEXT_CACHE_SIZE = 4


class _WorkerContext:
    """A worker's lazily built interpreter + replay engine."""

    def __init__(self, spec):
        # imported here: pipeline imports the search package, so a
        # module-level import would be circular
        from ..pipeline.bundle import ProgramBundle
        bundle = ProgramBundle(spec.program,
                               block_exec=getattr(spec, "block_exec", True),
                               block_table=getattr(spec, "block_table", None))

        def factory(scheduler):
            return bundle.execution(scheduler,
                                    input_overrides=spec.input_overrides,
                                    max_steps=spec.max_steps)

        self.factory = factory
        self.engine = None
        if spec.replay:
            self.engine = ReplayEngine.from_step_map(
                factory, dict(spec.step_map),
                max_checkpoints=spec.replay_max_checkpoints,
                max_bytes=spec.replay_max_bytes)


def _context_for(spec_blob):
    ctx = _CONTEXTS.get(spec_blob)
    if ctx is None:
        ctx = _WorkerContext(pickle.loads(spec_blob))
        _CONTEXTS[spec_blob] = ctx
        while len(_CONTEXTS) > _CONTEXT_CACHE_SIZE:
            _CONTEXTS.popitem(last=False)
    else:
        _CONTEXTS.move_to_end(spec_blob)
    return ctx


def run_shard(spec_blob, shard, fault=None):
    """Pool-worker entry: run ``[(index, plan), ...]``, return results.

    ``spec_blob`` is the driver's once-pickled :class:`WorkerSessionSpec`
    — submitted as opaque bytes so the program AST is never re-walked
    per shard.  Mirrors :meth:`ScheduleSearchBase.testrun` exactly —
    same scheduler, same replay resume, same honest step accounting —
    minus the search bookkeeping, which the driver reconstructs.

    ``fault`` is a supervisor-injected
    :class:`~repro.exec.faults.FaultInstruction`, honored only inside
    pool workers — a quarantined serial re-run of the same shard is
    always fault-free.
    """
    maybe_inject(fault)
    ctx = _context_for(spec_blob)
    out = []
    for index, plan in shard:
        scheduler = PreemptingScheduler(plan)
        if ctx.engine is not None:
            execution, resumed = ctx.engine.resume(scheduler, plan)
        else:
            execution, resumed = ctx.factory(scheduler), 0
        result = execution.run()
        executed = result.steps - resumed
        if ctx.engine is not None:
            executed += ctx.engine.drain_recording_steps()
        # hung runs (deadlock / budget hang) carry a structured failure
        # despite not being status FAILED — ship it, so the driver's
        # ``wins`` check can match deadlock cycles exactly like crash PCs
        out.append(ShardRun(index=index, steps=result.steps,
                            failure=result.failure,
                            executed=executed, skipped=resumed))
    return corrupt_or(fault, out)


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------

def run_search(search, workers=1, spec=None, shard_size=None,
               supervision=None, deadline_hint=None):
    """Run ``search`` with serial-identical outcomes, possibly sharded.

    ``workers <= 1`` (or a missing/unpicklable ``spec``, or being inside
    a pool worker already) is *exactly* the serial path — zero overhead
    over :meth:`ScheduleSearchBase.search`.

    ``supervision`` is an optional
    :class:`~repro.exec.supervisor.SupervisionPolicy`;  ``deadline_hint``
    is the recorded step count of one testrun (the failing run's
    schedule length), from which per-shard deadlines are derived.  If
    supervised execution exhausts every recovery rung the search
    *degrades*: a structured note is recorded on the policy's stats and
    the serial path — whose outcome parallel search is byte-identical to
    anyway — runs instead.
    """
    if workers <= 1 or spec is None or in_worker():
        return search.search()
    policy = supervision if supervision is not None else SupervisionPolicy()
    try:
        return _parallel_search(search, spec, workers, shard_size,
                                policy=policy, deadline_hint=deadline_hint)
    except ExecutionDegraded as exc:
        # _parallel_search folds memo entries and search accounting only
        # at the very end, so at this point ``search`` is untouched and
        # the serial re-run starts from the same state a cold serial
        # search would.
        record_degradation(policy.stats, exc.stage, exc.reason, exc.detail)
        return search.search()


_EXHAUSTED = object()


def _parallel_search(search, spec, workers, shard_size=None, policy=None,
                     deadline_hint=None):
    start = time.perf_counter()
    policy = policy if policy is not None else SupervisionPolicy()
    memo = search.memo
    target = search.target_signature
    # pickled once; every shard submission ships the same opaque bytes
    spec_blob = pickle.dumps(spec)

    def wins(run):
        return matches_failure_signature(run.failure, target)

    # The canonical worklist — exactly what serial search would test,
    # bounded by the tries budget — is enumerated *incrementally* as
    # shards are pulled, preserving the laziness of the strategies'
    # plan generators: a guided search that reproduces on its first
    # plan never expands the deep tail of its combination lattice.
    # Memo pre-passing happens at pull time, so duplicates of earlier
    # strategies are served without ever dispatching.
    plan_iter = search.plans()
    plans = []            # index -> plan, enumeration (= serial) order
    results = {}          # index -> ShardRun (memo hits synthesized)
    memo_hit_idx = set()
    pending = []          # enumerated miss indices not yet dispatched
    best = None           # lowest reproducing index seen so far
    over_budget = False   # a (max_tries+1)-th plan exists
    exhausted = False     # enumeration done (generator dry, budget, win)

    def pull(want):
        """Enumerate until ``pending`` holds ``want`` misses (or done).

        Stops at the tries budget (peeking one plan further to decide
        the serial cutoff flag) and right past a known winner — indices
        beyond it can never matter.
        """
        nonlocal best, over_budget, exhausted
        while len(pending) < want and not exhausted:
            if best is not None and len(plans) > best:
                exhausted = True
                break
            plan = next(plan_iter, _EXHAUSTED)
            if plan is _EXHAUSTED:
                exhausted = True
                break
            if len(plans) >= search.max_tries:
                over_budget = True
                exhausted = True
                break
            index = len(plans)
            plans.append(plan)
            entry = memo.peek(plan_fingerprint(plan)) \
                if memo is not None else None
            if entry is None:
                pending.append(index)
                continue
            run = ShardRun(index=index, steps=entry.steps,
                           failure=entry.failure, executed=0,
                           skipped=entry.steps)
            results[index] = run
            memo_hit_idx.add(index)
            if wins(run) and (best is None or index < best):
                best = index

    # fan the misses out in contiguous ascending shards; sizes ramp
    # geometrically (1 -> MAX_SHARD_SIZE, doubling once per wave of
    # ``workers`` shards, or pinned by ``shard_size``) so early winners
    # cost one tiny round-trip and deep sweeps amortize dispatch.
    # Submission goes through a Supervisor: a shard that comes back from
    # a dead, hung, or lying worker is retried (and finally quarantined
    # to an in-process run) without the reduction ever noticing.
    supervisor = Supervisor(workers, policy, stage="search")
    shards_of = {}        # task -> its ascending index list
    size = shard_size or 1
    issued = 0
    cutoff_on_wall = False
    stopped = False

    def valid_shard(expect):
        def validate(result):
            return (isinstance(result, list)
                    and len(result) == len(expect)
                    and all(isinstance(run, ShardRun) for run in result)
                    and [run.index for run in result] == expect)
        return validate

    def dispatch():
        nonlocal size, issued, stopped
        while len(supervisor.active()) < workers and not stopped:
            pull(size)
            if best is not None:
                while pending and pending[-1] > best:
                    pending.pop()
            if not pending:
                stopped = exhausted
                break
            shard = pending[:size]
            del pending[:len(shard)]
            issued += 1
            if shard_size is None and issued % max(1, workers) == 0:
                size = min(size * 2, MAX_SHARD_SIZE)
            task = supervisor.submit(
                run_shard, spec_blob, [(i, plans[i]) for i in shard],
                key=shard[0],
                deadline_s=policy.deadline_for(len(shard), deadline_hint),
                validate=valid_shard(list(shard)))
            shards_of[task] = shard

    dispatch()
    while True:
        finished = supervisor.wait_any()
        if not finished:
            break
        for task in finished:
            supervisor.raise_if_failed(task)
            for run in task.result:
                results[run.index] = run
                if wins(run) and (best is None or run.index < best):
                    best = run.index
        if best is not None:
            # shards wholly past the winner can never matter; their
            # results would be discarded by the reduction anyway, so
            # cancelling unconditionally is safe
            for task in supervisor.active():
                if shards_of[task][0] > best:
                    task.cancel()
        if best is None and not cutoff_on_wall \
                and time.perf_counter() - start > search.max_seconds:
            # mirror the serial wall-clock cutoff: stop starting new
            # work, drain what is in flight (its accounting is kept)
            cutoff_on_wall = True
            stopped = True
        dispatch()

    # a fully memo-served (or plan-less) search never dispatches; the
    # reduction still needs the complete serial-equivalent worklist
    if best is None and not cutoff_on_wall:
        pull(float("inf"))

    # 4. deterministic reduction over the serial-equivalent prefix
    if best is not None:
        upto = best
        reproduced, cutoff = True, False
    elif cutoff_on_wall:
        # account the longest contiguous resolved prefix (in-flight
        # shards may have completed out of order past a hole)
        upto = 0
        while upto in results:
            upto += 1
        upto -= 1
        reproduced, cutoff = False, True
    else:
        upto = len(plans) - 1
        reproduced, cutoff = False, over_budget

    tries = upto + 1
    total_steps = executed_steps = skipped_steps = memo_hits = 0
    tries_by_size = {}
    for i in range(tries):
        run = results[i]
        total_steps += run.steps
        executed_steps += run.executed
        skipped_steps += run.skipped
        size = len(plans[i])
        tries_by_size[size] = tries_by_size.get(size, 0) + 1
        if i in memo_hit_idx:
            memo_hits += 1

    # 5. fold what serial search *would have run* back into the memo —
    #    and nothing more.  Speculative results past the winner are
    #    discarded: storing them would let a later strategy memo-hit a
    #    plan serial search never executed, skewing its ``memo_hits``
    #    away from the serial trajectory.
    if memo is not None:
        memo.hits += memo_hits
        for i in range(tries):
            if i not in memo_hit_idx:
                memo.put(plan_fingerprint(plans[i]),
                         MemoEntry(steps=results[i].steps,
                                   failure=results[i].failure))

    # expose the reconstructed counters on the search object too, so
    # callers peeking at it post-run see serial-equivalent state
    search.tries = tries
    search.total_steps = total_steps
    search.executed_steps = executed_steps
    search.skipped_steps = skipped_steps
    search.memo_hits = memo_hits
    search.tries_by_size = dict(tries_by_size)

    return SearchOutcome(
        algorithm=search.algorithm,
        reproduced=reproduced,
        tries=tries,
        total_steps=total_steps,
        wall_seconds=time.perf_counter() - start,
        plan=plans[best] if best is not None else None,
        cutoff=cutoff,
        failure=results[best].failure if best is not None else None,
        tries_by_size=tries_by_size,
        executed_steps=executed_steps,
        skipped_steps=skipped_steps,
        memo_hits=memo_hits,
    )
