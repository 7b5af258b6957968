"""The step-based interpreter.

An :class:`Execution` owns the full machine state of one run: globals,
heap, locks, threads.  A *step* executes exactly one IR instruction of
one thread; the scheduler decides which thread steps next, so any
interleaving at instruction granularity is expressible — this is the
stand-in for true multicore parallelism (DESIGN.md substitution table).

The interpreter maintains, per frame, the *region stack* required by
execution indexing (entries pushed at predicate branches, popped at the
predicate's immediate post-dominator — EI rules 3 and 4) and, when
``instrument_loops`` is set, live ``while``-loop iteration counters (the
paper's only production-run instrumentation; its cost is what Fig. 10
measures).

This module is the hottest path in the codebase — every testrun of every
schedule search funnels through it.  :mod:`repro.runtime.codegen`
compiles each instruction once per program into a closure:
:meth:`Execution.step`, which hooks observe, runs the *traced* closures
that record uses and defs; :meth:`Execution.run_chain` runs the *fast*
ones, which record none.  :meth:`Execution.run` resolves hook and
scheduler-observer methods once per run.

Block execution (the macro-step path)
-------------------------------------

When an execution is given a :class:`~repro.lang.blocks.BlockTable` and
carries no hooks, :meth:`Execution.run` switches to a block-granularity
loop for schedulers that support it: one scheduler pick drives a whole
*chain* of superblocks (:meth:`Execution.run_chain`), with one batched
effects summary, scheduler observation only at chain boundaries, and the
region-stack bookkeeping skipped at every pc where it provably cannot
fire.  Chains break exactly at the points where a scheduler's
instruction-mode decision could differ from "continue the same thread":
before an ``ACQUIRE`` (the pick may block or redirect), immediately
after any sync instruction (the observer must see it before the next
pick), on thread exit or failure, and at the step budget.  A thread
the scheduler reports *settled* runs through sync points (the observer
gets them in order) and breaks before an ``ACQUIRE`` only when another
thread holds the lock.  Schedulers participate through optional
attributes:

``block_granular = True``
    The scheduler's per-instruction picks provably return the running
    thread at every non-boundary point (deterministic and preempting
    schedulers), so a chain may run to the next boundary outright.
``settled(thread)``
    Every pick would keep choosing ``thread`` until it blocks or exits,
    and observing would only count its syncs.
``block_commit(execution, runnable, thread, span, first)``
    The scheduler commits to a number of consecutive steps of
    ``thread``, drawing its per-instruction decisions eagerly (the
    seeded multicore scheduler) so the resulting interleaving is
    byte-identical to instruction mode.

Everything observable — step counts, per-thread instruction counts,
region stacks and loop counters (hence execution indices and core
dumps), output order, failures — is byte-identical between the two
paths; runs with hooks installed (tracing, alignment) always take the
instruction path, because hooks define per-instruction observability.
"""

from dataclasses import dataclass
from typing import Optional

from ..lang.errors import InterpreterError, RuntimeFault
from .codegen import code_for, compile_expr
from .events import Failure, StepEffects, StopExecution
from .frames import Frame, ThreadState, ThreadStatus
from .heap import Heap
from .sync import LockTable
from .waitsfor import deadlock_failure, hang_failure


class ExecutionStatus:
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    DEADLOCK = "deadlock"
    STOPPED = "stopped"


@dataclass
class RunResult:
    """Outcome of :meth:`Execution.run`."""

    status: str
    failure: Optional[Failure]
    steps: int
    output: list
    stop_reason: Optional[str] = None
    stop_payload: object = None

    @property
    def failed(self):
        return self.status == ExecutionStatus.FAILED

    @property
    def completed(self):
        return self.status == ExecutionStatus.COMPLETED


class Execution:
    """One run of a compiled program under a scheduler.

    Parameters
    ----------
    compiled:
        The :class:`~repro.lang.lower.CompiledProgram`.
    analysis:
        The :class:`~repro.analysis.StaticAnalysis` of the same program
        (region exits are needed to maintain the region stacks).
    scheduler:
        An object with ``pick(execution, runnable) -> thread_name`` and an
        optional ``observe(execution, effects)``.
    input_overrides:
        Values for globals listed in ``program.inputs``.
    instrument_loops:
        Maintain ``while``-loop iteration counters (production
        instrumentation, paper Sec. 3.2).
    hooks:
        Objects with any of ``on_before_step(execution, thread, instr)``,
        ``on_after_step(execution, effects)``,
        ``on_failure(execution, failure)``.  Hooks may raise
        :class:`StopExecution`.
    blocks:
        Optional :class:`~repro.lang.blocks.BlockTable` of ``compiled``.
        When set (and no hooks are installed), :meth:`run` macro-steps
        the execution at block granularity for schedulers that support
        it; outcomes are byte-identical to instruction granularity.
    """

    def __init__(self, compiled, analysis, scheduler, input_overrides=None,
                 instrument_loops=True, hooks=(), max_steps=1_000_000,
                 blocks=None):
        self.compiled = compiled
        self.analysis = analysis
        self.program = compiled.program
        self.scheduler = scheduler
        self._instrs = compiled.instrs
        code = code_for(compiled, analysis)
        self._fast, self._traced = code.fast, code.traced
        #: per pc, the lock an ``ACQUIRE`` there takes (None elsewhere)
        self.acquire_locks = code.acquire_lock
        self._thread_order = [spec.name for spec in compiled.program.threads]
        self.instrument_loops = instrument_loops
        self.hooks = list(hooks)
        self.max_steps = max_steps
        self.blocks = blocks
        #: scheduler pick count (one per dispatch round-trip) and, for
        #: commit-style schedulers, block-commit call count — the
        #: benchmark's dispatch metrics; never fed back into execution
        self.sched_picks = 0
        self.sched_commits = 0

        self.heap = Heap()
        self.globals = {}
        self._init_globals(input_overrides or {})
        self.locks = LockTable(self.program.locks)
        self.threads = {}
        self._frame_uid = 0
        self._init_threads()

        self.step_count = 0
        self.output = []
        self.status = ExecutionStatus.RUNNING
        self.failure = None
        self.stop_reason = None
        self.stop_payload = None

    # -- initialization -----------------------------------------------------

    def _init_globals(self, overrides):
        for name in overrides:
            if name not in self.program.inputs:
                raise InterpreterError(
                    "override of %r which is not a declared input" % name)
        for name, init in self.program.globals.items():
            value = overrides.get(name, init)
            self.globals[name] = self.heap.alloc_from_python(value)

    def _new_frame(self, func_name, local_values, ret_target=None,
                   return_to=None, call_step=None):
        fc = self.compiled.func_code(func_name)
        self._frame_uid += 1
        return Frame(uid=self._frame_uid, func=func_name, pc=fc.entry_pc,
                     locals=dict(local_values), ret_target=ret_target,
                     return_to=return_to, call_step=call_step)

    def _init_threads(self):
        for spec in self.program.threads:
            fc = self.compiled.func_code(spec.func)
            if len(spec.args) != len(fc.params):
                raise InterpreterError(
                    "thread %s: %d args for %d params of %s"
                    % (spec.name, len(spec.args), len(fc.params), spec.func))
            frame = self._new_frame(spec.func, zip(fc.params, spec.args))
            self.threads[spec.name] = ThreadState(name=spec.name, frames=[frame])

    # -- read-only evaluation ----------------------------------------------

    def evaluate(self, expr, thread_name):
        """Value of ``expr`` in ``thread_name``'s current frame, read-only:
        nothing is recorded, allocation faults, faults propagate."""
        thread = self.threads[thread_name]
        code = compile_expr(expr, track=False, alloc=False)
        return code(self, thread, thread.current_frame, None)

    # -- region stack maintenance (EI rules 3 & 4) -----------------------------

    def _pop_regions(self, frame, pc):
        """EI rule 4: pop regions whose immediate post-dominator is ``pc``."""
        stack = frame.region_stack
        if not stack or stack[-1].exit_pc != pc:
            return
        popped_loops = set()
        while stack and stack[-1].exit_pc == pc:
            entry = stack.pop()
            if entry.loop_id is not None:
                popped_loops.add(entry.loop_id)
        if popped_loops:
            live = {entry.loop_id for entry in stack if entry.loop_id is not None}
            for loop_id in popped_loops - live:
                frame.loop_counters.pop(loop_id, None)

    # -- scheduling predicates ---------------------------------------------

    def runnable_threads(self):
        """READY threads not parked at an acquire of a lock another thread
        holds (a self-held one runs and faults), in program order."""
        threads, acquire_locks = self.threads, self.acquire_locks
        is_free_for = self.locks.is_free_for
        runnable = []
        for name in self._thread_order:
            thread = threads[name]
            if thread.status is ThreadStatus.READY:
                lock = acquire_locks[thread.frames[-1].pc]
                if lock is None or is_free_for(lock, name):
                    runnable.append(name)
        return runnable

    def live_threads(self):
        return [t.name for t in self.threads.values() if t.is_live()]

    # -- the step ------------------------------------------------------------

    def step(self, thread_name):
        """Execute one instruction of ``thread_name``; returns effects.

        On a simulated crash the execution transitions to FAILED and the
        failure is recorded; the partially filled effects are returned.
        """
        thread = self.threads[thread_name]
        if thread.status is not ThreadStatus.READY:
            raise InterpreterError("stepping non-ready thread %s" % thread_name)
        frame = thread.frames[-1]
        pc = frame.pc
        self._pop_regions(frame, pc)
        effects = StepEffects(thread=thread_name, step=self.step_count,
                              pc=pc, op=self._instrs[pc].op)
        if thread.started_at is None:
            thread.started_at = self.step_count
        top = frame.top_region()
        effects.dynamic_cd_step = top.step if top is not None else frame.call_step
        try:
            self._traced[pc](self, thread, frame, effects)
        except RuntimeFault as fault:
            self.failure = Failure(kind=fault.kind, pc=pc, thread=thread_name,
                                   message=fault.message)
            self.status = ExecutionStatus.FAILED
            thread.status = ThreadStatus.FAILED
        self.step_count += 1
        thread.instr_count += 1
        return effects

    # -- block execution (the macro-step path) -------------------------------

    def run_chain(self, thread_name, runnable, commit=None, limit=None,
                  settled=False):
        """Execute one scheduler-atomic chain of ``thread_name``'s blocks.

        Runs superblocks back to back under a single scheduler pick,
        breaking exactly where the next pick could matter: before an
        ``ACQUIRE``, right after any sync instruction (so the observer
        processes it before the next pick), on failure, thread exit, a
        pending scheduler switch, the ``max_steps`` budget, or after
        ``limit`` steps (used by the replay engine to stop at checkpoint
        steps).  A ``settled`` thread runs on through sync points and
        breaks before an ``ACQUIRE`` only when another thread holds the
        lock.  Returns one batched :class:`StepEffects` summary whose
        ``batch`` counts the executed instructions and ``syncs`` lists
        the syncs in order.  Steps run the untracked closures, so
        ``uses`` / ``defs`` stay empty: nothing on this path consumes
        them.

        ``commit`` is the scheduler's ``block_commit``: it pre-draws the
        scheduler's per-instruction decisions over each block so
        interleavings stay byte-identical to instruction mode.  Without
        one (block-granular schedulers) blocks run on ``chain_span``.
        """
        thread = self.threads[thread_name]
        frames = thread.frames
        spans = self.blocks.span if commit else self.blocks.chain_span
        region_work = self.blocks.region_work
        code, acquire_locks = self._fast, self.acquire_locks
        start = self.step_count
        stop_at = self.max_steps if limit is None \
            else min(self.max_steps, start + limit)
        effects = StepEffects(thread=thread_name, step=start,
                              pc=frames[-1].pc, op=None)
        if thread.started_at is None:
            thread.started_at = start
        first = True
        while True:
            count = spans[frames[-1].pc]
            if self.step_count + count > stop_at:
                # an exhausted budget still runs one step, mirroring the
                # instruction loop's step-then-check order
                count = max(stop_at - self.step_count, 1)
            pending = False
            if commit is not None and (count > 1 or not first):
                self.sched_commits += 1
                committed = commit(self, runnable, thread_name, count, first)
                pending = committed < count
                count = committed
                if count == 0:
                    break
            end = self.step_count + count
            try:
                while self.step_count < end:
                    frame = frames[-1]
                    pc = frame.pc
                    if region_work[pc]:
                        self._pop_regions(frame, pc)
                    code[pc](self, thread, frame, effects)
                    self.step_count += 1
            except RuntimeFault as fault:
                self.failure = Failure(kind=fault.kind, pc=pc,
                                       thread=thread_name,
                                       message=fault.message)
                self.status = ExecutionStatus.FAILED
                thread.status = ThreadStatus.FAILED
                self.step_count += 1
                break
            first = False
            if not settled and effects.sync is not None:
                break  # the observer must see the sync before the next pick
            if thread.status is not ThreadStatus.READY:
                break  # thread exit (a failure already left the loop)
            if pending or self.step_count >= stop_at:
                break  # scheduler switch, step budget, or caller's limit
            lock = acquire_locks[frames[-1].pc]
            if lock is not None and not (
                    settled and self.locks.is_free_for(lock, thread_name)):
                break  # pre-acquire pick point (may block or redirect)
        effects.batch = self.step_count - start
        thread.instr_count += effects.batch
        return effects

    def _run_blocks(self, commit):
        """The block-granularity run loop (one pick per chain)."""
        scheduler = self.scheduler
        observe = getattr(scheduler, "observe", None)
        settled = getattr(scheduler, "settled", None)
        pick = scheduler.pick
        try:
            while self.status == ExecutionStatus.RUNNING:
                runnable = self.runnable_threads()
                if not runnable:
                    if self.live_threads():
                        self.status = ExecutionStatus.DEADLOCK
                        self.failure = deadlock_failure(self)
                    else:
                        self.status = ExecutionStatus.COMPLETED
                    break
                self.sched_picks += 1
                name = pick(self, runnable)
                if name not in runnable:
                    raise InterpreterError(
                        "scheduler picked non-runnable thread %r" % (name,))
                effects = self.run_chain(
                    name, runnable, commit,
                    settled=settled is not None and settled(name))
                if observe is not None:
                    observe(self, effects)
                if self.failure is not None:
                    break
                if self.step_count >= self.max_steps:
                    self.status = ExecutionStatus.STOPPED
                    self.stop_reason = "max-steps"
                    if self.live_threads():
                        self.failure = hang_failure(self)
                    break
        except StopExecution as stop:  # pragma: no cover - hookless path
            self.status = ExecutionStatus.STOPPED
            self.stop_reason = stop.reason
            self.stop_payload = stop.payload
        return RunResult(status=self.status, failure=self.failure,
                         steps=self.step_count, output=list(self.output),
                         stop_reason=self.stop_reason,
                         stop_payload=self.stop_payload)

    def block_mode(self):
        """Can this run macro-step?  (blocks installed, no hooks, and a
        scheduler that is either block-granular or commit-capable.)"""
        if self.blocks is None or self.hooks:
            return False
        return (getattr(self.scheduler, "block_granular", False)
                or getattr(self.scheduler, "block_commit", None) is not None)

    # -- the run loop ----------------------------------------------------------

    def _bound_hook_methods(self, name):
        """Pre-resolved ``name`` methods of the hooks, in hook order."""
        methods = []
        for hook in self.hooks:
            method = getattr(hook, name, None)
            if method is not None:
                methods.append(method)
        return methods

    def run(self):
        """Drive the execution to completion, failure, deadlock, or stop.

        With a block table, no hooks, and a block-capable scheduler the
        run macro-steps at block granularity (byte-identical outcomes,
        far fewer scheduler dispatches); otherwise hook and
        scheduler-observer methods are resolved once up front and the
        per-step loop only calls pre-bound callables (hooks must be
        fully installed before ``run`` is entered).
        """
        if self.block_mode():
            return self._run_blocks(
                getattr(self.scheduler, "block_commit", None))
        before_hooks = self._bound_hook_methods("on_before_step")
        after_hooks = self._bound_hook_methods("on_after_step")
        failure_hooks = self._bound_hook_methods("on_failure")
        observe = getattr(self.scheduler, "observe", None)
        pick = self.scheduler.pick
        instrs = self._instrs
        threads = self.threads
        try:
            while self.status == ExecutionStatus.RUNNING:
                runnable = self.runnable_threads()
                if not runnable:
                    if self.live_threads():
                        self.status = ExecutionStatus.DEADLOCK
                        self.failure = deadlock_failure(self)
                    else:
                        self.status = ExecutionStatus.COMPLETED
                    break
                self.sched_picks += 1
                name = pick(self, runnable)
                if name not in runnable:
                    raise InterpreterError(
                        "scheduler picked non-runnable thread %r" % (name,))
                for before in before_hooks:
                    before(self, name, instrs[threads[name].pc])
                effects = self.step(name)
                if observe is not None:
                    observe(self, effects)
                if self.failure is not None:
                    for on_failure in failure_hooks:
                        on_failure(self, self.failure)
                    break
                for after in after_hooks:
                    after(self, effects)
                if self.step_count >= self.max_steps:
                    self.status = ExecutionStatus.STOPPED
                    self.stop_reason = "max-steps"
                    if self.live_threads():
                        self.failure = hang_failure(self)
                    break
        except StopExecution as stop:
            self.status = ExecutionStatus.STOPPED
            self.stop_reason = stop.reason
            self.stop_payload = stop.payload
        return RunResult(status=self.status, failure=self.failure,
                         steps=self.step_count, output=list(self.output),
                         stop_reason=self.stop_reason,
                         stop_payload=self.stop_payload)
