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
compiles the program once: :meth:`Execution.step`, which hooks observe,
runs *traced* closures that record uses and defs, and
:meth:`Execution.run_chain` runs *emitted* Python, one generated
function per IR function that runs a whole chain of blocks in a single
frame and records none.

One scheduling loop
-------------------

:meth:`Execution.run` is the only pick -> execute -> observe loop in the
package.  Each pick runs either one hooked instruction
(:meth:`Execution.step`) or, when the execution has a
:class:`~repro.lang.blocks.BlockTable`, no hooks and a scheduler that
supports it (:meth:`Execution.block_mode`), a whole *chain* of
superblocks (:meth:`Execution.run_chain`): one batched effects summary,
scheduler observation only at chain boundaries, and the region-stack
bookkeeping skipped at every pc where it provably cannot fire.
``run(until=k)`` stops at exactly step ``k`` in either granularity,
still RUNNING; the replay engine records its prefixes that way.

Chains break exactly at the points where a scheduler's
instruction-mode decision could differ from "continue the same thread":
before an ``ACQUIRE`` (the pick may block or redirect), immediately
after any sync instruction (the observer must see it before the next
pick), on thread exit or failure, and at the step budget or ``until``.
The emitted chain code applies each scheduler's stop rule itself, so one
round trip through :meth:`Execution.run` covers a whole burst.
Schedulers participate through optional attributes:

``block_granular = True``
    The scheduler's per-instruction picks provably return the running
    thread at every non-boundary point (deterministic and preempting
    schedulers), so a chain may run to the next boundary outright.
``settled(thread)``
    ``True`` when every pick would keep choosing ``thread`` until it
    blocks or exits: its chain runs through sync points and breaks
    before an ``ACQUIRE`` only when another thread holds the lock.  Or
    a budget ``{(kind, lock): n}``: ``n`` such syncs may pass, and the
    chain breaks after the next release or before the next acquire of
    a spent key.  The observer then gets the syncs in order.
``chain_draw()``
    ``(random, switch_prob, switch)``: the seeded multicore scheduler's
    per-instruction draw, which the emitted code makes at every
    instruction boundary inside a chain (and :meth:`Execution.run_chain`
    at a ``CALL``/``RETURN``): a chain ends when ``switch()`` parks a
    switch to another thread, so interleavings stay byte-identical to
    instruction mode.  The runnable set the draw chooses from cannot
    change inside a chain, and :meth:`Execution.run` keeps it across a
    chain that did no sync, did not end its thread and did not stop
    before a held lock.

Everything observable — step counts, per-thread instruction counts,
region stacks and loop counters (hence execution indices and core
dumps), output order, failures — is byte-identical between the two
paths; runs with hooks installed (tracing, alignment) always take the
instruction path, because hooks define per-instruction observability,
and so do runs of a program whose emitted code Python will not compile.
"""

from dataclasses import dataclass
from typing import Optional

from ..lang.errors import InterpreterError, RuntimeFault
from .codegen import code_for, compile_expr, pop_regions
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
        self._traced = code.traced
        self._runs = code.emitted(blocks) if blocks and not hooks else None
        if self._runs is None:
            blocks = None  # runs one traced instruction at a time
        chain_draw = getattr(scheduler, "chain_draw", None)
        #: the scheduler's per-instruction draw inside chains, or None
        self.draw = chain_draw() if chain_draw and blocks else None
        #: per pc, the lock an ``ACQUIRE`` there takes (None elsewhere)
        self.acquire_locks = code.acquire_lock
        self._thread_order = [spec.name for spec in compiled.program.threads]
        self.instrument_loops = instrument_loops
        self.hooks = list(hooks)
        self.max_steps = max_steps
        self.blocks = blocks
        #: scheduler pick count (one per dispatch round-trip) — the
        #: benchmark's dispatch metric; never fed back into execution
        self.sched_picks = 0

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

    # -- scheduling predicates ---------------------------------------------

    def runnable_threads(self):
        """READY threads not parked at an acquire of a lock another thread
        holds (a self-held one runs and faults), in program order."""
        threads, acquire_locks = self.threads, self.acquire_locks
        owner, ready = self.locks._owner, ThreadStatus.READY
        runnable = []
        for name in self._thread_order:
            thread = threads[name]
            if thread.status is ready:
                lock = acquire_locks[thread.frames[-1].pc]
                # LockTable.is_free_for, inlined
                if lock is None or owner[lock] is None or owner[lock] == name:
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
        pop_regions(frame, pc)
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

    def run_chain(self, thread_name, limit=None, settled=False):
        """Execute one scheduler-atomic chain of ``thread_name``'s blocks.

        Runs superblocks back to back under a single scheduler pick,
        breaking exactly where the next pick could matter: before an
        ``ACQUIRE``, right after any sync instruction (so the observer
        processes it before the next pick), on failure, thread exit, a
        switch drawn by :attr:`draw`, the ``max_steps`` budget, or after
        ``limit`` steps (how :meth:`run` stops at ``until``).
        ``settled`` (see the module docstring) lets the chain run on
        through sync points.  Returns one batched :class:`StepEffects`
        summary whose ``batch`` counts the executed instructions and
        ``syncs`` lists the syncs in order; ``uses`` / ``defs`` are
        empty tuples, as nothing on this path consumes them.

        Each stretch of one frame runs in the emitted ``run`` of its
        function, which stops by itself at a chain break or at
        ``stop_at``; it comes back here only after a ``CALL`` or
        ``RETURN``, where the next instruction's boundary is checked.
        """
        thread = self.threads[thread_name]
        frames = thread.frames
        runs, draw = self._runs, self.draw
        start = self.step_count
        stop_at = self.max_steps
        if limit is not None and start + limit < stop_at:
            stop_at = start + limit
        effects = StepEffects(thread_name, start, frames[-1].pc, None, (), ())
        if thread.started_at is None:
            thread.started_at = start
        try:
            while True:
                frame = frames[-1]
                if not runs[frame.func](self, thread, frame, effects,
                                        settled, stop_at):
                    break  # a chain break, or the budget ran out
                if thread.status is not ThreadStatus.READY \
                        or self.step_count >= stop_at:
                    break  # thread exit, step budget, or caller's limit
                lock = self.acquire_locks[frames[-1].pc]
                if lock is not None and (
                        settled is not True and (not settled or settled.get(
                            ("acquire", lock)) == 0)
                        or not self.locks.is_free_for(lock, thread_name)):
                    break  # pre-acquire pick point (may block or redirect)
                if draw and draw[0]() < draw[1] and draw[2]():
                    break  # a switch drawn after the frame change
        except RuntimeFault as fault:
            self.failure = Failure(kind=fault.kind, pc=fault.pc,
                                   thread=thread_name, message=fault.message)
            self.status = ExecutionStatus.FAILED
            thread.status = ThreadStatus.FAILED
            self.step_count += 1
        finally:
            effects.batch = self.step_count - start
            thread.instr_count += effects.batch
        return effects

    def block_mode(self):
        """Can this run macro-step?  (blocks installed, no hooks, and a
        scheduler that is either block-granular or draws inline.)"""
        if self.blocks is None or self.hooks:
            return False
        return (getattr(self.scheduler, "block_granular", False)
                or self.draw is not None)

    # -- the run loop ----------------------------------------------------------

    def _bound_hook_methods(self, name):
        """Pre-resolved ``name`` methods of the hooks, in hook order."""
        methods = (getattr(hook, name, None) for hook in self.hooks)
        return [method for method in methods if method is not None]

    def run(self, until=None):
        """Drive the execution until it completes, fails, deadlocks or
        stops; with ``until``, stop earlier at exactly that step count,
        still RUNNING, so that a later ``run`` resumes it.

        This is the one scheduling loop: each pick runs a whole block
        chain when :meth:`block_mode` holds (byte-identical outcomes,
        far fewer scheduler dispatches) and one hooked :meth:`step`
        otherwise.  Hook and scheduler methods are resolved once up
        front (hooks must be fully installed before ``run`` is entered).
        """
        scheduler = self.scheduler
        pick = scheduler.pick
        observe = getattr(scheduler, "observe", None)
        chains = self.block_mode()
        settled = getattr(scheduler, "settled", None) if chains else None
        before_hooks = self._bound_hook_methods("on_before_step")
        after_hooks = self._bound_hook_methods("on_after_step")
        failure_hooks = self._bound_hook_methods("on_failure")
        instrs = self._instrs
        threads = self.threads
        acquire_locks, owner = self.acquire_locks, self.locks._owner
        running, ready = ExecutionStatus.RUNNING, ThreadStatus.READY
        budget = self.max_steps if until is None else until
        runnable = None
        try:
            while self.status == running:
                if until is not None and self.step_count >= until:
                    break
                if runnable is None:
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
                if chains:
                    effects = self.run_chain(
                        name, budget - self.step_count,
                        settled is not None and settled(name))
                    thread = threads[name]
                    if effects.syncs or thread.status is not ready:
                        runnable = None  # the chain changed who may run
                    else:
                        lock = acquire_locks[thread.frames[-1].pc]
                        if lock is not None and owner[lock] is not None \
                                and owner[lock] != name:
                            runnable = None  # it stopped before a held lock
                else:
                    for before in before_hooks:
                        before(self, name, instrs[threads[name].pc])
                    effects = self.step(name)
                    runnable = None
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
