"""Identifying the aligned point in a passing run (rules 5-7).

The failure index is loaded into an :class:`AlignmentHook`; the passing
run consumes index entries as matching regions are entered:

* rule (5): entering a procedure matching the head entry removes it;
* rule (6): a predicate matching the head with the same outcome removes
  it; the *opposite* outcome means the failure point cannot be reached —
  the run stops with ``CLOSEST`` alignment (condition 2); a predicate
  whose not-taken branch the head transitively depends on also stops the
  run (condition 3, tolerating the precision loss of approx entries);
* rule (7): with a single statement entry left, reaching that statement
  is the ``EXACT`` alignment, signalled *before* it executes.

Deviation (DESIGN.md #2): condition 3 additionally requires the head not
to be reachable through the taken branch, preventing false CLOSEST
signals on short-circuit chains.
"""

from dataclasses import dataclass
from typing import Optional

from ..lang import ast
from ..lang.errors import IndexingError
from ..lang.lower import Opcode
from ..registry import ALIGNERS
from ..runtime.events import StopExecution, global_loc, heap_loc, local_loc
from ..lang.values import Pointer
from .index import (
    AggregateEntry,
    BranchEntry,
    MethodEntry,
    StatementEntry,
    ThreadEntry,
)


class AlignmentStatus:
    EXACT = "exact"
    CLOSEST = "closest"


@dataclass
class AlignmentResult:
    """Where the passing run aligned with the failure index."""

    status: str
    thread: str
    pc: int                      # aligned point's pc
    step: int                    # execution step count at the signal
    diverged_at: Optional[int]   # predicate pc for CLOSEST, None for EXACT
    outcome: Optional[bool]      # branch outcome taken at the divergence
    criterion_locs: tuple        # slicing criterion locations (Sec. 4)
    criterion_step: Optional[int]  # trace step of the divergence event
    consumed: int
    remaining: int

    @property
    def exact(self):
        return self.status == AlignmentStatus.EXACT

    def describe(self):
        if self.exact:
            return "EXACT alignment at pc=%d (step %d)" % (self.pc, self.step)
        return "CLOSEST alignment at pc=%d (step %d, %d entries unmatched)" % (
            self.pc, self.step, self.remaining)


def collect_static_uses(execution, thread, instr):
    """Best-effort read set of ``instr`` without executing it.

    Used to form the slicing criterion at an EXACT alignment, where the
    aligned instruction is *not* executed (the dump must precede it).
    Walks the instruction's expressions; base pointers of field/index
    accesses are evaluated read-only, and any fault or allocation ends
    that sub-walk.
    """
    frame = thread.current_frame
    uses = []

    def resolve(expr):
        """Evaluate a sub-expression for address computation, or None."""
        try:
            return execution.evaluate(expr, thread.name)
        except Exception:
            return None

    def walk(expr):
        if isinstance(expr, ast.Var):
            if frame is not None and expr.name in frame.locals:
                uses.append(local_loc(thread.name, frame.uid, expr.name))
            elif expr.name in execution.globals:
                uses.append(global_loc(expr.name))
        elif isinstance(expr, ast.Bin):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, ast.Un):
            walk(expr.operand)
        elif isinstance(expr, ast.Field):
            walk(expr.base)
            base = resolve(expr.base)
            if isinstance(base, Pointer) and not base.is_null:
                uses.append(heap_loc(base.obj_id, expr.name))
        elif isinstance(expr, ast.Index):
            walk(expr.base)
            walk(expr.index)
            base = resolve(expr.base)
            idx = resolve(expr.index)
            if isinstance(base, Pointer) and not base.is_null \
                    and isinstance(idx, int):
                uses.append(heap_loc(base.obj_id, idx))
        elif isinstance(expr, (ast.AllocStruct, ast.AllocArray)):
            pass  # allocation is not a read and must not run here

    for expr in (instr.cond, instr.expr):
        if expr is not None:
            walk(expr)
    for arg in instr.args:
        walk(arg)
    if instr.target is not None and not isinstance(instr.target, ast.Var):
        walk(instr.target)  # address computation of the store target reads
    return tuple(uses)


class AlignmentHook:
    """Consumes a failure index against a running passing execution.

    When the aligned point is found, ``on_aligned(execution, result)``
    fires *at* that point — this is where the pipeline generates the
    aligned core dump — and the run then continues to completion so the
    trace covers the whole schedule (the CSV-set annotations of
    Algorithm 2 need accesses occurring after the aligned point, e.g.
    T2's ``x=0`` in the paper's example).  Pass ``stop=True`` to halt at
    the aligned point instead.

    Attach *after* the trace collector so the diverging event is
    recorded before any stop.
    """

    def __init__(self, index, analysis, on_aligned=None, stop=False):
        if not isinstance(index.root, ThreadEntry):
            raise IndexingError("index must be rooted at a thread entry")
        self.index = index
        self.analysis = analysis
        self.target = index.root.thread
        self.pending = list(index.entries)
        self.consumed = 0
        self.expected_frame_uid = None
        self.result = None
        self.on_aligned = on_aligned
        self.stop = stop

    # -- helpers ---------------------------------------------------------------

    def _head(self):
        return self.pending[0] if self.pending else None

    def _consume(self):
        self.pending.pop(0)
        self.consumed += 1

    def _signal(self, execution, result):
        self.result = result
        if self.on_aligned is not None:
            self.on_aligned(execution, result)
        if self.stop:
            raise StopExecution("alignment", result)

    def _closest(self, execution, effects, criterion_locs):
        self._signal(execution, AlignmentResult(
            status=AlignmentStatus.CLOSEST,
            thread=self.target,
            pc=effects.pc,
            step=execution.step_count,
            diverged_at=effects.pc,
            outcome=effects.branch_outcome,
            criterion_locs=tuple(criterion_locs),
            criterion_step=effects.step,
            consumed=self.consumed,
            remaining=len(self.pending),
        ))

    # -- hook interface -----------------------------------------------------------

    def on_before_step(self, execution, thread_name, instr):
        if thread_name != self.target or self.result is not None:
            return
        thread = execution.threads[thread_name]
        head = self._head()
        if isinstance(head, ThreadEntry) and thread.started_at is None:
            # Rule 5 applied to the thread's root procedure.
            self._consume()
            self.expected_frame_uid = thread.current_frame.uid
            head = self._head()
        if (isinstance(head, StatementEntry) and len(self.pending) == 1
                and instr.pc == head.pc
                and thread.current_frame.uid == self.expected_frame_uid):
            # Rule 7: exact alignment, signalled before the statement
            # executes (the dump must precede it).  criterion_step is
            # the step the aligned statement will execute as, so the
            # slicer can seed at its trace event once the run continues.
            criterion = collect_static_uses(execution, thread, instr)
            self._signal(execution, AlignmentResult(
                status=AlignmentStatus.EXACT,
                thread=self.target,
                pc=instr.pc,
                step=execution.step_count,
                diverged_at=None,
                outcome=None,
                criterion_locs=criterion,
                criterion_step=execution.step_count,
                consumed=self.consumed,
                remaining=len(self.pending) - 1,
            ))

    def on_after_step(self, execution, effects):
        if effects.thread != self.target or self.result is not None:
            return
        head = self._head()
        if head is None:
            return
        thread = execution.threads[self.target]

        if effects.op is Opcode.CALL and effects.entered_frame \
                and isinstance(head, MethodEntry):
            caller = thread.frames[-2] if len(thread.frames) >= 2 else None
            if (head.func == effects.call and head.call_pc == effects.pc
                    and caller is not None
                    and caller.uid == self.expected_frame_uid):
                self._consume()
                self.expected_frame_uid = thread.current_frame.uid
            return

        if effects.op is Opcode.BRANCH:
            frame = thread.current_frame
            if frame is None or frame.uid != self.expected_frame_uid:
                return
            outcome = effects.branch_outcome
            if isinstance(head, BranchEntry):
                if effects.pc == head.pred_pc:
                    if outcome == head.outcome:
                        self._consume()  # rule 6, condition 1
                    else:
                        self._closest(execution, effects, effects.uses)
                else:
                    self._condition_three(execution, effects,
                                          head.pred_pc, outcome)
            elif isinstance(head, AggregateEntry):
                if effects.pc in head.members:
                    if outcome == head.outcome:
                        self._consume()
                    elif effects.pc == head.members[-1]:
                        # The last member of the chain took the opposite
                        # branch: the complex predicate evaluated against
                        # the index.
                        self._closest(execution, effects, effects.uses)
                else:
                    self._condition_three(execution, effects,
                                          head.members[0], outcome)
            return

        if effects.op is Opcode.RETURN and not thread.is_live():
            # The aligned thread finished without matching the remaining
            # entries and without a detectable divergence (possible only
            # through approx entries); treat its exit as the closest point.
            self._closest(execution, effects, effects.uses)

    def _condition_three(self, execution, effects, head_pc, outcome):
        """Rule 6 condition 3: the head can no longer be reached."""
        not_taken = not outcome
        analysis = self.analysis
        if analysis.depends_on_branch(head_pc, effects.pc, not_taken) \
                and not analysis.depends_on_branch(head_pc, effects.pc,
                                                   outcome):
            self._closest(execution, effects, effects.uses)


@ALIGNERS.register("index", needs_index=True)
def _build_index_aligner(failure_dump, index, analysis, on_aligned=None):
    """The paper's aligner: EI rules 5-7 over the Algorithm 1 index."""
    if index is None:
        raise IndexingError(
            "the 'index' aligner needs a reverse-engineered failure index")
    return AlignmentHook(index, analysis, on_aligned=on_aligned)
