"""Algorithm 1: reverse engineering a failure index from a core dump.

Given only what a production crash leaves behind — the failure PC, the
call stack, locals, and live loop counters — reconstruct the execution
index of the failure point without any EI instrumentation having run
(paper Sec. 3.2).  Walking outward from the failure PC:

* empty control-dependence set → the PC nests directly in the method
  body; the method and its call site come from the call stack;
* a loop predicate among the dependences → the live iteration count is
  recovered from the dump (induction variable for ``for`` loops, the
  instrumented counter for ``while`` loops) and that many loop entries
  are inserted;
* a single dependence, or several aggregatable to one complex predicate
  → one (possibly aggregate) branch entry;
* multiple non-aggregatable dependences → the closest common single-CD
  ancestor, losing some precision (``approx`` entries).
"""

from ..lang import ast
from ..lang.lower import Opcode
from ..lang.errors import IndexingError
from .index import (
    AggregateEntry,
    BranchEntry,
    Index,
    MethodEntry,
    StatementEntry,
    ThreadEntry,
)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def get_loop_count(instr, frame_dump, current_pc, compiled):
    """Recover the live iteration count of the loop headed by ``instr``.

    ``for`` loops: derived from the induction variable (no
    instrumentation needed).  The dump's ``current_pc`` matters: at the
    loop header or at the back-jump the induction variable has already
    been advanced past the live iteration, so one is subtracted.
    ``while`` loops: read from the instrumented counter; absence inside
    the body means the program was deployed without loop
    instrumentation, which Algorithm 1 cannot recover from (this is the
    paper's motivation for the counters).
    """
    at_header = current_pc == instr.pc
    if (instr.counter_var is not None
            and isinstance(instr.counter_start, ast.Const)
            and isinstance(instr.counter_step, ast.Const)):
        if instr.counter_var not in frame_dump.locals:
            raise IndexingError(
                "induction variable %r missing from frame %s"
                % (instr.counter_var, frame_dump.func))
        current = frame_dump.locals[instr.counter_var]
        if not _is_int(current):
            raise IndexingError(
                "induction variable %r of frame %s is %r, not an int"
                % (instr.counter_var, frame_dump.func, current))
        start = instr.counter_start.value
        step = instr.counter_step.value
        if step == 0:
            raise IndexingError("loop at pc %d has zero step" % instr.pc)
        count = (current - start) // step + 1
        here = compiled.instr(current_pc)
        after_increment = at_header or (
            here.op is Opcode.JUMP and here.jump_target == instr.pc)
        if after_increment:
            count -= 1
        return max(count, 0)
    counter = frame_dump.loop_counters.get(instr.loop_id)
    if counter is None:
        if at_header:
            return 0
        raise IndexingError(
            "while-loop at pc %d has no live counter: the program must be "
            "built with loop instrumentation (instrument_loops=True)"
            % instr.pc)
    if not _is_int(counter):
        raise IndexingError("while-loop counter at pc %d of frame %s is %r, "
                            "not an int" % (instr.pc, frame_dump.func, counter))
    return counter


def _frame_region_entries(analysis, compiled, frame_dump, start_pc):
    """The branch-region entries of one frame, innermost first."""
    entries = []
    pc = start_pc
    exclude_self = False
    while True:
        cd = set(analysis.cd_of(pc))
        if exclude_self:
            cd.discard((pc, True))
            cd.discard((pc, False))
        if not cd:
            return entries
        loop_deps = [(p, label) for (p, label) in cd
                     if compiled.instr(p).is_loop and label is True]
        if loop_deps:
            # A loop header reached through its back-jump is control
            # dependent both on itself and on every enclosing loop; the
            # walk must consume the innermost region first (the header
            # with the highest pc — inner loops lower after outer ones)
            # or the live iterations of the inner loops are lost.
            lp, _ = max(loop_deps)
            count = get_loop_count(compiled.instr(lp), frame_dump, pc,
                                   compiled)
            entries.extend([BranchEntry(pred_pc=lp, outcome=True)] * count)
            pc = lp
            exclude_self = True
            continue
        if len(cd) == 1:
            (p, label) = next(iter(cd))
            entries.append(BranchEntry(pred_pc=p, outcome=label))
            pc = p
            exclude_self = False
            continue
        aggregate = analysis.aggregate_of(pc) if not exclude_self else None
        if aggregate is not None:
            entries.append(AggregateEntry(members=aggregate.members,
                                          outcome=aggregate.label))
            pc = aggregate.members[0]
            exclude_self = False
            continue
        func = compiled.func_of(pc)
        ancestor = analysis.cds[func].closest_common_ancestor(cd)
        if ancestor is None:
            return entries
        q, label = ancestor
        if compiled.instr(q).is_loop and label is True:
            count = get_loop_count(compiled.instr(q), frame_dump, pc,
                                   compiled)
            entries.extend([BranchEntry(pred_pc=q, outcome=True)] * count)
        else:
            entries.append(BranchEntry(pred_pc=q, outcome=label, approx=True))
        pc = q
        exclude_self = True


def reverse_engineer_index(dump, analysis):
    """Algorithm 1: the failure index of ``dump``'s failing thread.

    Only the failing thread's index is reconstructed; schedule
    differences must have induced the failure through value differences
    in that thread (paper Sec. 3.2, last paragraph).
    """
    compiled = analysis.compiled
    thread = dump.thread_dump(dump.failing_thread)
    if not thread.frames:
        raise IndexingError("failing thread %s has no frames in dump"
                            % dump.failing_thread)
    for frame in thread.frames:
        if not (_is_int(frame.pc) and 0 <= frame.pc < len(compiled.instrs)):
            raise IndexingError("frame %s of thread %s has pc %r, not a pc "
                                "of the program" % (frame.func,
                                                    dump.failing_thread,
                                                    frame.pc))
    failure_pc = dump.failure_pc
    top = thread.top_frame
    if top.pc != failure_pc:
        raise IndexingError(
            "dump inconsistency: top frame pc %d != failure pc %r"
            % (top.pc, failure_pc))

    reversed_entries = []  # innermost-first
    for depth in range(len(thread.frames) - 1, -1, -1):
        frame = thread.frames[depth]
        reversed_entries.extend(
            _frame_region_entries(analysis, compiled, frame, frame.pc))
        if depth == 0:
            reversed_entries.append(
                ThreadEntry(thread=dump.failing_thread, func=frame.func))
        else:
            caller = thread.frames[depth - 1]
            reversed_entries.append(
                MethodEntry(func=frame.func, call_pc=caller.pc))

    entries = list(reversed(reversed_entries))
    entries.append(StatementEntry(pc=failure_pc))
    return Index(entries)
