"""Scheduler-atomic superblocks: the static substrate of block execution.

The interpreter advances one instruction per scheduler round-trip, yet
context switches are only ever *meaningful* at scheduling-relevant
points — sync operations, shared-variable accesses, thread lifecycle
events (paper Sec. 5 injects preemptions at exactly those points).  This
pass partitions each function's instruction stream into **superblocks**:
maximal straight-line runs that a thread can execute atomically without
any other thread being able to observe, or influence, the difference.

A new block starts at every *boundary*:

* ``ACQUIRE`` / ``RELEASE`` — sync operations change which threads are
  runnable, so both the instruction and its successor lead fresh blocks
  (sync instructions are always singleton blocks);
* statically **may-shared** reads and writes — any expression that may
  touch a global or a heap cell, per the same shared/private split as
  :func:`repro.runtime.events.is_shared_loc` (globals and heap are
  shared, locals are private); :func:`instr_may_touch_shared` is the
  conservative static analysis behind the flag;
* ``ASSERT`` / ``OUTPUT`` — externally observable effects (a failure
  signal, the global output stream);
* ``CALL`` / ``RETURN`` — frame pushes and pops (a RETURN may end the
  thread, i.e. thread exit);
* control transfers (``BRANCH`` / ``JUMP``) end their block, and every
  branch target leads one — a block never straddles a join point, so the
  instruction count of a block is static.

The block *interior* is therefore provably thread-private straight-line
code: it cannot change any thread's runnable status, cannot touch shared
state, and cannot be observed by another thread.  The interpreter's
block path (:meth:`repro.runtime.interpreter.Execution.run_chain`)
exploits this to run whole blocks — and, for schedulers that provably
never switch between blocks, whole chains of blocks — on a single
scheduler pick while staying byte-identical to instruction-granularity
execution.

``region_work`` additionally marks the pcs where execution-index region
bookkeeping can possibly fire: a ``BRANCH`` (pushes a region) or any pc
that is some branch's region exit (pops).  Blocks that carry no such pc
skip the per-instruction ``_pop_regions`` call entirely.
"""

from dataclasses import dataclass, field

from . import ast
from .lower import Opcode

#: opcodes that transfer control: the next pc is not ``pc + 1`` (or is,
#: but via a frame push/pop), so a static block cannot continue past them
CONTROL_TRANSFER_OPS = frozenset(
    (Opcode.BRANCH, Opcode.JUMP, Opcode.CALL, Opcode.RETURN))

#: opcodes that are scheduling-relevant regardless of their operands
ALWAYS_RELEVANT_OPS = frozenset(
    (Opcode.ACQUIRE, Opcode.RELEASE, Opcode.ASSERT, Opcode.OUTPUT))


# ---------------------------------------------------------------------------
# the may-shared static analysis
# ---------------------------------------------------------------------------

def expr_may_touch_shared(expr, global_names):
    """Conservative: may evaluating ``expr`` read or write shared state?

    Mirrors :func:`repro.runtime.events.is_shared_loc` statically:
    globals and heap cells are shared, locals are private.  A ``Var`` is
    may-shared when its name is a program global (a local of the same
    name shadows it at runtime — the analysis stays sound by
    over-approximating); ``Field``/``Index`` dereference the heap;
    allocations mutate the heap namespace.  ``None`` (an absent
    optional operand) is private.
    """
    if expr is None or isinstance(expr, (ast.Const, ast.Null)):
        return False
    if isinstance(expr, ast.Var):
        return expr.name in global_names
    if isinstance(expr, ast.Bin):
        return (expr_may_touch_shared(expr.left, global_names)
                or expr_may_touch_shared(expr.right, global_names))
    if isinstance(expr, ast.Un):
        return expr_may_touch_shared(expr.operand, global_names)
    if isinstance(expr, (ast.Field, ast.Index, ast.AllocStruct,
                         ast.AllocArray)):
        return True
    # unknown expression kinds: assume shared (sound default)
    return True


def instr_may_touch_shared(instr, global_names):
    """May executing ``instr`` read or write a shared location?"""
    op = instr.op
    if op in ALWAYS_RELEVANT_OPS:
        return True
    if op is Opcode.ASSIGN:
        return (expr_may_touch_shared(instr.target, global_names)
                or expr_may_touch_shared(instr.expr, global_names))
    if op is Opcode.BRANCH:
        return expr_may_touch_shared(instr.cond, global_names)
    if op is Opcode.CALL:
        # the ret-target lvalue is stored by the callee's RETURN, but it
        # belongs to this call site — classify it here, where it is
        # statically known
        return (expr_may_touch_shared(instr.target, global_names)
                or any(expr_may_touch_shared(a, global_names)
                       for a in instr.args))
    if op is Opcode.RETURN:
        # the value lands in the caller via the CALL's ret_target; the
        # store itself happens on this step, so the target counts too
        return expr_may_touch_shared(instr.expr, global_names)
    return False  # JUMP / NOP


# ---------------------------------------------------------------------------
# the partition
# ---------------------------------------------------------------------------

@dataclass
class BlockTable:
    """Per-pc superblock metadata of one compiled program.

    Plain lists of ints/bools so the table pickles cheaply — the
    parallel executors ship it to pool workers so they skip
    re-partitioning.
    """

    #: instructions executable atomically starting at this pc (distance
    #: to the end of the containing block, inclusive); always >= 1
    span: list
    #: pc starts a block
    head: list
    #: pc is a scheduling-relevant instruction (sync, may-shared access,
    #: assert/output) — always a singleton block
    relevant: list
    #: region bookkeeping may fire at this pc (a BRANCH, or some
    #: branch's region-exit point)
    region_work: list
    #: ``span`` of the coarser partition bounded only by control
    #: transfers and sync instructions, for chains of schedulers that
    #: never switch at a mere shared access
    chain_span: list = field(default_factory=list)
    #: total number of blocks
    n_blocks: int = 0
    #: head pcs in ascending order (diagnostics and tests)
    heads: list = field(default_factory=list)

    def is_head(self, pc):
        return self.head[pc]

    def stats(self):
        spans = [self.span[pc] for pc in self.heads]
        return {
            "blocks": self.n_blocks,
            "instrs": len(self.span),
            "singletons": sum(1 for s in spans if s == 1),
            "max_span": max(spans) if spans else 0,
            "mean_span": (sum(spans) / len(spans)) if spans else 0.0,
        }


def compute_block_table(compiled, analysis):
    """Partition ``compiled`` into superblocks.

    ``analysis`` (the program's :class:`~repro.analysis.StaticAnalysis`)
    supplies the region-exit points for the ``region_work`` flags.
    """
    instrs = compiled.instrs
    n = len(instrs)
    leader = [False] * n
    chain_leader = [False] * n  # leaders of the ``chain_span`` partition
    relevant = [False] * n
    global_names = frozenset(compiled.program.globals)

    for fc in compiled.functions.values():
        if fc.entry_pc < fc.end_pc:
            leader[fc.entry_pc] = chain_leader[fc.entry_pc] = True
        for pc in fc.pcs():
            instr = instrs[pc]
            op = instr.op
            if op in CONTROL_TRANSFER_OPS:
                # the block ends here: the successor (and any explicit
                # target) leads a new one
                if pc + 1 < fc.end_pc:
                    leader[pc + 1] = chain_leader[pc + 1] = True
                for target in (instr.t_target, instr.f_target,
                               instr.jump_target):
                    if target is not None and target >= 0:
                        leader[target] = chain_leader[target] = True
            if instr_may_touch_shared(instr, global_names):
                relevant[pc] = True
                sync = op in (Opcode.ACQUIRE, Opcode.RELEASE)
                for leads in (leader, chain_leader) if sync else (leader,):
                    leads[pc] = True
                    if pc + 1 < fc.end_pc:
                        leads[pc + 1] = True

    span, chain_span = ([1] * n, [1] * n)
    for spans, leads in ((span, leader), (chain_span, chain_leader)):
        for fc in compiled.functions.values():
            for pc in range(fc.end_pc - 2, fc.entry_pc - 1, -1):
                if not leads[pc + 1]:
                    spans[pc] = spans[pc + 1] + 1

    # region bookkeeping: BRANCH pushes; pops fire only at pcs that are
    # some branch's region exit (negative virtual exits never match a
    # real pc, so they are irrelevant here)
    exit_pcs = set()
    for pc in range(n):
        if instrs[pc].op is Opcode.BRANCH:
            exit_pc = analysis.region_exit(pc)
            if exit_pc is not None and 0 <= exit_pc < n:
                exit_pcs.add(exit_pc)
    region_work = [pc in exit_pcs or instrs[pc].op is Opcode.BRANCH
                   for pc in range(n)]

    heads = [pc for pc in range(n) if leader[pc]]
    return BlockTable(span=span, head=leader, relevant=relevant,
                      region_work=region_work, chain_span=chain_span,
                      n_blocks=len(heads), heads=heads)


def block_table_for(compiled, analysis):
    """The (cached) block table of ``compiled``.

    One compiled program has one partition; the table is memoized on the
    compiled object so the thousands of executions a schedule search
    creates share it.
    """
    table = getattr(compiled, "_block_table", None)
    if table is None:
        table = compute_block_table(compiled, analysis)
        compiled._block_table = table
    return table
