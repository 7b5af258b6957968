"""The instruction compiler: traced closures and emitted chain code.

:func:`code_for` builds one :class:`CodeTable` per program, cached on
the compiled program and never pickled.  ``traced[pc]`` is a closure
that records uses and defs: :meth:`Execution.step` runs it, so hooks
(tracing, alignment, instcount) see every access.
:meth:`CodeTable.emitted` generates one Python function per IR function
that runs a whole chain of blocks in a single frame and records no uses
or defs.  It resolves names statically (a name is a local iff it is a
parameter or not a program global), keeps the step count and pc in
Python locals, and applies the scheduler's stop rule itself: a chain
break where a chain block ends, a sync budget at each sync, and the
seeded multicore scheduler's draw at every instruction boundary.
Program text enters it only as the ``repr`` of a str, int, finite float
or bool, or as a name bound in its namespace.  Code objects are cached
process-wide by a digest of their source.
"""

import math
import threading
from hashlib import blake2b
from operator import add, eq, ge, gt, le, lt, mul, ne, neg, sub

from ..lang import ast
from ..lang.errors import (
    AssertionFault,
    DivisionByZero,
    InterpreterError,
    RuntimeFault,
)
from ..lang.lower import Opcode
from ..lang.values import NULL, Pointer
from .events import global_loc, heap_loc, local_loc
from .frames import RegionEntry, ThreadStatus
from .heap import HeapArray, HeapStruct
from .sync import LockTable


def truthy(value):
    return not value.is_null if isinstance(value, Pointer) else bool(value)


def _div(left, right):
    if right == 0:
        raise DivisionByZero("division by zero")
    return left // right if isinstance(left, int) else left / right


def _mod(left, right):
    if right == 0:
        raise DivisionByZero("modulo by zero")
    return left % right


_BINARY = {
    "+": add, "-": sub, "*": mul, "/": _div, "%": _mod,
    "<": lt, "<=": le, ">": gt, ">=": ge, "==": eq, "!=": ne,
    "and": lambda left, right: truthy(left) and truthy(right),
    "or": lambda left, right: truthy(left) or truthy(right),
}
_UNARY = {"not": lambda value: not truthy(value), "-": neg}


def _failing(message):
    """An operator that raises :class:`InterpreterError` once applied."""
    def fail(*_operands):
        raise InterpreterError(message)
    return fail


# -- heap cells and region pops, shared by both forms ------------------------

#: per cell expression: the heap object class it needs and, for any
#: other object, the error (formatted with "access" or "store")
_CELLS = {ast.Field: (HeapStruct, "field %s on non-struct %%r"),
          ast.Index: (HeapArray, "index %s on non-array %%r")}


def _load(heap, pointer, key, cls, error, thread):
    obj = heap.deref(pointer, thread=thread)
    if not isinstance(obj, cls):
        raise InterpreterError(error % (obj,))
    return obj.get(key, thread=thread)


def _store(heap, pointer, key, value, cls, error, thread):
    obj = heap.deref(pointer, thread=thread)
    if not isinstance(obj, cls):
        raise InterpreterError(error % (obj,))
    obj.set(key, value, thread=thread)


def _field(heap, pointer, name, thread):
    """``pointer->name`` for emitted code; anything but a present field
    of a live struct goes through :func:`_load`, which faults."""
    obj = heap._objects.get(pointer.obj_id) \
        if pointer.__class__ is Pointer else None
    if obj.__class__ is HeapStruct and name in obj.fields:
        return obj.fields[name]
    return _load(heap, pointer, name, HeapStruct,
                 "field access on non-struct %r", thread)


def _index(heap, pointer, index, thread):
    """``pointer[index]`` for emitted code, like :func:`_field`."""
    obj = heap._objects.get(pointer.obj_id) \
        if pointer.__class__ is Pointer else None
    if obj.__class__ is HeapArray and index.__class__ is int \
            and 0 <= index < len(obj.elements):
        return obj.elements[index]
    return _load(heap, pointer, index, HeapArray,
                 "index access on non-array %r", thread)


#: classes a heap cell takes without :func:`check_value`'s isinstance walk
_PLAIN = frozenset((int, bool, float, str, Pointer, type(None)))


def _put(heap, pointer, key, value, cls, error, thread):
    """A heap store for emitted code, like :func:`_field`."""
    obj = heap._objects.get(pointer.obj_id) \
        if pointer.__class__ is Pointer else None
    if value.__class__ not in _PLAIN:
        _store(heap, pointer, key, value, cls, error, thread)
    elif obj.__class__ is HeapStruct is cls and key in obj.fields:
        obj.fields[key] = value
    elif obj.__class__ is HeapArray is cls and key.__class__ is int \
            and 0 <= key < len(obj.elements):
        obj.elements[key] = value
    else:
        _store(heap, pointer, key, value, cls, error, thread)


def _alloc_array(heap, size, fill):
    if not isinstance(size, int) or size < 0:
        raise InterpreterError("bad array size %r" % (size,))
    return heap.alloc_array([fill] * size)


def pop_regions(frame, pc):
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


# -- the closures -------------------------------------------------------------

def compile_expr(expr, track, alloc=True):
    """``expr`` as a closure ``(execution, thread, frame, effects) -> value``.

    With ``track`` every read location is appended to ``effects.uses``;
    without it ``effects`` is never touched (it may be None).
    ``alloc=False`` makes allocations fault, for read-only evaluation.
    """
    def sub_(e):
        return compile_expr(e, track, alloc)

    if isinstance(expr, ast.Const):
        value = expr.value
        return lambda ex, th, fr, eff: value
    if isinstance(expr, ast.Null):
        return lambda ex, th, fr, eff: NULL
    if isinstance(expr, ast.Var):
        return _var(expr.name, track)
    if isinstance(expr, ast.Bin):
        fn = _BINARY.get(expr.op) or _failing("unknown binary op %r" % expr.op)
        left, right = sub_(expr.left), sub_(expr.right)
        if isinstance(expr.right, ast.Const):
            const = expr.right.value
            return lambda ex, th, fr, eff: fn(left(ex, th, fr, eff), const)
        return lambda ex, th, fr, eff: fn(left(ex, th, fr, eff),
                                          right(ex, th, fr, eff))
    if isinstance(expr, ast.Un):
        fn = _UNARY.get(expr.op) or _failing("unknown unary op %r" % expr.op)
        operand = sub_(expr.operand)
        return lambda ex, th, fr, eff: fn(operand(ex, th, fr, eff))
    if isinstance(expr, (ast.Field, ast.Index)):
        return _heap_read(expr, sub_, track)
    if isinstance(expr, (ast.AllocStruct, ast.AllocArray)) and not alloc:
        fn = _failing("allocation in a read-only evaluation")
        return lambda ex, th, fr, eff: fn()
    if isinstance(expr, ast.AllocStruct):
        fields = [(name, sub_(e)) for name, e in expr.fields]
        return lambda ex, th, fr, eff: ex.heap.alloc_struct(
            {name: e(ex, th, fr, eff) for name, e in fields})
    if isinstance(expr, ast.AllocArray) and expr.elements is not None:
        elements = [sub_(e) for e in expr.elements]
        return lambda ex, th, fr, eff: ex.heap.alloc_array(
            [e(ex, th, fr, eff) for e in elements])
    if isinstance(expr, ast.AllocArray):
        size, fill = sub_(expr.size), sub_(expr.fill)
        return lambda ex, th, fr, eff: _alloc_array(
            ex.heap, size(ex, th, fr, eff), fill(ex, th, fr, eff))
    raise InterpreterError("cannot compile expression %r" % (expr,))


def _var(name, track):
    location = global_loc(name)

    def read(ex, th, fr, eff):
        if name in fr.locals:
            eff.uses.append(local_loc(th.name, fr.uid, name))
        elif name in ex.globals:
            eff.uses.append(location)
        return read_fast(ex, th, fr, eff)

    def read_fast(ex, th, fr, eff):
        local_vars = fr.locals
        if name in local_vars:
            return local_vars[name]
        global_vars = ex.globals
        if name in global_vars:
            return global_vars[name]
        raise InterpreterError("undefined variable %r in %s" % (name, fr.func))

    return read if track else read_fast


def _cell(node, sub_, verb):
    """``(base, key, object class, error)`` of a Field or Index node."""
    cls, error = _CELLS[type(node)]
    key = sub_(ast.Const(node.name) if isinstance(node, ast.Field)
               else node.index)
    return sub_(node.base), key, cls, error % verb


def _heap_read(node, sub_, track):
    base, key, cls, error = _cell(node, sub_, "access")

    def read(ex, th, fr, eff):
        pointer, k = base(ex, th, fr, eff), key(ex, th, fr, eff)
        value = _load(ex.heap, pointer, k, cls, error, th.name)
        if track:
            eff.uses.append(heap_loc(pointer.obj_id, k))
        return value
    return read


def compile_store(target):
    """Lvalue ``target`` as ``(execution, thread, frame, effects, value)``;
    an unknown name becomes a new local.  The stored location goes to
    ``effects.defs``, the locations read on the way to ``effects.uses``."""
    if isinstance(target, ast.Var):
        name, location = target.name, global_loc(target.name)

        def store_var(ex, th, fr, eff, value):
            if name in fr.locals or name not in ex.globals:
                fr.locals[name] = value
                eff.defs.append(local_loc(th.name, fr.uid, name))
            else:
                ex.globals[name] = value
                eff.defs.append(location)
        return store_var
    if not isinstance(target, (ast.Field, ast.Index)):
        raise InterpreterError("bad assignment target %r" % (target,))
    base, key, cls, error = _cell(
        target, lambda e: compile_expr(e, True), "store")

    def store_cell(ex, th, fr, eff, value):
        pointer, k = base(ex, th, fr, eff), key(ex, th, fr, eff)
        _store(ex.heap, pointer, k, value, cls, error, th.name)
        eff.defs.append(heap_loc(pointer.obj_id, k))
    return store_cell


def _compile_instr(instr, compiled, analysis, ret_stores):
    """The traced closure of ``instr``."""
    op, pc, nxt = instr.op, instr.pc, instr.pc + 1
    if op is Opcode.ASSIGN:
        value = compile_expr(instr.expr, True)
        store = compile_store(instr.target)

        def run(ex, th, fr, eff):
            store(ex, th, fr, eff, value(ex, th, fr, eff))
            fr.pc = nxt
    elif op is Opcode.BRANCH:
        cond = compile_expr(instr.cond, True)
        exit_pc = analysis.region_exit(pc)
        loop_id = instr.loop_id if instr.is_loop else None
        counted = instr.is_loop and instr.counter_var is None
        on_true, on_false = instr.t_target, instr.f_target

        def run(ex, th, fr, eff):
            outcome = truthy(cond(ex, th, fr, eff))
            eff.branch_outcome = outcome
            fr.region_stack.append(RegionEntry(
                pc, outcome, exit_pc, ex.step_count, loop_id))
            if not outcome:
                fr.pc = on_false
                return
            if counted and ex.instrument_loops:
                counters = fr.loop_counters
                counters[loop_id] = counters.get(loop_id, 0) + 1
            fr.pc = on_true
    elif op in (Opcode.JUMP, Opcode.NOP):
        target = nxt if op is Opcode.NOP else instr.jump_target

        def run(ex, th, fr, eff):
            fr.pc = target
    elif op is Opcode.CALL:
        args = [compile_expr(a, True) for a in instr.args]
        callee, ret_target = instr.callee, instr.target
        params = compiled.func_code(callee).params
        if ret_target is not None:
            ret_stores[nxt] = compile_store(ret_target)

        def run(ex, th, fr, eff):
            values = [a(ex, th, fr, eff) for a in args]
            if len(values) != len(params):
                raise InterpreterError("call %s: %d args for %d params"
                                       % (callee, len(values), len(params)))
            th.frames.append(ex._new_frame(
                callee, zip(params, values), ret_target=ret_target,
                return_to=nxt, call_step=ex.step_count))
            eff.call = callee
            eff.entered_frame = True
    elif op is Opcode.RETURN:
        value = compile_expr(instr.expr or ast.Const(None), True)

        def run(ex, th, fr, eff):
            result = value(ex, th, fr, eff)
            frames = th.frames
            popped = frames.pop()
            eff.ret_from = popped.func
            if not frames:
                th.status = ThreadStatus.DONE
                return
            caller = frames[-1]
            caller.pc = popped.return_to
            if popped.ret_target is not None:
                # every frame comes from a CALL, whose ret-target store is
                # compiled under the pc its caller resumes at
                ret_stores[popped.return_to](ex, th, caller, eff, result)
    elif op in (Opcode.ACQUIRE, Opcode.RELEASE):
        lock, sync = instr.lock, (op.value, instr.lock)
        method = getattr(LockTable, op.value)

        def run(ex, th, fr, eff):
            method(ex.locks, lock, th.name, pc=pc)
            eff.sync = sync
            eff.syncs += (sync,)
            fr.pc = nxt
    elif op is Opcode.ASSERT:
        cond, message = compile_expr(instr.cond, True), instr.message

        def run(ex, th, fr, eff):
            if not truthy(cond(ex, th, fr, eff)):
                raise AssertionFault(message, pc=pc, thread=th.name)
            fr.pc = nxt
    elif op is Opcode.OUTPUT:
        value = compile_expr(instr.expr, True)

        def run(ex, th, fr, eff):
            result = value(ex, th, fr, eff)
            ex.output.append((th.name, result))
            eff.output_value = result
            fr.pc = nxt
    else:
        raise InterpreterError("cannot compile opcode %r" % (op,))
    return run


# -- the emitter --------------------------------------------------------------

#: operators emitted as Python operators (the source text is ours)
_INFIX = {op: op for op in "+ - * < <= > >= == !=".split()}
#: operators whose result is already the bool ``truthy`` would give
_BOOLEAN = frozenset("< <= > >= == != and or".split())
_SYNC_OPS = (Opcode.ACQUIRE, Opcode.RELEASE)
#: the locals every emitted function binds on entry
_PROLOGUE = ["G = ex.globals", "H = ex.heap", "LT = ex.locks",
             "OWN = LT._owner", "L = fr.locals", "RS = fr.region_stack",
             "tn = th.name"]
#: the check at an instruction boundary inside a chain: the running
#: thread's chain ends on a drawn switch (see ``Execution.draw``)
_DRAW = ["if D and R() < P and SW():", " r = False", " break"]


def _indent(lines, depth=1):
    pad = " " * depth  # one space a level keeps deep dispatch trees small
    return [pad + line for line in lines]


def _spent(budget, sync):
    """Count ``sync`` against a chain's budget: True when none of its
    kind was left, so a plan item matches it and the chain must end."""
    left = budget.get(sync)
    if left:
        budget[sync] = left - 1
    return left == 0


def _reraise(exc, pc, func):
    """``exc`` as the closures raise it: a fault carries the pc of its
    instruction, and a missing local (the only ``KeyError`` emitted code
    can meet) is an undefined variable."""
    if isinstance(exc, RuntimeFault):
        exc.pc = pc
    elif type(exc) is KeyError:
        return InterpreterError("undefined variable %r in %s"
                                % (exc.args[0], func))
    return exc


_NAMESPACE = dict(
    {fn.__name__: fn for fn in (truthy, pop_regions, _field, _index, _put,
                                _alloc_array, _spent, _reraise)},
    NULL=NULL, RegionEntry=RegionEntry, DONE=ThreadStatus.DONE,
    InterpreterError=InterpreterError, AssertionFault=AssertionFault)


class _Emitter:
    """The source of one IR function: ``run`` and a ``ret<pc>`` store
    for each call site with a return target."""

    def __init__(self, table, fc, span, exits):
        self.table, self.fc, self.span, self.exits = table, fc, span, exits
        self.instrs = table.compiled.instrs
        self.globals = frozenset(
            table.compiled.program.globals).difference(fc.params)
        self.bound = {}  # namespace name -> value too odd for a literal

    def lit(self, value):
        kind = type(value)
        if value is None or kind in (bool, int, str) or (
                kind is float and math.isfinite(value)):
            return repr(value)
        name = "_k%d" % len(self.bound)
        self.bound[name] = value
        return name

    def var(self, name):
        return "%s[%s]" % ("G" if name in self.globals else "L",
                           self.lit(name))

    def expr(self, e):
        sub = self.expr
        if isinstance(e, ast.Const):
            return self.lit(e.value)
        if isinstance(e, ast.Null):
            return "NULL"
        if isinstance(e, ast.Var):
            return self.var(e.name)
        if isinstance(e, ast.Bin):
            if e.op in _INFIX:
                return "(%s %s %s)" % (sub(e.left), _INFIX[e.op], sub(e.right))
            return "%s(%s, %s)" % (self.lit(_BINARY.get(e.op) or _failing(
                "unknown binary op %r" % (e.op,))), sub(e.left), sub(e.right))
        if isinstance(e, ast.Un) and e.op in ("not", "-"):
            return ("(not truthy(%s))" if e.op == "not" else "(-%s)") \
                % sub(e.operand)
        if isinstance(e, ast.Un):
            return "%s(%s)" % (self.lit(_failing(
                "unknown unary op %r" % (e.op,))), sub(e.operand))
        if isinstance(e, ast.Field):
            return "_field(H, %s, %s, tn)" % (sub(e.base), self.lit(e.name))
        if isinstance(e, ast.Index):
            return "_index(H, %s, %s, tn)" % (sub(e.base), sub(e.index))
        if isinstance(e, ast.AllocStruct):
            return "H.alloc_struct({%s})" % ", ".join(
                "%s: %s" % (self.lit(name), sub(v)) for name, v in e.fields)
        if isinstance(e, ast.AllocArray) and e.elements is not None:
            return "H.alloc_array([%s])" % ", ".join(map(sub, e.elements))
        if isinstance(e, ast.AllocArray):
            return "_alloc_array(H, %s, %s)" % (sub(e.size), sub(e.fill))
        raise InterpreterError("cannot compile expression %r" % (e,))

    def test(self, e):
        """``e`` as a bool, skipping ``truthy`` where it is one already."""
        if isinstance(e, ast.Bin) and e.op in _BOOLEAN or (
                isinstance(e, ast.Un) and e.op == "not"):
            return self.expr(e)
        return "truthy(%s)" % self.expr(e)

    def store(self, target, value):
        """Lines storing source ``value`` (evaluated first) at ``target``."""
        if isinstance(target, ast.Var):
            return ["%s = %s" % (self.var(target.name), value)]
        cls, error = _CELLS[type(target)]
        key = self.lit(target.name) if isinstance(target, ast.Field) \
            else self.expr(target.index)
        return ["v = %s" % value, "_put(H, %s, %s, v, %s, %s, tn)" % (
            self.expr(target.base), key, self.lit(cls),
            self.lit(error % "store"))]

    def instr(self, pc):
        """The leaf of the dispatch tree at ``pc``: the instruction, the
        step, the next ``pc``, and the stop checks due where a chain
        block ends.  ``r = True; break`` leaves after a frame was pushed
        or popped."""
        i, lit = self.instrs[pc], self.lit
        op = i.op
        out = [] if pc not in self.exits else [
            "while RS and RS[-1].exit_pc == %d:" % pc, " RS.pop()"] \
            if not self.exits[pc] else [  # no loop's counter to drop
            "if RS and RS[-1].exit_pc == %d:" % pc,
            " pop_regions(fr, %d)" % pc]
        if op is Opcode.ASSIGN:
            out += self.store(i.target, self.expr(i.expr))
        elif op is Opcode.ASSERT:
            out += ["if not %s:" % self.test(i.cond),
                    " raise AssertionFault(%s, pc=%d, thread=tn)"
                    % (lit(i.message), pc)]
        elif op is Opcode.OUTPUT:
            out.append("ex.output.append((tn, %s))" % self.expr(i.expr))
        elif op in _SYNC_OPS:
            lock, acquire = lit(i.lock), op is Opcode.ACQUIRE
            out += ["if OWN[%s] %s:" % (lock, "is not None" if acquire
                                        else "!= tn"),
                    " LT.%s(%s, tn, pc=%d)" % (op.value, lock, pc),
                    "OWN[%s] = %s" % (lock, "tn" if acquire else "None"),
                    "eff.sync = s = (%r, %s)" % (op.value, lock),
                    "eff.syncs += (s,)"]
        elif op is Opcode.BRANCH:
            loop_id = i.loop_id if i.is_loop else None
            out += ["c = %s" % self.test(i.cond),
                    "RS.append(RegionEntry(%d, c, %s, S, %s))" % (
                        pc, lit(self.table.analysis.region_exit(pc)),
                        lit(loop_id)), "S += 1", "if c:"]
            if i.is_loop and i.counter_var is None:
                out += [" if ex.instrument_loops:",
                        "  LC = fr.loop_counters",
                        "  LC[%d] = LC.get(%d, 0) + 1" % (loop_id, loop_id)]
            return (out + _indent(self.goto(pc, i.t_target)) + ["else:"]
                    + _indent(self.goto(pc, i.f_target)))
        elif op is Opcode.CALL:
            params = self.table.compiled.func_code(i.callee).params
            args = ["a%d" % n for n in range(len(i.args))]
            out += ["%s = %s" % (a, self.expr(e))
                    for a, e in zip(args, i.args)]
            if len(args) != len(params):
                out.append("raise InterpreterError(%s)" % lit(
                    "call %s: %d args for %d params"
                    % (i.callee, len(args), len(params))))
            out.append("th.frames.append(ex._new_frame(%s, (%s), ret_target"
                       "=%s, return_to=%d, call_step=S))" % (
                           lit(i.callee), "".join(
                               "(%s, %s), " % (lit(p), a)
                               for p, a in zip(params, args)),
                           lit(i.target), pc + 1))
            return out + ["S += 1", "r = True", "break"]
        elif op is Opcode.RETURN:
            return out + [
                "v = %s" % self.expr(i.expr or ast.Const(None)),
                "F = th.frames", "p = F.pop()", "if F:", " c = F[-1]",
                " c.pc = p.return_to", " if p.ret_target is not None:",
                "  RET[p.return_to](ex, th, c, eff, v)", "else:",
                " th.status = DONE", "S += 1", "r = True", "break"]
        return out + ["S += 1"] + self.goto(
            pc, i.jump_target if op is Opcode.JUMP else pc + 1)

    def goto(self, pc, target):
        """Lines moving on from ``pc`` to ``target``, with the stop
        checks due if ``pc`` ends its chain block: after a sync that
        ``settled`` (True, or a budget) does not let pass, and before
        an ``ACQUIRE`` it does not let pass or of a lock another thread
        holds."""
        out = ["pc = %d" % target]
        if self.span[pc] > 1:
            return out  # the chain block goes on at ``target``
        if self.instrs[pc].op in _SYNC_OPS:
            out += ["if settled is not True and (",
                    "  not settled or _spent(settled, s)):", " r = False",
                    " break"]
        lock = self.table.acquire_lock[target]
        if lock is not None:
            out += ["if settled is not True and (not settled or settled.get("
                    "('acquire', %s)) == 0):" % self.lit(lock), " r = False",
                    " break", "o = OWN[%s]" % self.lit(lock),
                    "if o is not None and o != tn:", " r = False", " break"]
        return out

    def leaf(self, pc):
        """The instruction at ``pc`` and, at a chain block's head, the
        rest of the block after it, so a block runs without dispatch."""
        out = self.instr(pc)
        if pc == self.fc.entry_pc or self.span[pc - 1] == 1:
            for nxt in range(pc + 1, pc + self.span[pc]):
                out += ["if S >= stop:", " break"] + _DRAW + self.instr(nxt)
        return out

    def tree(self, keys, depth):
        """Binary dispatch on ``pc`` over sorted ``keys``."""
        if len(keys) == 1:
            return _indent(self.leaf(keys[0]), depth)
        mid, pad = len(keys) // 2, " " * depth
        return ([pad + "if pc < %d:" % keys[mid]]
                + self.tree(keys[:mid], depth + 1) + [pad + "else:"]
                + self.tree(keys[mid:], depth + 1))

    def module(self):
        """``run`` leaves its loop by ``break`` with its result in ``r``;
        ``pc`` and ``S`` are written back on every way out."""
        fc, back = self.fc, [" fr.pc = pc", " ex.step_count = S"]
        out = ["def run(ex, th, fr, eff, settled, stop):",
               " pc = fr.pc", " S = ex.step_count"] + _indent(
            _PROLOGUE + ["D = ex.draw", "if D:", " R, P, SW = D", "r = None",
                         "try:", " while True:"]) + self.tree(
            list(fc.pcs()), 3) + [
            "   if S >= stop:", "    break", *_indent(_DRAW, 3),
            " except BaseException as exc:", *_indent(back),
            "  raise _reraise(exc, pc, FUNC) from None", *back, " return r"]
        for i in self.instrs[fc.entry_pc:fc.end_pc]:
            if i.op is Opcode.CALL and i.target is not None:
                out += ["def ret%d(ex, th, fr, eff, value):" % (i.pc + 1)]
                out += _indent(_PROLOGUE + ["try:"] + _indent(
                    self.store(i.target, "value")) + [
                    "except BaseException as exc:",
                    " raise _reraise(exc, None, FUNC) from None"])
        return "\n".join(out) + "\n"


#: emitted code objects by a digest of their source (None: rejected);
#: process-wide, emptied whenever it holds 512
_CODES, _CODES_LOCK = {}, threading.Lock()


def _compile(source):
    key = blake2b(source.encode(), digest_size=16).digest()
    code = _CODES.get(key, False)
    if code is False:
        try:
            code = compile(source, "<emitted>", "exec")
        except (SyntaxError, RecursionError, MemoryError):
            code = None  # nested past the parser's limit, say
        with _CODES_LOCK:
            if len(_CODES) >= 512:
                _CODES.clear()
            _CODES[key] = code
    return code


class CodeTable:
    """One program's code by pc: ``traced[pc]`` closures tracking uses
    and defs, and ``acquire_lock[pc]`` — the lock an ``ACQUIRE`` at
    ``pc`` takes, None elsewhere."""

    def __init__(self, compiled, analysis):
        self.compiled, self.analysis = compiled, analysis
        ret_stores = {}
        self.traced = [_compile_instr(instr, compiled, analysis, ret_stores)
                       for instr in compiled.instrs]
        self.acquire_lock = [instr.lock if instr.op is Opcode.ACQUIRE
                             else None for instr in compiled.instrs]
        self._emitted = False

    def emitted(self, blocks):
        """``run`` by IR function name, emitted on first use; None when
        some function's source does not compile.

        ``run(ex, th, fr, eff, settled, stop)`` executes ``fr``'s
        instructions until the step count reaches ``stop``, until a
        chain block of ``blocks.chain_span`` ends at a stop check or
        ``ex.draw`` draws a switch (returning False; None when the step
        count stopped it), or until a ``CALL`` or ``RETURN`` (returning
        True).  It leaves ``fr.pc`` and ``ex.step_count`` exact, also
        when an instruction raises.
        """
        if self._emitted is False:
            self._emitted = self._emit(blocks.chain_span)
        return self._emitted

    def _emit(self, span):
        exits = {}  # region exit pc -> whether a loop's region exits there
        for instr in self.compiled.instrs:
            if instr.op is Opcode.BRANCH:
                exit_pc = self.analysis.region_exit(instr.pc)
                exits[exit_pc] = exits.get(exit_pc, False) or instr.is_loop
        ret, runs = [None] * len(span), {}
        for fc in self.compiled.functions.values():
            emitter = _Emitter(self, fc, span, exits)
            code = _compile(emitter.module())
            if code is None:
                return None
            namespace = dict(_NAMESPACE, RET=ret, FUNC=fc.name,
                             **emitter.bound)
            exec(code, namespace)
            runs[fc.name] = namespace["run"]
            for name, value in namespace.items():
                if name.startswith("ret"):
                    ret[int(name[3:])] = value
        return runs


def code_for(compiled, analysis):
    """The :class:`CodeTable` of ``compiled``, built on first use."""
    table = getattr(compiled, "_code_table", None)
    if table is None:
        table = compiled._code_table = CodeTable(compiled, analysis)
    return table
