"""The instruction compiler: every IR instruction becomes one closure.

:func:`code_for` compiles each instruction of a program once into
``code[pc](execution, thread, frame, effects)``, with everything static
(constants, operators, targets, region exits, callees, sync tuples)
bound at compile time and machine state read through ``execution``,
which checkpoint restore may replace.  ``traced`` closures record uses
and defs into ``effects``; ``fast`` ones record nothing.  The table is
cached on the compiled program and never pickled: pool workers compile
their own from the shipped source program.
"""

from operator import add, eq, ge, gt, le, lt, mul, ne, neg, sub

from ..lang import ast
from ..lang.errors import AssertionFault, DivisionByZero, InterpreterError
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

        def alloc_array(ex, th, fr, eff):
            n, value = size(ex, th, fr, eff), fill(ex, th, fr, eff)
            if not isinstance(n, int) or n < 0:
                raise InterpreterError("bad array size %r" % (n,))
            return ex.heap.alloc_array([value] * n)
        return alloc_array
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
    if isinstance(node, ast.Field):
        return (sub_(node.base), sub_(ast.Const(node.name)), HeapStruct,
                "field %s on non-struct %%r" % verb)
    return (sub_(node.base), sub_(node.index), HeapArray,
            "index %s on non-array %%r" % verb)


def _heap_read(node, sub_, track):
    base, key, cls, error = _cell(node, sub_, "access")

    def read(ex, th, fr, eff):
        pointer, k = base(ex, th, fr, eff), key(ex, th, fr, eff)
        obj = ex.heap.deref(pointer, thread=th.name)
        if not isinstance(obj, cls):
            raise InterpreterError(error % (obj,))
        value = obj.get(k, thread=th.name)
        if track:
            eff.uses.append(heap_loc(pointer.obj_id, k))
        return value
    return read


def compile_store(target, track):
    """Lvalue ``target`` as ``(execution, thread, frame, effects, value)``;
    an unknown name becomes a new local.  ``track`` records as above,
    the stored location going to ``effects.defs``."""
    if isinstance(target, ast.Var):
        name, location = target.name, global_loc(target.name)

        def store_var(ex, th, fr, eff, value):
            if name in fr.locals or name not in ex.globals:
                fr.locals[name] = value
                if track:
                    eff.defs.append(local_loc(th.name, fr.uid, name))
            else:
                ex.globals[name] = value
                if track:
                    eff.defs.append(location)
        return store_var
    if not isinstance(target, (ast.Field, ast.Index)):
        raise InterpreterError("bad assignment target %r" % (target,))
    base, key, cls, error = _cell(
        target, lambda e: compile_expr(e, track), "store")

    def store_cell(ex, th, fr, eff, value):
        pointer, k = base(ex, th, fr, eff), key(ex, th, fr, eff)
        obj = ex.heap.deref(pointer, thread=th.name)
        if not isinstance(obj, cls):
            raise InterpreterError(error % (obj,))
        obj.set(k, value, thread=th.name)
        if track:
            eff.defs.append(heap_loc(pointer.obj_id, k))
    return store_cell


def _compile_instr(instr, compiled, analysis, track, ret_stores):
    op, pc, nxt = instr.op, instr.pc, instr.pc + 1
    if op is Opcode.ASSIGN:
        value = compile_expr(instr.expr, track)
        store = compile_store(instr.target, track)

        def run(ex, th, fr, eff):
            store(ex, th, fr, eff, value(ex, th, fr, eff))
            fr.pc = nxt
    elif op is Opcode.BRANCH:
        cond = compile_expr(instr.cond, track)
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
        args = [compile_expr(a, track) for a in instr.args]
        callee, ret_target = instr.callee, instr.target
        params = compiled.func_code(callee).params
        if ret_target is not None:
            ret_stores[nxt] = compile_store(ret_target, track)

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
        value = compile_expr(instr.expr or ast.Const(None), track)

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
            fr.pc = nxt
    elif op is Opcode.ASSERT:
        cond, message = compile_expr(instr.cond, track), instr.message

        def run(ex, th, fr, eff):
            if not truthy(cond(ex, th, fr, eff)):
                raise AssertionFault(message, pc=pc, thread=th.name)
            fr.pc = nxt
    elif op is Opcode.OUTPUT:
        value = compile_expr(instr.expr, track)

        def run(ex, th, fr, eff):
            result = value(ex, th, fr, eff)
            ex.output.append((th.name, result))
            eff.output_value = result
            fr.pc = nxt
    else:
        raise InterpreterError("cannot compile opcode %r" % (op,))
    return run


class CodeTable:
    """One program's closures by pc: ``fast[pc]`` untracked,
    ``traced[pc]`` tracking uses/defs, and ``acquire_lock[pc]`` — the
    lock an ``ACQUIRE`` at ``pc`` takes, None elsewhere."""

    def __init__(self, compiled, analysis):
        self.fast, self.traced = (
            [_compile_instr(instr, compiled, analysis, track, ret_stores)
             for instr in compiled.instrs]
            for track, ret_stores in ((False, {}), (True, {})))
        self.acquire_lock = [instr.lock if instr.op is Opcode.ACQUIRE
                             else None for instr in compiled.instrs]


def code_for(compiled, analysis):
    """The :class:`CodeTable` of ``compiled``, built on first use."""
    table = getattr(compiled, "_code_table", None)
    if table is None:
        table = compiled._code_table = CodeTable(compiled, analysis)
    return table
