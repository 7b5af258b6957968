"""The instruction compiler against a reference tree walker.

Random expression and lvalue trees over locals, globals, structs and
arrays are compiled (expressions with and without uses/defs tracking,
stores with it) and run on identical fresh executions.  Every closure
must agree with ``walk`` — a direct tree walk written here as the
reference semantics — on the value, the fault class and message, and
the resulting machine state; a tracking closure's uses and defs must
equal the walker's.
"""

import functools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import ReproductionConfig, ReproSession
from repro.analysis import StaticAnalysis
from repro.bugs import get_scenario
from repro.lang import ast
from repro.lang import builder as B
from repro.lang.errors import DivisionByZero, InterpreterError
from repro.lang.lower import lower_program
from repro.lang.values import NULL, Pointer
from repro.pipeline.bundle import ProgramBundle
from repro.pipeline.stress import _stress_spec
from repro.runtime import DeterministicScheduler, Execution, StepEffects
from repro.runtime.codegen import compile_expr, compile_store
from repro.runtime.heap import HeapArray, HeapStruct

GLOBALS = {"g": 3, "z": 0, "t": True, "f": 2.5, "s": {"a": 1, "b": 0},
           "arr": [4, 0, 7], "np": None}
#: locals of the evaluating frame; ``g`` shadows the global, ``q``
#: aliases the struct global ``s``
NAMES = ["x", "y", "q", "g", "z", "t", "f", "s", "arr", "np", "undef"]
FIELDS = ["a", "b", "nofield"]
BINARY = sorted(ast.BINARY_OPS) + ["<<"]  # "<<" is not a language op

@functools.cache
def compiled_program():
    prog = B.program("codegen", globals_=GLOBALS,
                     functions=[B.func("main", [], [B.skip()])],
                     threads=[B.thread("t0", "main")])
    compiled = lower_program(prog)
    return compiled, StaticAnalysis(compiled)


def fresh():
    """A new execution with the test frame's locals installed."""
    ex = Execution(*compiled_program(), DeterministicScheduler())
    thread = ex.threads["t0"]
    frame = thread.frames[-1]
    frame.locals.update(x=2, y=0, g=10, q=ex.globals["s"])
    return ex, thread, frame


def state(ex, frame):
    heap = [(oid, type(obj).__name__, obj.cells())
            for oid, obj in ex.heap.objects()]
    return heap, dict(ex.globals), dict(frame.locals)


def outcome(run):
    try:
        value = run()
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))
    return ("ok", type(value).__name__, value)


# ---------------------------------------------------------------------------
# the reference semantics
# ---------------------------------------------------------------------------

def truthy(value):
    return not value.is_null if isinstance(value, Pointer) else bool(value)


def apply_bin(op, left, right):
    if op in ("/", "%") and right == 0:
        raise DivisionByZero("division by zero" if op == "/"
                             else "modulo by zero")
    if op == "/":
        return left // right if isinstance(left, int) else left / right
    if op == "and":
        return truthy(left) and truthy(right)
    if op == "or":
        return truthy(left) or truthy(right)
    if op not in ast.BINARY_OPS:
        raise InterpreterError("unknown binary op %r" % op)
    return eval("left %s right" % op)


def walk(ex, frame, expr, uses):
    """Evaluate ``expr`` by walking the tree; reads go to ``uses``."""
    if isinstance(expr, ast.Const):
        return expr.value
    if isinstance(expr, ast.Null):
        return NULL
    if isinstance(expr, ast.Var):
        if expr.name in frame.locals:
            uses.append(("local", "t0", frame.uid, expr.name))
            return frame.locals[expr.name]
        if expr.name in ex.globals:
            uses.append(("global", expr.name))
            return ex.globals[expr.name]
        raise InterpreterError(
            "undefined variable %r in %s" % (expr.name, frame.func))
    if isinstance(expr, ast.Bin):
        left = walk(ex, frame, expr.left, uses)
        return apply_bin(expr.op, left, walk(ex, frame, expr.right, uses))
    if isinstance(expr, ast.Un):
        operand = walk(ex, frame, expr.operand, uses)
        return not truthy(operand) if expr.op == "not" else -operand
    if isinstance(expr, ast.Field):
        base = walk(ex, frame, expr.base, uses)
        obj = ex.heap.deref(base, thread="t0")
        if not isinstance(obj, HeapStruct):
            raise InterpreterError("field access on non-struct %r" % (obj,))
        value = obj.get(expr.name)
        uses.append(("heap", base.obj_id, expr.name))
        return value
    if isinstance(expr, ast.Index):
        base = walk(ex, frame, expr.base, uses)
        idx = walk(ex, frame, expr.index, uses)
        obj = ex.heap.deref(base, thread="t0")
        if not isinstance(obj, HeapArray):
            raise InterpreterError("index access on non-array %r" % (obj,))
        value = obj.get(idx, thread="t0")
        uses.append(("heap", base.obj_id, idx))
        return value
    if isinstance(expr, ast.AllocStruct):
        return ex.heap.alloc_struct(
            {name: walk(ex, frame, e, uses) for name, e in expr.fields})
    if expr.elements is not None:
        return ex.heap.alloc_array(
            [walk(ex, frame, e, uses) for e in expr.elements])
    size = walk(ex, frame, expr.size, uses)
    fill = walk(ex, frame, expr.fill, uses)
    if not isinstance(size, int) or size < 0:
        raise InterpreterError("bad array size %r" % (size,))
    return ex.heap.alloc_array([fill] * size)


def walk_store(ex, frame, target, value, uses, defs):
    """Store ``value`` at lvalue ``target``; locations go to uses/defs."""
    if isinstance(target, ast.Var):
        name = target.name
        if name in frame.locals or name not in ex.globals:
            frame.locals[name] = value
            defs.append(("local", "t0", frame.uid, name))
        else:
            ex.globals[name] = value
            defs.append(("global", name))
        return
    base = walk(ex, frame, target.base, uses)
    if isinstance(target, ast.Field):
        obj = ex.heap.deref(base, thread="t0")
        if not isinstance(obj, HeapStruct):
            raise InterpreterError("field store on non-struct %r" % (obj,))
        obj.set(target.name, value)
        defs.append(("heap", base.obj_id, target.name))
        return
    idx = walk(ex, frame, target.index, uses)
    obj = ex.heap.deref(base, thread="t0")
    if not isinstance(obj, HeapArray):
        raise InterpreterError("index store on non-array %r" % (obj,))
    obj.set(idx, value, thread="t0")
    defs.append(("heap", base.obj_id, idx))


# ---------------------------------------------------------------------------
# generated trees
# ---------------------------------------------------------------------------

LEAVES = st.one_of(
    st.integers(min_value=-2, max_value=3).map(ast.Const),
    st.sampled_from([True, False, 1.5]).map(ast.Const),
    st.just(ast.Null()),
    st.sampled_from(NAMES).map(ast.Var),
)


def _compound(inner):
    return st.one_of(
        st.builds(ast.Bin, st.sampled_from(BINARY), inner, inner),
        st.builds(ast.Un, st.sampled_from(["not", "-"]), inner),
        st.builds(ast.Field, inner, st.sampled_from(FIELDS)),
        st.builds(ast.Index, inner, inner),
        st.builds(lambda a, b: ast.AllocStruct((("a", a), ("b", b))),
                  inner, inner),
        st.builds(lambda n, fill: ast.AllocArray(size=n, fill=fill),
                  inner, inner),
        st.lists(inner, max_size=3).map(
            lambda es: ast.AllocArray(elements=tuple(es))),
    )


EXPRS = st.recursive(LEAVES, _compound, max_leaves=8)
TARGETS = st.one_of(
    st.sampled_from(NAMES + ["fresh"]).map(ast.Var),
    st.builds(ast.Field, EXPRS, st.sampled_from(FIELDS)),
    st.builds(ast.Index, EXPRS, EXPRS),
)
VALUES = st.one_of(st.integers(min_value=-1, max_value=2), st.just(NULL))


def check_expr(expr):
    ref_ex, _thread, ref_frame = fresh()
    ref_uses = []
    expected = outcome(lambda: walk(ref_ex, ref_frame, expr, ref_uses))
    for track in (True, False):
        ex, thread, frame = fresh()
        # the untracked closure must never touch its effects argument
        effects = StepEffects(thread="t0", step=0, pc=0, op=None) \
            if track else None
        code = compile_expr(expr, track)
        assert outcome(lambda: code(ex, thread, frame, effects)) == expected
        assert state(ex, frame) == state(ref_ex, ref_frame)
        if track:
            assert effects.uses == ref_uses
            assert effects.defs == []
    return expected


def check_store(target, value):
    ref_ex, _thread, ref_frame = fresh()
    ref_uses, ref_defs = [], []
    expected = outcome(lambda: walk_store(ref_ex, ref_frame, target, value,
                                          ref_uses, ref_defs))
    ex, thread, frame = fresh()
    effects = StepEffects(thread="t0", step=0, pc=0, op=None)
    store = compile_store(target)
    assert outcome(lambda: store(ex, thread, frame, effects, value)) \
        == expected
    assert state(ex, frame) == state(ref_ex, ref_frame)
    assert (effects.uses, effects.defs) == (ref_uses, ref_defs)


@settings(max_examples=400, deadline=None)
@given(EXPRS)
def test_compiled_expressions_match_the_reference_walker(expr):
    check_expr(expr)


@settings(max_examples=300, deadline=None)
@given(TARGETS, VALUES)
def test_compiled_stores_match_the_reference_walker(target, value):
    check_store(target, value)


V, C, N = ast.Var, ast.Const, ast.Null()


@pytest.mark.parametrize("expr, kind", [
    (ast.Field(N, "a"), "NullDereference"),
    (ast.Field(V("np"), "a"), "NullDereference"),
    (ast.Index(V("arr"), C(3)), "OutOfBounds"),
    (ast.Index(V("arr"), C(-1)), "OutOfBounds"),
    (ast.Bin("/", V("g"), V("z")), "DivisionByZero"),
    (ast.Bin("%", V("x"), C(0)), "DivisionByZero"),
    (V("undef"), "InterpreterError"),
    (ast.Field(V("arr"), "a"), "InterpreterError"),
    (ast.Index(V("s"), C(0)), "InterpreterError"),
    (ast.Field(V("x"), "a"), "InterpreterError"),
    (ast.Field(V("q"), "nofield"), "InterpreterError"),
    (ast.Bin("<<", C(1), C(1)), "InterpreterError"),
    (ast.Bin("+", V("s"), C(1)), "TypeError"),
    (ast.AllocArray(size=C(-1), fill=C(0)), "InterpreterError"),
])
def test_fault_cases(expr, kind):
    assert check_expr(expr)[:2] == ("raise", kind)


@pytest.mark.parametrize("expr, value", [
    (ast.Bin("and", V("s"), V("np")), False),
    (ast.Bin("or", V("np"), V("q")), True),
    (ast.Un("not", V("np")), True),
    (ast.Un("not", V("s")), False),
    (ast.Field(V("q"), "a"), 1),
    (ast.Index(V("arr"), C(2)), 7),
    (V("g"), 10),
    (ast.Bin("/", C(7), C(2)), 3),
    (ast.Bin("/", V("f"), C(2)), 1.25),
])
def test_value_cases(expr, value):
    assert check_expr(expr) == ("ok", type(value).__name__, value)


def test_allocation_matches_reference_heap():
    expr = ast.AllocStruct((("a", ast.AllocArray(size=C(2), fill=N)),
                            ("b", V("x"))))
    kind, _type, pointer = check_expr(expr)
    assert kind == "ok" and isinstance(pointer, Pointer)


def test_evaluate_is_read_only():
    ex, _thread, frame = fresh()
    before = state(ex, frame)
    assert ex.evaluate(ast.Field(V("q"), "a"), "t0") == 1
    with pytest.raises(InterpreterError):
        ex.evaluate(ast.Field(ast.AllocStruct((("a", C(1)),)), "a"), "t0")
    assert state(ex, frame) == before


# ---------------------------------------------------------------------------
# closures stay in-process
# ---------------------------------------------------------------------------

def test_worker_specs_still_pickle_after_a_run():
    scenario = get_scenario("fig1")
    bundle = ProgramBundle(scenario.build())
    session = ReproSession(bundle, ReproductionConfig(),
                           input_overrides=scenario.input_overrides,
                           stress_seeds=scenario.stress_seeds,
                           expected_kind=scenario.expected_fault)
    assert session.search("chess").reproduced
    # the compiled code table now hangs off the bundle's program ...
    assert getattr(bundle.compiled, "_code_table", None) is not None
    # ... yet neither spec reaches it
    spec = session.worker_spec()
    assert spec is not None
    assert pickle.loads(pickle.dumps(spec)).program.name == "fig1"
    stress_spec = _stress_spec(bundle, True, (scenario.input_overrides,
                                              scenario.expected_fault, None,
                                              0.3, True))
    blob = pickle.dumps(stress_spec)
    assert pickle.loads(blob).block_table == bundle.block_table
