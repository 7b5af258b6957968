"""Emitted chain code stays exact where it can go wrong.

Each case runs one small program three ways: one instruction at a time
(no block table), in block mode through the emitted ``run`` functions,
and in block mode with every ``run`` held to one instruction a call.
All three must leave the same ``RunResult`` (or the same raised error),
core dump, per-thread counters, region stacks (down to the step that
opened each region) and step count, and both block runs the same
``sched_picks``: a fault, a stop or a frame change in the middle of a
chain lands at the pc and step it lands at one instruction at a time.
Seeded multicore runs (committed prefixes) must match instruction mode
as well.  The emitter's safety cases — hostile names and an expression
nested too deep to emit — run the same comparisons.
"""

import builtins

import pytest
from hypothesis import example, given, settings

from repro.coredump.dump import take_core_dump
from repro.coredump.serialize import dump_to_json
from repro.lang import ast
from repro.lang import builder as B
from repro.lang.lower import Opcode
from repro.pipeline.bundle import ProgramBundle
from repro.runtime.scheduler import DeterministicScheduler, MulticoreScheduler
from repro.search import PlannedPreemption, PreemptingScheduler

from tests.runtime.test_codegen import EXPRS, GLOBALS, TARGETS

MODES = ("instr", "fused", "stepped")


def _one_at_a_time(runs):
    """``runs`` held to one instruction a call, as a reference."""
    def held(run):
        def stepped(ex, th, fr, eff, settled, stop):
            while True:
                done = run(ex, th, fr, eff, settled,
                           min(stop, ex.step_count + 1))
                if done is not None or ex.step_count >= stop:
                    return done
        return stepped
    return {name: held(run) for name, run in runs.items()}


def outcome(execution, result):
    anchor = execution.program.threads[0].name
    dump = dump_to_json(take_core_dump(execution, "aligned",
                                       failing_thread=anchor))
    counters = {name: (thread.instr_count, thread.started_at,
                       [[vars(entry) for entry in frame.region_stack]
                        for frame in thread.frames])
                for name, thread in execution.threads.items()}
    return result, dump, counters, execution.step_count, execution.output


def run(bundle, make_scheduler, mode, max_steps=None):
    execution = bundle.execution(make_scheduler(), max_steps=max_steps,
                                 use_blocks=mode != "instr")
    if mode == "stepped":
        execution._runs = _one_at_a_time(execution._runs)
    try:
        result = execution.run()
    except Exception as exc:  # noqa: BLE001 — compared across modes
        result = ("raised", type(exc).__name__, str(exc))
    return execution, outcome(execution, result)


def assert_exact(bundle, make_scheduler=DeterministicScheduler,
                 max_steps=None):
    """The three modes agree; returns the common outcome."""
    runs = {mode: run(bundle, make_scheduler, mode, max_steps)
            for mode in MODES}
    assert runs["fused"][1] == runs["instr"][1]
    assert runs["stepped"][1] == runs["instr"][1]
    assert runs["fused"][0].sched_picks == runs["stepped"][0].sched_picks
    for seed in range(4):
        multicore = lambda: MulticoreScheduler(seed)  # noqa: E731
        assert run(bundle, multicore, "fused", max_steps)[1] \
            == run(bundle, multicore, "instr", max_steps)[1]
    return runs["fused"][1]


def bundle(*functions, globals_=None, locks=("L",), threads=None):
    threads = threads or [B.thread("T", functions[0].name)]
    return ProgramBundle(B.program(
        "fused", globals_=dict(globals_ or {"g": 0}), functions=functions,
        threads=threads, locks=locks))


def looping(body, iterations=5):
    """``main``: a few straight-line steps, then ``body`` in a loop
    whose block also carries straight-line steps before it."""
    return B.func("main", [], [
        B.assign("a", 1), B.assign("b", 2), B.assign("i", 0),
        B.while_(B.lt(B.v("i"), iterations), [
            B.assign("i", B.add(B.v("i"), 1)),
            B.assign("a", B.mul(B.v("i"), 2)),
            B.assign("b", B.add(B.v("a"), 1)),
            *body,
            B.assign("g", B.v("b")),
        ]),
        B.output(B.v("g")),
    ])


@pytest.mark.parametrize("body, kind", [
    ([B.if_(B.eq(B.v("i"), 3), [B.assign("z", B.field(B.null(), "f"))])],
     "null-deref"),
    ([B.assign("arr", B.alloc_array(3, 0)),
      B.assign("z", B.index(B.v("arr"), B.v("i")))], "out-of-bounds"),
    ([B.assign("z", B.div(10, B.sub(3, B.v("i"))))], "div-by-zero"),
    ([B.assert_(B.lt(B.v("i"), 3), "i grew past 2")], "assert"),
])
def test_a_fault_mid_chain_lands_on_its_pc_and_step(body, kind):
    result = assert_exact(bundle(looping(body)))[0]
    assert result.failed and result.failure.kind == kind


def test_a_self_held_reacquire_in_a_settled_chain_faults_exactly():
    main = B.func("main", [], [
        B.acquire("L"), B.assign("a", 1), B.assign("b", 2),
        B.release("L"), B.assign("a", 3), B.acquire("L"), B.assign("b", 4),
        B.acquire("L"), B.release("L")])
    result = assert_exact(bundle(main))[0]
    assert result.failed and result.failure.kind == "lock"
    assert assert_exact(bundle(main), lambda: PreemptingScheduler([]))[0] \
        == result


def test_an_undefined_variable_raises_at_the_same_step():
    body = [B.if_(B.eq(B.v("i"), 3), [B.assign("z", B.add(B.v("nope"), 1))])]
    result = assert_exact(bundle(looping(body)))[0]
    assert result == ("raised", "InterpreterError",
                      "undefined variable 'nope' in main")


@pytest.mark.parametrize("max_steps", range(3, 40, 3))
def test_max_steps_landing_mid_block(max_steps):
    main = looping([B.assign("c", B.add(B.v("a"), B.v("b")))], 50)
    result = assert_exact(bundle(main), max_steps=max_steps)[0]
    assert result.steps == max_steps and result.stop_reason == "max-steps"


def _drive(bundle, mode, limit):
    """Chains of at most ``limit`` steps, as replay recording clips
    them; returns the chain lengths and the final outcome."""
    execution = bundle.execution(DeterministicScheduler(), use_blocks=True)
    if mode == "stepped":
        execution._runs = _one_at_a_time(execution._runs)
    scheduler, batches = execution.scheduler, []
    while execution.failure is None and execution.runnable_threads():
        runnable = execution.runnable_threads()
        name = scheduler.pick(execution, runnable)
        effects = execution.run_chain(name, limit=limit)
        batches.append(effects.batch)
    return batches, outcome(execution, None)[1:]


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 7])
def test_a_replay_limit_clipping_mid_chain(limit):
    main = looping([B.assign("c", B.add(B.v("a"), B.v("b")))], 6)
    program = bundle(main)
    fused = _drive(program, "fused", limit)
    assert fused == _drive(program, "stepped", limit)
    assert max(fused[0]) == limit
    assert fused[1] == run(program, DeterministicScheduler, "instr")[1][1:]


def _calls(ret_target):
    helper = B.func("helper", ["n"], [
        B.assign("t", B.mul(B.v("n"), 3)), B.acquire("L"),
        B.assign("g", B.add(B.v("g"), B.v("t"))), B.release("L"),
        B.ret(B.add(B.v("t"), 1))])
    main = looping([B.call("helper", [B.v("i")], target=ret_target),
                    B.assign("c", B.v("r"))])
    return bundle(main, helper, globals_={"g": 0, "r": 0, "s": {"f": 0},
                                         "np": None})


@pytest.mark.parametrize("target", ["r", "loc", B.field(B.v("s"), "f")])
def test_calls_and_returns_inside_settled_chains(target):
    program = _calls(target)
    plain = assert_exact(program)
    assert plain[0].completed
    assert assert_exact(program, lambda: PreemptingScheduler([]))[1] \
        == plain[1]
    plan = [PlannedPreemption("T", "release", "L", 2, None)]
    assert assert_exact(program, lambda: PreemptingScheduler(plan))[1] \
        == plain[1]


@pytest.mark.parametrize("plan", [
    [],
    [PlannedPreemption("A", "acquire", "M", 1, "B")],  # A parks holding L
    [PlannedPreemption("A", "release", "L", 1, "B")],
    [PlannedPreemption("A", "acquire", "L", 99, None)],  # A never settles
])
def test_contended_locks_break_chains_where_picks_can_differ(plan):
    nested = [B.acquire("L"), B.assign("a", B.v("i")), B.acquire("M"),
              B.assign("g", B.add(B.v("g"), 1)), B.release("M"),
              B.release("L")]
    program = bundle(
        B.func("A", [], looping(nested, 3).body),
        B.func("B", [], looping(nested[:2] + nested[-1:], 3).body),
        threads=[B.thread("A", "A"), B.thread("B", "B")], locks=("L", "M"))
    assert assert_exact(program, lambda: PreemptingScheduler(plan))[0] \
        .completed


def test_a_fault_in_a_return_store_lands_on_the_return():
    program = _calls(B.field(B.v("np"), "f"))
    result = assert_exact(program)[0]
    assert result.failed and result.failure.kind == "null-deref"
    returns = [instr.pc for instr in program.compiled.instrs
               if instr.func == "helper" and instr.op is Opcode.RETURN]
    assert result.failure.pc == returns[0]


@settings(max_examples=150, deadline=None)
@given(EXPRS, TARGETS)
@example(ast.Var("x"), ast.Field(ast.Var("s"), "nofield"))
@example(ast.Var("q"), ast.Index(ast.Var("arr"), ast.Const(3)))
@example(ast.Var("x"), ast.Index(ast.Var("arr"), ast.Const(True)))
@example(ast.Const(1.5), ast.Field(ast.Var("q"), "a"))
@example(ast.Field(ast.Var("np"), "a"), ast.Var("z"))
def test_emitted_expressions_and_stores_match_the_closures(expr, target):
    """The random trees the closures are checked against the reference
    walker with, as one emitted assignment and one emitted store; ``g``
    is a parameter, so it is a local that shadows the global."""
    main = B.func("main", ["g"], [
        B.assign("x", 2), B.assign("y", 0), B.assign("q", B.v("s")),
        B.assign("r", expr), B.assign(target, B.v("r")),
        B.output(B.v("r"))])
    program = ProgramBundle(B.program(
        "exprs", globals_=GLOBALS, functions=[main],
        threads=[B.thread("T", "main", [10])]))
    assert run(program, DeterministicScheduler, "fused")[1] \
        == run(program, DeterministicScheduler, "instr")[1]


# -- the emitter's safety --------------------------------------------------

PAYLOAD = "__import__('builtins').PWNED = 1"
HOSTILE = ["x'] = 0; " + PAYLOAD + "; L['", "'); import os; ('",
           'q"\\', "line\nbreak \\n", "ünï©ødé ✓",
           "\\'; " + PAYLOAD + "#"]


def test_hostile_names_and_messages_stay_data():
    var, fld, lock, fn, msg, text = HOSTILE
    callee = B.func(fn, [var], [
        B.assign(text, B.add(B.v(var), 1)),
        B.output(B.c(PAYLOAD + "\n'\"")),
        B.ret(B.v(text))])
    main = B.func("main", [], [
        B.assign(var, 0),
        B.assign(fld, B.alloc_struct(**{fld: 1, msg: 2})),
        B.acquire(lock),
        B.assign(B.field(B.v(fld), msg), B.c(text)),
        B.call(fn, [B.c(41)], target=var),
        B.output(B.field(B.v(fld), msg)),
        B.output(B.c(float("inf"))),
        B.release(lock),
        B.assign(B.v(msg), B.field(B.v(fld), fld)),
        B.assert_(B.eq(B.v(var), 0), msg)])
    program = bundle(main, callee, globals_={msg: 0, "g": 0}, locks=[lock])
    result = assert_exact(program)[0]
    assert result.failed and result.failure.message == msg
    assert result.output == [("T", PAYLOAD + "\n'\""), ("T", text),
                             ("T", float("inf"))]
    assert not hasattr(builtins, "PWNED")
    assert program.execution(DeterministicScheduler()).block_mode()


def test_a_program_python_will_not_compile_runs_traced_instructions():
    """An expression nested past the parser's limit cannot be emitted,
    so block mode falls back to one traced instruction at a time."""
    deep = ast.Var("a")
    for _ in range(250):
        deep = ast.Bin("+", deep, ast.Const(1))
    main = looping([B.assign("c", deep),
                    B.call("helper", [B.v("c")], target="r")])
    helper = B.func("helper", ["n"], [B.acquire("L"), B.assign("g", B.v("n")),
                                      B.release("L"), B.ret(B.v("n"))])
    program = bundle(main, helper, globals_={"g": 0, "r": 0})
    assert program.execution(DeterministicScheduler()).block_mode() is False
    for make_scheduler in (DeterministicScheduler,
                           lambda: MulticoreScheduler(3)):
        instr = run(program, make_scheduler, "instr")[1]
        blocks = run(program, make_scheduler, "fused")[1]
        assert blocks == instr
        assert blocks[0].completed and blocks[4] == [("T", 2 * 5 + 1)]
