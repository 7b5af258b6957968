"""Unit tests of the superblock partition and the may-shared analysis."""

import pytest

from repro.bugs import all_scenarios
from repro.lang import ast
from repro.lang import builder as B
from repro.lang.blocks import (
    block_table_for,
    compute_block_table,
    expr_may_touch_shared,
    instr_may_touch_shared,
)
from repro.lang.lower import Opcode
from repro.pipeline.bundle import ProgramBundle

ALL_NAMES = [s.name for s in all_scenarios()]


@pytest.fixture(scope="module")
def fig1_table():
    scenario = [s for s in all_scenarios() if s.name == "fig1"][0]
    bundle = ProgramBundle(scenario.build())
    return bundle, bundle.block_table


def test_spans_cover_every_pc(fig1_table):
    bundle, table = fig1_table
    n = len(bundle.compiled.instrs)
    assert len(table.span) == n
    assert all(s >= 1 for s in table.span)
    # walking heads by span tiles each function exactly
    for fc in bundle.compiled.functions.values():
        pc = fc.entry_pc
        while pc < fc.end_pc:
            assert table.is_head(pc)
            pc += table.span[pc]
        assert pc == fc.end_pc


def test_sync_instructions_are_singleton_blocks():
    for scenario in all_scenarios():
        bundle = ProgramBundle(scenario.build())
        table = bundle.block_table
        for pc, instr in enumerate(bundle.compiled.instrs):
            if instr.op in (Opcode.ACQUIRE, Opcode.RELEASE):
                assert table.is_head(pc), (scenario.name, pc)
                assert table.span[pc] == 1, (scenario.name, pc)
                assert table.relevant[pc], (scenario.name, pc)


def test_control_transfers_end_blocks(fig1_table):
    bundle, table = fig1_table
    for pc, instr in enumerate(bundle.compiled.instrs):
        if instr.op in (Opcode.BRANCH, Opcode.JUMP, Opcode.CALL,
                        Opcode.RETURN):
            # a control transfer is always the last instruction of its block
            assert table.span[pc] == 1, pc
        for target in (instr.t_target, instr.f_target, instr.jump_target):
            if target is not None and target >= 0:
                assert table.is_head(target), (pc, target)


def test_chain_spans_break_only_at_sync_and_control_transfers():
    """The coarser chain partition steps over shared accesses, asserts
    and outputs, but never over a sync instruction or a control
    transfer, and never runs past a function's end."""
    syncs = (Opcode.ACQUIRE, Opcode.RELEASE)
    stops = syncs + (Opcode.BRANCH, Opcode.JUMP, Opcode.CALL, Opcode.RETURN)
    coarser = 0
    for scenario in all_scenarios():
        bundle = ProgramBundle(scenario.build())
        table, instrs = bundle.block_table, bundle.compiled.instrs
        for fc in bundle.compiled.functions.values():
            for pc in fc.pcs():
                span = table.chain_span[pc]
                assert table.span[pc] <= span <= fc.end_pc - pc
                run = [instrs[p].op for p in range(pc, pc + span)]
                assert not any(op in stops for op in run[:-1]), \
                    (scenario.name, pc)
                assert not any(op in syncs for op in run[1:]), \
                    (scenario.name, pc)
                coarser += span > table.span[pc]
    assert coarser > 0


def test_may_shared_instructions_lead_blocks(fig1_table):
    bundle, table = fig1_table
    global_names = frozenset(bundle.program.globals)
    for pc, instr in enumerate(bundle.compiled.instrs):
        if instr_may_touch_shared(instr, global_names):
            assert table.is_head(pc), pc
            assert table.relevant[pc], pc


def test_expr_may_shared_classification():
    globals_ = frozenset({"g"})
    assert not expr_may_touch_shared(B.v("local"), globals_)
    assert expr_may_touch_shared(B.v("g"), globals_)
    assert not expr_may_touch_shared(B.add(B.v("a"), B.v("b")), globals_)
    assert expr_may_touch_shared(B.add(B.v("a"), B.v("g")), globals_)
    # heap is always shared, whatever the base
    assert expr_may_touch_shared(B.field(B.v("local"), "f"), globals_)
    assert expr_may_touch_shared(B.index(B.v("local"), B.v("i")), globals_)
    assert expr_may_touch_shared(B.alloc_struct(data=1), globals_)
    assert not expr_may_touch_shared(None, globals_)
    assert not expr_may_touch_shared(ast.Const(3), globals_)


def test_private_straightline_code_coalesces():
    """Runs of local-only assignments form one multi-instruction block."""
    main = B.func("main", [], [
        B.assign("a", 1),
        B.assign("b", B.add(B.v("a"), 1)),
        B.assign("c", B.add(B.v("b"), 1)),
        B.output(B.v("c")),
    ])
    bundle = ProgramBundle(B.program("straight", functions=[main],
                                     threads=[B.thread("t", "main")]))
    table = bundle.block_table
    entry = bundle.compiled.functions["main"].entry_pc
    # the three private assignments are one block; OUTPUT splits
    assert table.span[entry] == 3
    assert not table.relevant[entry]


def test_region_work_marks_branches_and_exits(fig1_table):
    bundle, table = fig1_table
    analysis = bundle.analysis
    exit_pcs = set()
    for pc, instr in enumerate(bundle.compiled.instrs):
        if instr.op is Opcode.BRANCH:
            assert table.region_work[pc], pc
            exit_pc = analysis.region_exit(pc)
            if exit_pc is not None and exit_pc >= 0:
                exit_pcs.add(exit_pc)
    for pc in exit_pcs:
        assert table.region_work[pc], pc


def test_table_cached_on_compiled(fig1_table):
    bundle, table = fig1_table
    assert block_table_for(bundle.compiled, bundle.analysis) is table
    fresh = compute_block_table(bundle.compiled, bundle.analysis)
    assert fresh.span == table.span
    assert fresh.heads == table.heads


def test_table_pickles_round_trip(fig1_table):
    import pickle

    _bundle, table = fig1_table
    clone = pickle.loads(pickle.dumps(table))
    assert clone.span == table.span
    assert clone.head == table.head
    assert clone.region_work == table.region_work
    assert clone.chain_span == table.chain_span
    assert clone.stats() == table.stats()
