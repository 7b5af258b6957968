"""Block-mode vs instruction-mode equivalence at the runtime level.

Property, over the whole bug registry: executing under a block table
must be **byte-identical** to per-instruction execution for every
scheduler that opts into block granularity — same status, step counts,
per-thread instruction counts, output stream, failure, and core dump —
while issuing strictly fewer scheduler dispatches.  Scripted schedulers
(no block protocol) must keep instruction granularity even when a block
table is installed.
"""

import pytest

from repro.bugs import get_scenario
from repro.coredump.dump import take_core_dump
from repro.coredump.serialize import dump_to_json
from repro.pipeline.bundle import ProgramBundle
from repro.runtime.scheduler import (
    DeterministicScheduler,
    MulticoreScheduler,
    ScriptedScheduler,
)

from tests.conftest import suite_scenario_names

ALL_NAMES = suite_scenario_names()
MULTICORE_SEEDS = range(25)

_BUNDLES = {}


def bundle_for(name):
    if name not in _BUNDLES:
        _BUNDLES[name] = ProgramBundle(get_scenario(name).build())
    return _BUNDLES[name]


def run_once(bundle, scheduler, use_blocks, overrides):
    execution = bundle.execution(scheduler, input_overrides=overrides,
                                 use_blocks=use_blocks)
    result = execution.run()
    anchor = execution.program.threads[0].name
    dump = dump_to_json(take_core_dump(execution, "aligned",
                                       failing_thread=anchor))
    return execution, result, dump


def assert_identical(name, make_scheduler):
    scenario = get_scenario(name)
    bundle = bundle_for(name)
    ei, ri, di = run_once(bundle, make_scheduler(), False,
                          scenario.input_overrides)
    eb, rb, db = run_once(bundle, make_scheduler(), True,
                          scenario.input_overrides)
    assert ri.status == rb.status
    assert ri.steps == rb.steps
    assert ri.output == rb.output
    assert ri.failure == rb.failure
    assert di == db  # threads, frames, loop counters, heap, globals
    for tname in bundle.thread_names():
        assert (ei.threads[tname].instr_count
                == eb.threads[tname].instr_count)
        assert (ei.threads[tname].started_at
                == eb.threads[tname].started_at)
    return ei, eb


@pytest.mark.parametrize("name", ALL_NAMES)
def test_deterministic_identical_with_fewer_dispatches(name):
    ei, eb = assert_identical(name, DeterministicScheduler)
    assert eb.sched_picks < ei.sched_picks
    assert ei.sched_picks == ei.step_count  # instruction mode: 1 per step


@pytest.mark.parametrize("name", ALL_NAMES)
def test_multicore_identical_across_seeds(name):
    for seed in MULTICORE_SEEDS:
        ei, eb = assert_identical(
            name, lambda: MulticoreScheduler(seed=seed))
        assert eb.sched_picks <= ei.sched_picks


def test_scripted_scheduler_keeps_instruction_granularity():
    """No block protocol declared -> the block path must not engage."""
    bundle = bundle_for("fig1")
    script = ["T1", "T2"] * 50
    a = bundle.execution(ScriptedScheduler(list(script)), use_blocks=False)
    b = bundle.execution(ScriptedScheduler(list(script)), use_blocks=True)
    assert not b.block_mode()
    ra, rb = a.run(), b.run()
    assert (ra.status, ra.steps, ra.output) == (rb.status, rb.steps, rb.output)
    assert a.sched_picks == b.sched_picks == a.step_count


def test_hooks_force_instruction_granularity():
    """Hooks define per-instruction observability: block mode backs off."""
    events = []

    class Hook:
        def on_after_step(self, execution, effects):
            events.append(effects.step)

    bundle = bundle_for("fig1")
    execution = bundle.execution(DeterministicScheduler(), hooks=[Hook()],
                                 use_blocks=True)
    assert not execution.block_mode()
    result = execution.run()
    assert len(events) == result.steps  # one effects record per instruction


def test_max_steps_cutoff_identical():
    bundle = bundle_for("fig1")
    for budget in (1, 7, 50):
        a = bundle.execution(DeterministicScheduler(), max_steps=budget,
                             use_blocks=False)
        b = bundle.execution(DeterministicScheduler(), max_steps=budget,
                             use_blocks=True)
        ra, rb = a.run(), b.run()
        assert ra.status == rb.status == "stopped"
        assert ra.stop_reason == rb.stop_reason == "max-steps"
        assert ra.steps == rb.steps == budget


DEADLOCK_WEDGES = [
    ("bank-transfer", ("alice", "bob"), "acct_a"),
    ("cache-refill", ("reader", "refiller"), "cache_lock"),
]


def wedge_script(name, first, second, lock):
    """A script that parks ``first`` inside its inversion window.

    Probe run: step ``first`` alone until it owns ``lock`` (its outer
    acquire just executed, inner acquire still ahead), then hand the
    schedule to ``second``, which runs until it blocks on ``lock``; the
    fallback picks drain any bystanders and ``first`` then blocks on the
    inner lock — a guaranteed waits-for cycle.
    """
    bundle = bundle_for(name)
    probe = bundle.execution(DeterministicScheduler(), use_blocks=False)
    steps = 0
    while probe.locks.owner(lock) != first:
        probe.step(first)
        steps += 1
        assert steps < 100, "probe never acquired %s" % lock
    return [first] * steps + [second] * 400 + [first] * 400


@pytest.mark.parametrize("name,threads,lock", DEADLOCK_WEDGES)
def test_scripted_wedge_hits_deadlock_path(name, threads, lock):
    """The DEADLOCK interpreter path, driven deterministically.

    Both granularity flags must agree byte-for-byte on the structured
    deadlock failure and the hung dump (scripted schedulers keep
    instruction granularity, so this pins the flag-independence of the
    wedge itself).
    """
    first, second = threads
    script = wedge_script(name, first, second, lock)
    bundle = bundle_for(name)
    runs = {}
    for use_blocks in (False, True):
        execution = bundle.execution(ScriptedScheduler(list(script)),
                                     use_blocks=use_blocks)
        result = execution.run()
        assert result.status == "deadlock"
        failure = result.failure
        assert failure is not None and failure.kind == "deadlock"
        assert failure.cycle is not None
        # bystanders (e.g. cache-refill's logger) drained; the cycle is
        # exactly the two inversion threads
        assert {edge[0] for edge in failure.cycle} == set(threads)
        dump = take_core_dump(execution, "failure",
                              failing_thread=failure.thread)
        assert dump.waits_for is not None
        assert sorted(dump.waits_for["cycle"]) == sorted(threads)
        runs[use_blocks] = (result, dump_to_json(dump))
    assert runs[False][0].failure == runs[True][0].failure
    assert runs[False][1] == runs[True][1]


@pytest.mark.parametrize("name,threads,lock", DEADLOCK_WEDGES)
def test_multicore_wedges_identically_across_granularities(name, threads,
                                                           lock):
    """Every seed that wedges does so identically in both granularities,
    with byte-identical hung dumps (waits-for graph included)."""
    scenario = get_scenario(name)
    bundle = bundle_for(name)
    wedged = 0
    for seed in MULTICORE_SEEDS:
        ei, ri, _ = run_once(bundle, MulticoreScheduler(seed=seed), False,
                             scenario.input_overrides)
        if ri.status != "deadlock":
            continue
        wedged += 1
        eb, rb, _ = run_once(bundle, MulticoreScheduler(seed=seed), True,
                             scenario.input_overrides)
        assert rb.status == "deadlock"
        assert ri.failure == rb.failure
        assert ri.failure.cycle is not None
        hi = take_core_dump(ei, "failure", failing_thread=ri.failure.thread)
        hb = take_core_dump(eb, "failure", failing_thread=rb.failure.thread)
        assert dump_to_json(hi) == dump_to_json(hb)
        assert hi.waits_for["cycle"] is not None
    assert wedged >= 1, "no multicore seed wedged %s" % name


def test_step_budget_hang_failure_identical():
    """Exhausting max_steps with live threads attaches a hang failure —
    identically under both granularities."""
    bundle = bundle_for("bank-transfer")
    for budget in (5, 20):
        a = bundle.execution(DeterministicScheduler(), max_steps=budget,
                             use_blocks=False)
        b = bundle.execution(DeterministicScheduler(), max_steps=budget,
                             use_blocks=True)
        ra, rb = a.run(), b.run()
        assert ra.status == rb.status == "stopped"
        assert ra.stop_reason == rb.stop_reason == "max-steps"
        assert ra.failure is not None and ra.failure.kind == "hang"
        # no thread blocked: budget exhaustion, not a wedge — no cycle
        assert ra.failure.cycle is None
        assert ra.failure == rb.failure
