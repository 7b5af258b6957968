"""``Execution.run(until=k)``: one loop, stopped at an exact step.

In every granularity — one instruction per pick, block chains under the
preempting scheduler, and committed bursts under the seeded multicore
scheduler — a run with ``until=k`` stops RUNNING at exactly step ``k``,
and resuming it to the end is indistinguishable from one uninterrupted
run: same result, same dumped machine state, same scheduler state.
"""

import functools

import pytest

from repro.bugs import get_scenario
from repro.coredump.dump import take_core_dump
from repro.coredump.serialize import dump_to_json
from repro.pipeline.bundle import ProgramBundle
from repro.runtime.scheduler import MulticoreScheduler
from repro.search import PlannedPreemption, PreemptingScheduler

#: a preemption that makes fig1 crash (T2 nulls the pointer T1 uses)
PLAN = (PlannedPreemption("T1", "release", "lock", 19, "T2"),)

MODES = {
    "instr": (lambda: PreemptingScheduler(list(PLAN)), False),
    "chains": (lambda: PreemptingScheduler(list(PLAN)), True),
    "commit": (lambda: MulticoreScheduler(seed=11), True),
}


@functools.cache
def bundle():
    return ProgramBundle(get_scenario("fig1").build())


def scheduler_state(scheduler):
    if isinstance(scheduler, MulticoreScheduler):
        return (scheduler._rng.getstate(), scheduler.current,
                scheduler._pending_pick)
    return (scheduler.pending, scheduler.current, scheduler.started,
            scheduler.counters, scheduler.forced_next, scheduler.fired)


def execution(mode):
    make_scheduler, use_blocks = MODES[mode]
    scenario = get_scenario("fig1")
    return bundle().execution(make_scheduler(),
                              input_overrides=scenario.input_overrides,
                              use_blocks=use_blocks)


def outcome(ex, result):
    if ex.failure is not None:
        dump = take_core_dump(ex, "failure")
    else:
        dump = take_core_dump(ex, "aligned",
                              failing_thread=ex.program.threads[0].name)
    counters = {name: (thread.instr_count, thread.started_at)
                for name, thread in ex.threads.items()}
    return (result, dump_to_json(dump), counters,
            scheduler_state(ex.scheduler))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_run_until_stops_at_k_and_resumes_exactly(mode):
    whole = execution(mode)
    reference = outcome(whole, whole.run())
    total = reference[0].steps
    assert total > 40
    assert reference[0].failed == (mode != "commit")
    assert whole.block_mode() == MODES[mode][1]
    for k in (1, 2, 7, 13, 29, total - 1):
        ex = execution(mode)
        partial = ex.run(until=k)
        assert partial.status == "running" and partial.failure is None
        assert partial.steps == ex.step_count == k
        assert outcome(ex, ex.run()) == reference, k


@pytest.mark.parametrize("mode", sorted(MODES))
def test_run_until_in_several_legs(mode):
    whole = execution(mode)
    reference = outcome(whole, whole.run())
    ex = execution(mode)
    for k in range(3, reference[0].steps, 5):
        assert ex.run(until=k).steps == k
    assert outcome(ex, ex.run()) == reference


def test_run_until_past_the_end_finishes_the_run():
    whole = execution("chains")
    reference = outcome(whole, whole.run())
    ex = execution("chains")
    assert outcome(ex, ex.run(until=reference[0].steps + 100)) == reference
