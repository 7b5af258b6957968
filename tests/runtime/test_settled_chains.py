"""Settled block chains: a thread nothing can redirect runs through sync
points on one pick, byte-identically to instruction granularity.

Property: for random preemption plans over fig1 and one scenario of the
lock, order and deadlock synth families, a block-mode testrun under the
preempting scheduler ends exactly where the instruction-mode testrun
ends — same result, dumped machine state, per-thread counters and final
scheduler state — while issuing no more scheduler picks than chains
that break at every sync point.
"""

from hypothesis import given, settings, strategies as st

from repro.bugs import get_scenario
from repro.coredump.dump import take_core_dump
from repro.coredump.serialize import dump_to_json
from repro.lang import builder as B
from repro.pipeline.bundle import ProgramBundle
from repro.runtime.scheduler import DeterministicScheduler
from repro.search import (
    PlannedPreemption,
    PreemptingScheduler,
    ReplayEngine,
    enumerate_candidates,
)

SCENARIOS = ("fig1", "synth-lock-s0", "synth-order-s0", "synth-deadlock-s0")


class UnsettledScheduler(PreemptingScheduler):
    """The chain rule without settled chains: break at every sync."""

    def settled(self, thread):
        return False


class _Collect:
    def __init__(self):
        self.events = []

    def on_after_step(self, execution, effects):
        self.events.append(effects)


_SETUPS = {}


def setup_for(name):
    """``(bundle, overrides, candidates)`` of a scenario's passing run."""
    if name not in _SETUPS:
        scenario = get_scenario(name)
        bundle = ProgramBundle(scenario.build())
        collect = _Collect()
        bundle.execution(DeterministicScheduler(),
                         input_overrides=scenario.input_overrides,
                         hooks=[collect]).run()
        candidates = enumerate_candidates(collect.events, frozenset(), [])
        _SETUPS[name] = (bundle, scenario.input_overrides, candidates)
    return _SETUPS[name]


def outcome(execution, result, scheduler):
    """Everything a testrun leaves behind that must not depend on the
    execution granularity."""
    anchor = execution.program.threads[0].name
    dump = dump_to_json(take_core_dump(execution, "aligned",
                                       failing_thread=anchor))
    counters = {name: (thread.instr_count, thread.started_at)
                for name, thread in execution.threads.items()}
    return result, dump, counters, scheduler.snapshot()


def run_plan(bundle, overrides, plan, use_blocks, cls=PreemptingScheduler):
    scheduler = cls(list(plan))
    execution = bundle.execution(scheduler, input_overrides=overrides,
                                 use_blocks=use_blocks)
    result = execution.run()
    return execution, outcome(execution, result, scheduler)


@st.composite
def scenario_plans(draw):
    name = draw(st.sampled_from(SCENARIOS))
    bundle, _, candidates = setup_for(name)
    targets = [None] + list(bundle.thread_names())
    chosen = draw(st.lists(st.sampled_from(candidates), min_size=1,
                           max_size=3, unique_by=lambda c: c.cid))
    plan = [PlannedPreemption.from_candidate(c, draw(st.sampled_from(targets)))
            for c in chosen]
    return name, plan


@settings(max_examples=60, deadline=None)
@given(case=scenario_plans())
def test_settled_chains_match_instruction_mode(case):
    name, plan = case
    bundle, overrides, _ = setup_for(name)
    _, instr = run_plan(bundle, overrides, plan, use_blocks=False)
    settled_ex, settled = run_plan(bundle, overrides, plan, use_blocks=True)
    unsettled_ex, unsettled = run_plan(bundle, overrides, plan,
                                       use_blocks=True,
                                       cls=UnsettledScheduler)
    assert settled == instr
    assert unsettled == instr
    assert settled_ex.sched_picks <= unsettled_ex.sched_picks


def test_fig1_passing_run_needs_fewer_picks_when_settled():
    """Without a plan every chain is settled: the passing run needs fewer
    picks than with chains bounded at every sync, same outcome."""
    bundle, overrides, _ = setup_for("fig1")
    settled_ex, settled = run_plan(bundle, overrides, [], use_blocks=True)
    unsettled_ex, unsettled = run_plan(bundle, overrides, [],
                                       use_blocks=True,
                                       cls=UnsettledScheduler)
    assert settled == unsettled
    assert settled_ex.sched_picks < unsettled_ex.sched_picks


def _bundle(*threads, locks=("L", "M")):
    return ProgramBundle(B.program(
        "settled", globals_={"g": 0},
        functions=[B.func(name, [], body) for name, body in threads],
        threads=[B.thread(name, name) for name, _ in threads],
        locks=locks))


def test_settled_chain_stops_at_acquire_of_a_held_lock():
    bundle = _bundle(
        ("A", [B.acquire("L"), B.acquire("M"), B.assign("g", 1),
               B.release("M"), B.release("L")]),
        ("B", [B.assign("g", 2), B.acquire("L"), B.assign("g", 3),
               B.release("L")]))
    execution = bundle.execution(PreemptingScheduler([]), use_blocks=True)
    execution.step("A")  # A now holds L
    effects = execution.run_chain("B", execution.runnable_threads(),
                                  settled=True)
    assert effects.batch == 1 and effects.syncs == ()
    assert execution.acquire_locks[execution.threads["B"].pc] == "L"
    assert execution.runnable_threads() == ["A"]
    # whole run: A is redirected at its inner acquire while holding L,
    # and B's settled chain blocks on L exactly as instruction mode does
    plan = [PlannedPreemption("A", "acquire", "M", 0, "B")]
    _, instr = run_plan(bundle, None, plan, use_blocks=False)
    _, block = run_plan(bundle, None, plan, use_blocks=True)
    assert block == instr
    assert [item.key() for item in instr[3]["fired"]] == [plan[0].key()]


def test_settled_chain_runs_through_syncs_in_order():
    bundle = _bundle(
        ("A", [B.acquire("L"), B.assign("g", 1), B.release("L"),
               B.acquire("M"), B.release("M"), B.output(B.v("g"))]))
    scheduler = PreemptingScheduler([])
    execution = bundle.execution(scheduler, use_blocks=True)
    result = execution.run()
    assert result.completed and execution.sched_picks == 1
    assert scheduler.counters == {("A", "acquire", "L"): 1,
                                  ("A", "release", "L"): 1,
                                  ("A", "acquire", "M"): 1,
                                  ("A", "release", "M"): 1}


def test_settled_self_held_reacquire_faults_at_the_same_pc():
    bundle = _bundle(
        ("A", [B.acquire("L"), B.assign("g", 1), B.acquire("L"),
               B.release("L")]))
    _, instr = run_plan(bundle, None, [], use_blocks=False)
    block_ex, block = run_plan(bundle, None, [], use_blocks=True)
    assert block == instr
    result = block[0]
    assert result.failed and result.failure.kind == "lock"
    assert block_ex.acquire_locks[result.failure.pc] == "L"
    assert block_ex.sched_picks == 1


def test_replayed_testrun_matches_scratch_in_both_granularities():
    bundle, overrides, candidates = setup_for("fig1")
    factory = lambda scheduler: bundle.execution(  # noqa: E731
        scheduler, input_overrides=overrides, use_blocks=True)
    releases = [c for c in candidates
                if c.thread == "T1" and c.kind == "release"]
    plan = [PlannedPreemption.from_candidate(releases[-1], "T2")]
    engine = ReplayEngine(factory, candidates)
    scheduler = PreemptingScheduler(list(plan))
    replayed, skipped = engine.resume(scheduler, plan)
    assert skipped > 0
    result = replayed.run()
    _, instr = run_plan(bundle, overrides, plan, use_blocks=False)
    assert outcome(replayed, result, scheduler) == instr
