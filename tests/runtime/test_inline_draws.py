"""Inline multicore draws: the emitted chain code draws the seeded
scheduler's per-instruction decisions itself, exactly as instruction
mode draws them one pick at a time.

Property: for every registry scenario and one generated scenario per
synth family, under stress seeds 0..29, a block-mode run equals the
instruction-mode run in its ``RunResult``, its dump, every thread's
``instr_count`` and ``started_at``, and the scheduler's RNG state after
the run — a single extra or missing draw shows up there even when the
interleaving happens to survive it.
"""

import pytest

from repro.bugs import all_scenarios
from repro.bugs.synth import FAMILIES, make_scenario
from repro.coredump.dump import take_core_dump
from repro.coredump.serialize import dump_to_json
from repro.pipeline.bundle import ProgramBundle
from repro.runtime.scheduler import MulticoreScheduler

SEEDS = range(30)

SCENARIOS = {scenario.name: scenario for scenario in all_scenarios()}
SCENARIOS.update((scenario.name, scenario) for scenario in
                 (make_scenario(family, 1000) for family in FAMILIES))


def outcome(execution, result):
    if execution.failure is not None:
        dump = take_core_dump(execution, "failure")
    else:
        dump = take_core_dump(execution, "aligned",
                              failing_thread=execution.program.threads[0].name)
    counters = {name: (thread.instr_count, thread.started_at)
                for name, thread in execution.threads.items()}
    return (result, dump_to_json(dump), counters,
            execution.scheduler._rng.getstate())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_block_mode_draws_exactly_like_instruction_mode(name):
    scenario = SCENARIOS[name]
    bundle = ProgramBundle(scenario.build())
    fewer_picks = False
    for seed in SEEDS:
        runs = {}
        for use_blocks in (False, True):
            execution = bundle.execution(
                MulticoreScheduler(seed=seed),
                input_overrides=scenario.input_overrides,
                use_blocks=use_blocks)
            assert execution.block_mode() == use_blocks
            runs[use_blocks] = execution, outcome(execution, execution.run())
        assert runs[True][1] == runs[False][1], (name, seed)
        fewer_picks |= runs[True][0].sched_picks < runs[False][0].sched_picks
    assert fewer_picks, name
