"""The prefix-replay engine: scheduler restorability, cache, resume."""

import pytest

from repro.bugs import get_scenario
from repro.pipeline import ProgramBundle, ReproductionConfig, stress_test
from repro.pipeline.session import run_passing_with_alignment
from repro.runtime import DeterministicScheduler
from repro.search import (
    CheckpointCache,
    PlannedPreemption,
    PreemptingScheduler,
    ReplayEngine,
    enumerate_candidates,
)
from repro.search.replay import CacheEntry, SchedulerPrefixState


@pytest.fixture(scope="module")
def fig1(request):
    """fig1 bundle, failure dump, and passing-run candidates."""
    scenario = get_scenario("fig1")
    bundle = ProgramBundle(scenario.build())
    stress = stress_test(bundle, expected_kind=scenario.expected_fault)
    config = ReproductionConfig()
    from repro.indexing import reverse_engineer_index

    index = reverse_engineer_index(stress.dump, bundle.analysis)
    _, _, events, _, _ = run_passing_with_alignment(
        bundle, stress.dump, config, index=index)
    candidates = enumerate_candidates(events, frozenset(), [])
    return dict(bundle=bundle, stress=stress, events=events,
                candidates=candidates)


def _factory(bundle):
    return lambda scheduler: bundle.execution(scheduler)


class TestPreemptingSchedulerRestore:
    def test_restore_prefix_matches_real_prefix(self, fig1):
        """A prefix-restored scheduler equals one that drove the prefix."""
        bundle = fig1["bundle"]
        candidates = fig1["candidates"]
        late = [c for c in candidates if c.step > 0][-1]
        plan = [PlannedPreemption.from_candidate(late, "T2")]

        # drive a fresh preempting scheduler deterministically to the step
        driven = PreemptingScheduler(list(plan))
        ex = bundle.execution(driven)
        while ex.step_count < late.step:
            runnable = ex.runnable_threads()
            assert runnable
            name = driven.pick(ex, runnable)
            driven.observe(ex, ex.step(name))

        # reconstruct the same point from the deterministic prefix
        det = DeterministicScheduler()
        ex2 = bundle.execution(det)
        started, counters = set(), {}
        while ex2.step_count < late.step:
            runnable = ex2.runnable_threads()
            name = det.pick(ex2, runnable)
            effects = ex2.step(name)
            started.add(effects.thread)
            if effects.sync is not None:
                kind, lock = effects.sync
                key = (effects.thread, kind, lock)
                counters[key] = counters.get(key, 0) + 1
        restored = PreemptingScheduler(list(plan))
        restored.restore_prefix(SchedulerPrefixState(
            current=det.current, started=frozenset(started),
            counters=tuple(sorted(counters.items()))))

        assert restored.current == driven.current
        assert restored.started == driven.started
        assert restored.counters == driven.counters
        assert restored.pending == driven.pending
        assert driven.fired == [] and restored.fired == []


def _entry(step, nbytes=100):
    return CacheEntry(step=step, checkpoint=object(),
                      prefix=SchedulerPrefixState(None, frozenset(), ()),
                      nbytes=nbytes)


class TestCheckpointCache:
    def test_lru_eviction_by_count(self):
        cache = CheckpointCache(max_entries=2, max_bytes=1 << 30)
        cache.put(_entry(1))
        cache.put(_entry(2))
        cache.put(_entry(3))
        assert cache.steps() == [2, 3]
        assert cache.evictions == 1

    def test_get_refreshes_lru_order(self):
        cache = CheckpointCache(max_entries=2, max_bytes=1 << 30)
        cache.put(_entry(1))
        cache.put(_entry(2))
        assert cache.get(1) is not None  # 1 becomes most recent
        cache.put(_entry(3))             # evicts 2, not 1
        assert cache.steps() == [1, 3]

    def test_byte_budget_eviction(self):
        cache = CheckpointCache(max_entries=100, max_bytes=250)
        cache.put(_entry(1, nbytes=100))
        cache.put(_entry(2, nbytes=100))
        cache.put(_entry(3, nbytes=100))  # 300 bytes > 250: evict LRU
        assert cache.steps() == [2, 3]
        assert cache.total_bytes == 200

    def test_newest_entry_never_evicted(self):
        cache = CheckpointCache(max_entries=2, max_bytes=50)
        cache.put(_entry(1, nbytes=40))
        cache.put(_entry(2, nbytes=1000))  # oversized, but must survive
        assert 2 in cache
        assert cache.steps() == [2]

    def test_replacing_entry_updates_bytes(self):
        cache = CheckpointCache(max_entries=4, max_bytes=1 << 30)
        cache.put(_entry(1, nbytes=100))
        cache.put(_entry(1, nbytes=300))
        assert cache.total_bytes == 300
        assert len(cache) == 1

    def test_nearest_at_or_before(self):
        cache = CheckpointCache(max_entries=8, max_bytes=1 << 30)
        for step in (10, 30, 50):
            cache.put(_entry(step))
        assert cache.nearest_at_or_before(5) is None
        assert cache.nearest_at_or_before(30).step == 30
        assert cache.nearest_at_or_before(49).step == 30
        assert cache.nearest_at_or_before(99).step == 50


class TestReplayEngine:
    def test_restore_step_is_earliest_preemption(self, fig1):
        candidates = fig1["candidates"]
        engine = ReplayEngine(_factory(fig1["bundle"]), candidates)
        early = min((c for c in candidates if c.step > 0),
                    key=lambda c: c.step)
        late = max(candidates, key=lambda c: c.step)
        plan = [PlannedPreemption.from_candidate(late, "T2"),
                PlannedPreemption.from_candidate(early, "T2")]
        assert engine.restore_step_for(plan) == early.step

    def test_unknown_key_falls_back_to_scratch(self, fig1):
        engine = ReplayEngine(_factory(fig1["bundle"]), fig1["candidates"])
        plan = [PlannedPreemption("T1", "acquire", "lock", 999, "T2")]
        assert engine.restore_step_for(plan) == 0
        scheduler = PreemptingScheduler(plan)
        execution, skipped = engine.resume(scheduler, plan)
        assert skipped == 0 and execution.step_count == 0
        assert engine.scratch_runs == 1

    def test_resume_restores_at_candidate_step(self, fig1):
        engine = ReplayEngine(_factory(fig1["bundle"]), fig1["candidates"])
        late = max(fig1["candidates"], key=lambda c: c.step)
        plan = [PlannedPreemption.from_candidate(late, "T1")]
        scheduler = PreemptingScheduler(plan)
        execution, skipped = engine.resume(scheduler, plan)
        assert skipped == late.step
        assert execution.step_count == late.step
        assert engine.recording_steps == late.step
        assert engine.drain_recording_steps() == late.step
        assert engine.drain_recording_steps() == 0

    def test_replayed_testrun_equals_scratch_testrun(self, fig1):
        bundle, stress = fig1["bundle"], fig1["stress"]
        releases = [c for c in fig1["candidates"]
                    if c.thread == "T1" and c.kind == "release"]
        plan = [PlannedPreemption.from_candidate(releases[-1], "T2")]

        scratch = bundle.execution(PreemptingScheduler(list(plan)))
        scratch_result = scratch.run()

        engine = ReplayEngine(_factory(bundle), fig1["candidates"])
        scheduler = PreemptingScheduler(list(plan))
        replayed, skipped = engine.resume(scheduler, plan)
        replay_result = replayed.run()

        assert skipped > 0
        assert replay_result.status == scratch_result.status
        assert replay_result.steps == scratch_result.steps
        assert replay_result.output == scratch_result.output
        assert replay_result.failure.signature() == \
            scratch_result.failure.signature()
        assert replay_result.failure.signature() == \
            stress.failure.signature()

    def test_eviction_triggers_rerecording(self, fig1):
        bundle = fig1["bundle"]
        candidates = [c for c in fig1["candidates"] if c.step > 0]
        engine = ReplayEngine(_factory(bundle), fig1["candidates"],
                              max_checkpoints=1)
        by_step = sorted(candidates, key=lambda c: c.step)
        first, last = by_step[0], by_step[-1]
        engine.resume(PreemptingScheduler([]),
                      [PlannedPreemption.from_candidate(last, "T2")])
        assert engine.cache.evictions > 0
        assert len(engine.cache) == 1
        # the early checkpoint was evicted: resuming there re-records
        recorded_before = engine.recording_steps
        execution, skipped = engine.resume(
            PreemptingScheduler([]),
            [PlannedPreemption.from_candidate(first, "T2")])
        assert skipped == first.step
        assert execution.step_count == first.step
        assert engine.recording_steps == recorded_before + first.step

    def test_one_recording_pass_serves_all_candidates(self, fig1):
        """Ascending resumes never re-execute recorded prefix steps."""
        bundle = fig1["bundle"]
        engine = ReplayEngine(_factory(bundle), fig1["candidates"])
        steps = sorted({c.step for c in fig1["candidates"] if c.step > 0})
        for candidate_step in steps:
            candidate = next(c for c in fig1["candidates"]
                             if c.step == candidate_step)
            engine.resume(PreemptingScheduler([]),
                          [PlannedPreemption.from_candidate(candidate, "T2")])
        assert engine.recording_steps == steps[-1]


class TestReplayEngineByteBudget:
    """The byte budget, fed by the container-level size estimate."""

    def _two_steps(self, fig1):
        """Two candidate steps and their checkpoints' estimated bytes."""
        steps = sorted({c.step for c in fig1["candidates"] if c.step > 0})
        first, last = steps[0], steps[-1]
        engine = ReplayEngine(_factory(fig1["bundle"]), fig1["candidates"])
        sizes = [engine._ensure_checkpoint(step).nbytes
                 for step in (first, last)]
        return (first, last), sizes

    def _plan(self, fig1, step):
        candidate = next(c for c in fig1["candidates"] if c.step == step)
        return [PlannedPreemption.from_candidate(candidate, "T2")]

    def test_budget_below_two_checkpoints_forces_eviction(self, fig1):
        (first, last), sizes = self._two_steps(fig1)
        assert all(size > 0 for size in sizes)
        engine = ReplayEngine(_factory(fig1["bundle"]), fig1["candidates"],
                              max_bytes=sum(sizes) - 1)
        for step in (first, last):
            plan = self._plan(fig1, step)
            engine.resume(PreemptingScheduler(list(plan)), plan)
        assert engine.cache.evictions > 0
        assert engine.cache.total_bytes <= sum(sizes) - 1

    def test_starved_engine_outputs_match_scratch(self, fig1):
        bundle = fig1["bundle"]
        (first, last), sizes = self._two_steps(fig1)
        engine = ReplayEngine(_factory(bundle), fig1["candidates"],
                              max_bytes=sum(sizes) - 1)
        for step in (last, first, last, first):
            plan = self._plan(fig1, step)
            replayed, skipped = engine.resume(
                PreemptingScheduler(list(plan)), plan)
            assert skipped == step
            replay_result = replayed.run()
            scratch_result = bundle.execution(
                PreemptingScheduler(list(plan))).run()
            assert replay_result == scratch_result
        assert engine.cache.evictions > 0
