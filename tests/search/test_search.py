"""Preemption candidates, the preempting scheduler, CHESS, and chessX."""

import pytest

from repro.pipeline import ProgramBundle, ReproSession, stress_test
from repro.pipeline.session import (
    ReproductionConfig,
    run_passing_with_alignment,
)
from repro.indexing import reverse_engineer_index
from repro.runtime import DeterministicScheduler, global_loc
from repro.search import (
    BOTTOM_WEIGHT,
    ChessSearch,
    ChessXSearch,
    PlannedPreemption,
    PreemptingScheduler,
    enumerate_candidates,
)
from repro.slicing import TraceCollector, extract_csv_accesses, rank_temporal


@pytest.fixture(scope="module")
def fig1_setup(request):
    """Stressed fig1 plus its passing-run artifacts, shared per module."""
    from repro.bugs import get_scenario

    scenario = get_scenario("fig1")
    bundle = ProgramBundle(scenario.build())
    stress = stress_test(bundle, expected_kind=scenario.expected_fault)
    index = reverse_engineer_index(stress.dump, bundle.analysis)
    config = ReproductionConfig()
    alignment, aligned_dump, events, _, _ = run_passing_with_alignment(
        bundle, stress.dump, config, index=index)
    from repro.coredump import compare_dumps
    comparison = compare_dumps(stress.dump, aligned_dump)
    return dict(bundle=bundle, stress=stress, index=index,
                alignment=alignment, events=events, comparison=comparison)


class TestCandidateEnumeration:
    def test_kinds_and_occurrences(self, fig1_setup):
        events = fig1_setup["events"]
        candidates = enumerate_candidates(events, set(), [])
        kinds = {c.kind for c in candidates}
        assert kinds == {"start", "acquire", "release"}
        t1_acquires = [c for c in candidates
                       if c.thread == "T1" and c.kind == "acquire"]
        assert [c.occurrence for c in t1_acquires] == \
            list(range(len(t1_acquires)))

    def test_every_thread_has_start(self, fig1_setup):
        candidates = enumerate_candidates(fig1_setup["events"], set(), [])
        starts = {c.thread for c in candidates if c.kind == "start"}
        assert starts == {"T1", "T2"}

    def test_blocks_carry_prioritized_accesses(self, fig1_setup):
        comparison = fig1_setup["comparison"]
        events = fig1_setup["events"]
        csv_locs = comparison.csv_locations
        accesses = rank_temporal(extract_csv_accesses(
            events, csv_locs, upto_step=fig1_setup["alignment"].criterion_step))
        candidates = enumerate_candidates(events, csv_locs, accesses,
                                          all_accesses=accesses)
        annotated = [c for c in candidates if c.accesses]
        assert annotated, "some block must contain a CSV access"
        for candidate in annotated:
            assert candidate.weight_component() < BOTTOM_WEIGHT
            for access in candidate.accesses:
                assert access.thread == candidate.thread

    def test_future_csvs_monotone_shrink(self, fig1_setup):
        comparison = fig1_setup["comparison"]
        events = fig1_setup["events"]
        csv_locs = comparison.csv_locations
        accesses = extract_csv_accesses(events, csv_locs)
        candidates = enumerate_candidates(events, csv_locs, accesses,
                                          all_accesses=accesses)
        t1 = [c for c in candidates if c.thread == "T1"]
        for earlier, later in zip(t1, t1[1:]):
            assert later.future_csvs <= earlier.future_csvs


class TestPreemptingScheduler:
    def _run_with_plan(self, bundle, plan):
        scheduler = PreemptingScheduler(plan)
        ex = bundle.execution(scheduler)
        return ex.run(), scheduler

    def test_start_preemption_switches(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        plan = [PlannedPreemption("T1", "start", None, 0, "T2")]
        result, scheduler = self._run_with_plan(bundle, plan)
        assert scheduler.fired and scheduler.fired[0].kind == "start"
        # T2 ran first -> its reset lands before T1's loop: run completes
        assert result.completed

    def test_release_preemption_fires_after_nth(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        plan = [PlannedPreemption("T1", "release", "lock", 2, "T2")]
        result, scheduler = self._run_with_plan(bundle, plan)
        assert len(scheduler.fired) == 1
        assert scheduler.pending == {}

    def test_unfireable_preemption_dissolves(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        plan = [PlannedPreemption("T1", "acquire", "lock", 999, "T2")]
        result, scheduler = self._run_with_plan(bundle, plan)
        assert result.completed
        assert scheduler.pending  # never matched
        assert scheduler.fired == []

    def test_last_release_preemption_reproduces_fig1(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        stress = fig1_setup["stress"]
        last = None
        candidates = enumerate_candidates(fig1_setup["events"], set(), [])
        releases = [c for c in candidates
                    if c.thread == "T1" and c.kind == "release"]
        plan = [PlannedPreemption.from_candidate(releases[-1], "T2")]
        result, scheduler = self._run_with_plan(bundle, plan)
        assert result.failed
        assert result.failure.signature() == stress.failure.signature()


class TestChessSearches:
    def test_chess_enumerates_singletons_first(self, fig1_setup):
        candidates = enumerate_candidates(fig1_setup["events"], set(), [])
        search = ChessSearch(lambda s: None, candidates, ("x", 0),
                             ["T1", "T2"], preemption_bound=2)
        plans = search.plans()
        sizes = [len(next(plans)) for _ in range(len(candidates))]
        assert all(size == 1 for size in sizes)

    def test_chessx_worklist_sorted_by_weight(self, fig1_setup):
        comparison = fig1_setup["comparison"]
        events = fig1_setup["events"]
        csv_locs = comparison.csv_locations
        ranked = rank_temporal(extract_csv_accesses(events, csv_locs))
        candidates = enumerate_candidates(events, csv_locs, ranked,
                                          all_accesses=ranked)
        search = ChessXSearch(lambda s: None, candidates, ("x", 0),
                              ["T1", "T2"], ranked, preemption_bound=2)
        weights = [w for w, _, _ in search.weighted_worklist()]
        assert weights == sorted(weights)

    def test_chessx_beats_chess_on_fig1(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        report = ReproSession(
            bundle, failure_dump=fig1_setup["stress"].dump).report()
        chess = report.searches["chess"]
        chessx = report.searches["chessX+dep"]
        assert chess.reproduced and chessx.reproduced
        assert chessx.tries < chess.tries

    def test_cutoff_respected(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        stress = fig1_setup["stress"]
        candidates = enumerate_candidates(fig1_setup["events"], set(), [])

        def factory(scheduler):
            return bundle.execution(scheduler)

        search = ChessSearch(factory, candidates,
                             ("impossible", -1),  # never matches
                             ["T1", "T2"], max_tries=5)
        outcome = search.search()
        assert outcome.cutoff and outcome.tries == 5
        assert not outcome.reproduced


class TestBaselineAligners:
    def test_instcount_report(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        config = ReproductionConfig(aligner="instcount",
                                    heuristics=("temporal",),
                                    include_chess=False)
        report = ReproSession(bundle, config,
                              failure_dump=fig1_setup["stress"].dump).report()
        assert report.alignment is not None
        assert "chessX+temporal" in report.searches

    def test_contextpc_report(self, fig1_setup):
        bundle = fig1_setup["bundle"]
        config = ReproductionConfig(aligner="contextpc",
                                    heuristics=("temporal",),
                                    include_chess=False)
        report = ReproSession(bundle, config,
                              failure_dump=fig1_setup["stress"].dump).report()
        assert report.alignment is not None
