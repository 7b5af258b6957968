"""The staged session API: memoization, registries, JSON, batching."""

import warnings

import pytest

from repro.bugs import get_scenario
from repro.lang.errors import RegistryError
from repro.pipeline import (
    ProgramBundle,
    ReproSession,
    ReproductionConfig,
    ReproductionReport,
    SCHEMA_VERSION,
    run_many,
)
from repro.registry import ALIGNERS, HEURISTICS, SEARCH_STRATEGIES
from repro.search.strategies import resolve_strategy, strategy_names
from repro.slicing import rank_temporal

BATCH_NAMES = ["fig1", "apache-1", "mysql-1"]


def _probe_in_worker():
    """Module-level so the process pool can pickle it by reference."""
    from repro.exec.pool import in_worker

    return in_worker()


@pytest.fixture(scope="module")
def fig1_session():
    """One fully-stressed fig1 session shared by the module."""
    scenario = get_scenario("fig1")
    bundle = ProgramBundle(scenario.build())
    session = ReproSession(bundle, expected_kind=scenario.expected_fault)
    session.acquire_failure()
    return session


@pytest.fixture()
def fresh_session(fig1_session):
    """A new session over fig1's bundle and already-acquired dump."""
    return ReproSession(fig1_session.bundle,
                        failure_dump=fig1_session.failure_dump)


class TestStageMemoization:
    def test_stages_run_once(self, fresh_session):
        session = fresh_session
        analysis = session.analyze_dump()
        assert session.analyze_dump() is analysis
        plan = session.diff_and_prioritize()
        assert session.diff_and_prioritize() is plan
        assert session.stage_runs["analyze"] == 1
        assert session.stage_runs["diff"] == 1

    def test_search_twice_is_not_analyze_twice(self, fresh_session):
        session = fresh_session
        dep = session.search("chessX+dep")
        temporal = session.search("chessX+temporal")
        assert dep.reproduced and temporal.reproduced
        assert session.stage_runs["search"] == 2
        assert session.stage_runs["analyze"] == 1
        assert session.stage_runs["diff"] == 1

    def test_same_strategy_not_searched_twice(self, fresh_session):
        session = fresh_session
        outcome = session.search("chessX+dep")
        assert session.search("chessX+dep") is outcome
        assert session.stage_runs["search"] == 1

    def test_default_strategy_is_first_heuristic(self, fresh_session):
        outcome = fresh_session.search()
        assert outcome.algorithm == "chessX+dep"
        # the canonicalized alias hits the same cache entry
        assert fresh_session.search("chessX") is outcome
        assert fresh_session.stage_runs["search"] == 1

    def test_report_reuses_stage_results(self, fresh_session):
        session = fresh_session
        analysis = session.analyze_dump()
        report = session.report()
        assert report.alignment is analysis.alignment
        assert session.stage_runs["analyze"] == 1
        assert set(report.searches) == set(session.config.strategy_names())


class TestRegistries:
    def test_builtin_names(self):
        assert {"index", "instcount", "contextpc"} <= set(ALIGNERS.names())
        assert {"dep", "temporal"} <= set(HEURISTICS.names())
        assert {"chess", "chessX+dep", "chessX+temporal"} \
            <= set(strategy_names())

    def test_unknown_component_error_lists_choices(self):
        with pytest.raises(RegistryError, match="instcount"):
            ALIGNERS.get("nope")
        with pytest.raises(RegistryError, match="chessX\\+dep"):
            resolve_strategy("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError, match="duplicate"):
            ALIGNERS.register("index", lambda *a, **k: None)

    def test_config_validates_aligner_and_heuristics(self):
        with pytest.raises(RegistryError, match="contextpc"):
            ReproductionConfig(aligner="bogus")
        with pytest.raises(RegistryError, match="temporal"):
            ReproductionConfig(heuristics=("bogus",))

    def test_new_heuristic_yields_chessx_strategy(self, fresh_session):
        HEURISTICS.register("lifo", lambda accesses, ctx:
                            rank_temporal(accesses))
        try:
            assert "chessX+lifo" in strategy_names()
            outcome = fresh_session.search("chessX+lifo")
            assert outcome.algorithm == "chessX+lifo"
            assert outcome.reproduced
        finally:
            HEURISTICS.unregister("lifo")

    def test_custom_strategy_plugs_in(self, fresh_session):
        from repro.search.chess import ChessSearch

        @SEARCH_STRATEGIES.register("chess-lite")
        def build_chess_lite(ctx):
            return ChessSearch(ctx.execution_factory, ctx.candidates([]),
                               ctx.target_signature, ctx.thread_names,
                               preemption_bound=1, max_tries=50)
        try:
            outcome = fresh_session.search("chess-lite")
            assert outcome.tries <= 50
        finally:
            SEARCH_STRATEGIES.unregister("chess-lite")


class TestJsonSchema:
    def test_round_trip_preserves_tables(self, fresh_session):
        report = fresh_session.report()
        clone = ReproductionReport.from_json(report.to_json())
        assert clone.table3_row() == report.table3_row()
        assert clone.table4_row() == report.table4_row()

    def test_round_trip_preserves_structure(self, fresh_session):
        report = fresh_session.report()
        clone = ReproductionReport.from_json(report.to_json())
        assert clone.index == report.index
        assert clone.alignment == report.alignment
        assert clone.failure == report.failure
        assert clone.config == report.config
        best = report.searches["chessX+dep"]
        assert clone.searches["chessX+dep"].plan == best.plan
        assert clone.searches["chessX+dep"].tries_by_size == \
            best.tries_by_size

    def test_document_is_versioned(self, fresh_session):
        import json

        doc = json.loads(fresh_session.report().to_json())
        assert doc["schema"] == SCHEMA_VERSION

    def test_unknown_schema_rejected(self, fresh_session):
        import json

        from repro.lang.errors import DumpError

        doc = json.loads(fresh_session.report().to_json())
        doc["schema"] = "repro.report/999"
        with pytest.raises(DumpError, match="repro.report/999"):
            ReproductionReport.from_json(json.dumps(doc))

    def test_pre_1_1_documents_still_parse(self, fresh_session):
        """Schema 1.1 is additive: a repro.report/1 document (no stage
        timings, no memo_hits) decodes with the new fields defaulted."""
        import json

        doc = json.loads(fresh_session.report().to_json())
        doc["schema"] = "repro.report/1"
        for stage_field in ("stress_s", "analyze_s", "diff_s", "search_s",
                            "search_by_strategy"):
            doc["timings"].pop(stage_field)
        for outcome_doc in doc["searches"].values():
            outcome_doc.pop("memo_hits")
        clone = ReproductionReport.from_json(json.dumps(doc))
        assert clone.timings.search_s == 0.0
        assert clone.timings.search_by_strategy == {}
        assert all(o.memo_hits == 0 for o in clone.searches.values())
        assert clone.table4_row() == fresh_session.report().table4_row()

    def test_stage_timings_exposed_in_json(self, fresh_session):
        import json

        report = fresh_session.report()
        doc = json.loads(report.to_json())
        timings = doc["timings"]
        assert timings["analyze_s"] > 0.0
        assert timings["diff_s"] > 0.0
        assert timings["search_s"] > 0.0
        assert set(timings["search_by_strategy"]) == set(doc["searches"])
        clone = ReproductionReport.from_json(report.to_json())
        assert clone.timings == report.timings


class TestBatchDriver:
    @staticmethod
    def _comparable(batch):
        """Everything deterministic in a batch (wall clocks dropped)."""
        rows = {}
        for name, report in batch:
            searches = {s: (o.tries, o.total_steps, o.reproduced, o.cutoff)
                        for s, o in report.searches.items()}
            rows[name] = (report.table3_row(), searches,
                          report.failing_seed, report.candidate_count)
        return rows

    def test_parallel_equals_serial(self):
        serial = run_many(BATCH_NAMES, workers=1).raise_errors()
        parallel = run_many(BATCH_NAMES, workers=4).raise_errors()
        assert parallel.workers == 4
        assert list(serial.reports) == BATCH_NAMES
        assert self._comparable(serial) == self._comparable(parallel)

    def test_every_bug_reproduced(self):
        batch = run_many(BATCH_NAMES, workers=2).raise_errors()
        for name, report in batch:
            assert report.searches["chessX+dep"].reproduced
        assert len(batch.table4_rows()) == len(BATCH_NAMES)

    def test_errors_are_isolated(self):
        batch = run_many(["fig1", "no-such-bug"], workers=2)
        assert "fig1" in batch.reports
        assert "no-such-bug" in batch.errors
        with pytest.raises(RuntimeError, match="no-such-bug"):
            batch.raise_errors()

    def test_pool_workers_carry_the_in_worker_flag(self):
        """Sessions inside batch workers see in_worker() and therefore
        keep their plan-level search serial — one shared budget, no
        nested pools."""
        from repro.exec.pool import shared_pool

        pool = shared_pool(2)
        assert pool.submit(_probe_in_worker).result() is True

    def test_nested_search_parallelism_results_identical(self):
        """search_workers>1 inside a parallel batch changes nothing."""
        names = ["fig1", "mysql-2"]
        nested = run_many(
            names, config=ReproductionConfig(search_workers=2),
            workers=2).raise_errors()
        plain = run_many(names, workers=2).raise_errors()
        assert self._comparable(nested) == self._comparable(plain)


class TestLegacyShim:
    def test_session_revalidates_config(self, fig1_session):
        config = ReproductionConfig()
        config.aligner = "typo"  # mutated after construction
        with pytest.raises(RegistryError, match="valid choices"):
            ReproSession(fig1_session.bundle, config=config,
                         failure_dump=fig1_session.failure_dump)
