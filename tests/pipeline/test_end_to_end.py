"""End-to-end reproduction across the whole bug suite (integration)."""

import pytest

from repro.bugs import get_scenario, scenarios_by_tag, table2_scenarios
from repro.pipeline import (
    ProgramBundle,
    ReproSession,
    ReproductionConfig,
    stress_test,
    verify_passes_on_single_core,
)

from tests.conftest import suite_scenario_names

ALL_NAMES = suite_scenario_names()
#: the hand-written crash suite: the paper's performance claims hold
#: here; hang scenarios reproduce (TestReproduction) but the Table-2
#: performance bars predate deadlock targets, so they stay out
PAPER_NAMES = [s.name for s in scenarios_by_tag(exclude=("synth", "hang"))]

_CACHE = {}


def pipeline_for(name):
    """Stress + reproduce once per scenario, cached across tests."""
    if name not in _CACHE:
        scenario = get_scenario(name)
        bundle = ProgramBundle(scenario.build())
        stress = stress_test(bundle, input_overrides=scenario.input_overrides,
                             expected_kind=scenario.expected_fault,
                             seeds=range(8000))
        report = ReproSession(
            bundle, failure_dump=stress.dump,
            input_overrides=scenario.input_overrides).report()
        _CACHE[name] = (scenario, bundle, stress, report)
    return _CACHE[name]


@pytest.mark.parametrize("name", ALL_NAMES)
class TestScenarioContract:
    def test_passes_on_single_core(self, name):
        scenario = get_scenario(name)
        bundle = ProgramBundle(scenario.build())
        assert verify_passes_on_single_core(bundle,
                                            scenario.input_overrides)

    def test_fails_under_stress_in_expected_function(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        assert stress.failure.kind == scenario.expected_fault
        crash_func = bundle.compiled.func_of(stress.failure.pc)
        assert crash_func == scenario.crash_func


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPipelinePhases:
    def test_alignment_found(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        assert report.alignment is not None
        assert report.alignment.status in ("exact", "closest")

    def test_index_reverse_engineered(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        assert report.index_len >= 2
        assert report.index.thread == stress.failure.thread

    def test_csvs_found_and_small(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        assert report.csv_count >= 1
        # CSVs are a small fraction of all compared shared variables
        assert report.csv_count <= report.shared_compared

    def test_dump_sizes_comparable(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        ratio = report.fail_dump_bytes / report.aligned_dump_bytes
        assert 0.5 < ratio < 2.0  # paper: "roughly the same size"


@pytest.mark.parametrize("name", ALL_NAMES)
class TestReproduction:
    def test_chessx_dep_reproduces(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        outcome = report.searches["chessX+dep"]
        assert outcome.reproduced
        assert outcome.failure.signature() == stress.failure.signature()

    def test_chessx_temporal_reproduces(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        assert report.searches["chessX+temporal"].reproduced


@pytest.mark.parametrize("name", PAPER_NAMES)
class TestPaperSuiteClaims:
    """The paper's *empirical* claims, asserted on its own suite only.

    Generated scenarios must still reproduce (TestReproduction runs on
    the full selection), but heuristic quality legitimately varies with
    bug shape — e.g. on the split-lock family plain chess beats the dep
    ranking — so the Table-2 performance bars stay scoped to the
    hand-written suite.
    """

    def test_chessx_dep_never_worse_than_chess(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        chess = report.searches["chess"]
        dep = report.searches["chessX+dep"]
        if chess.reproduced:
            assert dep.tries <= chess.tries

    def test_guided_search_is_small(self, name):
        scenario, bundle, stress, report = pipeline_for(name)
        # the paper: "in most cases our algorithm requires less than 10
        # tries"; allow headroom for the temporal heuristic
        assert report.searches["chessX+dep"].tries <= 10


class TestAggregate:
    def test_suite_has_seven_table2_bugs(self):
        assert len(table2_scenarios()) == 7

    def test_orders_of_magnitude_aggregate(self):
        """Across the suite, guided search wins by a large factor."""
        total_chess = 0
        total_dep = 0
        for scenario in table2_scenarios():
            _, _, _, report = pipeline_for(scenario.name)
            total_chess += report.searches["chess"].tries
            total_dep += report.searches["chessX+dep"].tries
        assert total_chess >= 10 * total_dep

    def test_timings_recorded(self):
        _, _, _, report = pipeline_for("fig1")
        timings = report.timings
        assert timings.dump_parse_s >= 0
        assert timings.dump_diff_s >= 0
        assert timings.slicing_s >= 0

    def test_table_rows_render(self):
        _, _, _, report = pipeline_for("fig1")
        row3 = report.table3_row()
        assert row3["bug"] == "fig1"
        row4 = report.table4_row()
        assert "chess" in row4
