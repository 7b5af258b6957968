"""The parallel executor's correctness bar (property, over the registry).

For *every* registered bug and every strategy — plain chess and both
chessX heuristics — a sharded parallel search must produce a
:class:`SearchOutcome` identical to serial search: same plan, same
tries, same reproduction verdict, same logical step totals, same
``tries_by_size`` breakdown, and (since strategies run in suite order on
a shared memo) the same ``memo_hits``.  Only the physical
``executed_steps`` / ``skipped_steps`` split may differ — workers record
their own prefixes.

The property is additionally pinned under the two stress dimensions the
executor composes with:

* the cross-strategy testrun memo (on by default, plus a dedicated
  memo-off variant so every strategy genuinely dispatches), and
* forced checkpoint eviction (``replay_max_bytes=1``), where every
  worker-side and serial replay engine is byte-starved into constantly
  re-recording.
"""

import pytest

from repro.bugs import get_scenario
from repro.pipeline import ProgramBundle, ReproSession, ReproductionConfig

from tests.conftest import suite_scenario_names

ALL_NAMES = suite_scenario_names()
STRATEGIES = ("chess", "chessX+dep", "chessX+temporal")
WORKERS = 3

#: generous wall budgets so outcomes cut off on tries, never on wall
#: time — wall cutoffs would make try counts machine-dependent
_CONFIG_KW = dict(chess_max_seconds=10_000.0, chessx_max_seconds=10_000.0)

#: scenarios that also run the heavier no-memo and eviction variants
#: (every strategy dispatches for real; workers evict constantly)
STRESS_NAMES = ("fig1", "apache-2", "mysql-4")

_DUMPS = {}
_OUTCOMES = {}


def _failure_dump(name):
    if name not in _DUMPS:
        scenario = get_scenario(name)
        bundle = ProgramBundle(scenario.build())
        base = ReproSession(bundle,
                            input_overrides=scenario.input_overrides,
                            stress_seeds=range(8000),
                            expected_kind=scenario.expected_fault)
        _DUMPS[name] = (scenario, bundle, base.acquire_failure())
    return _DUMPS[name]


def _variant_config(variant):
    if variant == "serial":
        return ReproductionConfig(**_CONFIG_KW)
    if variant == "parallel":
        return ReproductionConfig(search_workers=WORKERS, **_CONFIG_KW)
    if variant == "serial-nomemo":
        return ReproductionConfig(testrun_memo=False, **_CONFIG_KW)
    if variant == "parallel-nomemo":
        return ReproductionConfig(search_workers=WORKERS,
                                  testrun_memo=False, **_CONFIG_KW)
    if variant == "serial-evict":
        return ReproductionConfig(replay_max_bytes=1, **_CONFIG_KW)
    if variant == "parallel-evict":
        return ReproductionConfig(search_workers=WORKERS,
                                  replay_max_bytes=1, **_CONFIG_KW)
    raise AssertionError(variant)


def outcomes_for(name, variant):
    """All suite strategies, run in canonical order (memo order matters)."""
    key = (name, variant)
    if key not in _OUTCOMES:
        scenario, bundle, dump = _failure_dump(name)
        session = ReproSession(bundle, config=_variant_config(variant),
                               failure_dump=dump,
                               input_overrides=scenario.input_overrides)
        _OUTCOMES[key] = ({s: session.search(s) for s in STRATEGIES}, session)
    return _OUTCOMES[key]


def assert_identical(a, b, context):
    assert a.algorithm == b.algorithm, context
    assert a.plan == b.plan, context
    assert a.tries == b.tries, context
    assert a.reproduced == b.reproduced, context
    assert a.cutoff == b.cutoff, context
    assert a.total_steps == b.total_steps, context
    assert a.tries_by_size == b.tries_by_size, context
    assert a.memo_hits == b.memo_hits, context
    if a.failure is None:
        assert b.failure is None, context
    else:
        assert a.failure.signature() == b.failure.signature(), context


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_parallel_outcome_identical(name, strategy):
    serial, _ = outcomes_for(name, "serial")
    parallel, _ = outcomes_for(name, "parallel")
    assert_identical(serial[strategy], parallel[strategy], (name, strategy))


@pytest.mark.parametrize("name", STRESS_NAMES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_parallel_outcome_identical_without_memo(name, strategy):
    """Every strategy dispatches its full worklist — no memo shortcuts."""
    serial, _ = outcomes_for(name, "serial-nomemo")
    parallel, _ = outcomes_for(name, "parallel-nomemo")
    assert_identical(serial[strategy], parallel[strategy], (name, strategy))


@pytest.mark.parametrize("name", STRESS_NAMES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_parallel_outcome_identical_under_eviction(name, strategy):
    """Byte-starved checkpoint caches change costs, never outcomes."""
    serial, _ = outcomes_for(name, "serial")
    evicted, _session = outcomes_for(name, "parallel-evict")
    assert_identical(serial[strategy], evicted[strategy], (name, strategy))


@pytest.mark.parametrize("name", STRESS_NAMES)
def test_serial_eviction_equivalence(name):
    """The serial engine under forced eviction also keeps its answers."""
    serial, _ = outcomes_for(name, "serial")
    evicted, session = outcomes_for(name, "serial-evict")
    for strategy in STRATEGIES:
        assert_identical(serial[strategy], evicted[strategy],
                         (name, strategy))
    assert session.replay_engine().cache.evictions > 0, name


@pytest.mark.parametrize("name", ALL_NAMES)
def test_memo_serves_duplicate_plans_across_strategies(name):
    """search_all() never re-executes a plan another strategy ran.

    Physical executed steps of a memo-served testrun are zero; served
    steps land in ``skipped_steps`` so the ledger still balances.
    """
    outcomes, session = outcomes_for(name, "serial")
    assert session.memo is not None
    total_hits = sum(o.memo_hits for o in outcomes.values())
    assert total_hits == session.memo.hits
    # chess runs first and owns its full worklist: no hits possible
    assert outcomes["chess"].memo_hits == 0
    # memoization must never change the answer
    nomemo, _ = outcomes_for(name, "serial-nomemo") \
        if name in STRESS_NAMES else (None, None)
    if nomemo is not None:
        for strategy in STRATEGIES:
            a, b = outcomes[strategy], nomemo[strategy]
            assert (a.plan, a.tries, a.reproduced, a.total_steps) \
                == (b.plan, b.tries, b.reproduced, b.total_steps), strategy


def test_memo_hits_on_identical_guided_worklists():
    """apache-1: chessX+dep and chessX+temporal enumerate byte-identical
    plans (the BENCH_search.json observation motivating the memo) — the
    second guided search must be served entirely from the first."""
    outcomes, _ = outcomes_for("apache-1", "serial")
    dep = outcomes["chessX+dep"]
    temporal = outcomes["chessX+temporal"]
    assert dep.tries == temporal.tries
    assert temporal.memo_hits == temporal.tries
    assert temporal.executed_steps == 0


def test_parallel_single_worker_is_serial_path():
    """search_workers=1 must not touch the pool at all."""
    from repro.exec import pool as par
    scenario, bundle, dump = _failure_dump("fig1")
    session = ReproSession(bundle, config=ReproductionConfig(**_CONFIG_KW),
                           failure_dump=dump,
                           input_overrides=scenario.input_overrides)
    before = par._pool
    session.search("chessX+dep")
    assert par._pool is before
