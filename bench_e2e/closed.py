"""Closed-loop workloads: one in-process client reproducing bugs back to
back through the public ``ReproSession`` stages, default config.

``paper-cold``   the eight ``paper``-tagged scenarios, in repeated passes
``synth-fleet``  a fixed fleet of generated bugs from all five families

Each op is a fresh session: build → stress → analyze → diff → every
configured search strategy → ``report().to_json()``.  A run is a whole
number of passes over the workload's scenario list (each pass in an
order drawn from the seed), so the exact counts — tries and executed
steps per reproduction — do not depend on how many passes fit.
"""

import json
import random
import time

from repro import ProgramBundle, ReproSession, ReproductionConfig, \
    ReproductionReport
from repro.bugs import get_scenario, scenarios_by_tag
from repro.bugs.synth import FAMILIES, make_scenario
from repro.pipeline.report import SCHEMA_VERSION

from metrics import TAIL_BEYOND
from procs import self_peak_rss_mb
from spans import NullTracer

#: generator seeds of the fleet, per family.  The fleet is fixed rather
#: than drawn from the workload seed: per-bug search cost spans three
#: orders of magnitude (7 to 1400 tries), so fleets drawn per seed
#: disagree by 30-40% on every fleet-wide figure; the seed orders the
#: ops instead.  Seeds from 1000 stay clear of the registered default
#: suite (seeds 0-4).
FLEET_SEEDS = range(1000, 1012)

STRATEGY_SLUGS = {"chess": "chess", "chessX+dep": "chessX-dep",
                  "chessX+temporal": "chessX-temporal"}


def fleet():
    return [make_scenario(family, seed)
            for seed in FLEET_SEEDS for family in FAMILIES]


def scenarios_for(workload):
    if workload == "paper-cold":
        return list(scenarios_by_tag("paper"))
    return fleet()


def reproduce(scenario, config, tracer, op):
    """One full reproduction; returns ``(session, outcomes, report_json)``."""
    with tracer.span("op", op):
        with tracer.span("lang.build", op):
            bundle = ProgramBundle(scenario.build())
            bundle.block_table  # the superblock partition is built lazily
        session = ReproSession(bundle, config,
                               input_overrides=scenario.input_overrides,
                               stress_seeds=scenario.stress_seeds,
                               expected_kind=scenario.expected_fault)
        with tracer.span("stress", op):
            session.acquire_failure()
        with tracer.span("analyze", op):
            session.analyze_dump()
        with tracer.span("diff", op):
            session.diff_and_prioritize()
        outcomes = {}
        for name in config.strategy_names():
            with tracer.span("search." + STRATEGY_SLUGS[name], op):
                outcomes[name] = session.search(name)
        with tracer.span("report", op):
            report_json = session.report().to_json()
    return session, outcomes, report_json


def check(scenario, session, outcomes, report_json):
    """Every way this op's output can be wrong, as messages."""
    errors = []
    failure = session.failure_dump.failure
    if failure.kind != scenario.expected_fault:
        errors.append("dump fault %s, expected %s"
                      % (failure.kind, scenario.expected_fault))
    func = session.bundle.compiled.func_of(failure.pc)
    if func != scenario.crash_func:
        errors.append("dump crash function %s, expected %s"
                      % (func, scenario.crash_func))
    for name, outcome in outcomes.items():
        if not outcome.reproduced:
            errors.append("%s did not reproduce" % name)
        elif outcome.failure.signature() != failure.signature():
            errors.append("%s reproduced another failure" % name)
    doc = json.loads(report_json)
    if doc.get("schema") != SCHEMA_VERSION:
        errors.append("report schema %r" % (doc.get("schema"),))
    if ReproductionReport.from_json(report_json).bug != scenario.name:
        errors.append("report names another bug")
    return errors


def record(scenario, session, outcomes, wall, errors):
    """The per-op figures the metrics are computed from."""
    plan = session.diff_and_prioritize()
    stats = session.exec_stats
    return {
        "bug": scenario.name,
        "wall": wall,
        "errors": errors,
        "stress_runs": session.stress.runs_tried,
        "index_len": session.analyze_dump().index_len,
        "dump_bytes": plan.fail_dump_bytes + plan.aligned_dump_bytes,
        "searches": {STRATEGY_SLUGS[name]: {
            "tries": o.tries, "total_steps": o.total_steps,
            "executed": o.executed_steps, "skipped": o.skipped_steps,
            "memo_hits": o.memo_hits} for name, o in outcomes.items()},
        "exec": {"retries": stats.retries,
                 "pool_rebuilds": stats.pool_rebuilds,
                 "degraded": stats.degraded},
    }


def run(workload, seed, seconds, tracer):
    """Run passes until the next one would overrun ``seconds``."""
    config = ReproductionConfig()
    scenarios = scenarios_for(workload)
    rng = random.Random("bench-e2e/%s/%d" % (workload, seed))
    # lazy imports and first-call caches are set-up, not ops
    reproduce(get_scenario("fig1"), config, NullTracer(), "warmup")
    records = []
    check_wall = check_cpu = 0.0
    passes = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        order = list(scenarios)
        rng.shuffle(order)
        for scenario in order:
            op = "%s#%d" % (scenario.name, passes)
            t0 = time.perf_counter()
            session, outcomes, report_json = reproduce(scenario, config,
                                                       tracer, op)
            wall = time.perf_counter() - t0
            c0, w0 = time.process_time(), time.perf_counter()
            errors = check(scenario, session, outcomes, report_json)
            records.append(record(scenario, session, outcomes, wall, errors))
            check_cpu += time.process_time() - c0
            check_wall += time.perf_counter() - w0
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds \
                and len(records) > TAIL_BEYOND:
            break
    return {"records": records,
            "wall": time.perf_counter() - start - check_wall,
            "cpu": time.process_time() - cpu0 - check_cpu,
            "rss": self_peak_rss_mb(), "passes": passes}
