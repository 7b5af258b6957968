"""Quickstart: reproduce the paper's running example, stage by stage.

The program is Fig. 1 of the paper: thread T1 guards a pointer
dereference with a flag; thread T2 races the flag.  A
:class:`~repro.pipeline.session.ReproSession` drives the paper's three
stages explicitly — each call memoizes its output, so nothing below
runs twice:

1. ``acquire_failure()`` — stress the program under random multicore
   interleavings until it crashes, collecting the failure core dump;
2. ``analyze_dump()`` — reverse engineer the failure's execution index
   from the dump alone (Algorithm 1), re-execute on one core, and find
   the aligned point;
3. ``diff_and_prioritize()`` + ``search(...)`` — diff the two dumps for
   critical shared variables and let the enhanced CHESS search produce
   a failure-inducing schedule.

``ReproSession(bundle).report()`` runs every stage at once and returns
the classic report.

Run:  python examples/quickstart.py
"""

from repro import ReproSession
from repro.bugs import get_scenario
from repro.pipeline import ProgramBundle


def main():
    scenario = get_scenario("fig1")
    bundle = ProgramBundle(scenario.build())
    print("program: %s — %s" % (scenario.name, scenario.description))
    session = ReproSession(bundle, expected_kind=scenario.expected_fault)

    print("\n[1] stress testing on the (simulated) multicore ...")
    session.acquire_failure()
    stress = session.stress
    print("    crash at seed %d after %d runs: %s"
          % (stress.seed, stress.runs_tried, stress.failure.describe()))

    print("\n[2] dump analysis: failure index + aligned point ...")
    analysis = session.analyze_dump()
    print("    failure index (len %d): %s"
          % (analysis.index_len, analysis.index.describe()))
    print("    alignment: %s" % analysis.alignment.describe())

    print("\n[3] dump diffing and CSV prioritization ...")
    plan = session.diff_and_prioritize()
    print("    dump diff: %d vars compared, %d differ; %d shared, %d CSVs"
          % (plan.vars_compared, plan.diff_count,
             plan.shared_compared, plan.csv_count))
    for path in plan.csv_paths:
        print("      CSV: %s" % path)

    print("\n    schedule search (preemption bound k=2):")
    # three independent strategies over the same memoized stages 1-2
    for name in ("chess", "chessX+dep", "chessX+temporal"):
        print("      %s" % session.search(name).describe())

    plan_steps = session.search("chessX+dep").plan
    print("\n    failure-inducing schedule:")
    for preemption in plan_steps:
        print("      preempt %s at %s(%s) #%d, then run %s"
              % (preemption.thread, preemption.kind, preemption.lock,
                 preemption.occurrence, preemption.switch_to))


if __name__ == "__main__":
    main()
