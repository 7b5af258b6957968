"""Batch reproduction driver: fan the bug suite out over processes.

``run_many`` is the unit of scaling for reproduction-as-a-service: give
it scenario names (or :class:`~repro.bugs.registry.BugScenario` objects
registered in the suite) and a worker count, and it runs one full
:class:`~repro.pipeline.session.ReproSession` per bug on a process
pool.  Everything in the pipeline is deterministic (seeded stress sweep,
deterministic re-execution, ordered search), so parallel results are
bit-identical to serial ones — workers only change the wall clock.

Reports cross the process boundary as their versioned JSON documents
(:meth:`~repro.pipeline.report.ReproductionReport.to_json`), which keeps
the worker protocol storable and language-agnostic; a failed scenario is
captured as a structured :class:`BatchError` — stage, exception type,
full worker traceback — instead of poisoning the batch.

Scenario dispatch is supervised (:mod:`repro.exec`): a scenario lost to
a dead, hung, or corrupt worker is retried with backoff, quarantined to
an in-process run after the retry budget, and at worst recorded as a
structured degradation on ``BatchResult.exec_stats``.

Scenario tasks run on the same shared process pool as plan-level
parallel search (:func:`repro.exec.pool.shared_pool`), so both layers
draw from one worker budget.  Inside a pool worker, a session
configured with ``search_workers > 1`` automatically degrades its search
to serial — nested pools never oversubscribe the machine.

    >>> from repro.pipeline import run_many
    >>> batch = run_many(["fig1", "apache-1", "mysql-1"], workers=4)
    >>> batch.reports["fig1"].searches["chessX+dep"].reproduced
    True
"""

import dataclasses
import json
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

from ..exec.faults import corrupt_or, maybe_inject
from ..exec.pool import in_worker
from ..exec.supervisor import (
    ExecStats,
    Supervisor,
    policy_from_config,
    record_degradation,
)
from ..kb import scenario_fingerprint
from .config import ReproductionConfig
from .report import ReproductionReport


@dataclass
class BatchError:
    """One scenario's failure, with enough context to debug it.

    ``stage`` names the pipeline phase that raised (``resolve``,
    ``stress``, ``analyze``, ``diff``, ``report``, ``kb`` — or ``exec``
    for supervision-level failures that never reached the session).
    """

    name: str
    stage: str
    exc_type: str
    message: str
    traceback: str = ""

    def __str__(self):
        return "%s [stage=%s]: %s" % (self.exc_type, self.stage,
                                      self.message)


@dataclass
class BatchResult:
    """Per-scenario reports (and failures) of one ``run_many`` call."""

    #: scenario name -> ReproductionReport, insertion-ordered as requested
    reports: dict[str, ReproductionReport] = field(default_factory=dict)
    #: scenario name -> :class:`BatchError` for scenarios that raised
    errors: dict[str, BatchError] = field(default_factory=dict)
    #: duplicate submission -> canonical scenario it was deduped to
    #: (identical program fingerprint: the duplicate's report is the
    #: canonical one re-labelled, not a second full session)
    deduped: dict[str, str] = field(default_factory=dict)
    workers: int = 1
    wall_seconds: float = 0.0
    #: supervised-execution counters of the batch *driver* itself
    #: (per-session counters live in each report's ``timings``)
    exec_stats: ExecStats = field(default_factory=ExecStats)

    def __iter__(self):
        return iter(self.reports.items())

    def table3_rows(self):
        return [report.table3_row() for report in self.reports.values()]

    def table4_rows(self):
        return [report.table4_row() for report in self.reports.values()]

    def raise_errors(self):
        """Raise if any scenario failed; returns self otherwise.

        The message carries each failure's stage and exception type, and
        appends every captured worker traceback in full.
        """
        if self.errors:
            items = sorted(self.errors.items(), key=lambda kv: kv[0])
            details = "; ".join("%s: %s" % (name, error)
                                for name, error in items)
            tracebacks = "\n".join(
                "--- %s ---\n%s" % (name, error.traceback)
                for name, error in items
                if getattr(error, "traceback", ""))
            message = ("run_many failed on %d scenario(s): %s"
                       % (len(self.errors), details))
            if tracebacks:
                message = "%s\n%s" % (message, tracebacks)
            raise RuntimeError(message)
        return self


def _scenario_name(scenario):
    return scenario if isinstance(scenario, str) else scenario.name


def _notify(progress, stage, session):
    """Report one completed stage to a progress sink, best effort.

    ``progress`` is any callable of ``(stage, wall_seconds)`` — the
    service front-end passes a picklable spool writer so the driver
    process can stream per-stage wall clocks while the job is still
    running.  A broken sink never fails the session.
    """
    if progress is None:
        return
    try:
        progress(stage, session.stage_wall_s.get(stage, 0.0))
    except Exception:  # noqa: BLE001 — progress is observability only
        pass


def _run_one(name, config, stress_seed_stop, progress=None, fault=None):
    """Worker body: full session for one registered scenario.

    Returns ``(name, report_json, error)``.  Module-level so it pickles
    for the process pool; the scenario is re-resolved from the registry
    inside the worker (scenario build callables need not pickle).
    The stages run explicitly (instead of letting :meth:`report` drive
    them) so a failure is attributed to the phase that raised it and so
    ``progress`` — when given — sees every stage transition.
    ``fault`` is a supervisor-injected instruction, honored only inside
    pool workers.
    """
    from .session import ReproSession

    maybe_inject(fault)
    stage = "resolve"
    try:
        seeds = None if stress_seed_stop is None else range(stress_seed_stop)
        session = ReproSession.from_scenario(name, config=config,
                                             stress_seeds=seeds)
        stage = "stress"
        session.acquire_failure()
        _notify(progress, stage, session)
        stage = "analyze"
        session.analyze_dump()
        _notify(progress, stage, session)
        stage = "diff"
        session.diff_and_prioritize()
        _notify(progress, stage, session)
        stage = "search"
        session.search_all()
        _notify(progress, stage, session)
        stage = "report"
        report_json = session.report().to_json()
        stage = "kb"
        # every completed report feeds the knowledge base (no-op unless
        # the config names an index); workers append through the store's
        # lock + atomic replace, so concurrent sessions never clobber
        session.record_to_kb()
        _notify(progress, stage, session)
        return corrupt_or(fault, (name, report_json, None))
    except Exception as exc:  # noqa: BLE001 — batch isolates per-bug failures
        return name, None, BatchError(
            name=name, stage=stage, exc_type=type(exc).__name__,
            message=str(exc), traceback=traceback.format_exc())


def valid_row(name, row):
    """Whether a worker's ``_run_one`` result is structurally sound."""
    return isinstance(row, tuple) and len(row) == 3 and row[0] == name


def submission_identity(scenario, config, stress_seed_stop):
    """``(fingerprint, config key)``: when two submissions are one run.

    The exact-dedup identity shared by ``run_many`` (which aliases
    duplicate entries of one batch) and the service (which dedups repeat
    job submissions): the scenario's program fingerprint
    (:func:`repro.kb.scenario_fingerprint`) plus the canonical JSON of
    every knob that can change the report.  Raises whatever resolving or
    building the scenario raises (``KeyError`` for an unknown name).
    """
    doc = dataclasses.asdict(config)
    doc["stress_seed_stop"] = stress_seed_stop
    return (scenario_fingerprint(scenario),
            json.dumps(doc, sort_keys=True, separators=(",", ":")))


def select_scenarios(tags=(), exclude_tags=()):
    """Registry scenarios selected by tags (see ``scenarios_by_tag``)."""
    from ..bugs import scenarios_by_tag

    return scenarios_by_tag(*tuple(tags), exclude=tuple(exclude_tags))


def run_many(scenarios=None, config=None, workers=None, stress_seed_stop=8000,
             tags=None, exclude_tags=()):
    """Reproduce every scenario, optionally on a process pool.

    Parameters
    ----------
    scenarios:
        Iterable of registered scenario names or ``BugScenario`` objects.
        ``None`` selects from the registry by tags instead.
    config:
        Shared :class:`ReproductionConfig` (defaults mirror the paper).
    workers:
        Process count.  ``None`` or ``<= 1`` runs serially in-process;
        results are identical either way.
    stress_seed_stop:
        Upper bound of the stress-test seed sweep per bug (``None`` for
        the stress default).
    tags / exclude_tags:
        Tag filters used when ``scenarios`` is None: every registered
        scenario carrying all of ``tags`` and none of ``exclude_tags``
        (e.g. ``tags=("synth", "atom")`` for one generated family, or
        ``exclude_tags=("synth",)`` for the hand-written suite).
    """
    if scenarios is None:
        scenarios = select_scenarios(tags or (), exclude_tags)
    elif tags is not None or exclude_tags:
        raise ValueError(
            "pass either explicit scenarios or tag filters, not both")
    config = (config or ReproductionConfig()).validate()
    # results are keyed by name, so duplicates would run twice only to
    # overwrite each other; keep the first occurrence of each
    names = list(dict.fromkeys(_scenario_name(s) for s in scenarios))
    start = time.perf_counter()
    result = BatchResult(workers=max(1, workers or 1))

    # identical submissions under different names reproduce identically;
    # run the first, alias the rest
    canonical = {}
    for name in names:
        try:
            identity = submission_identity(name, config, stress_seed_stop)
        except Exception:  # noqa: BLE001 — _run_one isolates build errors
            continue
        if identity in canonical:
            result.deduped[name] = canonical[identity]
        else:
            canonical[identity] = name
    run_names = [name for name in names if name not in result.deduped]

    if result.workers == 1 or len(run_names) <= 1 or in_worker():
        rows = [_run_one(name, config, stress_seed_stop)
                for name in run_names]
    else:
        # the shared pool may be larger than this batch's worker budget
        # (another caller grew it); the supervisor keeps at most
        # ``workers`` scenarios in flight so the requested concurrency
        # is actually honored, and a scenario lost to a dead, hung, or
        # corrupt worker is retried and finally re-run in-process —
        # never silently dropped
        policy = policy_from_config(config, stats=result.exec_stats)
        supervisor = Supervisor(result.workers, policy, stage="batch")
        queue = iter(run_names)
        name_of = {}
        by_name = {}

        def submit_next():
            name = next(queue, None)
            if name is not None:
                task = supervisor.submit(
                    _run_one, name, config, stress_seed_stop,
                    key=name,
                    deadline_s=policy.deadline_for(1),
                    validate=partial(valid_row, name))
                name_of[task] = name

        for _ in range(result.workers):
            submit_next()
        while True:
            finished = supervisor.wait_any()
            if not finished:
                break
            for task in finished:
                name = name_of[task]
                if task.failed:
                    # even the in-process quarantine re-run failed:
                    # degrade this one scenario to a structured error
                    # instead of sinking the batch
                    record_degradation(result.exec_stats, "batch",
                                       "task-failed",
                                       "%s: %s" % (name, task.error))
                    by_name[name] = (name, None, BatchError(
                        name=name, stage="exec",
                        exc_type=type(task.error).__name__,
                        message=str(task.error)))
                else:
                    by_name[name] = tuple(task.result)
                submit_next()
        rows = [by_name[name] for name in run_names]

    by_name = {row[0]: row for row in rows}
    for name in names:
        _orig, report_json, error = by_name[result.deduped.get(name, name)]
        if error is not None:
            result.errors[name] = error
        else:
            report = ReproductionReport.from_json(report_json)
            if name != report.bug:
                report = dataclasses.replace(report, bug=name)
            result.reports[name] = report
    result.wall_seconds = time.perf_counter() - start
    return result
