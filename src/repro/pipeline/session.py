"""The staged reproduction session (the public pipeline API).

The paper's technique is three explicit stages, and :class:`ReproSession`
exposes them as three individually-invokable, memoized calls:

1. :meth:`ReproSession.analyze_dump` — reverse engineer the failure
   index (Algorithm 1), re-execute deterministically, and locate the
   aligned point (rules 5-7), producing an :class:`AnalysisResult`;
2. :meth:`ReproSession.diff_and_prioritize` — diff the failure dump
   against the aligned dump for CSVs and rank the accesses with the
   configured heuristics, producing a :class:`CsvPlan`;
3. :meth:`ReproSession.search` — run one registered search strategy
   (``chess``, ``chessX+dep``, ...), producing a
   :class:`~repro.search.base.SearchOutcome`.

Each stage caches its output on the session, so partial reruns are free:
``session.search(strategy="chessX+temporal")`` after a ``chessX+dep``
search reuses the dump analysis and diff; only the new search executes.
:meth:`ReproSession.report` assembles the classic
:class:`~repro.pipeline.report.ReproductionReport` from whatever the
stages produced (running any stage not yet run).

    >>> session = ReproSession(bundle, config)
    >>> analysis = session.analyze_dump()
    >>> plan = session.diff_and_prioritize()
    >>> outcome = session.search(strategy="chessX+dep")

When no failure dump is supplied, :meth:`ReproSession.acquire_failure`
first produces one by stress testing (not part of the technique, just
how a dump is acquired — paper Sec. 6).
"""

import time
from dataclasses import dataclass, field
from typing import Optional
from uuid import uuid4

from ..coredump.compare import compare_dumps
from ..coredump.dump import take_core_dump
from ..coredump.serialize import dump_from_json, dump_to_json
from ..exec.supervisor import ExecStats, policy_from_config
from ..indexing.index import Index
from ..indexing.align import AlignmentResult
from ..indexing.reverse import reverse_engineer_index
from ..kb import (
    KBCase,
    KnowledgeBase,
    extract_signature,
    program_fingerprint,
    splice_warm_prefix,
    warm_worklist,
)
from ..lang.errors import SearchError
from ..registry import ALIGNERS, HEURISTICS
from ..runtime.scheduler import DeterministicScheduler
from ..search.base import TestrunMemo
from ..search.parallel import WorkerSessionSpec, run_search
from ..search.preemption import (
    enumerate_candidates,
    map_candidates_to_block_heads,
)
from ..search.replay import ReplayEngine
from ..search.strategies import SearchContext, resolve_strategy
from ..slicing.distance import HeuristicContext, extract_csv_accesses
from ..slicing.trace import TraceCollector
from .config import ReproductionConfig
from .report import PhaseTimings, ReproductionReport
from .stress import stress_test


@dataclass
class AnalysisResult:
    """Stage 1 output: failure index, aligned point, aligned dump, trace."""

    index: Optional[Index]           # None for aligners that skip Algorithm 1
    alignment: AlignmentResult
    aligned_dump: object             # CoreDump taken at the aligned point
    events: list                     # full passing-run trace
    aligned_instr_count: int
    reverse_index_s: float = 0.0
    align_run_s: float = 0.0

    @property
    def index_len(self):
        return 0 if self.index is None else len(self.index)


@dataclass
class CsvPlan:
    """Stage 2 output: dump diff stats and prioritized CSV accesses."""

    fail_dump_bytes: int
    aligned_dump_bytes: int
    vars_compared: int
    diff_count: int
    shared_compared: int
    csv_count: int
    csv_paths: list[str]
    csv_locations: frozenset
    #: CSV accesses at or before the aligned point (the paper's
    #: prioritization scope)
    accesses: list
    #: CSV accesses over the whole trace (feeds thread-selection sets)
    all_accesses: list
    #: heuristic name -> prioritized accesses; extended lazily when a
    #: search needs a heuristic outside the configured set
    ranked: dict[str, list] = field(default_factory=dict)
    dump_parse_s: float = 0.0
    dump_diff_s: float = 0.0


def run_passing_with_alignment(bundle, failure_dump, config,
                               input_overrides=None, index=None):
    """The instrumented deterministic re-execution of stage 1.

    The aligned core dump is taken *at* the aligned point (via the
    aligner's callback); the run then continues to completion so the
    trace also covers accesses after the aligned point, which the
    thread-selection annotations of Algorithm 2 need.

    Returns ``(alignment_result, aligned_dump, trace_events,
    align_wall_seconds, aligned_execution)``.
    """
    trace = TraceCollector(window=config.trace_window)
    captured = {}

    def on_aligned(execution, result):
        captured["dump"] = take_core_dump(execution, "aligned",
                                          failing_thread=result.thread)

    build_aligner = ALIGNERS.get(config.aligner)
    aligner = build_aligner(failure_dump, index, bundle.analysis, on_aligned)
    execution = bundle.execution(DeterministicScheduler(),
                                 input_overrides=input_overrides,
                                 hooks=[trace, aligner])
    start = time.perf_counter()
    execution.run()
    align_wall = time.perf_counter() - start
    alignment = aligner.result
    if alignment is None or "dump" not in captured:
        raise SearchError(
            "passing run of %s ended without an aligned point"
            % (bundle.name,))
    return alignment, captured["dump"], trace.events(), align_wall, execution


class ReproSession:
    """One bug's reproduction, driven stage by stage.

    Parameters
    ----------
    bundle:
        The compiled :class:`~repro.pipeline.bundle.ProgramBundle`.
    config:
        A :class:`~repro.pipeline.config.ReproductionConfig`; defaults
        mirror the paper.
    failure_dump:
        The production failure's core dump.  When omitted, the first
        stage access stress-tests the bundle to produce one.
    input_overrides / stress_seeds / expected_kind:
        Forwarded to the executions and the stress run.
    """

    def __init__(self, bundle, config=None, failure_dump=None,
                 input_overrides=None, stress_seeds=None, expected_kind=None):
        self.bundle = bundle
        self.config = (config or ReproductionConfig()).validate()
        self.input_overrides = input_overrides
        self.stress_seeds = stress_seeds
        self.expected_kind = expected_kind
        #: StressResult when this session produced its own failure dump
        self.stress = None
        self._failure_dump = failure_dump
        self._analysis: Optional[AnalysisResult] = None
        self._plan: Optional[CsvPlan] = None
        self._heuristic_ctx: Optional[HeuristicContext] = None
        self._searches: dict = {}
        self._candidate_counts: dict = {}
        self._replay_engine: Optional[ReplayEngine] = None
        #: cross-strategy testrun memo (None when disabled by config)
        self.memo: Optional[TestrunMemo] = \
            TestrunMemo() if self.config.testrun_memo else None
        self._worker_spec = None
        self._fingerprint = None
        self._kb: Optional[KnowledgeBase] = None
        self._kb_built = False
        #: strategy name -> plans spliced ahead of its ranking (0 when
        #: the KB is disabled, empty, or missed) — observability for
        #: tests and the CLI
        self.kb_warm_counts: dict = {}
        #: strategy name -> retrieval layer ("exact"/"near"/"miss")
        self.kb_retrieval_layers: dict = {}
        #: stage name -> number of times the stage actually executed
        #: (memoized hits do not count); lets callers verify reuse
        self.stage_runs = {"stress": 0, "analyze": 0, "diff": 0, "search": 0}
        #: stage name -> cumulative wall seconds actually spent in it
        self.stage_wall_s = {"stress": 0.0, "analyze": 0.0, "diff": 0.0,
                             "search": 0.0}
        #: supervised-execution counters (retries, quarantines, pool
        #: rebuilds, degradations) accumulated across this session's
        #: parallel stages; surfaced through :meth:`timings`
        self.exec_stats = ExecStats()
        self._supervision = None

    @classmethod
    def from_scenario(cls, scenario, config=None, failure_dump=None,
                      stress_seeds=None):
        """A session for a registered scenario (or a name to look up).

        Builds the scenario's program into a fresh
        :class:`~repro.pipeline.bundle.ProgramBundle` and wires the
        scenario's declared input overrides and expected fault kind into
        the session — the one-liner the batch driver, the property
        harness, and the benchmarks all share.
        """
        from ..bugs import get_scenario
        from .bundle import ProgramBundle

        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        return cls(ProgramBundle(scenario.build()), config=config,
                   failure_dump=failure_dump,
                   input_overrides=scenario.input_overrides,
                   stress_seeds=stress_seeds
                   if stress_seeds is not None else scenario.stress_seeds,
                   expected_kind=scenario.expected_fault)

    # -- stage 0: the failure dump ------------------------------------------------

    @property
    def failure_dump(self):
        """The failure dump, or None until one is given or acquired.

        A passive peek — use :meth:`acquire_failure` to stress-test for
        a dump when none was supplied.
        """
        return self._failure_dump

    def supervision(self):
        """The session's pool-supervision policy (config-derived).

        One policy — and one :class:`ExecStats` — spans every parallel
        stage of the session, so retry/degradation counters in the
        report aggregate stress sweeps and all searches.
        """
        if self._supervision is None:
            self._supervision = policy_from_config(self.config,
                                                   stats=self.exec_stats)
        return self._supervision

    def acquire_failure(self):
        """The failure core dump, stress testing once if none was given."""
        if self._failure_dump is None:
            self.stage_runs["stress"] += 1
            self.stress = stress_test(self.bundle,
                                      input_overrides=self.input_overrides,
                                      seeds=self.stress_seeds,
                                      expected_kind=self.expected_kind,
                                      workers=self.config.stress_workers,
                                      use_blocks=self.config.block_exec,
                                      supervision=self.supervision())
            self.stage_wall_s["stress"] += self.stress.wall_seconds
            self._failure_dump = self.stress.dump
        return self._failure_dump

    # -- stage 1: dump analysis ----------------------------------------------------

    def analyze_dump(self):
        """Algorithm 1 + aligned re-execution; memoized."""
        if self._analysis is None:
            self.stage_runs["analyze"] += 1
            failure_dump = self.acquire_failure()
            stage_start = time.perf_counter()
            config = self.config
            index = None
            reverse_index_s = 0.0
            if getattr(ALIGNERS.get(config.aligner), "needs_index", False):
                start = time.perf_counter()
                index = reverse_engineer_index(failure_dump,
                                               self.bundle.analysis)
                reverse_index_s = time.perf_counter() - start
            alignment, aligned_dump, events, align_wall, _execution = \
                run_passing_with_alignment(
                    self.bundle, failure_dump, config,
                    input_overrides=self.input_overrides, index=index)
            instr_count = \
                aligned_dump.thread_dump(alignment.thread).instr_count
            self._analysis = AnalysisResult(
                index=index,
                alignment=alignment,
                aligned_dump=aligned_dump,
                events=events,
                aligned_instr_count=instr_count,
                reverse_index_s=reverse_index_s,
                align_run_s=align_wall,
            )
            self.stage_wall_s["analyze"] += time.perf_counter() - stage_start
        return self._analysis

    # -- stage 2: dump diff + CSV prioritization -----------------------------------

    def diff_and_prioritize(self):
        """Dump comparison and heuristic ranking; memoized."""
        if self._plan is None:
            self.stage_runs["diff"] += 1
            analysis = self.analyze_dump()
            failure_dump = self.acquire_failure()
            stage_start = time.perf_counter()

            fail_json = dump_to_json(failure_dump)
            aligned_json = dump_to_json(analysis.aligned_dump)
            start = time.perf_counter()
            parsed_fail = dump_from_json(fail_json)
            parsed_aligned = dump_from_json(aligned_json)
            dump_parse_s = time.perf_counter() - start

            start = time.perf_counter()
            comparison = compare_dumps(parsed_fail, parsed_aligned)
            dump_diff_s = time.perf_counter() - start

            csv_locs = comparison.csv_locations
            alignment = analysis.alignment
            # Priorities only consider accesses at or before the aligned
            # point (paper Sec. 4); the full-trace accesses feed the
            # CSV-set annotations used for thread selection.
            all_accesses = extract_csv_accesses(analysis.events, csv_locs)
            accesses = extract_csv_accesses(
                analysis.events, csv_locs,
                upto_step=alignment.criterion_step)
            self._heuristic_ctx = HeuristicContext(
                events=analysis.events,
                criterion_locs=alignment.criterion_locs,
                criterion_step=alignment.criterion_step)
            self._plan = CsvPlan(
                fail_dump_bytes=len(fail_json.encode("utf-8")),
                aligned_dump_bytes=len(aligned_json.encode("utf-8")),
                vars_compared=comparison.vars_compared,
                diff_count=len(comparison.differences),
                shared_compared=comparison.shared_compared,
                csv_count=len(comparison.csvs),
                csv_paths=comparison.csv_paths(),
                csv_locations=csv_locs,
                accesses=accesses,
                all_accesses=all_accesses,
                dump_parse_s=dump_parse_s,
                dump_diff_s=dump_diff_s,
            )
            for heuristic in self.config.heuristics:
                self._ranked_for(heuristic)
            self.stage_wall_s["diff"] += time.perf_counter() - stage_start
        return self._plan

    def _ranked_for(self, heuristic):
        """Prioritized accesses for ``heuristic``, computed on demand."""
        plan = self.diff_and_prioritize()
        if heuristic not in plan.ranked:
            rank = HEURISTICS.get(heuristic)
            plan.ranked[heuristic] = rank(plan.accesses, self._heuristic_ctx)
        return plan.ranked[heuristic]

    # -- stage 3: schedule search ----------------------------------------------------

    def replay_engine(self):
        """The session's shared prefix-replay engine (None when disabled).

        Built once from the passing run's preemption-candidate keys —
        which are identical for every strategy and heuristic — so
        prefix checkpoints recorded during one search are reused by
        every later search of this session.
        """
        if not self.config.replay:
            return None
        if self._replay_engine is None:
            analysis = self.analyze_dump()
            candidates = enumerate_candidates(analysis.events, frozenset(), [])
            if self.config.block_exec:
                # partition/search contract: every restore point must be
                # a superblock head, so block-granular testruns fire
                # preemptions exactly where instruction mode would
                map_candidates_to_block_heads(candidates,
                                              self.bundle.block_table)
            self._replay_engine = ReplayEngine(
                self._execution_factory, candidates,
                max_checkpoints=self.config.replay_max_checkpoints,
                max_bytes=self.config.replay_max_bytes)
        return self._replay_engine

    def search(self, strategy=None):
        """Run one search strategy; memoized per canonical strategy name.

        ``strategy`` defaults to the best configured guided search
        (``chessX+<first heuristic>``), falling back to ``chess``.
        Results are cached by canonical name, so re-searching with a
        different strategy never repeats stages 1-2 — and repeating a
        strategy never repeats the search.
        """
        if strategy is None:
            strategy = "chessX" if self.config.heuristics else "chess"
        name, factory, heuristic = resolve_strategy(strategy, self.config)
        if name not in self._searches:
            self.stage_runs["search"] += 1
            plan = self.diff_and_prioritize()
            if heuristic is not None:
                self._ranked_for(heuristic)
            stage_start = time.perf_counter()
            ctx = SearchContext(
                execution_factory=self._execution_factory,
                target_signature=self.acquire_failure().failure.signature(),
                thread_names=self.bundle.thread_names(),
                config=self.config,
                events=self.analyze_dump().events,
                csv_locs=plan.csv_locations,
                all_accesses=plan.all_accesses,
                ranked=plan.ranked,
                rank_missing=self._ranked_for,
                replay_engine=self.replay_engine(),
                memo=self.memo,
            )
            search = factory(ctx)
            self._candidate_counts[name] = ctx.last_candidate_count
            self._warm_start(name, search)
            workers = self.config.search_workers
            # the recorded passing run bounds one testrun's schedule
            # length; the supervisor derives per-shard deadlines from it
            self._searches[name] = run_search(
                search, workers=workers,
                spec=self.worker_spec() if workers > 1 else None,
                supervision=self.supervision(),
                deadline_hint=len(self.analyze_dump().events))
            self.stage_wall_s["search"] += time.perf_counter() - stage_start
        return self._searches[name]

    # -- the crash knowledge base ---------------------------------------------

    def fingerprint(self):
        """The program's canonical fingerprint (KB exact-dedup key)."""
        if self._fingerprint is None:
            self._fingerprint = program_fingerprint(
                self.bundle.program, compiled=self.bundle.compiled,
                input_overrides=self.input_overrides)
        return self._fingerprint

    def crash_signature(self):
        """This failure's canonical :class:`~repro.kb.CrashSignature`.

        Needs the failure dump and the dump diff (stage 2), so the
        stages run if they have not yet.
        """
        dump = self.acquire_failure()
        plan = self.diff_and_prioritize()
        return extract_signature(dump.failure, dump, plan.csv_paths,
                                 len(self.bundle.program.threads))

    def knowledge_base(self):
        """The configured :class:`~repro.kb.KnowledgeBase`, or None."""
        if not self._kb_built:
            self._kb_built = True
            if self.config.kb_path is not None:
                self._kb = KnowledgeBase(self.config.kb_path)
        return self._kb

    def _warm_start(self, name, search):
        """Splice KB-retrieved plans ahead of ``search``'s own ranking.

        With the KB disabled, empty, or missing on this crash the splice
        is empty and the search object is left untouched — outcomes stay
        byte-identical to a cold search.
        """
        self.kb_warm_counts[name] = 0
        kb = self.knowledge_base()
        if kb is None or not self.config.kb_warmstart:
            return
        retrieval = kb.retrieve(self.fingerprint(), self.crash_signature(),
                                strategy=name)
        self.kb_retrieval_layers[name] = retrieval.layer
        warm = warm_worklist(retrieval, search.candidates,
                             self.bundle.thread_names(),
                             max_plans=self.config.kb_max_warm_plans)
        self.kb_warm_counts[name] = splice_warm_prefix(search, warm)

    def record_to_kb(self, kb=None):
        """Record this session's reproducing searches; returns cases added.

        Every completed search that reproduced contributes one
        :class:`~repro.kb.KBCase` (its winning plan under its strategy).
        ``kb`` overrides the config-derived knowledge base — so a cold
        session (``kb_path=None``) can still populate an index, e.g. in
        benchmarks; without an override, ``kb_record=False`` or a
        disabled KB makes this a no-op.
        """
        if kb is None:
            if not self.config.kb_record:
                return 0
            kb = self.knowledge_base()
        if kb is None:
            return 0
        cases = [KBCase(fingerprint=self.fingerprint(),
                        signature=self.crash_signature(),
                        bug=self.bundle.name,
                        strategy=name,
                        tries=outcome.tries,
                        total_steps=outcome.total_steps,
                        plan=tuple(outcome.plan))
                 for name, outcome in self._searches.items()
                 if outcome.reproduced and outcome.plan]
        return kb.record(cases)

    def worker_spec(self):
        """The picklable spec parallel-search workers rebuild from.

        Built once per session (the candidate step map is
        strategy-independent).  A spec whose program cannot cross a
        process boundary keeps the search serial instead of failing.
        """
        if self._worker_spec is None:
            config = self.config
            # the session engine's restore points are the single source
            # of truth for the worker-side engines (replay off ships an
            # empty map — workers then run every testrun from scratch)
            engine = self.replay_engine()
            step_map = tuple(engine.step_map().items()) \
                if engine is not None else ()
            self._worker_spec = WorkerSessionSpec(
                token=uuid4().hex,
                program=self.bundle.program,
                input_overrides=self.input_overrides,
                max_steps=config.testrun_max_steps,
                replay=config.replay,
                replay_max_checkpoints=config.replay_max_checkpoints,
                replay_max_bytes=config.replay_max_bytes,
                step_map=step_map,
                block_table=(self.bundle.block_table
                             if config.block_exec else None),
            )
        return self._worker_spec

    def search_all(self):
        """Every strategy the config asks for, in reporting order."""
        return {name: self.search(name)
                for name in self.config.strategy_names()}

    def _execution_factory(self, scheduler):
        return self.bundle.execution(scheduler,
                                     input_overrides=self.input_overrides,
                                     max_steps=self.config.testrun_max_steps,
                                     use_blocks=self.config.block_exec)

    # -- assembly ---------------------------------------------------------------

    def timings(self):
        """Table 6 phase costs plus per-stage wall clocks so far."""
        timings = PhaseTimings()
        if self._analysis is not None:
            timings.reverse_index_s = self._analysis.reverse_index_s
            timings.align_run_s = self._analysis.align_run_s
        if self._plan is not None:
            timings.dump_parse_s = self._plan.dump_parse_s
            timings.dump_diff_s = self._plan.dump_diff_s
        if self._heuristic_ctx is not None:
            timings.slicing_s = self._heuristic_ctx.slicing_s
        timings.stress_s = self.stage_wall_s["stress"]
        timings.analyze_s = self.stage_wall_s["analyze"]
        timings.diff_s = self.stage_wall_s["diff"]
        timings.search_s = self.stage_wall_s["search"]
        timings.search_by_strategy = {
            name: outcome.wall_seconds
            for name, outcome in self._searches.items()}
        stats = self.exec_stats
        timings.exec_retries = stats.retries
        timings.exec_quarantined = stats.quarantined
        timings.exec_pool_rebuilds = stats.pool_rebuilds
        timings.exec_deadline_expiries = stats.deadline_expiries
        timings.exec_faults_injected = stats.faults_injected
        timings.exec_degraded = stats.degraded
        timings.degraded_notes = list(stats.notes)
        return timings

    def report(self):
        """The full :class:`ReproductionReport` (runs any pending stage)."""
        failure_dump = self.acquire_failure()
        analysis = self.analyze_dump()
        plan = self.diff_and_prioritize()
        searches = self.search_all()
        candidate_counts = [self._candidate_counts[name]
                            for name in searches
                            if self._candidate_counts.get(name) is not None]
        report = ReproductionReport(
            bug=self.bundle.name,
            config=self.config,
            failing_seed=self.stress.seed if self.stress else None,
            failing_steps=self.stress.result.steps if self.stress else 0,
            failing_wall_s=self.stress.wall_seconds if self.stress else 0.0,
            thread_count=len(self.bundle.program.threads),
            failure=failure_dump.failure,
            fail_dump_bytes=plan.fail_dump_bytes,
            aligned_dump_bytes=plan.aligned_dump_bytes,
            index=analysis.index,
            index_len=analysis.index_len,
            vars_compared=plan.vars_compared,
            diff_count=plan.diff_count,
            shared_compared=plan.shared_compared,
            csv_count=plan.csv_count,
            csv_paths=list(plan.csv_paths),
            alignment=analysis.alignment,
            aligned_instr_count=analysis.aligned_instr_count,
            candidate_count=candidate_counts[-1] if candidate_counts else 0,
            searches=searches,
            timings=self.timings(),
        )
        return report
