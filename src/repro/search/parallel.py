"""Sharded parallel schedule search: the search client of ``first_match``.

Each testrun of one search is a deterministic function of its preemption
plan, so :func:`run_search` hands the strategy's own lazy, budgeted
``plans()`` worklist to :func:`repro.exec.first_match`, with the
session's cross-strategy :class:`~repro.search.base.TestrunMemo` as the
driver-side lookup.  The lowest reproducing index wins, and ``tries`` /
``total_steps`` / ``tries_by_size`` are rebuilt from the serial prefix
``[0, winner]`` — which is also all that is folded back into the memo —
so the :class:`~repro.search.base.SearchOutcome` is provably identical
to serial search.
"""

import time
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Optional

from ..coredump.compare import matches_failure_signature
from ..exec.fanout import first_match
from .base import MemoEntry, SearchOutcome, plan_fingerprint, run_plan
from .replay import ReplayEngine

#: Upper bound on plans per shard; beyond this, dispatch overhead is
#: already well amortized and smaller shards keep cancellation granular.
MAX_SHARD_SIZE = 32

_DRY = object()


@dataclass(frozen=True)
class WorkerSessionSpec:
    """Everything a pool worker needs to rebuild a testrun context.

    Ships the *source* program (plain AST dataclasses — cheap to pickle)
    rather than the compiled bundle; workers lower and analyze once and
    keep the context across shards, checkpoints included.  Contexts are
    cached by the pickled spec, and ``token`` is unique per session, so
    two sessions with identical specs never share a warm replay engine.
    """

    token: str
    program: object
    input_overrides: Optional[dict]
    max_steps: int
    replay: bool
    replay_max_checkpoints: int
    replay_max_bytes: int
    #: ((thread, kind, lock, occurrence), step) pairs — the restore
    #: points of the worker's replay engine
    step_map: tuple
    #: the driver's compiled :class:`~repro.lang.blocks.BlockTable`
    #: (plain lists, cheap to pickle) so workers skip re-partitioning,
    #: or None: worker testruns then run at instruction granularity,
    #: like the driver's
    block_table: object


@dataclass
class ShardRun:
    """One testrun's result crossing back from a worker."""

    steps: int           # schedule length (the paper's cost metric)
    failure: object      # Failure when the run FAILED or hung, else None
    executed: int        # physically interpreted steps (incl. recording)
    skipped: int         # steps restored from a checkpoint


class _WorkerContext:
    """A worker's interpreter + replay engine, built from the spec."""

    def __init__(self, spec):
        # imported here: pipeline imports the search package, so a
        # module-level import would be circular
        from ..pipeline.bundle import ProgramBundle
        bundle = ProgramBundle(spec.program, block_table=spec.block_table)
        use_blocks = spec.block_table is not None

        def factory(scheduler):
            return bundle.execution(scheduler,
                                    input_overrides=spec.input_overrides,
                                    max_steps=spec.max_steps,
                                    use_blocks=use_blocks)

        self.factory = factory
        self.engine = None
        if spec.replay:
            self.engine = ReplayEngine.from_step_map(
                factory, dict(spec.step_map),
                max_checkpoints=spec.replay_max_checkpoints,
                max_bytes=spec.replay_max_bytes)


def _testrun(ctx, plan):
    """One worker-side testrun.

    The same :func:`~repro.search.base.run_plan` as
    :meth:`ScheduleSearchBase.testrun`, minus the search bookkeeping,
    which the driver reconstructs.  Hung runs (deadlock / budget hang)
    carry a structured failure too, so the hit test matches deadlock
    cycles exactly like crash PCs.
    """
    result, skipped, executed = run_plan(plan, ctx.factory, ctx.engine)
    return ShardRun(steps=result.steps, failure=result.failure,
                    executed=executed, skipped=skipped)


def _reproduces(target, run):
    return matches_failure_signature(run.failure, target)


def run_search(search, workers=1, spec=None, supervision=None,
               deadline_hint=None):
    """Run ``search`` with serial-identical outcomes, possibly sharded.

    ``workers <= 1``, a missing or unpicklable ``spec``, or being inside
    a pool worker already is *exactly* the serial path.  ``supervision``
    is the :class:`~repro.exec.supervisor.SupervisionPolicy`;
    ``deadline_hint`` is the recorded step count of one testrun, from
    which shard deadlines are derived.  A scan that degrades (every
    recovery rung exhausted) falls back to the serial search, whose
    outcome the sharded one is byte-identical to anyway.
    """
    start = time.perf_counter()
    memo = search.memo

    def memo_lookup(plan):
        entry = memo.peek(plan_fingerprint(plan))
        if entry is not None:
            return ShardRun(steps=entry.steps, failure=entry.failure,
                            executed=0, skipped=entry.steps)
        return None

    plans = search.plans()
    prefix = None if spec is None else first_match(
        islice(plans, search.max_tries), _testrun, _WorkerContext, spec,
        is_hit=partial(_reproduces, search.target_signature),
        workers=workers, policy=supervision, stage="search",
        lookup=memo_lookup if memo is not None else None,
        max_chunk=MAX_SHARD_SIZE, deadline_hint=deadline_hint,
        max_seconds=search.max_seconds)
    if prefix is None:
        return search.search()

    runs = prefix.results
    winner = prefix.winner
    tries_by_size = {}
    for plan in prefix.items:
        tries_by_size[len(plan)] = tries_by_size.get(len(plan), 0) + 1
    # the serial loop flags a cutoff when a (max_tries+1)-th plan exists
    cutoff = prefix.cutoff or (winner is None
                               and next(plans, _DRY) is not _DRY)

    # fold what serial search *would have run* back into the memo — and
    # nothing more: storing speculative results past the winner would let
    # a later strategy memo-hit a plan serial search never executed
    if memo is not None:
        memo.hits += len(prefix.served)
        for i, (plan, run) in enumerate(zip(prefix.items, runs)):
            if i not in prefix.served:
                memo.put(plan_fingerprint(plan),
                         MemoEntry(steps=run.steps, failure=run.failure))

    # expose the reconstructed counters on the search object too, so
    # callers peeking at it post-run see serial-equivalent state
    search.tries = len(runs)
    search.total_steps = sum(run.steps for run in runs)
    search.executed_steps = sum(run.executed for run in runs)
    search.skipped_steps = sum(run.skipped for run in runs)
    search.memo_hits = len(prefix.served)
    search.tries_by_size = dict(tries_by_size)

    return SearchOutcome(
        algorithm=search.algorithm,
        reproduced=winner is not None,
        tries=search.tries,
        total_steps=search.total_steps,
        wall_seconds=time.perf_counter() - start,
        plan=prefix.items[winner] if winner is not None else None,
        cutoff=cutoff,
        failure=runs[winner].failure if winner is not None else None,
        tries_by_size=tries_by_size,
        executed_steps=search.executed_steps,
        skipped_steps=search.skipped_steps,
        memo_hits=search.memo_hits,
    )
