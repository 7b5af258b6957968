"""Shared machinery for schedule search algorithms."""

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from ..coredump.compare import matches_failure_signature
from .preemption import PlannedPreemption, PreemptingScheduler


def plan_fingerprint(plan):
    """Canonical identity of a preemption plan across strategies.

    Two plans with the same fingerprint drive byte-identical testruns:
    the preempting scheduler matches planned points by ``(thread, kind,
    lock, occurrence)`` key — member order is irrelevant because keys
    within one plan are unique — and the only other degree of freedom is
    the switch target.  ``None`` values are normalized so the tuple
    sorts under mixed kinds.
    """
    return tuple(sorted(
        (p.thread, p.kind, p.lock or "", p.occurrence, p.switch_to or "")
        for p in plan))


@dataclass
class MemoEntry:
    """One memoized testrun: schedule length and terminal failure.

    ``failure`` is the run's :class:`~repro.runtime.events.Failure` when
    it ended in ``FAILED`` status, else None — reproduction is decided
    against the *caller's* target signature, so one entry serves every
    strategy (and any target) of the session.
    """

    steps: int
    failure: object


class TestrunMemo:
    """Cross-strategy testrun cache keyed by plan fingerprint.

    ``search_all()`` runs chess, chessX+dep, and chessX+temporal against
    one failure dump; the strategies enumerate overlapping (often
    byte-identical) plan sets in different orders.  Testruns are
    deterministic, so the first strategy to run a plan can serve every
    later duplicate.  A served run still counts into ``tries`` /
    ``total_steps`` exactly as if it had executed — outcomes are
    unchanged, only the physical work disappears (the served steps are
    accounted as ``skipped_steps`` and the hit tallied in the outcome's
    ``memo_hits``).
    """

    def __init__(self):
        self._entries = {}
        self.hits = 0
        self.stores = 0

    def __len__(self):
        return len(self._entries)

    def peek(self, key):
        """Lookup without touching the hit counter (parallel pre-pass)."""
        return self._entries.get(key)

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
        return entry

    def put(self, key, entry):
        if key not in self._entries:
            self._entries[key] = entry
            self.stores += 1

    def stats(self):
        return {"entries": len(self._entries), "hits": self.hits,
                "stores": self.stores}


@dataclass
class SearchOutcome:
    """Result of one schedule search (a Table 4 / Table 5 cell pair).

    Step accounting distinguishes *logical* from *physical* work:
    ``total_steps`` counts every step of every testrun's schedule (the
    paper's cost metric — identical whether or not prefix replay is on),
    while ``executed_steps`` counts steps the interpreter actually
    performed (divergent suffixes plus any prefix-recording runs) and
    ``skipped_steps`` counts steps served from checkpoints instead of
    re-execution.  Without a replay engine ``executed_steps ==
    total_steps`` and ``skipped_steps == 0``.
    """

    algorithm: str
    reproduced: bool
    tries: int
    total_steps: int
    wall_seconds: float
    plan: Optional[list] = None
    cutoff: bool = False
    failure: object = None
    #: tries broken down by preemption-combination size
    tries_by_size: dict = field(default_factory=dict)
    #: interpreter steps actually executed (suffixes + prefix recording)
    executed_steps: int = 0
    #: steps restored from checkpoints instead of re-executed
    skipped_steps: int = 0
    #: testruns served from the cross-strategy memo instead of executed
    memo_hits: int = 0

    def describe(self):
        state = "reproduced" if self.reproduced else (
            "CUTOFF" if self.cutoff else "exhausted")
        saved = ""
        if self.skipped_steps:
            saved = ", %d replay-skipped" % self.skipped_steps
        if self.memo_hits:
            saved += ", %d memo-served" % self.memo_hits
        return "%s: %s after %d tries (%d steps, %d executed%s, %.2fs)" % (
            self.algorithm, state, self.tries, self.total_steps,
            self.executed_steps, saved, self.wall_seconds)


def run_plan(plan, execution_factory, engine):
    """One testrun of ``plan``: ``(result, skipped, executed)``.

    With a replay ``engine`` the run resumes from the checkpoint at the
    plan's earliest preemption; ``skipped`` is that restored prefix and
    ``executed`` every step physically interpreted for the run, including
    the steps the engine spent recording prefixes since its last drain.
    """
    scheduler = PreemptingScheduler(plan)
    if engine is not None:
        execution, skipped = engine.resume(scheduler, plan)
    else:
        execution, skipped = execution_factory(scheduler), 0
    result = execution.run()
    executed = result.steps - skipped
    if engine is not None:
        executed += engine.drain_recording_steps()
    return result, skipped, executed


class ScheduleSearchBase:
    """Common testrun driver: executes planned-preemption schedules.

    Parameters
    ----------
    execution_factory:
        ``callable(scheduler) -> Execution`` building a fresh run of the
        subject program (same input as the failing run).
    candidates:
        Passing-run preemption candidates.
    target_signature:
        ``Failure.signature()`` of the failure being reproduced.
    thread_names:
        All program threads, canonical order.
    preemption_bound:
        The CHESS bound ``k`` (2 in the paper's experiments).
    max_tries / max_seconds:
        Search budget; exceeding either marks the outcome as cutoff (the
        paper cut plain CHESS off at 18 hours).
    replay_engine:
        Optional :class:`~repro.search.replay.ReplayEngine`.  When set,
        each testrun resumes from the checkpoint at its plan's earliest
        preemption instead of re-executing the deterministic prefix;
        outcomes are identical, only ``executed_steps`` shrinks.
    memo:
        Optional :class:`TestrunMemo` shared across the session's
        strategies.  A plan already run by an earlier strategy is served
        from the memo: identical accounting in ``tries``/``total_steps``
        (the served steps land in ``skipped_steps``), zero execution.
    """

    algorithm = "base"

    def __init__(self, execution_factory, candidates, target_signature,
                 thread_names, preemption_bound=2, max_tries=5000,
                 max_seconds=300.0, replay_engine=None, memo=None):
        self.execution_factory = execution_factory
        self.candidates = list(candidates)
        self.target_signature = target_signature
        self.thread_names = list(thread_names)
        self.preemption_bound = preemption_bound
        self.max_tries = max_tries
        self.max_seconds = max_seconds
        self.replay_engine = replay_engine
        self.memo = memo
        self.tries = 0
        self.total_steps = 0
        self.executed_steps = 0
        self.skipped_steps = 0
        self.memo_hits = 0
        self.tries_by_size = {}

    # -- single testrun ---------------------------------------------------------

    def testrun(self, plan):
        """Execute one schedule; returns (reproduced, RunResult).

        The run goes through :func:`run_plan`: a replayed prefix counts
        into ``skipped_steps`` and the engine's recording steps into
        ``executed_steps``, so the savings are reported honestly.

        With a memo, a plan an earlier strategy already ran is served
        from its cached result — same ``tries``/``total_steps``
        bookkeeping, the served schedule counted as skipped.
        """
        memo = self.memo
        if memo is not None:
            key = plan_fingerprint(plan)
            entry = memo.get(key)
            if entry is not None:
                self._account(plan, entry.steps, skipped=entry.steps)
                self.memo_hits += 1
                reproduced = matches_failure_signature(
                    entry.failure, self.target_signature)
                return reproduced, entry
        result, skipped, executed = run_plan(plan, self.execution_factory,
                                             self.replay_engine)
        self._account(plan, result.steps, skipped=skipped)
        self.executed_steps += executed
        # a run that ends DEADLOCK (or STOPPED with a hang classification)
        # carries a structured failure too — memoize and match it exactly
        # like a crash, so hung schedules count as reproductions
        if memo is not None:
            memo.put(key, MemoEntry(steps=result.steps,
                                    failure=result.failure))
        reproduced = matches_failure_signature(result.failure,
                                               self.target_signature)
        return reproduced, result

    def _account(self, plan, steps, skipped):
        self.tries += 1
        self.total_steps += steps
        self.skipped_steps += skipped
        size = len(plan)
        self.tries_by_size[size] = self.tries_by_size.get(size, 0) + 1

    # -- search loop -------------------------------------------------------------

    def plans(self):
        """Yield plans (lists of :class:`PlannedPreemption`) in search order."""
        raise NotImplementedError

    def search(self):
        start = time.perf_counter()
        outcome = None
        for plan in self.plans():
            if self.tries >= self.max_tries \
                    or time.perf_counter() - start > self.max_seconds:
                outcome = SearchOutcome(
                    algorithm=self.algorithm, reproduced=False,
                    tries=self.tries, total_steps=self.total_steps,
                    wall_seconds=time.perf_counter() - start, cutoff=True,
                    tries_by_size=dict(self.tries_by_size),
                    executed_steps=self.executed_steps,
                    skipped_steps=self.skipped_steps,
                    memo_hits=self.memo_hits)
                break
            reproduced, result = self.testrun(plan)
            if reproduced:
                outcome = SearchOutcome(
                    algorithm=self.algorithm, reproduced=True,
                    tries=self.tries, total_steps=self.total_steps,
                    wall_seconds=time.perf_counter() - start, plan=plan,
                    failure=result.failure,
                    tries_by_size=dict(self.tries_by_size),
                    executed_steps=self.executed_steps,
                    skipped_steps=self.skipped_steps,
                    memo_hits=self.memo_hits)
                break
        if outcome is None:
            outcome = SearchOutcome(
                algorithm=self.algorithm, reproduced=False, tries=self.tries,
                total_steps=self.total_steps,
                wall_seconds=time.perf_counter() - start,
                tries_by_size=dict(self.tries_by_size),
                executed_steps=self.executed_steps,
                skipped_steps=self.skipped_steps,
                memo_hits=self.memo_hits)
        return outcome

    # -- helpers -----------------------------------------------------------------

    def selection_product(self, combo, selector):
        """All switch-target vectors for a preemption combination.

        ``selector(candidate)`` returns the candidate threads to switch
        to; an empty selection contributes ``[None]`` (the preemption
        point is identified but no useful switch exists — the testrun
        degenerates towards the passing schedule there).
        """
        choices = []
        for candidate in combo:
            targets = selector(candidate) or [None]
            choices.append(list(targets))
        for vector in product(*choices):
            yield [PlannedPreemption.from_candidate(c, t)
                   for c, t in zip(combo, vector)]
