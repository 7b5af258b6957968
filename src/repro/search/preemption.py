"""Preemption candidates, schedule blocks, and the preempting scheduler.

Preemption candidates are the points CHESS may inject a context switch:
the beginning of each thread, *before* every lock acquire (so a thread
needing the lock can run first), and *after* every lock release (paper
Sec. 5, Fig. 8).  They are enumerated from the passing run's trace and
identified across re-executions by ``(thread, kind, lock, occurrence)``
— stable because every testrun replays the deterministic schedule up to
its first preemption.

Each candidate is annotated with (paper Sec. 5):

* the prioritized CSV accesses inside the *schedule block* it leads
  (used to weight preemption combinations), and
* the set of CSVs its thread will access *from this point on* (used to
  select which thread to switch to: switching to ``T`` is useful only if
  ``T``'s future CSV set overlaps the preempted block's accesses).
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional


#: Weight contribution of a candidate whose block has no prioritized CSV
#: access (the paper's ⊥): effectively last in the worklist.
BOTTOM_WEIGHT = 10 ** 6


class FutureCSVIndex:
    """``future(thread, step)``: CSVs a thread accesses at/after a step.

    Precomputed from the passing-run trace as per-thread suffix unions
    over CSV access events, so each query is a bisect.  Consecutive
    suffixes that add no new location share one frozenset, bounding the
    distinct sets by the number of distinct locations.
    """

    def __init__(self, accesses):
        self._per_thread = {}
        by_thread = {}
        for access in accesses:
            by_thread.setdefault(access.thread, []).append(access)
        for thread, thread_accesses in by_thread.items():
            thread_accesses.sort(key=lambda a: a.step)
            steps = [a.step for a in thread_accesses]
            suffixes = [None] * len(thread_accesses)
            seen = frozenset()
            for i in range(len(thread_accesses) - 1, -1, -1):
                location = thread_accesses[i].location
                if location not in seen:
                    seen = seen | {location}
                suffixes[i] = seen
            self._per_thread[thread] = (steps, suffixes)

    def future(self, thread, step):
        entry = self._per_thread.get(thread)
        if entry is None:
            return frozenset()
        steps, suffixes = entry
        i = bisect_left(steps, step)
        if i >= len(steps):
            return frozenset()
        return suffixes[i]


@dataclass(frozen=True)
class PreemptionCandidate:
    """One potential preemption point observed in the passing run."""

    cid: int
    thread: str
    kind: str  # "start" | "acquire" | "release"
    lock: Optional[str]
    occurrence: int
    pc: int
    step: int
    #: prioritized CSV accesses inside this candidate's schedule block
    accesses: tuple = ()
    #: CSV locations touched inside the block (unordered)
    block_csv_locs: frozenset = frozenset()
    #: CSVs this thread accesses at or after this point
    future_csvs: frozenset = frozenset()

    def key(self):
        return (self.thread, self.kind, self.lock, self.occurrence)

    def weight_component(self):
        """The minimal priority superscript among the block's accesses."""
        priorities = [a.priority for a in self.accesses
                      if a.priority is not None]
        return min(priorities) if priorities else BOTTOM_WEIGHT

    def describe(self):
        return "pm%d[%s %s%s #%d @pc=%d step=%d, %d accesses, w=%s]" % (
            self.cid, self.thread, self.kind,
            "(%s)" % self.lock if self.lock else "", self.occurrence,
            self.pc, self.step, len(self.accesses),
            self.weight_component())


def enumerate_candidates(events, csv_locs, ranked_accesses,
                         all_accesses=None):
    """Candidates from a passing-run trace, with annotations.

    ``ranked_accesses`` are the *prioritized* accesses (at or before the
    aligned point — the only ones the paper prioritizes); they feed the
    block annotations.  ``all_accesses`` covers the full trace and feeds
    the future-CSV sets: a thread's CSV set must include accesses that
    happen *after* the aligned point (T2's ``x=0`` in the paper's
    example occurs after it, yet is what makes switching to T2 useful).

    Accesses are pre-sorted per thread once; each candidate's block is a
    ``bisect`` slice of its thread's list and each future-CSV set a
    precomputed per-thread suffix union, so enumeration is linearithmic
    in the trace instead of quadratic.
    """
    if all_accesses is None:
        all_accesses = ranked_accesses

    # Per-thread ranked accesses, stably sorted by step: slicing a block
    # preserves both the ascending-step order and, within one step, the
    # original ranked order (what the old per-candidate scan produced).
    ranked_by_thread = {}
    for access in ranked_accesses:
        ranked_by_thread.setdefault(access.thread, []).append(access)
    ranked_steps = {}
    for thread, accesses in ranked_by_thread.items():
        accesses.sort(key=lambda a: a.step)
        ranked_steps[thread] = [a.step for a in accesses]

    # Per-thread suffix unions over the full trace: future(thread, step)
    # is one bisect + one precomputed frozenset.
    future_index = FutureCSVIndex(all_accesses)

    raw = []
    counters = {}
    seen_threads = set()
    for event in events:
        if event.thread not in seen_threads:
            seen_threads.add(event.thread)
            raw.append(("start", None, 0, event))
        if event.sync is not None:
            kind, lock = event.sync
            key = (event.thread, kind, lock)
            occurrence = counters.get(key, 0)
            counters[key] = occurrence + 1
            raw.append((kind, lock, occurrence, event))

    raw.sort(key=lambda item: (item[3].step, 0 if item[0] != "release" else 1))
    boundaries = [item[3].step for item in raw]

    candidates = []
    for i, (kind, lock, occurrence, event) in enumerate(raw):
        block_start = event.step if kind != "release" else event.step + 1
        block_end = boundaries[i + 1] if i + 1 < len(boundaries) else None
        thread_accesses = ranked_by_thread.get(event.thread, [])
        steps = ranked_steps.get(event.thread, [])
        lo = bisect_left(steps, block_start)
        hi = len(steps) if block_end is None else bisect_left(steps, block_end)
        block_accesses = thread_accesses[lo:hi]
        future = future_index.future(event.thread, event.step)
        candidates.append(PreemptionCandidate(
            cid=i,
            thread=event.thread,
            kind=kind,
            lock=lock,
            occurrence=occurrence,
            pc=event.pc,
            step=event.step,
            accesses=tuple(block_accesses),
            block_csv_locs=frozenset(a.location for a in block_accesses),
            future_csvs=future,
        ))
    return candidates


def map_candidates_to_block_heads(candidates, blocks):
    """``{cid: pc}`` of candidates mapped onto superblock heads.

    The contract between the block partition and the search layer:
    every preemption candidate must sit at a block head — acquire and
    release instructions are singleton blocks and thread starts are
    function entries — so block-granular testruns can fire every
    preemption at exactly the step instruction-granular testruns would,
    and the replay engine's checkpoints (taken at candidate steps) land
    on chain boundaries.  Raises :class:`~repro.lang.errors.SearchError`
    when the partition violates the contract; the session checks this
    once per bug when block execution is enabled.
    """
    from ..lang.errors import SearchError

    mapped = {}
    for candidate in candidates:
        if not blocks.is_head(candidate.pc):
            raise SearchError(
                "preemption candidate %s is not at a block head — the "
                "superblock partition breaks the block-granular testrun "
                "contract" % candidate.describe())
        mapped[candidate.cid] = candidate.pc
    return mapped


@dataclass
class PlannedPreemption:
    """One preemption to apply in a testrun: fire point + thread to run."""

    thread: str
    kind: str
    lock: Optional[str]
    occurrence: int
    switch_to: Optional[str]  # None = identified point but no switch

    def key(self):
        """The stable cross-execution identity (matches the candidate's)."""
        return (self.thread, self.kind, self.lock, self.occurrence)

    @classmethod
    def from_candidate(cls, candidate, switch_to):
        return cls(thread=candidate.thread, kind=candidate.kind,
                   lock=candidate.lock, occurrence=candidate.occurrence,
                   switch_to=switch_to)


class PreemptingScheduler:
    """Deterministic scheduler with planned preemptions.

    Behaves exactly like the deterministic passing-run scheduler except
    at planned points: *before* an acquire / at a thread start the pick
    is redirected to the planned thread; *after* a release the next pick
    is forced.  Unfireable preemptions (target not runnable) dissolve —
    the run simply continues deterministically, which mirrors CHESS
    discarding infeasible schedules.

    Every point at which this scheduler's pick can deviate from "continue
    the current thread" — a thread start, a pre-acquire redirect, a
    post-release force — is a superblock boundary, so it is
    ``block_granular``: the interpreter may run whole block chains per
    pick and every planned preemption still fires exactly where
    instruction-granularity execution would fire it.  Only the running
    thread's own plan items are ever matched, so a thread no pending
    item names is :meth:`settled` (unless a switch is forced): its chain
    runs through sync points, which :meth:`observe` then counts in order.
    """

    block_granular = True

    def __init__(self, plan):
        self.pending = list(plan)
        self.current = None
        self.started = set()
        self.counters = {}
        self.forced_next = None
        self.fired = []

    # -- restorability -------------------------------------------------------

    def snapshot(self):
        """Full mid-run state, restorable with :meth:`restore`."""
        return {
            "pending": list(self.pending),
            "current": self.current,
            "started": set(self.started),
            "counters": dict(self.counters),
            "forced_next": self.forced_next,
            "fired": list(self.fired),
        }

    def restore(self, state):
        """Reset to a state captured by :meth:`snapshot`."""
        self.pending = list(state["pending"])
        self.current = state["current"]
        self.started = set(state["started"])
        self.counters = dict(state["counters"])
        self.forced_next = state["forced_next"]
        self.fired = list(state["fired"])

    def restore_prefix(self, prefix):
        """Adopt a deterministic-prefix state (replay-engine resume).

        Until its first preemption fires, this scheduler picks exactly
        like the deterministic scheduler, so its state after any planned
        preemption-free prefix is fully determined by that prefix:
        ``current``/``started``/``counters`` come from the recorded
        passing-run prefix, while the plan stays untouched (nothing has
        fired yet).
        """
        self.current = prefix.current
        self.started = set(prefix.started)
        self.counters = dict(prefix.counters)
        self.forced_next = None
        self.fired = []

    # -- plan matching -------------------------------------------------------

    def _match(self, thread, kind, lock, occurrence):
        for i, item in enumerate(self.pending):
            if (item.thread == thread and item.kind == kind
                    and item.lock == lock and item.occurrence == occurrence):
                return self.pending.pop(i)
        return None

    def pick(self, execution, runnable):
        if self.forced_next is not None:
            forced, self.forced_next = self.forced_next, None
            if forced in runnable:
                return forced
        choice = self.current if self.current in runnable else runnable[0]
        if not self.pending:
            return choice  # nothing left to fire: the deterministic pick
        for _ in range(len(self.pending) + 1):
            redirected = self._check_pre_step_preemption(
                execution, choice, runnable)
            if redirected is None or redirected == choice:
                break
            choice = redirected
        return choice

    def _check_pre_step_preemption(self, execution, choice, runnable):
        if choice not in self.started:
            item = self._match(choice, "start", None, 0)
            if item is not None:
                self.fired.append(item)
                if item.switch_to in runnable and item.switch_to != choice:
                    return item.switch_to
                return None
        # ``choice`` is runnable, so it has a current frame
        lock = execution.acquire_locks[execution.threads[choice].frames[-1].pc]
        if lock is not None:
            occurrence = self.counters.get((choice, "acquire", lock), 0)
            item = self._match(choice, "acquire", lock, occurrence)
            if item is not None:
                self.fired.append(item)
                if item.switch_to in runnable and item.switch_to != choice:
                    return item.switch_to
        return None

    def settled(self, thread):
        """No switch is forced and no pending item names ``thread``."""
        return self.forced_next is None and all(
            item.thread != thread for item in self.pending)

    def observe(self, execution, effects):
        thread = effects.thread
        self.current = thread
        self.started.add(thread)
        for kind, lock in effects.syncs:
            key = (thread, kind, lock)
            occurrence = self.counters.get(key, 0)
            self.counters[key] = occurrence + 1
            if kind == "release":
                item = self._match(thread, "release", lock, occurrence)
                if item is not None:
                    self.fired.append(item)
                    if item.switch_to is not None and item.switch_to != thread:
                        self.forced_next = item.switch_to
