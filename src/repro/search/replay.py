"""The prefix-replay testrun engine.

Every testrun of a planned-preemption schedule is, by construction,
*identical* to the deterministic passing run up to the pick at which its
earliest preemption fires: :class:`~repro.search.preemption.
PreemptingScheduler` behaves exactly like the deterministic scheduler
until a planned point matches, and planned points are identified by
``(thread, kind, lock, occurrence)`` keys whose first match happens at
the recorded passing-run step of the corresponding candidate.

The engine exploits that invariant.  It executes the deterministic
schedule once — lazily, only as far as checkpoints are demanded — and
takes a :class:`~repro.runtime.checkpoint.Checkpoint` at each
preemption-candidate step it passes, together with the scheduler-visible
prefix state (current thread, started set, sync-occurrence counters).  A
testrun for plan ``P`` then restores the checkpoint at ``min`` candidate
step over ``P``'s members and executes only the divergent suffix; the
shared prefix is never re-interpreted.

Checkpoints live in an LRU cache bounded by both entry count and a byte
budget, so memory stays bounded on long traces; an evicted checkpoint is
re-recorded on demand from the nearest surviving predecessor.  The
engine keeps honest accounts: ``recording_steps`` (interpreter steps
burned recording prefixes) is drained into the owning search's
``executed_steps`` so reported savings never hide the recording cost.

One engine serves every search strategy of a
:class:`~repro.pipeline.session.ReproSession`: the candidate *keys* and
steps are ranking-independent, so chess and both chessX heuristics share
one checkpoint store.
"""

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..runtime.checkpoint import (
    checkpoint_nbytes,
    restore_checkpoint,
    take_checkpoint,
)
from ..runtime.interpreter import ExecutionStatus
from .preemption import PreemptingScheduler


@dataclass(frozen=True)
class SchedulerPrefixState:
    """Scheduler-visible state of the deterministic prefix up to a step.

    Exactly what :meth:`PreemptingScheduler.restore_prefix` needs to
    behave as if it had driven the prefix itself: the thread that ran
    the previous step, which threads have started, and per-key sync
    occurrence counts.
    """

    current: Optional[str]
    started: frozenset
    counters: tuple  # ((thread, kind, lock), count) pairs, sorted


@dataclass
class CacheEntry:
    """One cached restore point."""

    step: int
    checkpoint: object
    prefix: SchedulerPrefixState
    nbytes: int


class CheckpointCache:
    """LRU checkpoint store bounded by entry count and total bytes.

    The most recently inserted entry is never evicted (the caller is
    about to use it), so a single oversized checkpoint still replays.
    """

    def __init__(self, max_entries=64, max_bytes=64 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries = OrderedDict()  # step -> CacheEntry, LRU order
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, step):
        return step in self._entries

    def steps(self):
        """Cached steps, least-recently-used first."""
        return list(self._entries)

    def get(self, step):
        entry = self._entries.get(step)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(step)
        self.hits += 1
        return entry

    def nearest_at_or_before(self, step):
        """The cached entry with the largest step ``<= step``, or None.

        A peek — does not count as a hit/miss and does not touch LRU
        order (recording from a base must not shield it from eviction).
        """
        best = None
        for entry in self._entries.values():
            if entry.step <= step and (best is None or entry.step > best.step):
                best = entry
        return best

    def put(self, entry):
        if entry.step in self._entries:
            old = self._entries.pop(entry.step)
            self.total_bytes -= old.nbytes
        self._entries[entry.step] = entry
        self.total_bytes += entry.nbytes
        while len(self._entries) > 1 and (
                len(self._entries) > self.max_entries
                or self.total_bytes > self.max_bytes):
            victim_step = next(iter(self._entries))
            if victim_step == entry.step:
                break
            victim = self._entries.pop(victim_step)
            self.total_bytes -= victim.nbytes
            self.evictions += 1

    def stats(self):
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def _freeze_prefix(scheduler):
    """The scheduler's deterministic-prefix state as an immutable value."""
    return SchedulerPrefixState(
        current=scheduler.current,
        started=frozenset(scheduler.started),
        counters=tuple(sorted(scheduler.counters.items())),
    )


class ReplayEngine:
    """Serves testruns by replaying the shared deterministic prefix.

    Parameters
    ----------
    execution_factory:
        ``callable(scheduler) -> Execution``; the same factory the
        search layer uses, so recording runs and testruns execute under
        identical settings (inputs, instrumentation, step limits).
    candidates:
        The passing run's preemption candidates; their keys and steps
        define the restore points.  Ranking annotations are irrelevant,
        so one engine serves every strategy of a session.
    max_checkpoints / max_bytes:
        Bounds of the checkpoint cache.
    """

    def __init__(self, execution_factory, candidates, max_checkpoints=64,
                 max_bytes=64 * 1024 * 1024):
        self.execution_factory = execution_factory
        self._use_step_map({c.key(): c.step for c in candidates})
        self.cache = CheckpointCache(max_entries=max_checkpoints,
                                     max_bytes=max_bytes)
        #: cumulative interpreter steps spent recording prefixes
        self.recording_steps = 0
        #: recording steps not yet drained into a search's accounting
        self._undrained_recording_steps = 0
        self.replayed_runs = 0
        self.scratch_runs = 0

    @classmethod
    def from_step_map(cls, execution_factory, step_map, max_checkpoints=64,
                      max_bytes=64 * 1024 * 1024):
        """An engine rebuilt from a candidate ``key -> step`` mapping.

        The parallel search executor ships this mapping — not the full
        annotated candidates — to pool workers, which lazily construct
        their own engine around their own execution factory.
        """
        engine = cls(execution_factory, (), max_checkpoints=max_checkpoints,
                     max_bytes=max_bytes)
        engine._use_step_map(step_map)
        return engine

    def _use_step_map(self, step_map):
        self._step_by_key = dict(step_map)
        #: every step a plan can restore at, ascending
        self._restore_steps = sorted(set(self._step_by_key.values()))

    def step_map(self):
        """The candidate ``key -> step`` mapping (picklable)."""
        return dict(self._step_by_key)

    # -- restore-point selection ------------------------------------------------

    def restore_step_for(self, plan):
        """Earliest step at which any of ``plan``'s preemptions can fire.

        Before that step every testrun is byte-identical to the
        deterministic run, so it is the latest safe restore point.  A
        plan item whose key was never observed in the passing run maps
        to step 0 (no prefix can be assumed; the run starts from
        scratch, mirroring how such preemptions dissolve).
        """
        if not plan:
            return 0
        return min(self._step_by_key.get(item.key(), 0) for item in plan)

    # -- the public testrun entry ----------------------------------------------

    def resume(self, scheduler, plan):
        """An execution ready to ``run()`` under ``scheduler``.

        Returns ``(execution, skipped_steps)``: the execution is either
        fresh (``skipped_steps == 0``) or restored to the checkpoint at
        the plan's earliest preemption step with ``scheduler`` resumed
        to the matching prefix state.
        """
        step = self.restore_step_for(plan)
        if step > 0:
            entry = self._ensure_checkpoint(step)
            if entry is not None:
                execution = self.execution_factory(scheduler)
                restore_checkpoint(execution, entry.checkpoint)
                scheduler.restore_prefix(entry.prefix)
                self.replayed_runs += 1
                return execution, step
        self.scratch_runs += 1
        return self.execution_factory(scheduler), 0

    def drain_recording_steps(self):
        """Recording steps since the last drain (for search accounting)."""
        steps = self._undrained_recording_steps
        self._undrained_recording_steps = 0
        return steps

    def stats(self):
        doc = dict(self.cache.stats())
        doc.update(recording_steps=self.recording_steps,
                   replayed_runs=self.replayed_runs,
                   scratch_runs=self.scratch_runs)
        return doc

    # -- recording ----------------------------------------------------------------

    def _ensure_checkpoint(self, step):
        """The cache entry for ``step``, recording it if absent.

        Recording resumes from the nearest cached predecessor (or from
        scratch) and runs the deterministic schedule through
        :meth:`Execution.run`, stopping at every restore step on the way
        to capture it — a cold cache warms up in one pass.  Checkpoints
        are taken *before* the instruction at a candidate step executes,
        the state every testrun restored there expects.  Returns None
        when the deterministic run ends first (a plan referencing a step
        the passing run never reaches falls back to scratch execution).
        """
        entry = self.cache.get(step)
        if entry is not None:
            return entry
        base = self.cache.nearest_at_or_before(step)
        # a plan-less PreemptingScheduler IS the deterministic scheduler
        # (nothing can fire), so recording uses the very class testruns
        # resume — its current/started/counters bookkeeping is the one
        # source of truth for prefix states
        scheduler = PreemptingScheduler([])
        execution = self.execution_factory(scheduler)
        if base is not None:
            restore_checkpoint(execution, base.checkpoint)
            scheduler.restore_prefix(base.prefix)
        steps = self._restore_steps
        while True:
            at = execution.step_count
            # on to the next restore step (``step`` is one: none is skipped)
            execution.run(until=steps[bisect_right(steps, at)])
            advanced = execution.step_count - at
            self.recording_steps += advanced
            self._undrained_recording_steps += advanced
            if execution.status != ExecutionStatus.RUNNING:
                return None
            if execution.step_count == step:
                return self._capture(execution, scheduler)
            if execution.step_count not in self.cache:
                self._capture(execution, scheduler)

    def _capture(self, execution, scheduler):
        checkpoint = take_checkpoint(execution)
        entry = CacheEntry(step=execution.step_count, checkpoint=checkpoint,
                           prefix=_freeze_prefix(scheduler),
                           nbytes=checkpoint_nbytes(checkpoint))
        self.cache.put(entry)
        return entry
