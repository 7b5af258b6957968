"""Schedulers.

Three schedulers drive the reproduction pipeline:

* :class:`MulticoreScheduler` — seeded random interleaving at instruction
  granularity with bursty thread affinity; the stand-in for true
  multicore parallelism in the production (failing) run.
* :class:`DeterministicScheduler` — the single-core deterministic
  scheduler of the debugging phase: non-preemptive, runs the current
  thread until it blocks or exits, picks the next thread in canonical
  program order.
* :class:`ScriptedScheduler` — replays an explicit thread sequence
  (testing aid).

The search layer builds its preempting scheduler on top of the
deterministic one (see :mod:`repro.search.preemption`).

Block granularity
-----------------

The interpreter's macro-step path (see
:mod:`repro.runtime.interpreter`) consults two optional scheduler
attributes.  ``block_granular = True`` declares that the scheduler's
per-instruction pick provably returns the running thread at every
non-boundary point, so a whole chain of superblocks may run on one pick
— true for :class:`DeterministicScheduler` (non-preemptive by
definition) and the search layer's preempting scheduler (it only ever
redirects at sync points).  Their ``settled(thread)`` is true when every
pick would keep choosing ``thread`` until it blocks or exits; its chain
then runs through sync points, breaking only before an ``ACQUIRE`` of a
lock another thread holds.  :class:`MulticoreScheduler` may switch
anywhere, so it instead implements ``block_commit``: it pre-draws its
per-instruction RNG decisions over a block and commits to a burst,
keeping the interleaving byte-identical to instruction mode while the
interpreter executes the burst without per-step round-trips.
:class:`ScriptedScheduler` declares neither, so scripted runs always
execute at instruction granularity.
"""

import random

from ..lang.errors import SchedulerError


class DeterministicScheduler:
    """Canonical-order, non-preemptive scheduling (the passing run)."""

    #: per-instruction picks provably continue the current thread, so
    #: the interpreter may run whole block chains on one pick
    block_granular = True

    def __init__(self):
        self.current = None

    def pick(self, execution, runnable):
        if self.current in runnable:
            return self.current
        return runnable[0]

    def settled(self, thread):
        """Non-preemptive: the running thread keeps every pick."""
        return True

    def observe(self, execution, effects):
        self.current = effects.thread


class MulticoreScheduler:
    """Seeded random interleaving with bursty affinity.

    Each pick keeps the current thread with probability ``1 -
    switch_prob`` (when still runnable), otherwise switches uniformly at
    random.  Bursts make the interleavings resemble two cores trading the
    shared bus rather than a uniform shuffle, while staying fully
    deterministic for a given seed.
    """

    def __init__(self, seed=0, switch_prob=0.3):
        if not 0.0 < switch_prob <= 1.0:
            raise SchedulerError("switch_prob must be in (0, 1]")
        self.seed = seed
        self.switch_prob = switch_prob
        self._rng = random.Random(seed)
        self.current = None
        #: a pick fully drawn during :meth:`block_commit` (the burst
        #: ended on a switch decision); served by the next :meth:`pick`
        #: without consuming any further RNG
        self._pending_pick = None

    def pick(self, execution, runnable):
        if self._pending_pick is not None:
            choice, self._pending_pick = self._pending_pick, None
            return choice
        if (self.current in runnable
                and self._rng.random() >= self.switch_prob):
            return self.current
        return runnable[self._rng.randrange(len(runnable))]

    def block_commit(self, execution, runnable, thread, span, first):
        """Commit to consecutive steps of ``thread``, drawing eagerly.

        Replays exactly the RNG draws the per-instruction :meth:`pick`
        would make over the next ``span`` steps — the superblock
        interior cannot change the runnable set, so each simulated pick
        sees the same ``runnable`` the interpreter passed in.  When a
        draw decides to switch to another thread, that fully drawn pick
        is parked in ``_pending_pick`` and the burst ends early; a
        "switch" that lands on ``thread`` itself keeps the burst going,
        just as instruction mode would keep executing it.

        ``first`` marks the chain's first block, whose first step was
        already committed by the :meth:`pick` that chose ``thread``.
        Returns the number of steps to execute now (0 possible on
        continuation blocks).
        """
        committed = 1 if first else 0
        rng_random = self._rng.random
        switch_prob = self.switch_prob
        while committed < span:
            if rng_random() < switch_prob:
                target = runnable[self._rng.randrange(len(runnable))]
                if target != thread:
                    self._pending_pick = target
                    break
            committed += 1
        return committed

    def observe(self, execution, effects):
        self.current = effects.thread


class ScriptedScheduler:
    """Replays an explicit sequence of thread names (for tests).

    Falls back to the first runnable thread when the script is exhausted
    or names a non-runnable thread; set ``strict=True`` to raise instead.
    """

    def __init__(self, script, strict=False):
        self.script = list(script)
        self.position = 0
        self.strict = strict

    def pick(self, execution, runnable):
        while self.position < len(self.script):
            name = self.script[self.position]
            if name in runnable:
                self.position += 1
                return name
            if self.strict:
                raise SchedulerError(
                    "scripted thread %r not runnable (runnable=%r)"
                    % (name, runnable))
            self.position += 1
        return runnable[0]
