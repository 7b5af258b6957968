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
redirects at sync points).  Their ``settled(thread)`` is ``True`` when
every pick would keep choosing ``thread`` until it blocks or exits (its
chain then runs through sync points, breaking only before an
``ACQUIRE`` of a lock another thread holds), or a budget of syncs that
may pass first.  :class:`MulticoreScheduler` may switch anywhere, so it
instead offers ``chain_draw()``: the emitted chain code draws its
per-instruction decision itself at every instruction boundary, keeping
the interleaving byte-identical to instruction mode without a round
trip per step.  Every pick records the chosen thread as ``current``, so
neither scheduler needs to observe the steps.
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
        if self.current not in runnable:
            self.current = runnable[0]
        return self.current

    def settled(self, thread):
        """Non-preemptive: the running thread keeps every pick."""
        return True


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
        #: the runnable threads of the latest pick, which a chain's
        #: draws choose from: a chain cannot change them
        self._runnable = ()
        #: a switch drawn inside a chain (the chain ended on it); served
        #: by the next :meth:`pick` without consuming any further RNG
        self._pending_pick = None

    def pick(self, execution, runnable):
        self._runnable = runnable
        if self._pending_pick is not None:
            choice, self._pending_pick = self._pending_pick, None
        elif (self.current in runnable
                and self._rng.random() >= self.switch_prob):
            return self.current
        else:
            choice = self._rng.choice(runnable)
        self.current = choice
        return choice

    def chain_draw(self):
        """``(random, switch_prob, switch)``: a chain of ``current``
        continues past an instruction boundary while ``random() >=
        switch_prob``, else while ``switch()`` is false — the draws the
        per-instruction :meth:`pick` would make there."""
        return self._rng.random, self.switch_prob, self._switch

    def _switch(self):
        """Draw a switch target; park it and return True unless it is
        the running thread, which keeps running as instruction mode
        would keep picking it."""
        runnable = self._runnable
        target = self._rng.choice(runnable)
        if target == self.current:
            return False
        self._pending_pick = target
        return True


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
