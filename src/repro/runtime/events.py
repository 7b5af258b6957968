"""Step effects: what one executed instruction read, wrote, and decided.

Effects are the single event stream feeding the trace collector (for
slicing), the alignment hook, CSV access matching, and the schedule
search.  Memory locations use structural identities that survive
checkpoint/restore:

``("global", name)``
    A program global.
``("local", thread, frame_uid, var)``
    A local in a specific activation frame.
``("heap", obj_id, key)``
    A struct field (``key`` is the field name) or an array element
    (``key`` is the integer index).
"""

from dataclasses import dataclass, field
from typing import Optional


def global_loc(name):
    return ("global", name)


def local_loc(thread, frame_uid, var):
    return ("local", thread, frame_uid, var)


def heap_loc(obj_id, key):
    return ("heap", obj_id, key)


def is_shared_loc(location):
    """Locals are thread-private; globals and heap cells are shared."""
    return location[0] in ("global", "heap")


@dataclass(slots=True)
class StepEffects:
    """The observable effects of executing one instruction."""

    thread: str
    step: int
    pc: int
    op: object
    defs: list = field(default_factory=list)
    uses: list = field(default_factory=list)
    branch_outcome: Optional[bool] = None
    #: step number of the dynamic control-dependence parent (the governing
    #: branch instance, or the CALL that created this frame), or None for
    #: thread entry.
    dynamic_cd_step: Optional[int] = None
    #: ("acquire"|"release", lock) for sync instructions
    sync: Optional[tuple] = None
    #: callee name for CALL, returning-from name for RETURN
    call: Optional[str] = None
    ret_from: Optional[str] = None
    output_value: object = None
    #: True when this CALL/thread-start pushed a new frame
    entered_frame: bool = False
    #: instructions summarized by this object — 1 on the per-instruction
    #: path, the chain length when used as a block-execution summary
    batch: int = 1


@dataclass(frozen=True)
class Failure:
    """A simulated failure: a crash signal, or a hung-process state.

    Crashes identify by their failing PC.  Deadlocks and hangs identify
    by the canonical waits-for ``cycle`` — sorted
    ``(thread, held_locks, wanted_lock, blocked_pc)`` tuples — because a
    deadlock has no single crash site: any interleaving that wedges the
    same threads on the same locks at the same acquire sites is the same
    bug, regardless of which thread blocked first.
    """

    kind: str
    pc: int
    thread: str
    message: str
    #: canonical waits-for cycle for kind="deadlock"/"hang": a sorted
    #: tuple of (thread, held_locks_tuple, wanted_lock, blocked_pc)
    cycle: Optional[tuple] = None

    def signature(self):
        """Failure identity used to decide reproduction.

        Crash-style failures match on kind + PC; hung-state failures
        match on kind + cycle shape (PC would be an accident of which
        thread the scheduler happened to block first).
        """
        if self.cycle is not None:
            return (self.kind, self.cycle)
        return (self.kind, self.pc)

    def describe(self):
        if self.cycle is not None:
            edges = ", ".join(
                "%s holds %s wants %s@pc=%d"
                % (t, "{%s}" % ",".join(held), want, pc)
                for t, held, want, pc in self.cycle)
            return "%s in thread %s: %s [%s]" % (
                self.kind, self.thread, self.message, edges)
        return "%s at pc=%d in thread %s: %s" % (
            self.kind, self.pc, self.thread, self.message)


class StopExecution(Exception):
    """Raised by a hook to stop the run loop (e.g. alignment found)."""

    def __init__(self, reason, payload=None):
        super().__init__(reason)
        self.reason = reason
        self.payload = payload
