"""Checkpoint and restore of execution state.

Algorithm 2's ``preempt()`` creates a checkpoint before trying each
candidate thread and restores it when the attempt does not reproduce the
failure.  The snapshot is a structural copy of all mutable machine state;
AST nodes and compiled instructions are shared (immutable by
convention).
"""

from dataclasses import dataclass
from sys import getsizeof

from .frames import Frame, RegionEntry, ThreadState
from .heap import Heap, HeapArray, HeapStruct


def _copy_heap(heap):
    clone = Heap()
    clone._next_id = heap._next_id
    for obj_id, obj in heap._objects.items():
        if isinstance(obj, HeapStruct):
            clone._objects[obj_id] = HeapStruct(dict(obj.fields))
        elif isinstance(obj, HeapArray):
            clone._objects[obj_id] = HeapArray(list(obj.elements))
        else:  # pragma: no cover - no other heap object kinds exist
            raise TypeError("unknown heap object %r" % (obj,))
    return clone


def _copy_frame(frame):
    return Frame(
        uid=frame.uid,
        func=frame.func,
        pc=frame.pc,
        locals=dict(frame.locals),
        ret_target=frame.ret_target,
        return_to=frame.return_to,
        call_step=frame.call_step,
        region_stack=[RegionEntry(e.pred_pc, e.outcome, e.exit_pc, e.step,
                                  e.loop_id)
                      for e in frame.region_stack],
        loop_counters=dict(frame.loop_counters),
    )


def _copy_thread(thread):
    return ThreadState(
        name=thread.name,
        frames=[_copy_frame(f) for f in thread.frames],
        status=thread.status,
        instr_count=thread.instr_count,
        started_at=thread.started_at,
    )


@dataclass
class Checkpoint:
    """A restorable snapshot of an :class:`~repro.runtime.interpreter.Execution`."""

    globals: dict
    heap: Heap
    lock_owner: dict
    threads: dict
    frame_uid: int
    step_count: int
    output: list
    status: str
    scheduler_state: object = None


def take_checkpoint(execution, scheduler_state=None):
    """Snapshot ``execution``'s mutable state."""
    return Checkpoint(
        globals=dict(execution.globals),
        heap=_copy_heap(execution.heap),
        lock_owner=dict(execution.locks._owner),
        threads={name: _copy_thread(t)
                 for name, t in execution.threads.items()},
        frame_uid=execution._frame_uid,
        step_count=execution.step_count,
        output=list(execution.output),
        status=execution.status,
        scheduler_state=scheduler_state,
    )


#: fixed cost of one copied dataclass instance (object + attribute dict)
_OBJECT_NBYTES = (getsizeof(RegionEntry(0, False, 0, 0))
                  + getsizeof(vars(RegionEntry(0, False, 0, 0))))
#: fixed cost of one copied (slotted) heap object
_HEAP_OBJECT_NBYTES = getsizeof(HeapArray(()))


def checkpoint_nbytes(checkpoint):
    """Approximate in-memory footprint of ``checkpoint``.

    Used by the replay engine's cache to enforce its byte budget.  Counts
    what the copy allocates: every dict and list payload plus a fixed
    cost per copied object.  The values in those containers are
    references shared with the live run (ints, strings, pointers), so
    they are not walked.
    """
    objects = checkpoint.heap._objects
    size = 2 * _OBJECT_NBYTES + sum(map(getsizeof, (  # checkpoint, heap
        checkpoint.globals, objects, checkpoint.lock_owner,
        checkpoint.threads, checkpoint.output)))
    for obj in objects.values():
        size += _HEAP_OBJECT_NBYTES + getsizeof(
            obj.fields if isinstance(obj, HeapStruct) else obj.elements)
    for thread in checkpoint.threads.values():
        size += _OBJECT_NBYTES + getsizeof(thread.frames)
        for frame in thread.frames:
            size += (_OBJECT_NBYTES * (1 + len(frame.region_stack))
                     + getsizeof(frame.locals) + getsizeof(frame.region_stack)
                     + getsizeof(frame.loop_counters))
    return size


def restore_checkpoint(execution, checkpoint):
    """Restore ``execution`` to ``checkpoint`` in place."""
    execution.globals = dict(checkpoint.globals)
    execution.heap = _copy_heap(checkpoint.heap)
    execution.locks._owner = dict(checkpoint.lock_owner)
    execution.threads = {name: _copy_thread(t)
                         for name, t in checkpoint.threads.items()}
    execution._frame_uid = checkpoint.frame_uid
    execution.step_count = checkpoint.step_count
    execution.output = list(checkpoint.output)
    execution.status = checkpoint.status
    execution.failure = None
    execution.stop_reason = None
    execution.stop_payload = None
    return execution
