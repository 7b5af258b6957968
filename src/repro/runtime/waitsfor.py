"""Waits-for analysis: turning a hung execution into a structured failure.

When the run loop finds zero runnable threads while some are still live,
the hung state is fully described by lock ownership plus each blocked
thread's acquire site.  This module builds that waits-for graph,
extracts the deadlock cycle, and canonicalizes it into the signature
that makes "the program hung" reproducible: a sorted tuple of
``(thread, held_locks, wanted_lock, blocked_pc)`` entries.  The shape is
invariant under scheduling order and loop iteration count, so any
interleaving that wedges the same threads on the same locks at the same
acquire sites carries the same signature — the hang analogue of a crash
PC.

The same analysis doubles as the progress watchdog for budget
exhaustion: a run that hits ``max_steps`` with live threads is
classified ``hang`` and, when a permanent waits-for cycle already
exists among its blocked threads, inherits that cycle as its signature
(threads outside the cycle were merely burning the remaining budget).
"""

from .events import Failure
from .frames import ThreadStatus


def blocked_edges(execution):
    """One ``(thread, wanted_lock, owner, blocked_pc)`` per blocked thread.

    A thread is blocked when it is READY but not runnable — by
    construction parked at an ``acquire`` of a lock the
    :meth:`LockTable.is_free_for` predicate rejects.  Edges come out in
    canonical program order, so every derived artifact is deterministic.
    """
    edges = []
    locks = execution.locks
    runnable = execution.runnable_threads()
    for name in execution._thread_order:
        thread = execution.threads[name]
        if thread.status is not ThreadStatus.READY or name in runnable:
            continue
        lock = execution.acquire_locks[thread.pc]
        assert lock is not None, \
            "non-runnable READY thread %s not parked at an acquire" % name
        edges.append((name, lock, locks.owner(lock), thread.pc))
    return edges


def extract_cycle(edges):
    """Thread names on the waits-for cycle, or None when the wedge is acyclic.

    Each blocked thread has exactly one successor (the owner of the lock
    it wants), so the graph is a functional graph: walking successors
    from any node either leaves the blocked set (an orphaned-lock stall,
    e.g. a thread that exited while holding a mutex) or closes a cycle.
    """
    succ = {thread: owner for thread, _lock, owner, _pc in edges}
    for thread, _lock, _owner, _pc in edges:
        seen = []
        node = thread
        while node in succ and node not in seen:
            seen.append(node)
            node = succ[node]
        if node in seen:
            return set(seen[seen.index(node):])
    return None


def canonical_cycle(execution, edges=None):
    """The hang signature: sorted (thread, held, wanted, pc) tuples.

    Restricted to the threads actually on the waits-for cycle; when the
    wedge is acyclic every blocked thread participates (there is no
    smaller invariant core to name).  Returns None when nothing is
    blocked.
    """
    if edges is None:
        edges = blocked_edges(execution)
    if not edges:
        return None
    members = extract_cycle(edges)
    if members is None:
        members = {thread for thread, _lock, _owner, _pc in edges}
    locks = execution.locks
    return tuple(sorted(
        (thread, tuple(locks.held_locks(thread)), lock, pc)
        for thread, lock, _owner, pc in edges if thread in members))


def _describe_cycle(cycle):
    return "; ".join(
        "%s holds [%s] wants %s" % (thread, ",".join(held), wanted)
        for thread, held, wanted, _pc in cycle)


def deadlock_failure(execution):
    """Structured Failure for a full wedge (zero runnable, some live).

    The failing thread is the lexicographically smallest cycle member
    and the failure PC its blocked acquire site, so the hung dump's
    failing-thread top frame satisfies the same top-frame-equals-
    failure-PC contract crash dumps do.
    """
    edges = blocked_edges(execution)
    cycle = canonical_cycle(execution, edges)
    if cycle is None:
        return None
    thread, _held, _wanted, pc = cycle[0]
    return Failure(
        kind="deadlock", pc=pc, thread=thread,
        message="waits-for cycle over %d thread(s): %s"
                % (len(cycle), _describe_cycle(cycle)),
        cycle=cycle)


def hang_failure(execution):
    """Budget-exhaustion classification (the progress watchdog).

    Called when ``max_steps`` ran out with live threads.  A permanent
    waits-for cycle among the blocked threads is already a deadlock —
    the runnable survivors were only spending the remaining budget — so
    it gets the deadlock kind and cycle signature.  Otherwise the run is
    a budget hang (livelock or undersized budget): kind ``hang``, with
    the blocked shape as signature when one exists and the first live
    thread's position otherwise.
    """
    edges = blocked_edges(execution)
    members = extract_cycle(edges) if edges else None
    if members is not None:
        failure = deadlock_failure(execution)
        return Failure(kind=failure.kind, pc=failure.pc,
                       thread=failure.thread,
                       message=failure.message + " (detected at step budget)",
                       cycle=failure.cycle)
    if edges:
        cycle = canonical_cycle(execution, edges)
        thread, _held, _wanted, pc = cycle[0]
        return Failure(
            kind="hang", pc=pc, thread=thread,
            message="step budget exhausted with %d blocked thread(s): %s"
                    % (len(cycle), _describe_cycle(cycle)),
            cycle=cycle)
    live = execution.live_threads()
    if not live:
        return None
    thread = min(live)
    pc = execution.threads[thread].pc
    return Failure(
        kind="hang", pc=pc, thread=thread,
        message="step budget exhausted with %d runnable thread(s) "
                "(livelock or undersized budget)" % len(live))


def waits_for_snapshot(execution):
    """JSON-able waits-for graph for embedding in core dumps.

    None when no thread is blocked (nothing to draw); otherwise the
    blocked edges plus the cycle membership, with held locks inlined so
    a dump reader never has to re-derive ownership.
    """
    edges = blocked_edges(execution)
    if not edges:
        return None
    members = extract_cycle(edges)
    locks = execution.locks
    return {
        "edges": [
            {"thread": thread, "holds": locks.held_locks(thread),
             "wants": lock, "owner": owner, "pc": pc}
            for thread, lock, owner, pc in edges],
        "cycle": sorted(members) if members is not None else None,
    }
