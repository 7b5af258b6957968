"""Ordered, supervised fan-out: the first hit of a canonical worklist.

Stress testing sweeps seeds until the first failing run; Algorithm 2
walks a canonical plan worklist until the first reproducing testrun.
Each run is a pure function of its item, so fanning either out over the
shared pool is one reduction: the hit with the lowest index wins (what
the serial loop would have found first), and the caller rebuilds every
serial counter from the results of the prefix ``[0, winner]``.
:func:`first_match` is that reduction; stress and search are its
clients, and their serial loops stay the references it is pinned to.
"""

import pickle
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

from .faults import corrupt_or, maybe_inject
from .pool import in_worker
from .supervisor import (
    ExecutionDegraded,
    SupervisionPolicy,
    Supervisor,
    record_degradation,
)

_DRY = object()


@dataclass
class ResolvedPrefix:
    """Items and results of every index the serial loop would visit.

    That is ``[0, winner]`` when there is a winner, else every item —
    or, after a wall ``cutoff``, the longest contiguous resolved run.
    """

    items: list
    results: list
    winner: Optional[int]
    cutoff: bool
    #: prefix indices ``lookup`` resolved without dispatch
    served: frozenset


def first_match(items, run, build, spec, *, is_hit, workers, policy=None,
                stage, lookup=None, max_chunk=32, deadline_hint=None,
                max_seconds=None):
    """The lowest-index hit of ``items``, fanned out over the shared pool.

    Items are pulled lazily in order, so a guided search never expands
    its lattice tail; ``lookup(item)`` may resolve one without dispatch.
    The rest go out in contiguous chunks that ramp from 1 to
    ``max_chunk`` (doubling once per wave of ``workers`` chunks); a
    chunk's task key is its first index.  A worker computes
    ``run(build(spec), item)`` — the context is built once per pickled
    spec — and stops its chunk at the first ``is_hit`` result.  Chunks
    past the best hit are cancelled; after ``max_seconds`` nothing new
    starts.  ``deadline_hint`` is one item's recorded step count, from
    which ``policy`` derives chunk deadlines.

    Returns the :class:`ResolvedPrefix`, or None when the caller's
    serial path must run: one worker, a caller inside a pool worker, a
    spec that does not pickle, or a scan that exhausted every recovery
    rung (recorded as a degradation on ``policy.stats``).
    """
    if workers <= 1 or in_worker():
        return None
    try:
        spec_blob = pickle.dumps(spec)
    except Exception:  # noqa: BLE001 — cannot cross processes: stay serial
        return None
    policy = policy if policy is not None else SupervisionPolicy()
    try:
        return _scan(iter(items), run, build, spec_blob, is_hit, workers,
                     policy, stage, lookup, max_chunk, deadline_hint,
                     max_seconds)
    except ExecutionDegraded as exc:
        # nothing reached the caller yet: its serial path starts cold
        record_degradation(policy.stats, exc.stage, exc.reason, exc.detail)
        return None


def _scan(source, run, build, spec_blob, is_hit, workers, policy, stage,
          lookup, max_chunk, deadline_hint, max_seconds):
    start = time.perf_counter()
    supervisor = Supervisor(workers, policy, stage=stage)
    seen = []             # index -> item, canonical order
    results = {}          # index -> result
    served = set()        # indices resolved by ``lookup``
    pending = []          # enumerated indices not yet dispatched
    chunk_of = {}         # task -> its ascending index list
    best = None           # lowest hit index so far
    size = 1
    issued = 0
    cutoff = False

    def resolve(index, result):
        nonlocal best
        results[index] = result
        if is_hit(result) and (best is None or index < best):
            best = index

    def dispatch():
        nonlocal size, issued
        while len(supervisor.active()) < workers:
            # nothing past a known hit can matter: stop enumerating there
            while len(pending) < size and best is None:
                item = next(source, _DRY)
                if item is _DRY:
                    break
                seen.append(item)
                result = lookup(item) if lookup is not None else None
                if result is None:
                    pending.append(len(seen) - 1)
                else:
                    served.add(len(seen) - 1)
                    resolve(len(seen) - 1, result)
            if best is not None:
                pending[:] = [i for i in pending if i < best]
            if not pending:
                return
            chunk = pending[:size]
            del pending[:size]
            issued += 1
            if issued % workers == 0:
                size = min(size * 2, max_chunk)
            task = supervisor.submit(
                run_chunk, run, build, spec_blob, is_hit,
                [seen[i] for i in chunk], key=chunk[0],
                deadline_s=policy.deadline_for(len(chunk), deadline_hint),
                validate=partial(_valid_chunk, is_hit, len(chunk)))
            chunk_of[task] = chunk

    try:
        dispatch()
        while True:
            finished = supervisor.wait_any()
            if not finished:
                break
            for task in finished:
                supervisor.raise_if_failed(task)
                for index, result in zip(chunk_of[task], task.result):
                    resolve(index, result)
            if best is not None:
                for task in supervisor.active():
                    if chunk_of[task][0] > best:
                        task.cancel()
            elif max_seconds is not None \
                    and time.perf_counter() - start > max_seconds:
                # mirror the serial wall cutoff: start nothing new, drain
                # what is in flight (its accounting is kept)
                cutoff = True
            if not cutoff:
                dispatch()
    finally:
        for task in supervisor.active():
            task.cancel()

    upto = best + 1 if best is not None else 0
    while best is None and upto in results:
        upto += 1   # a cutoff may leave finished chunks past a hole
    return ResolvedPrefix(
        items=seen[:upto], results=[results[i] for i in range(upto)],
        winner=best, cutoff=cutoff and best is None,
        served=frozenset(i for i in served if i < upto))


def run_chunk(run, build, spec_blob, is_hit, chunk, fault=None):
    """Pool-worker entry of :func:`first_match`: run ``chunk`` in order.

    ``fault`` is a supervisor-injected
    :class:`~repro.exec.faults.FaultInstruction`, honored only inside
    pool workers — a quarantined re-run in the driver is fault-free.
    """
    maybe_inject(fault)
    context = _context(build, spec_blob)
    out = []
    for item in chunk:
        out.append(run(context, item))
        if is_hit(out[-1]):
            break
    return corrupt_or(fault, out)


@lru_cache(maxsize=4)
def _context(build, spec_blob):
    """``build(spec)``, kept across chunks (and a few interleaved scans);
    the spec is unpickled only on a miss."""
    return build(pickle.loads(spec_blob))


def _valid_chunk(is_hit, size, out):
    """One result per item, in order, ending early only at a hit."""
    return (isinstance(out, list) and 0 < len(out) <= size
            and not any(is_hit(result) for result in out[:-1])
            and (len(out) == size or is_hit(out[-1])))
