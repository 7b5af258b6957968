"""The process-wide shared worker pool and its lifecycle.

Search chunks, stress sweeps, scenario batches and service jobs all
submit through a :class:`~repro.exec.supervisor.Supervisor` onto this
one pool, so they draw from a single worker budget; inside a worker
(:func:`in_worker`) callers stay serial instead of nesting pools.
"""

import atexit
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

_IN_WORKER_ENV = "REPRO_POOL_WORKER"

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def default_worker_budget():
    """Workers the machine affords this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def in_worker():
    """True inside a shared-pool worker process.

    Used to flatten nested parallelism: a batch worker running a full
    session keeps its plan-level search serial, so scenario- and
    plan-level parallelism draw from the one pool instead of
    oversubscribing.
    """
    return os.environ.get(_IN_WORKER_ENV) == "1"


def _worker_init():
    # imported here: faults asks this module whether it runs in a worker
    from .faults import raise_if_init_fault_armed

    os.environ[_IN_WORKER_ENV] = "1"
    raise_if_init_fault_armed()


def _pool_alive(pool):
    """Whether a pool can still be trusted with new submissions."""
    if pool is None:
        return False
    if getattr(pool, "_broken", False):
        return False
    if getattr(pool, "_shutdown_thread", False):
        return False
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            if not proc.is_alive():
                return False
    return True


def shared_pool_healthy():
    """Whether the cached shared pool (if any) is alive and submittable."""
    return _pool_alive(_pool)


def _kill_pool_workers(pool):
    """Kill a pool's worker processes (hung workers included).

    SIGKILL, not SIGTERM: a worker that has not yet run since its fork
    loses a SIGTERM — the interpreter clears pending signal flags in a
    fresh child — and then blocks forever on the call queue.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            if proc.is_alive():
                proc.kill()
        except Exception:  # pragma: no cover - racing process teardown
            pass


def _retire_pool(pool, kill=False):
    """Let go of a pool: gracefully on grow, forcibly on failure."""
    if pool is None:
        return
    if kill:
        _kill_pool_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
    else:
        # a healthy-but-small pool finishes its in-flight work
        pool.shutdown(wait=False)


def shared_pool(workers):
    """The process-wide persistent worker pool, grown on demand.

    The pool is created lazily and only ever grows (an old, smaller pool
    is retired without cancelling its in-flight work).  Callers bound
    their own concurrency by how much they submit; the pool size caps
    what actually runs at once.  A cached pool is validated before
    reuse — broken (``BrokenProcessPool``), shut down, or holding dead
    worker processes (OOM kill, segfault) all mean it is killed and
    replaced, so one broken batch never poisons parallelism for the rest
    of the process.
    """
    global _pool, _pool_workers
    workers = max(1, workers)
    alive = _pool_alive(_pool)
    if _pool is None or not alive or _pool_workers < workers:
        old = _pool
        _pool_workers = max(workers, _pool_workers)
        _pool = ProcessPoolExecutor(max_workers=_pool_workers,
                                    initializer=_worker_init)
        _install_signal_shutdown()
        if old is not None:
            _retire_pool(old, kill=not alive)
    return _pool


def rebuild_shared_pool(workers=None):
    """Force-replace the shared pool, terminating its workers.

    The supervisor's recovery primitive: after a worker kill, a blown
    deadline (the only way to reclaim a slot from a wedged worker), or a
    poisoned initializer, the old executor cannot be trusted — its
    workers are terminated outright and a fresh pool takes over.
    """
    global _pool, _pool_workers
    workers = max(1, workers or _pool_workers or default_worker_budget())
    old = _pool
    _pool = None
    _pool_workers = 0
    _retire_pool(old, kill=True)
    return shared_pool(workers)


def shutdown_shared_pool(kill=False):
    """Tear the shared pool down (tests, signals, interpreter exit)."""
    global _pool, _pool_workers
    pool = _pool
    _pool = None
    _pool_workers = 0
    if pool is not None:
        if kill:
            _kill_pool_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)


_signal_shutdown_installed = False


def _install_signal_shutdown():
    """Make SIGTERM/SIGINT reap pool workers before their usual effect.

    A cancelled CI job (SIGTERM) or an interactive Ctrl-C must not leak
    orphan interpreter processes.  Handlers chain to whatever was
    installed before, so default semantics (process death, and
    ``KeyboardInterrupt`` for SIGINT) are preserved.  Installed lazily at
    first pool creation, main thread only.
    """
    global _signal_shutdown_installed
    if _signal_shutdown_installed or in_worker():
        return
    if threading.current_thread() is not threading.main_thread():
        return

    installer = os.getpid()

    def _chained(previous):
        def handler(signum, frame):
            # forked pool workers inherit this handler, possibly before
            # their initializer runs; outside the installing process the
            # copied executor state must not be touched (shutting "its"
            # pool down blocks the worker instead of letting it die) —
            # restore the default disposition and re-deliver
            if os.getpid() == installer:
                shutdown_shared_pool(kill=True)
                if callable(previous):
                    previous(signum, frame)
                    return
                if previous == signal.SIG_IGN:
                    return
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        return handler

    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _chained(signal.getsignal(signum)))
    except (ValueError, OSError):  # pragma: no cover - exotic embeddings
        return
    _signal_shutdown_installed = True


atexit.register(shutdown_shared_pool)
