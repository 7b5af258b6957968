"""Shared-pool lifecycle: health checks, rebuilds, signal-safe shutdown."""

import os
import signal
import subprocess
import sys
import time

from repro.search import parallel as par


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _worker_procs(pool, spawn=2):
    # worker processes spawn lazily, one per submission
    for future in [pool.submit(os.getpid) for _ in range(spawn)]:
        future.result()
    return list(pool._processes.values())


def _all_dead(procs):
    # Process.is_alive() reaps exited children, so liveness converges
    return all(not proc.is_alive() for proc in procs)


def test_shared_pool_is_cached_while_healthy():
    pool = par.shared_pool(2)
    assert par.shared_pool_healthy()
    assert par.shared_pool(2) is pool
    assert par.shared_pool(1) is pool  # a smaller ask reuses the pool


def test_shared_pool_replaces_a_pool_with_dead_workers():
    pool = par.shared_pool(2)
    victim = _worker_procs(pool)[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert _wait_until(lambda: not par._pool_alive(pool))
    # the cached pool failed its liveness validation: a fresh one is
    # built instead of handing back the corpse
    fresh = par.shared_pool(2)
    assert fresh is not pool
    assert par.shared_pool_healthy()


def test_rebuild_shared_pool_replaces_even_a_healthy_pool():
    pool = par.shared_pool(2)
    old_procs = _worker_procs(pool)
    fresh = par.rebuild_shared_pool()
    assert fresh is not pool
    assert par.shared_pool_healthy()
    assert _wait_until(lambda: _all_dead(old_procs))


def test_shutdown_shared_pool_reaps_every_worker():
    pool = par.shared_pool(2)
    procs = _worker_procs(pool)
    par.shutdown_shared_pool(kill=True)
    assert par._pool is None
    assert not par.shared_pool_healthy()
    assert _wait_until(lambda: _all_dead(procs))
    par.shutdown_shared_pool(kill=True)  # idempotent on an empty state


_SIGTERM_SCRIPT = r"""
import os, signal
from repro.search.parallel import shared_pool

pool = shared_pool(2)
for fut in [pool.submit(os.getpid) for _ in range(2)]:
    fut.result()
pids = sorted(proc.pid for proc in pool._processes.values())
print("WORKERS %s" % ",".join(map(str, pids)), flush=True)
os.kill(os.getpid(), signal.SIGTERM)
os.kill(os.getpid(), signal.SIGTERM)  # unreachable: the chain re-raises
"""


def _foreign_pid_alive(pid):
    """Liveness of a pid that is not our child (no reaping possible)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_shuts_the_pool_down_without_orphans():
    repo_root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(repo_root), "src"))
    proc = subprocess.run([sys.executable, "-c", _SIGTERM_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    # the chained handler shuts the pool down, then re-delivers the
    # signal under SIG_DFL: death by SIGTERM, not a swallowed signal
    assert proc.returncode == -signal.SIGTERM, (proc.stdout, proc.stderr)
    lines = [line for line in proc.stdout.splitlines()
             if line.startswith("WORKERS ")]
    assert lines, proc.stdout
    pids = [int(pid) for pid in lines[0].split(" ", 1)[1].split(",")]
    assert pids
    assert _wait_until(
        lambda: all(not _foreign_pid_alive(pid) for pid in pids)), \
        "orphaned pool workers survived SIGTERM"


_FORKED_SIGTERM_SCRIPT = r"""
import os, signal
from repro.search import parallel

parallel.shared_pool(1)  # installs the chained SIGTERM handler
parallel.shutdown_shared_pool()


def touched(kill=False):
    os._exit(99)  # the inherited handler reached for the parent's pool


parallel.shutdown_shared_pool = touched
child = os.fork()
if child == 0:
    # a freshly forked process that no initializer has marked yet
    os.kill(os.getpid(), signal.SIGTERM)
    os._exit(0)
_, status = os.waitpid(child, 0)
print("CHILD %s" % (os.WTERMSIG(status) if os.WIFSIGNALED(status)
                    else "exit %d" % os.WEXITSTATUS(status)), flush=True)
"""


def test_forked_child_does_not_run_the_pool_shutdown_on_sigterm():
    repo_root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(repo_root), "src"))
    env.pop("REPRO_POOL_WORKER", None)
    proc = subprocess.run([sys.executable, "-c", _FORKED_SIGTERM_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    # only the installing process shuts the pool down; any other process
    # dies of the signal under the default disposition
    assert "CHILD %d" % signal.SIGTERM in proc.stdout, proc.stdout
