"""Supervisor recovery ladder against the real shared pool.

Helper task bodies live at module level so they pickle across the pool
boundary; ``in_worker()`` lets one body behave differently in a pool
worker than in the driver's quarantine re-run.
"""

import time

import pytest

from repro.exec.faults import FaultPlan, corrupt_or, maybe_inject
from repro.exec.supervisor import (
    ExecStats,
    ExecutionDegraded,
    SupervisionPolicy,
    Supervisor,
    policy_from_config,
    record_degradation,
)
from repro.exec.pool import in_worker

#: fast-converging knobs for pool tests (the defaults favor patience)
_FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05, heartbeat_s=0.05)


def _echo(value, fault=None):
    maybe_inject(fault)
    return corrupt_or(fault, ("ok", value))


def _fail_in_worker(value):
    if in_worker():
        raise RuntimeError("worker-side failure")
    return ("ok", value)


def _always_fail(value):
    raise RuntimeError("fails everywhere")


def _bad_result(value):
    return "structurally-wrong"


def _sleep_echo(seconds):
    time.sleep(seconds)
    return ("ok", seconds)


def _drain(supervisor):
    finished = []
    while True:
        batch = supervisor.wait_any()
        if not batch:
            return finished
        finished.extend(batch)


# -- pure policy / stats machinery ------------------------------------------

def test_deadline_for_prefers_explicit_over_hint():
    policy = SupervisionPolicy(deadline_s=2.0)
    assert policy.deadline_for(units=3) == 6.0
    assert policy.deadline_for(units=3, step_hint=10 ** 9) == 6.0


def test_deadline_for_derives_from_step_hints():
    policy = SupervisionPolicy()
    assert policy.deadline_for(units=4) is None  # no hint: wait forever
    # 4 units * 100k steps * 1ms/step = 400s, within the clamp window
    assert policy.deadline_for(units=4, step_hint=100_000) == 400.0
    assert policy.deadline_for(units=1, step_hint=1) == 10.0       # floor
    assert policy.deadline_for(units=50, step_hint=10 ** 6) == 600.0  # cap


def test_policy_from_config_maps_the_knobs():
    from repro.pipeline import ReproductionConfig

    config = ReproductionConfig(shard_deadline_s=1.5, max_shard_retries=5,
                                backoff_base_s=0.2,
                                fault_plan="seed=9;kinds=corrupt")
    stats = ExecStats()
    policy = policy_from_config(config, stats=stats)
    assert policy.deadline_s == 1.5
    assert policy.max_retries == 5
    assert policy.backoff_base_s == 0.2
    assert policy.fault_plan == FaultPlan(seed=9, kinds=("corrupt",))
    assert policy.stats is stats


def test_exec_stats_doc_round_trip_and_merge():
    stats = ExecStats(retries=2, pool_rebuilds=1)
    record_degradation(stats, "search", "task-failed", "shard 3")
    doc = stats.to_doc()
    folded = ExecStats().merge_doc(doc).merge_doc(doc)
    assert folded.retries == 4
    assert folded.pool_rebuilds == 2
    assert folded.degraded == 2
    assert len(folded.notes) == 2
    assert folded.notes[0] == {"stage": "search", "reason": "task-failed",
                               "detail": "shard 3"}
    assert stats.any_recovery()
    assert not ExecStats(faults_injected=5).any_recovery()
    record_degradation(None, "search", "ignored")  # None stats: no-op


# -- the recovery ladder on the real pool -----------------------------------

def test_clean_task_completes_without_recovery():
    supervisor = Supervisor(2, SupervisionPolicy(**_FAST), stage="t-clean")
    task = supervisor.submit(_echo, 41, key=41)
    finished = _drain(supervisor)
    assert finished == [task]
    assert task.done and task.result == ("ok", 41)
    assert not supervisor.stats.any_recovery()


def test_worker_exception_retries_then_quarantines_in_process():
    supervisor = Supervisor(2, SupervisionPolicy(max_retries=2, **_FAST),
                            stage="t-raise")
    task = supervisor.submit(_fail_in_worker, 7, key=7)
    _drain(supervisor)
    # every pool attempt raised; the in-process re-run sees
    # in_worker() False and succeeds
    assert task.done and task.result == ("ok", 7)
    assert supervisor.stats.retries == 2
    assert supervisor.stats.quarantined == 1


def test_invalid_results_are_retried_then_served_by_serial_fn():
    supervisor = Supervisor(2, SupervisionPolicy(max_retries=1, **_FAST),
                            stage="t-valid")
    task = supervisor.submit(
        _bad_result, 1, key=1,
        validate=lambda result: result != "structurally-wrong",
        serial_fn=lambda: "good")
    _drain(supervisor)
    assert task.done and task.result == "good"
    assert supervisor.stats.retries == 1
    assert supervisor.stats.quarantined == 1


def test_terminal_failure_escalates_to_execution_degraded():
    supervisor = Supervisor(2, SupervisionPolicy(max_retries=0, **_FAST),
                            stage="t-fail")
    task = supervisor.submit(_always_fail, 1, key=1)
    _drain(supervisor)
    assert task.failed
    with pytest.raises(ExecutionDegraded) as excinfo:
        supervisor.raise_if_failed(task)
    assert excinfo.value.stage == "t-fail"
    assert excinfo.value.key == 1
    assert "RuntimeError" in excinfo.value.detail
    assert supervisor.stats.quarantined == 1


def test_pool_rebuilds_after_injected_worker_kill():
    plan = FaultPlan(seed=0, kinds=("kill",), rate=1.0)
    supervisor = Supervisor(2, SupervisionPolicy(fault_plan=plan, **_FAST),
                            stage="t-kill")
    task = supervisor.submit(_echo, 5, key=5)
    _drain(supervisor)
    # the faulted first attempt os._exit()s its worker, breaking the
    # pool; the supervisor must rebuild it and the retry must succeed
    assert task.done and task.result == ("ok", 5)
    assert supervisor.stats.faults_injected == 1
    assert supervisor.stats.pool_rebuilds >= 1
    assert supervisor.stats.retries >= 1
    from repro.exec.pool import shared_pool_healthy
    assert shared_pool_healthy()


def test_hung_worker_is_reclaimed_by_a_tiny_deadline():
    plan = FaultPlan(seed=0, kinds=("hang",), rate=1.0, hang_s=30.0)
    supervisor = Supervisor(2, SupervisionPolicy(fault_plan=plan, **_FAST),
                            stage="t-hang")
    start = time.monotonic()
    task = supervisor.submit(_echo, 3, key=3, deadline_s=0.3)
    _drain(supervisor)
    elapsed = time.monotonic() - start
    # far less than the 30s injected sleep: the deadline watchdog must
    # have terminated the wedged worker instead of waiting it out
    assert elapsed < 15.0
    assert task.done and task.result == ("ok", 3)
    assert supervisor.stats.deadline_expiries >= 1
    assert supervisor.stats.pool_rebuilds >= 1
    assert supervisor.stats.retries >= 1


def test_initializer_fault_breaks_the_pool_then_recovers():
    plan = FaultPlan(seed=0, kinds=("init",), rate=1.0)
    supervisor = Supervisor(2, SupervisionPolicy(fault_plan=plan, **_FAST),
                            stage="t-init")
    task = supervisor.submit(_echo, 9, key=9)
    _drain(supervisor)
    assert task.done and task.result == ("ok", 9)
    assert supervisor.stats.faults_injected == 1
    # one poisoned rebuild + at least one clean rebuild to recover
    assert supervisor.stats.pool_rebuilds >= 2
    import os
    assert os.environ.get("REPRO_FAULT_INIT") is None  # disarmed again


def test_cancelled_tasks_are_never_surfaced():
    supervisor = Supervisor(2, SupervisionPolicy(**_FAST), stage="t-cancel")
    keep = supervisor.submit(_echo, 1, key=1)
    drop = supervisor.submit(_echo, 2, key=2)
    drop.cancel()
    finished = _drain(supervisor)
    assert keep in finished
    assert drop not in finished
    assert drop.state == "cancelled"
    # cancelling twice (or after terminal) stays a no-op
    drop.cancel()
    keep.cancel()
    assert keep.done


def test_a_finished_task_is_collected_without_waiting_for_its_sibling():
    """``wait_any`` returns a short task as soon as it finishes, not
    after the slowest running sibling or a whole heartbeat."""
    supervisor = Supervisor(2, SupervisionPolicy(), stage="t-first")
    # warm both workers so the timing below excludes worker start-up
    warm = [supervisor.submit(_sleep_echo, 0.05, key=k) for k in (0, 1)]
    _drain(supervisor)
    assert all(task.done for task in warm)
    slow = supervisor.submit(_sleep_echo, 2.0, key=2)
    fast = supervisor.submit(_sleep_echo, 0.01, key=3)
    started = time.monotonic()
    finished = supervisor.wait_any()
    elapsed = time.monotonic() - started
    assert finished == [fast] and fast.result == ("ok", 0.01)
    assert elapsed < 0.1, elapsed
    assert _drain(supervisor) == [slow] and slow.done


def test_many_tasks_one_faulted_key_only_disturbs_that_key():
    plan = FaultPlan(seed=0, kinds=("corrupt",), at=(("t-at", "2"),))
    supervisor = Supervisor(2, SupervisionPolicy(fault_plan=plan, **_FAST),
                            stage="t-at")
    blob_free = lambda result: isinstance(result, tuple)  # noqa: E731
    tasks = [supervisor.submit(_echo, n, key=n, validate=blob_free)
             for n in range(4)]
    _drain(supervisor)
    assert [t.result for t in tasks] == [("ok", n) for n in range(4)]
    assert supervisor.stats.faults_injected == 1
    assert supervisor.stats.retries == 1
