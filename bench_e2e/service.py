"""The ``triage-service`` workload: ``python -m repro serve`` under an
open-loop schedule of triage requests.

The server runs in a subprocess with ``nproc`` pool workers and a fresh
knowledge base and report store.  Its scenario registry holds the
service fleet (``REPRO_SYNTH_SEED``/``REPRO_SYNTH_PER_FAMILY``).  One
generator process drives it with two threads (a sender and a status
poller, so at most two connections — never more than ``nproc`` on the
2-CPU hosts this was tuned on).  The sender follows a fixed schedule
drawn from the seed, whatever the server's progress, mixing:

1. first occurrences of every fleet bug, evenly spaced.  They are
   submitted with ``kb_warmstart`` off: a warm start from another bug's
   near match depends on which jobs happened to finish first, so it
   would make the search work of a run depend on timing;
2. re-occurrences: the same bug under a new ``stress_seed_stop``, in as
   many rounds over the fleet as the run has room for, each a new job
   that the knowledge base warm-starts.  Each is released only once its
   first occurrence is done, so the exact KB layer is deterministic;
3. exact duplicates of a quarter of the first occurrences, which the
   service dedups before enqueue;
4. report-store facet queries, once a second.

A job's latency runs from its due time to the server's ``finished_at``,
so a stall also charges the requests it delays.
"""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.bugs.synth import FAMILIES, make_scenario
from repro.kb import KnowledgeBase
from repro.lang.lower import lower_program
from repro.pipeline.report import SCHEMA_VERSION
from repro.service import TERMINAL_STATES, ServiceClient, ServiceError

from metrics import lateness
from procs import CpuMeter, descendants, self_peak_rss_mb, wait_gone

#: the service fleet: the first two generator seeds of every family,
#: a subset of the closed-loop fleet (10 bugs)
FLEET_SEED = 1000
PER_FAMILY = 2
FIRST_GAP_S = 0.5
#: the server's default stress seed-sweep bound, used by first occurrences
SEED_STOP = 8000
#: re-occurrences follow the first occurrences in rounds, one per bug
#: per round; round k submits with ``stress_seed_stop`` SEED_STOP + k.
#: The gap exceeds a warm re-occurrence's run time, so they rarely queue
#: behind each other: with the pool's 0.25 s supervision heartbeat a
#: queued job waits a random part of a beat, and a schedule that queued
#: half its jobs made run medians disagree by 25-30%.
REOCCUR_GAP_S = 0.3
#: share of ``--seconds`` the schedule spans; the rest drains
SCHEDULE_SHARE = 0.8
DUP_LAG_S = 0.3
QUERY_EVERY_S = 1.0
#: first occurrences search cold (see the module docstring)
COLD_CONFIG = {"kb_warmstart": False}
#: the workload's latency limit on one triage request
SLO_S = 5.0
#: a request sent this late means the generator, not the service, was
#: the bottleneck, which invalidates the run's latencies
MAX_LATE_S = 1.0
DRAIN_TIMEOUT_S = 120.0


def fleet():
    return {scenario.name: scenario
            for scenario in (make_scenario(family, seed)
                             for seed in range(FLEET_SEED,
                                               FLEET_SEED + PER_FAMILY)
                             for family in FAMILIES)}


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``python -m repro serve`` subprocess with its own state dir."""

    def __init__(self, root, state_dir):
        self.state_dir = state_dir
        os.makedirs(os.path.join(state_dir, "tmp"), exist_ok=True)
        self.kb_path = os.path.join(state_dir, "kb.json")
        self.port = _free_port()
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"),
                   REPRO_SYNTH_SEED=str(FLEET_SEED),
                   REPRO_SYNTH_PER_FAMILY=str(PER_FAMILY),
                   TMPDIR=os.path.join(state_dir, "tmp"))
        self._log = open(os.path.join(state_dir, "server.log"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", str(self.port),
             "--workers", str(os.cpu_count() or 1),
             "--kb", self.kb_path,
             "--store", os.path.join(state_dir, "store"),
             "--spool", os.path.join(state_dir, "spool")],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT)
        self.client = ServiceClient("http://127.0.0.1:%d" % self.port,
                                    timeout_s=30.0)

    def wait_ready(self, timeout_s=60.0):
        """Seconds from spawn until ``/healthz`` answers."""
        deadline = self.started + timeout_s
        while True:
            try:
                self.client.health()
                return time.perf_counter() - self.started
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError("server exited with %s during start"
                                       % self.proc.returncode) from None
                if time.perf_counter() > deadline:
                    raise TimeoutError("server not ready in %.0fs"
                                       % timeout_s) from None
                time.sleep(0.005)

    def stop(self):
        """Interrupt the server and wait until it and its workers end."""
        pids = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15.0)
        wait_gone(pids, timeout_s=10.0)
        self._log.close()


def start_servers(root, out_dir, count):
    """Start ``count`` fresh servers in turn; returns (live, ready_s list).

    Every start is timed from spawn to ``/healthz``; all but the last
    server are stopped again, and the last one serves the run.
    """
    ready = []
    server = None
    for i in range(count):
        if server is not None:
            server.stop()
        server = Server(root, os.path.join(out_dir, "server-%d" % i))
        try:
            ready.append(server.wait_ready())
        except BaseException:
            server.stop()
            raise
    return server, ready


def schedule(names, seed, seconds):
    """The seed's request schedule as sorted ``(offset_s, kind, bug,
    stress_seed_stop)`` tuples; the stop is None but on re-occurrences."""
    rng = random.Random("bench-e2e/triage-service/%d" % seed)
    order = sorted(names)
    rng.shuffle(order)
    events = [(i * FIRST_GAP_S, "first", name, None)
              for i, name in enumerate(order)]
    for name in rng.sample(order, len(order) // 4):
        events.append((order.index(name) * FIRST_GAP_S + DUP_LAG_S, "dup",
                       name, None))
    start = len(order) * FIRST_GAP_S
    rounds = max(1, int((seconds * SCHEDULE_SHARE - start)
                        / (len(order) * REOCCUR_GAP_S)))
    slot = 0
    for k in range(1, rounds + 1):
        for name in rng.sample(order, len(order)):
            events.append((start + slot * REOCCUR_GAP_S, "reoccur", name,
                           SEED_STOP + k))
            slot += 1
    end = start + slot * REOCCUR_GAP_S
    for k in range(1, int(end / QUERY_EVERY_S) + 1):
        events.append((k * QUERY_EVERY_S, "query", rng.choice(order),
                       None))
    return sorted(events)


class _Poller(threading.Thread):
    """Tracks every job's state through ``GET /v1/jobs``."""

    def __init__(self, client):
        super().__init__(name="bench-e2e-poller", daemon=True)
        self.client = client
        self.states = {}
        self.error = None
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                jobs = self.client.jobs()
            except (OSError, ServiceError) as exc:
                self.error = exc
                return
            self.states = {doc["job_id"]: doc["state"] for doc in jobs}
            self._halt.wait(0.05)

    def done(self, job_id):
        return self.states.get(job_id) in TERMINAL_STATES

    def stop(self):
        self._halt.set()
        self.join(timeout=10.0)


def run(root, out_dir, seed, seconds, tracer, servers=5):
    """Start the service, drive the schedule, drain, check, stop."""
    bugs = fleet()
    server, ready = start_servers(root, out_dir, servers)
    try:
        return _drive(server, bugs, seed, seconds, tracer, ready)
    finally:
        server.stop()


def _drive(server, bugs, seed, seconds, tracer, ready):
    client = server.client
    events = schedule(bugs, seed, seconds)
    meter = CpuMeter(server.proc.pid)
    poller = _Poller(client)
    first, jobs, dups, queries, posts = {}, [], [], [], []
    errors = []
    blocked = []

    def send(kind, name, due, seed_stop):
        sent = time.time()
        if kind == "query":
            entries = client.reports(scenario=name)
            queries.append(time.time() - sent)
            if any(e.get("scenario") != name for e in entries):
                errors.append("store query for %s returned another bug"
                              % name)
            return
        if kind == "reoccur":
            doc = client.submit(name, stress_seed_stop=seed_stop)
        else:
            doc = client.submit(name, config=COLD_CONFIG)
        acked = time.time()
        posts.append(acked - sent)
        if kind == "dup":
            dups.append(doc)
            if not doc.get("deduped") or doc["job_id"] != first[name]:
                errors.append("duplicate of %s was not deduped" % name)
            return
        if doc.get("deduped"):
            errors.append("%s %s deduped unexpectedly" % (kind, name))
        if kind == "first":
            first[name] = doc["job_id"]
        jobs.append({"job_id": doc["job_id"], "bug": name, "kind": kind,
                     "due": due, "sent": sent, "acked": acked})

    meter.start()
    cpu0 = time.process_time()
    t0 = time.time()
    poller.start()
    try:
        pending = list(events)
        while pending or blocked:
            now = time.time()
            for name, seed_stop in list(blocked):
                if poller.done(first[name]):
                    blocked.remove((name, seed_stop))
                    send("reoccur", name, now, seed_stop)
            if pending and t0 + pending[0][0] <= now:
                offset, kind, name, seed_stop = pending.pop(0)
                if kind == "reoccur" and not poller.done(first[name]):
                    blocked.append((name, seed_stop))
                else:
                    send(kind, name, t0 + offset, seed_stop)
                continue
            if poller.error is not None:
                raise RuntimeError("status poller failed: %s" % poller.error)
            wait = t0 + pending[0][0] - time.time() if pending else 0.005
            time.sleep(min(max(wait, 0.0), 0.005))
        drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while not all(poller.done(job["job_id"]) for job in jobs):
            if poller.error is not None or time.monotonic() > drain_deadline:
                raise RuntimeError("jobs did not finish: %s"
                                   % (poller.error or "drain timeout"))
            time.sleep(0.02)
    finally:
        poller.stop()
    cpu = meter.stop() + time.process_time() - cpu0
    rss = max(meter.peak_rss_mb(), self_peak_rss_mb())

    records = []
    for job in jobs:
        status = client.job(job["job_id"])
        records.append(_record(client, bugs[job["bug"]], job, status,
                               tracer))
    late = lateness([j["due"] for j in jobs], [j["sent"] for j in jobs])
    if max(late, default=0.0) > MAX_LATE_S:
        errors.append("generator ran %.2fs late" % max(late))
    finished = [job_end for job_end in
                (r["finished_at"] for r in records) if job_end]
    return {
        "records": records,
        "wall": (max(finished) if finished else time.time()) - t0,
        "cpu": cpu, "rss": rss,
        "errors": errors,
        "ready": ready,
        "posts": posts,
        "queries": queries,
        "dups": len(dups),
        "submissions": len(jobs) + len(dups),
        "late": late,
        "kb_cases": len(KnowledgeBase(server.kb_path).cases()),
    }


def _record(client, scenario, job, status, tracer):
    """One job's figures and checks, in the closed loops' record format."""
    errors = []
    rec = {"bug": scenario.name, "kind": job["kind"], "errors": errors,
           "finished_at": status.get("finished_at")}
    if status["state"] != "done" or not status.get("finished_at"):
        errors.append("job %s ended %s" % (job["job_id"], status["state"]))
        rec["wall"] = None
        return rec
    rec["wall"] = status["finished_at"] - job["due"]
    rec["queue_s"] = status["started_at"] - status["created_at"]
    rec["run_s"] = status["finished_at"] - status["started_at"]
    rec["service_stages"] = {event["stage"]: event["wall_s"]
                             for event in status.get("stages", ())}
    doc = json.loads(client.report(job["job_id"]))
    errors.extend(_check_report(scenario, doc))
    timings = doc.get("timings", {})
    rec.update({
        "stress_runs": (doc.get("failing_seed") or 0) + 1,
        "index_len": doc.get("index_len", 0),
        "dump_bytes": doc.get("fail_dump_bytes", 0)
        + doc.get("aligned_dump_bytes", 0),
        "searches": {name.replace("+", "-"): {
            "tries": o["tries"], "total_steps": o["total_steps"],
            "executed": o["executed_steps"], "skipped": o["skipped_steps"],
            "memo_hits": o["memo_hits"], "s": o["wall_seconds"]}
            for name, o in doc.get("searches", {}).items()},
        "exec": {"retries": timings.get("exec_retries", 0),
                 "pool_rebuilds": timings.get("exec_pool_rebuilds", 0),
                 "degraded": timings.get("exec_degraded", 0)},
        "stages": {"stress": timings.get("stress_s", 0.0),
                   "analyze": timings.get("analyze_s", 0.0),
                   "diff": timings.get("diff_s", 0.0)},
    })
    if tracer.enabled:
        _job_spans(tracer, job, status)
    return rec


def _check_report(scenario, doc):
    errors = []
    if doc.get("schema") != SCHEMA_VERSION:
        errors.append("report schema %r" % (doc.get("schema"),))
    failure = doc.get("failure") or {}
    if failure.get("kind") != scenario.expected_fault:
        errors.append("fault %s, expected %s"
                      % (failure.get("kind"), scenario.expected_fault))
    compiled = lower_program(scenario.build())
    if failure.get("pc") is None or \
            compiled.func_of(failure["pc"]) != scenario.crash_func:
        errors.append("crash function differs from %s"
                      % scenario.crash_func)
    identity = (failure.get("kind"), failure.get("pc"), failure.get("cycle"))
    searches = doc.get("searches", {})
    if len(searches) != 3:
        errors.append("%d searches in report" % len(searches))
    for name, outcome in searches.items():
        got = outcome.get("failure") or {}
        if not outcome.get("reproduced"):
            errors.append("%s did not reproduce" % name)
        elif failure.get("cycle") is not None and \
                got.get("cycle") != failure["cycle"]:
            errors.append("%s reproduced another hang cycle" % name)
        elif failure.get("cycle") is None and \
                (got.get("kind"), got.get("pc"), got.get("cycle")) \
                != identity:
            errors.append("%s reproduced another failure" % name)
    return errors


def _job_spans(tracer, job, status):
    """Spans of one job from generator and server timestamps."""
    op = job["job_id"]
    root = tracer.add("op", op, job["due"], status["finished_at"])
    tracer.add("gen.wait", op, job["due"], job["sent"], root.id)
    tracer.add("service.submit", op, job["sent"], job["acked"], root.id)
    tracer.add("service.queue", op, status["created_at"],
               status["started_at"], root.id)
    run = tracer.add("service.run", op, status["started_at"],
                     status["finished_at"], root.id)
    for event in status.get("stages", ()):
        tracer.add("service.stage." + event["stage"], op,
                   event["at"] - event["wall_s"], event["at"], run.id)
