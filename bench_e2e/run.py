"""End-to-end reproduction benchmark.

Run from the root of a source checkout::

    python3 bench_e2e/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``paper-cold`` and ``synth-fleet`` (closed loops, in this process) and
``triage-service`` (``python -m repro serve`` in a subprocess under an
open-loop schedule).

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it records spans around every call into the
program and reports per-layer metrics and self times instead.  Every
op's output is checked.  Metrics are printed one per line by name and
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
stamped with the environment, is written under ``.bench_out/``.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from metrics import TAIL_BEYOND, check_name, p50, quantile, tail_percentile
from spans import NullTracer, Tracer, layer_self_times, self_times

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("paper-cold", "synth-fleet", "triage-service")
CLOSED = ("paper-cold", "synth-fleet")

#: end-to-end metrics (reported with ``--trace 0``) -> unit
END_TO_END = {
    "repro_s.p50": "s",
    "repro_s.tail": "s",
    "repros_per_s": "1/s",
    "cpu_s_per_repro": "s",
    "tries_per_repro": "count",
    "steps_per_repro": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SLUGS = ("chess", "chessX-dep", "chessX-temporal")

#: per-layer metrics (reported with ``--trace 1``) -> unit
PER_LAYER = {
    "lang.build_s": "s",
    "stress.s": "s",
    "stress.runs": "count",
    "stress.runs_per_s": "1/s",
    "analyze.s": "s",
    "analyze.index_len": "count",
    "diff.s": "s",
    "diff.dump_bytes": "bytes",
    "search.s": "s",
    "search.steps_per_s": "1/s",
    "search.replay_skip_share": "ratio",
    "search.memo_hits": "count",
    **{"search.%s.%s" % (slug, what): unit for slug in SLUGS
       for what, unit in (("s", "s"), ("tries", "count"))},
    "report.s": "s",
    "exec.retries": "count",
    "exec.pool_rebuilds": "count",
    "exec.degraded": "count",
    "kb.reoccur_tries": "count",
    "kb.cases": "count",
    "service.submit_s.p50": "s",
    "service.queue_s.p50": "s",
    "service.run_s.p50": "s",
    **{"service.stage.%s.s" % stage: "s"
       for stage in ("stress", "analyze", "diff", "search", "kb")},
    "service.dedup_share": "ratio",
    "store.query_s.p50": "s",
    "setup.import_s": "s",
    "setup.server_ready_s": "s",
    "gen.late_s.max": "s",
    "op.self_s": "s",
    "trace.op_s.p50": "s",
    "failed_share": "ratio",
    "slo_miss_share": "ratio",
}

#: fresh-interpreter starts per run; set-up time is their median
SETUP_STARTS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: no src/repro under %s; run from the root of a "
              "source checkout" % root, file=sys.stderr)
        return 2
    # bytecode is compiled once, before any timed set-up
    if not compileall.compile_dir(src, quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".bench_out", args.workload)
    # temporary files of this process and its children stay in the checkout
    os.environ["TMPDIR"] = os.path.join(root, ".bench_out", "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "seed%d-trace%d" % (args.seed, args.trace))

    for name in list(END_TO_END) + list(PER_LAYER):
        check_name(name)
    tracer = Tracer() if args.trace else NullTracer()
    import_s, setup_s = fresh_imports(root, SETUP_STARTS)
    setup = {"setup.import_s": statistics.median(import_s),
             "setup.server_ready_s": 0.0}
    if args.workload in CLOSED:
        import closed

        result = closed.run(args.workload, args.seed, args.seconds, tracer)
        result["errors"] = []
        stage_s = span_stage_seconds(tracer.spans)
    else:
        import service

        state_dir = stem + "-state"
        shutil.rmtree(state_dir, ignore_errors=True)
        result = service.run(root, state_dir, args.seed, args.seconds,
                             tracer, servers=SETUP_STARTS)
        setup_s = result["ready"]
        setup["setup.server_ready_s"] = statistics.median(setup_s)
        stage_s = record_stage_seconds(result["records"])
    result["setup_samples"] = setup_s

    records = result["records"]
    failed = sum(1 for r in records if r["errors"]) + len(result["errors"])
    attempted = len(records) + result.get("dups", 0) \
        + len(result.get("queries", ()))
    e2e, stamp = end_to_end(result, statistics.median(setup_s))
    if args.trace:
        reported = per_layer(result, tracer, stage_s, setup, failed,
                             attempted)
        units = PER_LAYER
        tracer.write(stem + "-spans.jsonl")
    else:
        reported, units = e2e, END_TO_END
    stamp.update(environment(root, args), ops=len(records),
                 passes=result.get("passes"))
    errors = [e for r in records for e in r["errors"]] + result["errors"]
    doc = {"stamp": stamp, "metrics": reported, "end_to_end": e2e,
           "errors": errors[:50], "setup_samples": setup_s}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)

    print_report(args, reported, units, stamp, errors, tracer)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def fresh_imports(root, count):
    """Time ``count`` fresh interpreters from spawn to a ready registry.

    Returns ``(import_s, ready_s)``: the import time each interpreter
    measured itself, and the spawn-to-ready wall seen from here.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    import_s, ready_s = [], []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable,
                                 os.path.join(HERE, "ready.py")],
                                cwd=root, env=env, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline().decode()
            ready_s.append(time.perf_counter() - start)
            proc.stdout.close()
        finally:
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError("fresh interpreter failed: %r" % line)
        import_s.append(float(line.split()[1]))
    return import_s, ready_s


def span_stage_seconds(spans):
    """Total seconds per span name of the closed-loop op spans."""
    totals = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def record_stage_seconds(records):
    """Stage seconds of service jobs, read from their reports."""
    totals = {}
    for rec in records:
        for stage, seconds in rec.get("stages", {}).items():
            totals[stage] = totals.get(stage, 0.0) + seconds
        for slug, search in rec.get("searches", {}).items():
            key = "search." + slug
            totals[key] = totals.get(key, 0.0) + search["s"]
    return totals


def _tries(rec):
    return sum(s["tries"] for s in rec.get("searches", {}).values())


def _executed(rec):
    return sum(s["executed"] for s in rec.get("searches", {}).values())


def end_to_end(result, setup_s):
    """The end-to-end metrics and the sample counts behind them.

    ``repro_s.p50`` and ``repro_s.tail`` are Harrell-Davis estimates;
    the tail is taken at the highest percentile with ten samples beyond.
    """
    records = result["records"]
    walls = [r["wall"] for r in records if r["wall"] is not None]
    ok = [r for r in records if not r["errors"]]
    tail_p = tail_percentile(len(walls))
    if tail_p is None:
        raise RuntimeError("%d timed ops: too few for a tail" % len(walls))
    n = max(1, len(records))
    metrics = {
        "repro_s.p50": quantile(walls, 0.5),
        "repro_s.tail": quantile(walls, tail_p),
        "repros_per_s": len(ok) / result["wall"],
        "cpu_s_per_repro": result["cpu"] / n,
        "tries_per_repro": sum(_tries(r) for r in records) / n,
        "steps_per_repro": sum(_executed(r) for r in records) / n,
        "peak_rss_mb": result["rss"],
        "setup_s": setup_s,
    }
    stamp = {"samples": {"repro_s.p50": len(walls),
                         "repro_s.tail": {"percentile": 100 * tail_p,
                                          "samples": len(walls),
                                          "beyond": TAIL_BEYOND},
                         "setup_s": len(result["setup_samples"])},
             "timed_wall_s": result["wall"],
             "op_walls": walls}
    return metrics, stamp


def per_layer(result, tracer, stage_s, setup, failed, attempted):
    """Per-layer metrics: per reproduction unless named a percentile."""
    records = [r for r in result["records"] if "searches" in r]
    n = max(1, len(records))
    searches = [s for r in records for s in r["searches"].values()]
    executed = sum(s["executed"] for s in searches)
    skipped = sum(s["skipped"] for s in searches)
    search_s = sum(stage_s.get("search." + slug, 0.0) for slug in SLUGS)
    stress_runs = sum(r["stress_runs"] for r in records)
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(setup)
    out.update({
        "lang.build_s": stage_s.get("lang.build", 0.0) / n,
        "stress.s": stage_s.get("stress", 0.0) / n,
        "stress.runs": stress_runs / n,
        "stress.runs_per_s": stress_runs / max(stage_s.get("stress", 0.0),
                                               1e-9),
        "analyze.s": stage_s.get("analyze", 0.0) / n,
        "analyze.index_len": sum(r["index_len"] for r in records) / n,
        "diff.s": stage_s.get("diff", 0.0) / n,
        "diff.dump_bytes": sum(r["dump_bytes"] for r in records) / n,
        "search.s": search_s / n,
        "search.steps_per_s": executed / max(search_s, 1e-9),
        "search.replay_skip_share": skipped / max(1, executed + skipped),
        "search.memo_hits": sum(s["memo_hits"] for s in searches) / n,
        "report.s": stage_s.get("report", 0.0) / n,
        "failed_share": failed / max(1, attempted),
    })
    for slug in SLUGS:
        out["search.%s.s" % slug] = stage_s.get("search." + slug, 0.0) / n
        out["search.%s.tries" % slug] = sum(
            r["searches"][slug]["tries"] for r in records
            if slug in r["searches"]) / n
    for key in ("retries", "pool_rebuilds", "degraded"):
        out["exec." + key] = sum(r["exec"][key] for r in records)
    walls = [r["wall"] for r in result["records"] if r["wall"] is not None]
    out["trace.op_s.p50"] = p50(walls)
    own = self_times(tracer.spans)
    op_self = [own[s.id] for s in tracer.spans if s.name == "op"]
    out["op.self_s"] = sum(op_self) / max(1, len(op_self))
    if "queries" in result:
        out.update(service_layers(result, records))
    return out


def service_layers(result, records):
    from service import SLO_S

    jobs = result["records"]
    reoccur = [r for r in records if r["kind"] == "reoccur"]
    out = {
        "kb.reoccur_tries": sum(_tries(r) for r in reoccur)
        / max(1, len(reoccur)),
        "kb.cases": result["kb_cases"],
        "service.submit_s.p50": p50(result["posts"]),
        "service.queue_s.p50": p50([r["queue_s"] for r in records]),
        "service.run_s.p50": p50([r["run_s"] for r in records]),
        "service.dedup_share": result["dups"] / max(1,
                                                    result["submissions"]),
        "store.query_s.p50": p50(result["queries"]),
        "gen.late_s.max": max(result["late"], default=0.0),
        "slo_miss_share": sum(1 for r in jobs
                              if r["errors"] or r["wall"] > SLO_S)
        / max(1, len(jobs)),
    }
    for stage in ("stress", "analyze", "diff", "search", "kb"):
        out["service.stage.%s.s" % stage] = sum(
            r["service_stages"].get(stage, 0.0) for r in records) \
            / max(1, len(records))
    return out


def source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(root, args):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "source_sha256": source_digest(root),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def print_report(args, reported, units, stamp, errors, tracer):
    passes = "" if stamp["passes"] is None else \
        ", %d passes" % stamp["passes"]
    print("workload %s seed %d (%s ops%s, nproc %s, python %s)"
          % (args.workload, args.seed, stamp["ops"], passes,
             stamp["nproc"], stamp["python"]))
    tail = stamp["samples"]["repro_s.tail"]
    print("tail = p%.1f of %d samples (10 beyond)"
          % (tail["percentile"], tail["samples"]))
    for name, unit in units.items():
        print("  %-34s %14.6g %s" % (name, reported[name], unit))
    if tracer.enabled:
        ops = max(1, sum(1 for s in tracer.spans if s.name == "op"))
        op_wall = sum(s.duration for s in tracer.spans if s.name == "op")
        print("op wall %.4f s; the layer spans cover all but %.4f s of it"
              % (op_wall, reported["op.self_s"] * ops))
        print("self time by span (total s, count, per op s):")
        for name, (total, count) in sorted(
                layer_self_times(tracer.spans).items()):
            print("  %-34s %10.4f %6d %10.6f" % (name, total, count,
                                                total / ops))
    for error in errors[:20]:
        print("CHECK FAILED: %s" % error)


if __name__ == "__main__":
    sys.exit(main())
