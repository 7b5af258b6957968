"""Steadiness report: run one workload N times and judge the spread.

Run from the root of a source checkout::

    python3 bench_e2e/steady.py --workload synth-fleet --runs 10

Each run gets its own seed (``--seed0``, ``--seed0 + 1``, ...).  For
every end-to-end metric the report prints the median, the interquartile
range as a share of the median and the check against the metric's bound
in ``BENCHMARK.json`` (``setup_s`` is reported but not judged: its bound
limits how far a change may move its median).  On the closed-loop
workloads the exact counts must repeat to the last digit; any that does
not is flagged.  ``--trace-runs N`` adds a traced run right after each
of the first N untraced ones, on the same seed, and prints the median
of every per-layer metric and the tracing overhead: the median over
those pairs of traced minus untraced op-time p50.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import median, spread  # noqa: E402

EXACT = ("tries_per_repro", "steps_per_repro")
CLOSED = ("paper-cold", "synth-fleet")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run failed (%d): %s" % (proc.returncode,
                                                    proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    seeds = [args.seed0 + i for i in range(args.runs)]
    runs, traced = [], []
    for i, seed in enumerate(seeds):
        runs.append(run_once(args.workload, seed, seconds, 0))
        # traced right after untraced on the same seed, so the pair
        # shares the machine's speed of the moment
        if i < args.trace_runs:
            traced.append(run_once(args.workload, seed, seconds, 1))
    values = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
              for m in bench["end_to_end"]}
    bad = [seed for seed, r in zip(seeds, runs) if not r["correct"]]
    print("%s: %d runs, seeds %d..%d, %s s each; incorrect runs: %s"
          % (args.workload, len(runs), seeds[0], seeds[-1], seconds,
             bad or "none"))
    print("%-18s %14s %9s %7s  %s" % ("metric", "median", "IQR/med",
                                      "bound", "verdict"))
    verdicts = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        share = spread(values[name])
        if name == "setup_s":
            verdict = "not judged"
        elif share <= bound / 3:
            verdict = "ok"
        elif share <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO NOISY"
        if args.workload in CLOSED and name in EXACT \
                and len(set(values[name])) > 1:
            verdict += "; NOT EXACT"
        verdicts[name] = verdict
        print("%-18s %14.6g %9.4f %7.3f  %s %s"
              % (name, median(values[name]), share, bound, verdict,
                 metric["unit"]))
    summary = {"workload": args.workload, "seeds": seeds,
               "seconds": seconds, "values": values, "verdicts": verdicts}
    if traced:
        layers = {name: [r["metrics"][name]["value"] for r in traced]
                  for name in traced[0]["metrics"]}
        overhead = median([t - u for t, u in zip(
            layers["trace.op_s.p50"], values["repro_s.p50"])])
        print("tracing overhead: %+.6f s per op, median over %d seed pairs "
              "of traced minus untraced op-time p50 (untraced %.6f s); "
              "op time outside every layer span: %.6f s"
              % (overhead, len(traced), median(values["repro_s.p50"]),
                 median(layers["op.self_s"])))
        for name, vals in layers.items():
            print("  %-34s %14.6g  IQR/med %.4f" % (name, median(vals),
                                                   spread(vals)))
        summary.update(layers=layers, tracing_overhead_s=overhead)
    out = os.path.join(".bench_out", "steady-%s.json" % args.workload)
    os.makedirs(".bench_out", exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    noisy = [n for n, v in verdicts.items() if "TOO NOISY" in v
             or "NOT EXACT" in v]
    return 1 if noisy or bad else 0


if __name__ == "__main__":
    sys.exit(main())
