#!/usr/bin/env python3
"""Steadiness check of the fourindex benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--save FILE] [--compare FILE]
                                [--counts]

Run from the root of a checkout. Runs every workload (default: all in
BENCHMARK.json) once per seed, untraced, through perfbench/run.py and
prints, for each end-to-end metric, the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric
is steady when its spread is below a third of its bound in
BENCHMARK.json; setup_s is reported but not held to that.

--save FILE     writes the collected values as JSON.
--compare FILE  also checks each median against the one saved in FILE:
                it may be worse by at most the metric's bound.
--counts        instead runs each workload traced twice on one seed and
                checks that the exact counts (blas.gemm_calls,
                chem.integral_evals, ga.ops, ga.remote_bytes,
                runtime.phases) repeat, and sim_s across two untraced runs.

Exit status 1 when a check fails or a run fails or reports failures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_COUNTS = ["blas.gemm_calls", "chem.integral_evals", "ga.ops",
                "ga.remote_bytes", "runtime.phases"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed with status {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    if not old:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def check_counts(workloads, seed, seconds):
    ok = True
    for w in workloads:
        traced = [run(w, seed, seconds, 1) for _ in range(2)]
        plain = [run(w, seed, seconds, 0) for _ in range(2)]
        for name in EXACT_COUNTS:
            same = traced[0][name] == traced[1][name]
            ok &= same
            print(f"{w:18} {name:22} {traced[0][name]:>16.10g} "
                  f"{'repeats' if same else 'DIFFERS: %r' % traced[1][name]}")
        same = plain[0]["sim_s"] == plain[1]["sim_s"]
        ok &= same
        print(f"{w:18} {'sim_s':22} {plain[0]['sim_s']:>16.10g} "
              f"{'repeats' if same else 'DIFFERS: %r' % plain[1]['sim_s']}")
    return ok


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--save")
    p.add_argument("--compare")
    p.add_argument("--counts", action="store_true")
    args = p.parse_args()
    workloads = args.workloads.split(",")

    if args.counts:
        return 0 if check_counts(workloads, args.first_seed, args.seconds) else 1

    values = {}
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for name, v in run(w, seed, args.seconds, 0).items():
                values.setdefault(w, {}).setdefault(name, []).append(v)
            print(f"{w} seed {seed} done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    before = None
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)

    ok = True
    print(f"{'workload':18} {'metric':18} {'median':>12} {'spread':>8} "
          f"{'bound/3':>8}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            vals = values[w][m["name"]]
            s = spread(vals)
            if m["name"] == "setup_s":
                steady, verdict = True, "spread not gated"
            else:
                steady = s < m["bound"] / 3
                verdict = "steady" if steady else "SPREAD TOO WIDE"
            if before:
                drift = worse_by(m, statistics.median(vals),
                                 statistics.median(before[w][m["name"]]))
                steady &= drift <= m["bound"]
                verdict += f", {drift:+.3f} vs saved" + ("" if drift <= m["bound"] else " TOO WORSE")
            ok &= steady
            print(f"{w:18} {m['name']:18} {statistics.median(vals):>12.6g} "
                  f"{s:>8.4f} {m['bound'] / 3:>8.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
