#!/usr/bin/env python3
"""Repeatability gate for the benchmark BENCHMARK.json declares.

Runs the declared command `--runs` times per workload, each time with
another `--seed`, and prints for every end-to-end metric the median and
the spread (distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, as a share of the median)
next to the metric's bound. With `--sets 2` it does so twice and also
checks that no metric's second median is worse than its first by more
than the bound. Exits non-zero when a run fails, a spread exceeds its
bound (except `setup_s`, whose spread is only reported), or a second
median regresses.

    python3 perf/repeat.py                 # from the repository root
    python3 perf/repeat.py --runs 10 --sets 2 --workload serve_mix
    python3 perf/repeat.py --binary /path/to/co_perf   # skip `cargo run`
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    took = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{' '.join(argv)}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--binary", help="run this co_perf binary instead of the declared command")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command = [args.binary] if args.binary else bench["command"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            runs, longest = [], 0.0
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                metrics, took = run_once(command, workload, seed, bench["run_seconds"], args.trace)
                runs.append(metrics)
                longest = max(longest, took)
            print(f"{workload} set {s + 1}: {args.runs} runs, longest {longest:.1f} s")
            medians.append({})
            for metric in declared:
                name, bound = metric["name"], metric.get("bound")
                values = [r[name] for r in runs]
                median = statistics.median(values)
                medians[-1][name] = median
                if bound is None or median == 0:
                    print(f"  {name:34} median {median:<14.6g}")
                    continue
                sp = spread(values)
                verdict = "ok" if sp <= bound / 3 else "wide" if sp <= bound else "OVER"
                if verdict == "OVER" and name != "setup_s":
                    ok = False
                print(f"  {name:18} median {median:<12.6g} spread {sp:7.2%}  bound {bound:4.0%}  {verdict}")
        if args.trace == 0 and len(medians) > 1:
            for metric in declared:
                name, bound = metric["name"], metric["bound"]
                first, second = medians[0][name], medians[-1][name]
                worse = (first - second if metric["better"] == "higher" else second - first) / abs(first)
                verdict = "ok" if worse <= bound else "REGRESSED"
                ok = ok and verdict == "ok"
                print(f"  {name:18} second median {worse:+7.2%} worse than first  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
