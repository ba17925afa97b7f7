#!/usr/bin/env python3
"""Steadiness report for the controller benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds S]
        [--first-seed 1] [--workloads steady_mux,cold_grid,failover]
        [--out .bench_build/steadiness.jsonl]

Runs `--sets` sets of `--runs` runs of every workload, one seed per run
(seeds first-seed .. first-seed+runs-1, the same seeds in every set), one
run at a time. For every workload x end-to-end metric it prints each set's
median and quartiles, the spread (Q3 - Q1) / median against the metric's
bound from BENCHMARK.json, and how far the last set's median moved from the
first set's in the metric's worse direction. It also checks what must not
move at all: every run correct with no failed op, and availability and
mean_stretch identical for the same seed in every set. Exits 1 when a check
fails or a spread (setup_s excepted) or median shift exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("availability", "mean_stretch")


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    results = {}  # (set, workload, seed) -> result
    problems = []
    out = open(os.path.join(ROOT, args.out), "w") if args.out else None
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                r = run_once(bench["command"], w, seed, args.seconds)
                if r is None:
                    problems.append(f"{w} seed {seed} set {s}: run failed")
                    continue
                if not r["correct"] or r["failed"]:
                    problems.append(f"{w} seed {seed} set {s}: correct="
                                    f"{r['correct']} failed={r['failed']}")
                results[(s, w, seed)] = r
                if out:
                    out.write(json.dumps({"set": s, "workload": w,
                                          "seed": seed, "result": r}) + "\n")
                    out.flush()
                print(f"set {s} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                    file=sys.stderr)

    print(f"{'workload':<11} {'metric':<13} "
          + " ".join(f"{'set' + str(s) + ' med [q1, q3]':>30}"
                     for s in range(args.sets))
          + f" {'spread':>7} {'bound':>6} {'shift':>7}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, spreads, medians = [], [], []
            for s in range(args.sets):
                vals = [results[(s, w, seed)]["metrics"][name]["value"]
                        for seed in seeds if (s, w, seed) in results]
                if len(vals) < 2:
                    cols.append(f"{'n/a':>30}")
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                spreads.append((q3 - q1) / med if med else float("inf"))
                cols.append(f"{med:>11.5g} [{q1:>8.5g}, {q3:>8.5g}]")
            if not medians:
                continue
            worst = max(spreads)
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (medians[-1] - medians[0]) / medians[0]
            flag = ""
            if name != "setup_s" and worst > bound:
                flag += " SPREAD>BOUND"
                problems.append(f"{w} {name}: spread {worst:.3f} > {bound}")
            elif name != "setup_s" and worst > bound / 3:
                flag += " spread>bound/3"
            if shift > bound:
                flag += " SHIFT>BOUND"
                problems.append(f"{w} {name}: shift {shift:.3f} > {bound}")
            print(f"{w:<11} {name:<13} " + " ".join(cols)
                  + f" {worst:>7.3f} {bound:>6.2f} {shift:>+7.3f}{flag}")

    for w in workloads:
        for seed in seeds:
            for name in DETERMINISTIC:
                vals = {results[(s, w, seed)]["metrics"][name]["value"]
                        for s in range(args.sets) if (s, w, seed) in results}
                if len(vals) > 1:
                    problems.append(f"{w} seed {seed}: {name} differs across "
                                    f"sets: {sorted(vals)}")
    for p in problems:
        print("FAIL: " + p)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
