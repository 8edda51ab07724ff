#!/usr/bin/env python3
"""Steadiness check: runs each workload on several seeds and prints, per
metric, the median, the quartiles and the spread (third minus first
quartile, as a share of the median) next to the metric's bound.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--trace 0|1]

A spread above a third of the bound is marked '!', above the bound 'FAIL'.
Every run's result object is appended to .bench_out/steady.jsonl, and the
per-workload summary is written to .bench_out/steady-summary.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    spec = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    os.makedirs(".bench_out", exist_ok=True)
    log = open(".bench_out/steady.jsonl", "a")
    worst = 0.0
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        steal = []
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", args.trace],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            steal += [float(l.split(":")[1].split()[0]) for l in lines
                      if l.startswith("# host steal time")]
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  "result": result}) + "\n")
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.seeds} seeds, failed {failed} of "
              f"{attempted} operations, host steal per run (%): "
              + " ".join(f"{x:.1f}" for x in steal))
        summary[workload] = {"runs": args.seeds, "attempted": attempted,
                             "failed": failed, "metrics": {}}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            summary[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                mark = ("FAIL" if spread > bound else
                        "!" if spread > bound / 3 else "ok")
            print(f"  {name:34s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:8.4f}  "
                  f"bound {bound if bound is not None else '-'}  {mark}")
    print(f"worst spread / bound: {worst:.3f}")
    with open(".bench_out/steady-summary.json", "w") as f:
        json.dump(summary, f, indent=2)


if __name__ == "__main__":
    main()
