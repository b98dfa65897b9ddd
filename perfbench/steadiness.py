#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs every workload with several
seeds, then reports for each end-to-end metric the median, the quartiles and
the spread (third minus first quartile, as a share of the median), next to
the metric's bound from BENCHMARK.json.

Run it from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --label set-a

It writes perfbench/steadiness/<label>.json with every run's values and host
stamp, and prints a markdown table. A spread above a third of the bound is
marked with "!". setup_s is exempt from the spread rule; only its median is
compared between sets. Pass --compare <label> to print each median's change
from an earlier set's; a change worse than the metric's bound is marked
with "!!". The exit code is 1 when anything is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("host ")), "")
    return {"seed": seed, "elapsed_s": round(elapsed, 2), "host": host,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--label", required=True)
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    record = {"label": args.label, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in names:
        runs = [run_once(bench, w, s) for s in seed_list(args.seeds)]
        stats = {m: summarize([r["metrics"][m] for r in runs]) for m in bounds}
        record["workloads"][w] = {"runs": runs, "stats": stats}
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    outdir = os.path.join(HERE, "steadiness")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, args.label + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    earlier = None
    if args.compare:
        with open(os.path.join(outdir, args.compare + ".json")) as f:
            earlier = json.load(f)

    print(f"### {args.label}: {record['started']} to {record['finished']}, "
          f"seeds {args.seeds}, {bench['run_seconds']} s per run\n")
    head = "| workload | metric | median | q1 | q3 | spread | bound |"
    if earlier:
        head += f" vs {args.compare} |"
    print(head)
    print("|" + "---|" * (head.count("|") - 1))
    bad = 0
    for w in names:
        for m, s in record["workloads"][w]["stats"].items():
            flag = ""
            if m != "setup_s" and s["spread"] > bounds[m] / 3:
                flag = " !"
                bad += 1
            row = (f"| {w} | {m} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                   f"{s['spread']:.4f}{flag} | {bounds[m]} |")
            if earlier and w in earlier["workloads"]:
                base = earlier["workloads"][w]["stats"][m]["median"]
                change = s["median"] / base - 1 if base else 0.0
                worse = change if lower_is_better[m] else -change
                row += f" {change:+.4f}{' !!' if worse > bounds[m] else ''} |"
                bad += worse > bounds[m]
            print(row)
    print()
    for w in names:
        runs = record["workloads"][w]["runs"]
        stamps = [dict(f.split("=", 1) for f in r["host"].split()[1:]) for r in runs]
        steal = " ".join(s.get("steal_pct", "?") for s in stamps)
        wall = " ".join(s.get("wall_per_cpu", "?") for s in stamps)
        print(f"- {w}: {runs[0]['host']}; steal_pct by seed: {steal}; "
              f"wall_per_cpu by seed: {wall}; "
              f"failed jobs: {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
