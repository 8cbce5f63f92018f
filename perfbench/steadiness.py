#!/usr/bin/env python3
"""Shows whether the service benchmark is steady: runs every workload of
BENCHMARK.json in two sets of ten seeded runs, three minutes apart, and
prints, for each end-to-end metric, each set's median and quartile spread
against the metric's bound, and how far the second set's median moved from
the first's.

    python3 perfbench/steadiness.py

Run from the root of a source tree. A metric passes when, in both sets,
the spread (Q3 - Q1) / median stays within its bound and the second median
is not worse than the first by more than the bound; the share of failed
operations must be identical in the two sets. Each run's line ends with
the share of CPU time the hypervisor gave to other machines during it
(host_cpu_steal_share, from run.py), which marks runs the host slowed. Raw results are written to
.bench_build/steadiness-<time>.json. Exits 1 on any miss.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
GAP_S = 180


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr, flush=True)
        return None, ""
    steal = [l for l in lines if l.startswith("host_cpu_steal_share=")]
    return json.loads(lines[-1]), (steal[0] if steal else "")


def run_set(number, workloads, seconds):
    """Runs every workload with seeds 1000*number ... + RUNS - 1."""
    rows = {}
    for w in workloads:
        rows[w] = []
        for i in range(RUNS):
            seed = 1000 * number + i
            r, steal = run_once(w, seed, seconds)
            if r is None or not r.get("correct"):
                print("set %d %s seed %d: FAILED RUN" % (number, w, seed),
                      flush=True)
                r = r or {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}
            rows[w].append(r)
            print("set %d %s seed %d: %s %s" % (
                number, w, seed, " ".join(
                    "%s=%.4g" % (k, v["value"])
                    for k, v in sorted(r["metrics"].items())), steal),
                flush=True)
    return rows


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    first = run_set(1, workloads, seconds)
    print("waiting %d s before set 2" % GAP_S, flush=True)
    time.sleep(GAP_S)
    second = run_set(2, workloads, seconds)

    ok = True
    print()
    print("%-14s %-15s %10s %10s %8s %8s %8s %7s  %s" % (
        "workload", "metric", "median1", "median2", "spread1", "spread2",
        "shift", "bound", "verdict"))
    for w in workloads:
        states = set()
        for rows in (first[w], second[w]):
            att = sum(r["attempted"] for r in rows)
            fail = sum(r["failed"] for r in rows)
            states.add((all(r["correct"] for r in rows), fail / att))
        if len(states) != 1 or not next(iter(states))[0]:
            ok = False
            print("%-14s incorrect runs, or the failed-operation share "
                  "differs between sets: %s" % (w, sorted(states)))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in rows
                     if name in r["metrics"]] for rows in (first[w], second[w])]
            if any(len(v) < 2 for v in sets):
                ok = False
                print("%-14s %-15s missing values" % (w, name))
                continue
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = meds[1] / meds[0] - 1
            if m["better"] == "higher":
                worse = -worse
            verdict = []
            if max(spreads) > bound:
                verdict.append("SPREAD")
            if worse > bound:
                verdict.append("SHIFT")
            ok = ok and not verdict
            if max(spreads) > bound / 3:
                verdict.append("(spread above a third of the bound)")
            print("%-14s %-15s %10.4g %10.4g %8.3f %8.3f %+8.3f %7.2f  %s" % (
                w, name, meds[0], meds[1], spreads[0], spreads[1], worse,
                bound, " ".join(verdict) or "ok"))

    os.makedirs(".bench_build", exist_ok=True)
    out = os.path.join(".bench_build",
                       "steadiness-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump([first, second], f)
    print("\nraw results: %s" % out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
