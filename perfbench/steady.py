#!/usr/bin/env python3
"""Steadiness check for the NETDAG benchmark.

Runs the benchmark command from BENCHMARK.json with seeds 1..runs per
workload and reports for every end-to-end metric the distance between
the first and third quartile of its values as a share of their median,
next to the metric's bound. It also runs seed 2020 twice per workload
and checks that the determinism blocks of the two runs are identical.

    python3 perfbench/steady.py                       # 10 seeds, all workloads
    python3 perfbench/steady.py --runs 5 --workloads cold_admit

Run it from the repository root. Exits non-zero when a run is incorrect,
a spread reaches its bound, or determinism differs.
"""

import argparse
import json
import statistics
import subprocess
import sys

REPEAT_SEED = 2020


def run(bench, workload, seed):
    args = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in opts.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, opts.runs + 1):
            report, result = run(bench, w, seed)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: INCORRECT {report['check_failures']}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{w}: seeds 1..{opts.runs}, {bench['run_seconds']} s runs")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bounds[name]:
                flag = "  OVER BOUND"
                ok = False
            elif spread >= bounds[name] / 3:
                flag = "  over a third of bound"
            print(f"  {name:18s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:5.3f}{flag}")
        a, _ = run(bench, w, REPEAT_SEED)
        b, _ = run(bench, w, REPEAT_SEED)
        same = a["determinism"] == b["determinism"]
        ok &= same
        print(f"  determinism, seed {REPEAT_SEED} twice: "
              f"{'identical' if same else 'DIFFERENT'} {a['determinism']}")
        if not same:
            print(f"    second run: {b['determinism']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
