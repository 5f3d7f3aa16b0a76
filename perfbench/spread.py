"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload all --seeds 1-10 [--seconds 20] [--trace 0]

--workload takes one name, a comma-separated list, or `all`. Every run
prints each metric with its unit and how many items it attempted and how
many failed. For every metric the summary gives the median, the quartiles
(statistics.quantiles with n=4) and the quartile distance as a share of the
median, with the metric's bound from BENCHMARK.json when it has one. Runs
go one after another; each workload's summary also goes to
perfbench/out/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kerr-table", "kerr-search", "ae-search", "rate-bounds")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(bench, workload, seeds, seconds, trace):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"{workload} seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.5g} {v['unit']}" for k, v in res["metrics"].items()),
              flush=True)

    summary = {"workload": workload, "seeds": seeds, "seconds": seconds,
               "trace": trace, "runs": runs, "metrics": {}}
    if len(runs) > 1:
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = (q3 - q1) / med if med else float("nan")
            summary["metrics"][name] = {"unit": m["unit"], "median": med, "q1": q1,
                                        "q3": q3, "iqr_share": share}
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} ({share / bound:.2f} of it)"
            print(f"  {name:32s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"iqr/median {share:.4f}{flag}")
    ok = all(r["correct"] for r in runs)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"  {workload}: all correct: {ok}; failed shares: {shares}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{workload}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    return ok


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    results = [spread(bench, name, args.seeds, seconds, args.trace) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
