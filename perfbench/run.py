"""Benchmark of qsdecert certificate work: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qsdecert checkout. Each run starts fresh workload
processes (worker.py) with BLAS, OpenMP and the qsdecert row pool pinned to
one thread. With --trace 0 it first starts SETUPS processes that only set up
(import, input generation, one warm-up item) and then one that also runs
timed rounds for S seconds; setup_s is the median over all of them. With --trace 1 a single process alternates untraced and
traced rounds and reports per-layer figures. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Per-run details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kerr-table", "kerr-search", "ae-search", "rate-bounds")
SETUPS = 3
DEADLINE_S = 170.0
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # The certificate commands' row pool; one thread keeps a run from
    # depending on the other processes sharing the second core.
    "QSDE_THREADS": "1",
}


def start_worker(args, out_dir, deadline, setup_only=False):
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: workload process passed the deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qsdecert", "cli.py")):
        sys.exit(f"run.py: no qsdecert sources under {ROOT}/src; "
                 "run from the root of a qsdecert checkout")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    setups, problems = [], []
    if not args.trace:
        for _ in range(SETUPS):
            res = start_worker(args, out_dir, deadline, setup_only=True)
            setups.append(res["setup_s"])
            problems += res["problems"]
    res = start_worker(args, out_dir, deadline)
    problems += res.pop("problems")
    if not args.trace:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    res["correct"] = res["correct"] and not problems
    for name, m in res["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {res['attempted']}, failed = {res['failed']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
