"""Why the workload processes pin every thread pool to one thread.

    python3 perfbench/threads.py [--processes 3] [--tables 40]

Times the paper's nine-row `qsdecert kerr-table` in fresh processes under
three settings: the defaults (OpenBLAS picks its own thread count and the
row pool uses one worker per CPU), OpenBLAS pinned to one thread with the
row pool at its default, and both pinned (what the benchmark runs). For
each process it prints the median, quartiles, minimum and maximum wall time
per table, and the CPU time per table summed over threads.
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
PIN_NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QSDE_THREADS")
SETTINGS = {
    "defaults": {},
    "blas=1, row pool default": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                 "MKL_NUM_THREADS": "1"},
    "blas=1, row pool=1": {name: "1" for name in PIN_NAMES},
}

CHILD = """
import contextlib, io, json, sys, time
from qsdecert import cli
wall, cpu = [], []
for _ in range(int(sys.argv[1]) + 1):
    w, c = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["kerr-table", "--format", "json"])
    wall.append(time.perf_counter() - w)
    cpu.append(time.process_time() - c)
print(json.dumps({"wall": wall[1:], "cpu": cpu[1:]}))
"""


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--processes", type=int, default=3)
    p.add_argument("--tables", type=int, default=40)
    args = p.parse_args(argv)
    print(f"{os.cpu_count()} CPUs; {args.tables} tables per process after one warm-up")
    for label, pins in SETTINGS.items():
        env = {k: v for k, v in os.environ.items() if k not in PIN_NAMES}
        env.update(pins)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        for _ in range(args.processes):
            out = subprocess.run([sys.executable, "-c", CHILD, str(args.tables)],
                                 env=env, cwd=ROOT, capture_output=True, text=True,
                                 check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            wall = res["wall"]
            q1, med, q3 = statistics.quantiles(wall, n=4)
            print(f"{label:26s} wall/table median {med:.3f} s (q1 {q1:.3f}, q3 {q3:.3f}, "
                  f"min {min(wall):.3f}, max {max(wall):.3f}); "
                  f"cpu/table median {statistics.median(res['cpu']):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
