"""One workload process: set-up, a warm-up item, then timed rounds.

Started by run.py with the BLAS, OpenMP and qsdecert row pools pinned to one
thread in its environment, so the pins are in place before numpy loads.
Set-up draws the workload's VARIANTS rounds of inputs from the seed; the
timed rounds cycle through them for S seconds of wall time, so every item
is repeated. Times are CPU seconds of this process, which runs the program
on one thread: time the shared host gives to other machines does not count.
Wall times and every item's time go to the detail file. Prints one JSON
object as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out-dir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QSDE_THREADS")


def os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 40:
        return None
    pct = 100 - max(1, -(-1000 // n))
    ordered = sorted(values)
    return pct, ordered[min(n - 1, int(pct / 100 * n))]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    unpinned = [v for v in PINNED if os.environ.get(v) != "1"]
    if unpinned:
        sys.exit(f"worker: {', '.join(unpinned)} must be 1 before numpy loads")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import numpy as np

    import workloads
    from tracing import LAYERS, Tracer, call_cost

    rng = np.random.default_rng(args.seed)
    work = workloads.make(args.workload, rng, args.out_dir)
    variants = [work.next_round() for _ in range(work.VARIANTS)]
    problems = []
    warm = work.warmup()
    problems += work.check(warm, work.run(warm)).problems
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "problems": problems}))
        return 0

    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    failures = []
    items, rounds, walls, spans = [], [], [], []
    anchor_bounds, costs, nfev_traced = [], [], 0
    traced_rounds, untraced_rounds = [], []
    clock = time.process_time
    # Every variant runs at least once, and in a traced run once untraced
    # and once traced, so the two kinds of round see the same inputs.
    min_rounds = len(variants) * (2 if args.trace else 1)
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or len(rounds) < min_rounds:
        n = len(rounds)
        v = (n // 2 if args.trace else n) % len(variants)
        batch = variants[v]
        traced = bool(args.trace) and n % 2 == 1
        if traced:
            tracer.install()
        outputs = []
        round_s = 0.0
        for item in batch:
            attempted += 1
            w = time.perf_counter()
            t = clock()
            try:
                out = work.run(item)
            except (Exception, SystemExit) as exc:
                out = exc
            dt = clock() - t
            round_s += dt
            outputs.append(out)
            spans.append({"round": n, "slot": item["slot"], "variant": v,
                          "traced": traced, "start": t, "end": t + dt,
                          "wall_s": time.perf_counter() - w})
        if traced:
            tracer.uninstall()
        for item, out, span in zip(batch, outputs, spans[-len(batch):]):
            if isinstance(out, BaseException):
                failed += 1
                failures.append(f"round {span['round']} {item['slot']}: "
                                f"{type(out).__name__}: {out}")
                continue
            outcome = work.check(item, out)
            problems += [f"round {span['round']} {item['slot']}: {x}"
                         for x in outcome.problems]
            if item["anchor"] and outcome.bound is not None:
                anchor_bounds.append(outcome.bound)
            if outcome.cost is not None:
                costs.append(outcome.cost)
            span["nfev"] = outcome.nfev
            if traced:
                nfev_traced += outcome.nfev
            items.append(span["end"] - span["start"])
        rounds.append(round_s)
        walls.append(sum(sp["wall_s"] for sp in spans[-len(batch):]))
        (traced_rounds if traced else untraced_rounds).append(round_s)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "round_walls": walls,
        "items": items, "spans": spans,
        "os_threads": os_threads(), "nproc": os.cpu_count(),
        "search_cost_mean": statistics.fmean(costs) if costs else None,
        "item_tail": tail(items), "problems": problems[:50],
        "failures": failures[:50],
    }
    if args.trace:
        n = len(traced_rounds)
        st = tracer.stats
        per = {}
        for name in LAYERS:
            per[f"{name}.calls"] = (st[name].calls / n, "count")
            per[f"{name}.self_s"] = (st[name].self_s / n, "s")
        per["operators.matexp.work_n3"] = (st["operators.matexp"].work / n, "count")
        prop = st["semigroup.propagate"].calls
        reuse = 1.0 - st["operators.matexp"].calls / prop if prop else 0.0
        per["semigroup.exp_reuse"] = (reuse, "1")
        per["states.nfev"] = (nfev_traced / n, "count")
        traced_s = statistics.fmean(traced_rounds)
        per["trace.round_s"] = (traced_s, "s")
        # The difference of two round means is as noisy as the host; the
        # wrapper estimate is the measured cost of one traced call times
        # the traced calls in a round.
        per["trace.overhead_s"] = (traced_s - statistics.fmean(untraced_rounds), "s")
        per["trace.wrapper_s"] = (
            call_cost() * sum(st[name].calls for name in LAYERS) / n, "s")
        per["trace.self_share"] = (
            sum(st[name].self_s for name in LAYERS) / n / traced_s, "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(per.items())}
    else:
        detail["item_p50_s"] = statistics.median(items) if items else None
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "cert_bound": {"value": statistics.fmean(anchor_bounds)
                           if anchor_bounds else 0.0, "unit": "1"},
        }
    detail["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out_dir, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": not problems and not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics,
                      "problems": (failures + problems)[:20]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
