"""Self-test of the workload checks: every corrupted copy must be rejected.

    python3 perfbench/selftest.py

Runs one real item per workload, confirms its check passes, then feeds the
check corrupted copies of that output: a bound off by 1e-6 relative, one z
term dropped, one z term off by 1e-6 relative (for both, z_sum and bound
recomputed so they stay consistent), a residual shifted by 1e-7 (bound
recomputed), and J shifted by 1e-7. A corruption a workload's output has no
field for, or that its check cannot see, is listed as n/a. Exits 1 if a
clean output fails or a corrupted one passes. Takes about 10 s.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "QSDE_THREADS": "1"})

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def _json_rows(mutate):
    def corrupt(text):
        data = json.loads(text)
        rows = data["rows"] if "rows" in data else [data]
        mutate(rows[0])
        return json.dumps(data)
    return corrupt


def _bound_off(row):
    row["bound"] *= 1.0 + 1e-6


def _resum(row):
    row["z_sum"] = sum(w * sum(zs) for w, zs in zip(row["weights"], row["z_terms"]))
    row["bound"] = oracle.recombined(row)


def _drop_z(row):
    row["z_terms"][0].pop()
    _resum(row)


def _change_z(row):
    row["z_terms"][0][0] *= 1.0 + 1e-6
    _resum(row)


def _shift_residual(row):
    row["residual"] += 1e-7
    row["bound"] = oracle.recombined(row)


def _ae_rows(mutate):
    def corrupt(output):
        reports, result = copy.deepcopy(output)
        row = reports[0].to_json()
        mutate(row)
        for key in ("bound", "z_sum", "residual", "z_terms"):
            setattr(reports[0], key, row[key])
        return reports, result
    return corrupt


def _ae_shift_j(output):
    reports, result = output
    return reports, dataclasses.replace(result, cost=result.cost + 1e-7)


def _search_shift_j(text):
    data = json.loads(text)
    data["cost"] += 1e-7
    return json.dumps(data)


def _rate_scale_z(item, factor):
    """The first interval's z term multiplied by factor, z_sum and bound
    recomputed."""
    def corrupt(text):
        row = json.loads(text)
        c = item["consts"][:1]
        z, _ = oracle.rate_terms(*(np.array([e[k] for e in c]) for k in
                                   ("gamma", "qL", "qa", "qe")),
                                 item["r"], item["s"], np.diff(item["partition"][:2]))
        row["z_sum"] += (factor - 1.0) * float(z[0])
        row["bound"] = math.sqrt(2.0 * row["z_sum"])
        return json.dumps(row)
    return corrupt


def main():
    rng = np.random.default_rng(0)
    cases = []

    kt = workloads.KerrTable(rng)
    cases.append(("kerr-table", kt, kt.warmup(), {
        "bound off 1e-6": _json_rows(_bound_off),
        "z term dropped": _json_rows(_drop_z),
        "z term off 1e-6": _json_rows(_change_z),
        "residual +1e-7": _json_rows(_shift_residual),
    }))
    ks = workloads.KerrSearch(rng)
    cases.append(("kerr-search", ks, ks.warmup(), {
        "J +1e-7": _search_shift_j,
    }))
    ae = workloads.AeSearch(rng)
    cases.append(("ae-search", ae, ae.next_round()[0], {
        "bound off 1e-6": _ae_rows(_bound_off),
        "z term dropped": _ae_rows(_drop_z),
        "residual +1e-7": _ae_rows(_shift_residual),
        "J +1e-7": _ae_shift_j,
    }))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    rb = workloads.RateBounds(rng, os.path.join(HERE, "out"))
    rate_item = rb.next_round()[1]
    cases.append(("rate-bounds", rb, rate_item, {
        "bound off 1e-6": _json_rows(_bound_off),
        "z term dropped": _rate_scale_z(rate_item, 0.0),
        "z term off 1e-6": _rate_scale_z(rate_item, 1.0 + 1e-6),
        "residual +1e-7": _json_rows(_shift_residual),
    }))

    # The elimination rows' z terms come from operator norms of the reduced
    # model's matrices, which the benchmark does not recompute: a changed z
    # term there is n/a.
    kinds = ("bound off 1e-6", "z term dropped", "z term off 1e-6", "residual +1e-7",
             "J +1e-7")
    ok = True
    print(f"{'workload':12s} {'clean':6s} " + " ".join(f"{k:>16s}" for k in kinds))
    for name, work, item, corruptions in cases:
        output = work.run(item)
        clean = not work.check(item, output).problems
        ok &= clean
        cells = []
        for kind in kinds:
            if kind not in corruptions:
                cells.append("n/a")
                continue
            problems = work.check(item, corruptions[kind](output)).problems
            ok &= bool(problems)
            cells.append("rejected" if problems else "PASSED")
            if problems:
                print(f"  {name} / {kind}: {problems[0]}", file=sys.stderr)
        print(f"{name:12s} {'pass' if clean else 'FAIL':6s} "
              + " ".join(f"{c:>16s}" for c in cells))
    print("self-test", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
