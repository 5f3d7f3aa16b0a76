"""Command-line surface: benchmark tables, bound sweeps, optimization, checks.

Commands
--------
kerr-table   certificates for the Kerr cavity truncation benchmark
ae-table     certificates for the atom-cavity adiabatic elimination benchmark
bound        generic certificate evaluator (builtin model, model file, or
             user-supplied per-interval rate constants)
optimize     run the approximant search and emit the minimizer as JSON
verify       run the oracle cross-check suite

All outputs are deterministic for a fixed --seed. bound, optimize and verify
print JSON only; the tables default to CSV, whose rows follow the stable
schema "k,r,s,t,z_sum,residual,mismatch,bound" (level-scaling tables append a
k_scaling column). Exit codes: 0 success, 1 numeric or verification failure,
2 usage error. QSDE_THREADS overrides the per-row worker count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .adiabatic import ae_certificate_table
from .errors import InvalidParameterError, NumericError, PartitionError, QsdeCertError
from .models import kerr_cavity, model_from_json
from .operators import basis_state
from .semigroup import SimpleFunction
from .states import ApproxState, OptimizeSchedule, optimize
from .truncation import (
    CSV_HEADER,
    BoundConstants,
    CertificateReport,
    constants_for,
    interval_sum,
    kerr_certificate_table,
    kerr_reference_state,
    kerr_table_row,
)
from .verification import run_suite

KERR_DEFAULT_KS = "19,29,39,49,59,69,79,89,99"
AE_DEFAULT_KS = "10000,100000,1000000,10000000,100000000"


def _pool_map(fn, items):
    items = list(items)
    env = os.environ.get("QSDE_THREADS", "").strip()
    workers = int(env) if env else min(len(items), os.cpu_count() or 1)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_reports(reports, fmt: str, extra: dict | None = None) -> str:
    if fmt == "json":
        payload = {"rows": [r.to_json() for r in reports]}
        payload.update(extra or {})
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with_scaling = any(r.k_scaling is not None for r in reports)
    header = CSV_HEADER + (",k_scaling" if with_scaling else "")
    lines = [header]
    for r in reports:
        row = r.to_row()
        cols = header.split(",")
        lines.append(",".join(_fmt(row[c]) for c in cols))
    for key, value in (extra or {}).items():
        lines.append(f"# {key}={_fmt(value) if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


def _parse_k_list(parser, args) -> list[int]:
    if getattr(args, "k", None) is not None:
        ks = [args.k]
    else:
        try:
            ks = [int(x) for x in args.k_list.split(",") if x.strip()]
        except ValueError:
            parser.error(f"--k-list must be comma-separated integers, got {args.k_list!r}")
    if not ks or any(k < 1 for k in ks):
        parser.error("truncation/scaling levels must be integers >= 1")
    return sorted(ks)


def _kerr_search(k: int, alpha: complex, t_final: float, seed: int):
    """Cold-start joint search for the Kerr benchmark approximant."""
    model = kerr_cavity(lam=25.0, delta=50.0, chi=-50.0 / 60.0, k=k)
    f = SimpleFunction.constant([alpha], t_final)
    template = SimpleFunction(
        np.array([0.0, 0.1 * t_final, t_final]),
        np.full((2, 1), alpha, dtype=complex),
    )
    u0 = basis_state(k + 1, 0).astype(complex)
    init = ApproxState([(u0, template)], label="kerr optimized minimizer")
    schedule = OptimizeSchedule(seed=seed, u_support=3)
    return optimize(model, (u0, f), init, schedule)


def cmd_kerr_table(parser, args) -> int:
    ks = _parse_k_list(parser, args)
    extra = {}
    if args.optimize:
        result = _kerr_search(min(ks), args.alpha, args.t_final, args.seed or 0)
        state = result.state
        extra["J"] = result.cost
    else:
        _reject(parser, args, "kerr-table without --optimize", ("seed",))
        # --use-paper-psi names the default: the bundled reference minimizer.
        state = kerr_reference_state(min(ks) + 1)
    reports = kerr_certificate_table(
        ks,
        pool_map=_pool_map,
        alpha=args.alpha,
        t_final=args.t_final,
        n_intervals=args.intervals,
        r=args.r,
        s=args.s,
        state=state,
    )
    _emit(_render_reports(reports, args.format, extra), args.out)
    return 0


def cmd_ae_table(parser, args) -> int:
    ks = _parse_k_list(parser, args)
    reports, result = ae_certificate_table(
        ks,
        alpha=args.alpha,
        t_final=args.t_final,
        n_intervals=args.intervals,
        blocks=args.blocks,
        pool_map=_pool_map,
    )
    extra = {"J": result.cost} if result is not None else {}
    _emit(_render_reports(reports, args.format, extra), args.out)
    return 0


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{path} is not valid JSON: {exc}") from exc


RATE_KEYS = ("gamma", "qL", "qa", "qe")


def _load_constants(path):
    """(4, n) float columns gamma, qL, qa, qe of a constants file, and the
    first entry's level k (or None). Validation is BoundConstants'."""
    data = _load_json(path)
    if isinstance(data, dict):
        data = [data]
    try:
        rates = np.array([[entry[key] for entry in data] for key in RATE_KEYS])
        k = data[0].get("k") if data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"{path}: each entry needs numeric gamma, qL, qa, qe (got {exc})"
        ) from exc
    if rates.ndim != 2 or rates.dtype.kind not in "biuf":
        raise InvalidParameterError(
            f"{path}: each entry needs numeric gamma, qL, qa, qe"
        )
    return rates.astype(float), k


def _parse_partition(text: str) -> list[float]:
    try:
        partition = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(
            f"--partition must be comma-separated numbers, got {text!r}"
        ) from exc
    if len(partition) < 2:
        raise PartitionError(f"--partition needs at least two breakpoints, got {text!r}")
    if not all(math.isfinite(x) for x in partition):
        raise PartitionError(f"--partition breakpoints must be finite, got {text!r}")
    return partition


def _reject(parser, args, route: str, names) -> None:
    """Exit 2 if any of the named flags, which the route ignores, was given."""
    given = ["--" + name.replace("_", "-") for name in names
             if getattr(args, name) is not None]
    if given:
        parser.error(f"{', '.join(given)} not used by {route}")


def cmd_bound(parser, args) -> int:
    if args.model == "kerr" and args.constants is None:
        if args.k is None:
            parser.error("builtin kerr evaluation needs --k")
        if args.k < 1:
            parser.error("truncation level must be >= 1")
        _reject(parser, args, "builtin kerr evaluation", ("partition", "amplitudes"))
        given = {"alpha": args.alpha, "t_final": args.t_final, "n_intervals": args.intervals}
        report = kerr_table_row(args.k, r=args.r, s=args.s,
                                **{key: v for key, v in given.items() if v is not None})
        _emit(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n", args.out)
        return 0

    if args.constants is not None:
        _reject(parser, args, "--constants evaluation",
                ("model", "k", "intervals", "amplitudes", "alpha", "t_final"))
    elif args.model is None:
        parser.error("need --model or --constants")
    else:
        _reject(parser, args, "model-file evaluation", ("k", "intervals", "alpha", "t_final"))
    if args.partition is None:
        parser.error("rate-constant evaluation needs --partition")
    partition = _parse_partition(args.partition)
    n_intervals = len(partition) - 1
    if args.constants is not None:
        rates, k = _load_constants(args.constants)
        if rates.shape[1] == 1:
            rates = np.repeat(rates, n_intervals, axis=1)
        consts = BoundConstants(*rates, k=k)
    else:
        model = model_from_json(_load_json(args.model))
        amplitudes = args.amplitudes or "0,0"
        try:
            alpha, beta = (complex(x) for x in amplitudes.split(","))
        except ValueError as exc:
            raise InvalidParameterError(
                f"--amplitudes must be two comma-separated complex numbers, "
                f"got {amplitudes!r}"
            ) from exc
        c = constants_for(model, alpha, beta)
        k = c.k
        consts = [c] * n_intervals
    report = CertificateReport(
        k=k or 0,
        r=args.r,
        s=args.s,
        t=partition[-1],
        z_sum=interval_sum(consts, partition, args.r, args.s),
        residual=0.0,
        mismatch=0.0,
        partition=partition,
        psi_desc="rate-sum evaluation (no approximant)",
    )
    _emit(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_optimize(parser, args) -> int:
    if args.model == "kerr":
        if args.intervals is not None or args.blocks is not None:
            parser.error("--intervals and --blocks apply to --model ae only")
        result = _kerr_search(args.k or 19, args.alpha, args.t_final, args.seed or 0)
    else:
        if args.k is not None:
            parser.error("--k applies to --model kerr only")
        _reject(parser, args, "--model ae", ("seed",))
        _, result = ae_certificate_table(
            (),
            alpha=args.alpha,
            t_final=args.t_final,
            n_intervals=1000 if args.intervals is None else args.intervals,
            blocks=100 if args.blocks is None else args.blocks,
        )
    payload = {
        "cost": result.cost,
        "nfev": result.nfev,
        "search_failure": result.search_failure,
        "state": result.state.to_json(),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify(parser, args) -> int:
    report = run_suite(quick=args.quick, seed=args.seed)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if report["passed"] else 1


def _add_common(p, *, t_final, intervals, seed=True, seed_help=None, orders=True,
                formats=("csv", "json")):
    p.add_argument("--k", type=int, default=None, help="single level")
    if orders:
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--s", type=int, default=2)
    p.add_argument("--t-final", type=float, default=t_final, dest="t_final")
    p.add_argument("--intervals", type=int, default=intervals)
    p.add_argument("--alpha", type=complex, default=0.1 + 0j)
    if seed:
        p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdecert",
        description="Rigorous error certificates for truncated and "
        "adiabatically eliminated input-output quantum models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Exact flag names only: a prefix such as --s would otherwise be read as
    # --seed on the commands that take no --s.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("kerr-table", help="Kerr cavity truncation benchmark")
    _add_common(p, t_final=5.0, intervals=10,
                seed_help="search seed, with --optimize only (default 0)")
    # Unset stays None so that cmd_kerr_table can reject --seed without a search.
    p.set_defaults(seed=None)
    p.add_argument("--k-list", default=KERR_DEFAULT_KS)
    approximant = p.add_mutually_exclusive_group()
    approximant.add_argument("--optimize", action="store_true",
                             help="search for the approximant instead of the bundled one")
    approximant.add_argument("--use-paper-psi", action="store_true",
                             help="use the bundled reference minimizer (default)")
    p.set_defaults(func=cmd_kerr_table)

    p = add_parser("ae-table", help="atom-cavity elimination benchmark")
    # No --seed: the block search is deterministic.
    _add_common(p, t_final=1.0, intervals=1000, seed=False, orders=False)
    p.add_argument("--k-list", default=AE_DEFAULT_KS)
    p.add_argument("--blocks", type=int, default=100,
                   help="number of sequential optimization blocks")
    p.set_defaults(func=cmd_ae_table)

    p = add_parser("bound", help="generic certificate evaluator")
    _add_common(p, t_final=None, intervals=None, seed=False, formats=("json",))
    # Unset flags stay None so that cmd_bound can reject the ones a route
    # ignores; builtin kerr evaluation falls back to kerr_table_row's defaults.
    p.set_defaults(alpha=None)
    p.add_argument("--model", default=None,
                   help="'kerr' or a path to a model JSON file")
    p.add_argument("--constants", default=None,
                   help="JSON file with per-interval rate constants")
    p.add_argument("--partition", default=None,
                   help="comma-separated breakpoints, e.g. 0,0.5,1")
    p.add_argument("--amplitudes", default=None,
                   help="'alpha,beta' for model-file evaluation (default 0,0)")
    p.set_defaults(func=cmd_bound)

    p = add_parser("optimize", help="search for an approximant")
    _add_common(p, t_final=5.0, intervals=None, orders=False, formats=("json",),
                seed_help="search seed, --model kerr only (default 0)")
    # Unset stays None so that cmd_optimize can reject --seed with --model ae.
    p.set_defaults(seed=None)
    p.add_argument("--model", choices=("kerr", "ae"), default="kerr")
    p.add_argument("--blocks", type=int, help="--model ae only (default 100)")
    p.set_defaults(func=cmd_optimize)

    p = add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(parser, args)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"linear algebra failed: {exc}") from exc
    except QsdeCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
