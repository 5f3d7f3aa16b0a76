"""Command-line surface: benchmark tables, bound sweeps, optimization, checks.

Commands
--------
kerr-table   certificates for the Kerr cavity truncation benchmark
ae-table     certificates for the atom-cavity adiabatic elimination benchmark
bound        generic certificate evaluator (builtin model, model file, or
             user-supplied per-interval rate constants)
optimize     run the approximant search and emit the minimizer as JSON
verify       run the oracle cross-check suite

Unset flags take the library's values for the paper's two scenarios; --k and
--k-list are exclusive. Levels (--k, --k-list), orders (--r, --s) and counts
(--intervals, --blocks) must be integers >= 1, else the command exits 2;
every other input is checked by the library (qsdecert.errors holds the
rules), and a rejected one exits 1 with an "error:" line.

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
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .adiabatic import ae_certificate_table
from .errors import (
    InvalidParameterError,
    NumericError,
    PartitionError,
    QsdeCertError,
    as_amplitudes,
    as_level,
)
from .models import model_from_json
from .truncation import (
    CSV_HEADER,
    KERR_KS,
    BoundConstants,
    CertificateReport,
    constants_for,
    interval_sum,
    kerr_certificate_table,
    kerr_search,
    kerr_table_row,
)
from .verification import run_suite


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


def _json_text(payload) -> str:
    """Every command's JSON output: indented, keys sorted, one final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_reports(reports, fmt: str, extra: dict | None = None) -> str:
    if fmt == "json":
        return _json_text({"rows": [r.to_json() for r in reports], **(extra or {})})
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


def _level(text: str) -> int:
    """argparse type of a level, order or count: an integer >= 1."""
    try:
        return as_level(int(text), "value")
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _levels(text: str) -> list[int]:
    """argparse type of --k-list: comma-separated levels, returned sorted."""
    ks = sorted(_level(x) for x in text.split(",") if x.strip())
    if not ks:
        raise argparse.ArgumentTypeError("no level given")
    return ks


def _given(**values) -> dict:
    """Keyword arguments of the given flags; unset (None) ones take library defaults."""
    return {key: value for key, value in values.items() if value is not None}


def _ks(args) -> list[int] | None:
    """The levels given by --k or --k-list, or None."""
    return [args.k] if args.k is not None else args.k_list


def cmd_kerr_table(parser, args) -> int:
    ks = _ks(args) or KERR_KS
    drive = _given(alpha=args.alpha, t_final=args.t_final)
    extra = {}
    state = None  # the bundled reference minimizer, certified on [0, 5]
    if args.optimize:
        result = kerr_search(min(ks), **drive, **_given(seed=args.seed))
        state = result.state
        extra["J"] = result.cost
    else:
        _reject(parser, args, "kerr-table without --optimize", ("seed", "t_final"))
    reports = kerr_certificate_table(
        ks, pool_map=_pool_map, r=args.r, s=args.s, state=state,
        **drive, **_given(n_intervals=args.intervals),
    )
    _emit(_render_reports(reports, args.format, extra), args.out)
    return 0


def cmd_ae_table(parser, args) -> int:
    reports, result = ae_certificate_table(
        pool_map=_pool_map,
        **_given(k_list=_ks(args), alpha=args.alpha, t_final=args.t_final,
                 n_intervals=args.intervals, blocks=args.blocks),
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
    """Columns gamma, qL, qa, qe of a constants file, and the first entry's
    level k (or None). Validation is BoundConstants'."""
    data = _load_json(path)
    if isinstance(data, dict):
        data = [data]
    try:
        rates = [np.array([entry[key] for entry in data]) for key in RATE_KEYS]
        k = data[0].get("k") if data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"{path}: each entry needs numeric gamma, qL, qa, qe (got {exc})"
        ) from exc
    return rates, k


def _parse_partition(text: str) -> list[float]:
    """The numbers of --partition; interval_sum checks the breakpoint rule."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(
            f"--partition must be comma-separated numbers, got {text!r}"
        ) from exc


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
        _reject(parser, args, "builtin kerr evaluation", ("partition", "amplitudes"))
        report = kerr_table_row(args.k, r=args.r, s=args.s,
                                **_given(alpha=args.alpha, n_intervals=args.intervals))
        _emit(_json_text(report.to_json()), args.out)
        return 0

    if args.constants is not None:
        _reject(parser, args, "--constants evaluation",
                ("model", "k", "intervals", "amplitudes", "alpha"))
    elif args.model is None:
        parser.error("need --model or --constants")
    else:
        _reject(parser, args, "model-file evaluation", ("k", "intervals", "alpha"))
    if args.partition is None:
        parser.error("rate-constant evaluation needs --partition")
    partition = _parse_partition(args.partition)
    if args.constants is not None:
        rates, k = _load_constants(args.constants)
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
        as_amplitudes([alpha, beta], 2, "--amplitudes")
        consts = constants_for(model, alpha, beta)
    try:
        z_sum = interval_sum(consts, partition, args.r, args.s)
    except PartitionError as exc:
        raise PartitionError(f"--partition: {exc}") from exc
    report = CertificateReport(
        k=consts.k or 0,
        r=args.r,
        s=args.s,
        t=partition[-1],
        z_sum=z_sum,
        residual=0.0,
        mismatch=0.0,
        partition=partition,
        psi_desc="rate-sum evaluation (no approximant)",
    )
    _emit(_json_text(report.to_json()), args.out)
    return 0


def cmd_optimize(parser, args) -> int:
    if args.model == "kerr":
        _reject(parser, args, "--model kerr", ("intervals", "blocks"))
        result = kerr_search(**_given(k=args.k, alpha=args.alpha,
                                      t_final=args.t_final, seed=args.seed))
    else:
        _reject(parser, args, "--model ae", ("k", "seed"))
        _, result = ae_certificate_table(
            (), **_given(alpha=args.alpha, t_final=args.t_final,
                         n_intervals=args.intervals, blocks=args.blocks),
        )
    payload = {
        "cost": result.cost,
        "nfev": result.nfev,
        "search_failure": result.search_failure,
        "state": result.state.to_json(),
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_verify(parser, args) -> int:
    report = run_suite(quick=args.quick, **_given(seed=args.seed))
    _emit(_json_text(report), args.out)
    return 0 if report["passed"] else 1


def _add_common(p, *, table=False, seed=True, seed_help=None, orders=True):
    # Unset scenario flags stay None, and _given leaves them out of library
    # calls. Only the tables take --k-list and --format.
    levels = p.add_mutually_exclusive_group() if table else p
    levels.add_argument("--k", type=_level, help="single level")
    if table:
        levels.add_argument("--k-list", type=_levels,
                            help="comma-separated levels (default: the paper's)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    if orders:
        p.add_argument("--r", type=_level, default=2)
        p.add_argument("--s", type=_level, default=2)
    p.add_argument("--intervals", type=_level)
    p.add_argument("--alpha", type=complex)
    if seed:
        p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--out", default=None)


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
    _add_common(p, table=True,
                seed_help="search seed, with --optimize only (default 0)")
    p.add_argument("--t-final", type=float)
    p.add_argument("--optimize", action="store_true",
                   help="search for the approximant instead of the bundled one")
    p.set_defaults(func=cmd_kerr_table)

    p = add_parser("ae-table", help="atom-cavity elimination benchmark")
    # No --seed: the block search is deterministic.
    _add_common(p, table=True, seed=False, orders=False)
    p.add_argument("--t-final", type=float)
    p.add_argument("--blocks", type=_level,
                   help="number of sequential optimization blocks")
    p.set_defaults(func=cmd_ae_table)

    p = add_parser("bound", help="generic certificate evaluator")
    _add_common(p, seed=False)
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
    _add_common(p, orders=False,
                seed_help="search seed, --model kerr only (default 0)")
    p.add_argument("--t-final", type=float)
    p.add_argument("--model", choices=("kerr", "ae"), default="kerr")
    p.add_argument("--blocks", type=_level, help="--model ae only (default 100)")
    p.set_defaults(func=cmd_optimize)

    p = add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int)
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
