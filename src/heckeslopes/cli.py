"""Command-line front end.

Subcommands: ``polygon`` (semiring ops, order, standard families),
``slope`` (orbit invariants of a generated permutation group), ``stc``
(one semicircle tail constant), ``table`` (the triangular table of
them), ``analyze`` (per-prime reports for a JSON record file) and
``classify`` (metadata guarantees).  Exit codes: 0 success, 1 usage
error, 2 malformed data; errors go to stderr as single
machine-parsable lines.  Output is byte-identical across runs for
fixed flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .galois import DEFAULT_CLOSURE_CAP, ClosureCapExceeded, Permutation, PermutationGroup
from .pipeline import (
    DataError,
    SchemaError,
    analyze_form,
    emit_report,
    guarantee,
    load_forms,
    vertices_payload,
)
from .polygon import SlopeMultiset, frobenius_polygon
from .satotate import METHOD_CLOSED, METHOD_MC, METHOD_SERIES, tail_constant, tail_table

__all__ = ["main", "entry", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="heckeslopes", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the Monte Carlo runs of stc and table"
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="worker threads for Monte Carlo in stc and table"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("polygon", help="slope multiset operations")
    p.add_argument(
        "--op",
        required=True,
        choices=["oplus", "otimes", "dual", "leq", "P", "Pprime", "vertices"],
    )
    p.add_argument("--a", help="slope multiset, e.g. '0,1/2,1/2,1'")
    p.add_argument("--b", help="second multiset for binary ops")
    p.add_argument("--d", type=int, help="base degree for P/Pprime")
    p.add_argument("--k", type=int, help="block count for P/Pprime")
    p.add_argument("--i", type=int, default=0, help="non-ordinary blocks for P/Pprime")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("slope", help="orbit invariants of a permutation group")
    p.add_argument("--gens", required=True, help="semicolon-separated permutations")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--min", action="store_true", help="report min-orbit invariants instead")
    p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP)
    p.set_defaults(func=_cmd_slope)

    p = sub.add_parser("stc", help="one semicircle tail constant c(k,t)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=["series", "mc", "closed"], default="series")
    p.add_argument("--samples", type=int, default=10**7)
    p.set_defaults(func=_cmd_stc)

    p = sub.add_parser("table", help="triangular table of tail constants")
    p.add_argument("--max-k", type=int, required=True, dest="max_k")
    p.add_argument("--method", choices=["series", "mc"], default="series")
    p.add_argument("--samples", type=int, default=10**7)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("analyze", help="per-prime reports for a JSON record file")
    p.add_argument("file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="metadata guarantees for a JSON record file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    return parser


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _parse_multiset(text: str, flag: str) -> SlopeMultiset:
    try:
        return SlopeMultiset.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad multiset for {flag}: {exc}") from exc


def _cmd_polygon(args) -> int:
    op = args.op
    if op in ("oplus", "otimes", "leq"):
        _require(args.a is not None and args.b is not None, f"--op {op} needs --a and --b")
        a = _parse_multiset(args.a, "--a")
        b = _parse_multiset(args.b, "--b")
        if op == "oplus":
            print(a.oplus(b))
        elif op == "otimes":
            print(a.otimes(b))
        else:
            print("true" if a.leq(b) else "false")
            if a.rank == b.rank and a.integral != b.integral:
                print("note=endpoint-mismatch")
        return 0
    if op in ("dual", "vertices"):
        _require(args.a is not None, f"--op {op} needs --a")
        a = _parse_multiset(args.a, "--a")
        if op == "dual":
            print(a.dual())
        else:
            print(json.dumps(vertices_payload(a), separators=(",", ":")))
        return 0
    # P / Pprime
    _require(args.d is not None and args.k is not None, f"--op {op} needs --d and --k")
    print(frobenius_polygon(args.d, args.k, args.i, weight=2 if op == "P" else 3))
    return 0


def _cmd_slope(args) -> int:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.cap >= 1, "--cap must be >= 1")
    try:
        group = PermutationGroup.parse(args.gens, args.n, cap=args.cap)
    except ValueError as exc:
        raise UsageError(f"bad --gens: {exc}") from exc
    if args.min:
        print(f"lambda_min={group.max_min_orbit_length()}")
        print(f"sigma_min={group.min_orbit_slope()}")
    else:
        print(f"lambda={group.max_orbit_length()}")
        print(f"sigma={group.slope()}")
    print(f"bisecting={'true' if group.has_bisecting() else 'false'}")
    print(f"bisecting_fraction={group.bisecting_fraction()}")
    return 0


_METHOD_MAP = {"series": METHOD_SERIES, "mc": METHOD_MC, "closed": METHOD_CLOSED}


def _method(args) -> str:
    """The library method for ``--method``; Monte Carlo needs numpy."""
    if args.method == "mc":
        try:
            import numpy  # noqa: F401
        except ImportError:
            raise UsageError("--method mc needs numpy (pip install 'heckeslopes[mc]')") from None
    return _METHOD_MAP[args.method]


def _cmd_stc(args) -> int:
    est = tail_constant(
        args.k,
        args.t,
        method=_method(args),
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
    )
    print(json.dumps(dataclasses.asdict(est), sort_keys=True))
    return 0


def _format_entry(est) -> str:
    if est.abs_error == 0.0:
        return "1"
    return f"{est.value:.5f}±{est.abs_error:.1e}"


def _cmd_table(args) -> int:
    rows = tail_table(
        args.max_k, _method(args), samples=args.samples, seed=args.seed, threads=args.threads
    )
    print("k\\t\t" + "\t".join(f"t={t}" for t in range(1, args.max_k + 1)))
    for k, row in enumerate(rows, start=1):
        print(f"k={k}\t" + "\t".join(_format_entry(est) for est in row))
    return 0


def _cmd_analyze(args) -> int:
    records = load_forms(args.file)
    analyses = [analyze_form(rec) for rec in records]
    payload = emit_report(analyses, fmt=args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


def _cmd_classify(args) -> int:
    records = load_forms(args.file)
    for rec in records:
        g = guarantee(rec)
        conditional = ",".join(sorted(g.conditional_on)) if g.conditional_on else "-"
        line = (
            f"{rec.label}\tcase={g.case}\tbound_on_kp={g.bound_on_kp}"
            f"\tdensity={g.density_class}\tconditional_on={conditional}"
        )
        if rec.k_f_circ is None:
            line += "\tnote=k_f_circ-unknown"
        print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _require(args.threads >= 1, "--threads must be >= 1")
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, DataError, ClosureCapExceeded, ArithmeticError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
