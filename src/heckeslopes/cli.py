"""Command-line front end.

Subcommands: ``polygon`` (semiring ops, order, standard families),
``slope`` (orbit invariants of a generated permutation group), ``stc``
(one semicircle tail constant), ``table`` (the triangular table of
them), ``analyze`` (per-prime reports for a JSON record file) and
``classify`` (metadata guarantees).  Exit codes: 0 success, 1 usage
error, 2 malformed data; errors go to stderr as single
machine-parsable lines.  Output is byte-identical across runs.

Each handler imports the layers it runs, so a command's cold start
loads no other: ``polygon`` needs only ``polygon`` and ``_errors``.
"""

from __future__ import annotations

import argparse
import sys

from ._errors import ClosureCapExceeded, DataError, SchemaError
from .polygon import SlopeMultiset, frobenius_polygon, vertices_payload

__all__ = ["main", "entry", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="heckeslopes", description=__doc__.splitlines()[0])
    # --seed, --threads and table --samples are read by nothing.  They
    # stay parseable because perfbench/run.py passes them on every
    # invocation, which would otherwise exit 1.
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
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
    p.add_argument(
        "--cap",
        type=int,
        help="most elements to enumerate (default 10^6); S_n and A_n are never enumerated",
    )
    p.set_defaults(func=_cmd_slope)

    p = sub.add_parser("stc", help="one semicircle tail constant c(k,t)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=["series", "closed"], default="series")
    p.set_defaults(func=_cmd_stc)

    p = sub.add_parser("table", help="triangular table of tail constants")
    p.add_argument("--max-k", type=int, required=True, dest="max_k")
    p.add_argument("--samples", type=int, help=argparse.SUPPRESS)
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
            import json

            print(json.dumps(vertices_payload(a), separators=(",", ":")))
        return 0
    # P / Pprime
    _require(args.d is not None and args.k is not None, f"--op {op} needs --d and --k")
    print(frobenius_polygon(args.d, args.k, args.i, weight=2 if op == "P" else 3))
    return 0


def _cmd_slope(args) -> int:
    from .galois import DEFAULT_CLOSURE_CAP, PermutationGroup

    cap = DEFAULT_CLOSURE_CAP if args.cap is None else args.cap
    _require(args.n >= 1, "--n must be >= 1")
    _require(cap >= 1, "--cap must be >= 1")
    try:
        group = PermutationGroup.parse(args.gens, args.n, cap=cap)
    except ValueError as exc:
        raise UsageError(f"bad --gens: {exc}") from exc
    # every invariant before the first line, so a cap error prints nothing
    if args.min:
        suffix, lam, sigma = "_min", group.max_min_orbit_length(), group.min_orbit_slope()
    else:
        suffix, lam, sigma = "", group.max_orbit_length(), group.slope()
    bisecting, fraction = group.has_bisecting(), group.bisecting_fraction()
    print(f"lambda{suffix}={lam}")
    print(f"sigma{suffix}={sigma}")
    print(f"bisecting={'true' if bisecting else 'false'}")
    print(f"bisecting_fraction={fraction}")
    return 0


def _cmd_stc(args) -> int:
    import json

    from .satotate import METHOD_CLOSED, METHOD_SERIES, tail_constant

    method = {"series": METHOD_SERIES, "closed": METHOD_CLOSED}[args.method]
    est = tail_constant(args.k, args.t, method=method)
    print(json.dumps(est._asdict(), sort_keys=True))
    return 0


def _format_entry(est) -> str:
    if est.abs_error == 0.0:
        return "1"
    return f"{est.value:.5f}±{est.abs_error:.1e}"


def _cmd_table(args) -> int:
    from .satotate import tail_table

    rows = tail_table(args.max_k)
    print("k\\t\t" + "\t".join(f"t={t}" for t in range(1, args.max_k + 1)))
    for k, row in enumerate(rows, start=1):
        print(f"k={k}\t" + "\t".join(_format_entry(est) for est in row))
    return 0


def _cmd_analyze(args) -> int:
    from .pipeline import analyze_form, emit_report, load_forms

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
    from .pipeline import guarantee, load_forms

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
