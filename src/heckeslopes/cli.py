"""Command-line front end.

Subcommands: ``polygon`` (semiring ops, order, standard families),
``slope`` (orbit invariants of a generated permutation group), ``stc``
(one semicircle tail constant), ``table`` (the triangular table of
them), ``analyze`` (per-prime reports for a JSON record file) and
``classify`` (metadata guarantees).  Exit codes: 0 success, 1 usage
error, 2 malformed data; errors go to stderr as single
machine-parsable lines.  Output is byte-identical across runs.

A call builds only its own command's subparser; help and malformed
calls build all six (see ``build_parser``).  Each handler imports the
layers it runs, so a command's cold start loads no other: ``polygon``
needs only ``polygon`` and the root.
"""

from __future__ import annotations

import argparse
import sys

from . import ClosureCapExceeded, DataError, SchemaError

__all__ = ["main", "entry", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


# name: (help, arguments, handler), one entry per command in the order
# help lists them, each set by the @_command on its handler
_COMMANDS = {}


def _command(name: str, summary: str, *arguments):
    def register(handler):
        _COMMANDS[name] = (summary, arguments, handler)
        return handler

    return register


def _arg(*flags, **options):
    return flags, options


def build_parser(command: str | None = None) -> _Parser:
    """The parser with ``command``'s subparser only, or with all six
    when ``command`` is None.  A command parses, fails and prints help
    the same from either, so ``main`` builds only the subparser that
    its argv names (``_named_command``); help flags and malformed
    calls get all six."""
    parser = _Parser(prog="heckeslopes", description=__doc__.splitlines()[0])
    # --seed, --threads and table --samples are read by nothing.  They
    # stay parseable because perfbench/run.py passes them on every
    # invocation, which would otherwise exit 1.
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS if command is None else (command,):
        summary, arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def _named_command(argv) -> str | None:
    """The command that ``argv`` names right after its leading
    ``--seed V`` and ``--threads V`` pairs, else None: help flags,
    ``--seed=3``, abbreviations and unknown or missing commands get the
    full parser."""
    i = 0
    while i < len(argv) and argv[i] in ("--seed", "--threads"):
        i += 2
    return argv[i] if i < len(argv) and argv[i] in _COMMANDS else None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _parse_multiset(text: str, flag: str):
    from .polygon import SlopeMultiset

    try:
        return SlopeMultiset.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad multiset for {flag}: {exc}") from exc


@_command(
    "polygon", "slope multiset operations",
    _arg("--op", required=True, choices=["oplus", "otimes", "dual", "leq", "P", "Pprime", "vertices"]),
    _arg("--a", help="slope multiset, e.g. '0,1/2,1/2,1'"),
    _arg("--b", help="second multiset for binary ops"),
    _arg("--d", type=int, help="base degree for P/Pprime"),
    _arg("--k", type=int, help="block count for P/Pprime"),
    _arg("--i", type=int, default=0, help="non-ordinary blocks for P/Pprime"),
)
def _cmd_polygon(args) -> int:
    from .polygon import frobenius_polygon, vertices_payload

    op = args.op
    if op in ("oplus", "otimes", "leq"):
        _require(args.a is not None and args.b is not None, f"--op {op} needs --a and --b")
        a = _parse_multiset(args.a, "--a")
        b = _parse_multiset(args.b, "--b")
        if op == "leq":
            print("true" if a.leq(b) else "false")
            if a.rank == b.rank and a.integral != b.integral:
                print("note=endpoint-mismatch")
            return 0
        result, inputs = a.oplus(b) if op == "oplus" else a.otimes(b), "--a and --b"
    elif op in ("dual", "vertices"):
        _require(args.a is not None, f"--op {op} needs --a")
        a = _parse_multiset(args.a, "--a")
        result, inputs = a.dual() if op == "dual" else a, "--a"
    else:  # P / Pprime, whose k * 2^d slopes are all printed
        d, k = args.d, args.k
        _require(d is not None and k is not None, f"--op {op} needs --d and --k")
        limit = f"--op {op} prints k * 2^d slopes: --d and --k allow at most 2^20"
        _require(min(d, k) < 1 or d <= 20 and k << d <= 2**20, limit)
        result, inputs = frobenius_polygon(d, k, args.i, weight=2 if op == "P" else 3), "--d and --k"
    try:
        if op == "vertices":
            import json

            text = json.dumps(vertices_payload(result), separators=(",", ":"))
        else:
            text = str(result)
    except ValueError as exc:  # an integer past the interpreter's limit on printed digits
        raise UsageError(f"the result of --op {op} on {inputs} has a number too long to print") from exc
    print(text)
    return 0


@_command(
    "slope", "orbit invariants of a permutation group",
    _arg("--gens", required=True, help="semicolon-separated permutations"),
    _arg("--n", type=int, required=True, help="number of points"),
    _arg("--min", action="store_true", help="report min-orbit invariants instead"),
    _arg(
        "--cap", type=int, help="largest group order to walk (default 10^6); S_n and A_n have closed forms"
    ),
)
def _cmd_slope(args) -> int:
    from .galois import DEFAULT_CLOSURE_CAP, PermutationGroup

    cap = DEFAULT_CLOSURE_CAP if args.cap is None else args.cap
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.n <= 2**20, "--n allows at most 2^20 points")
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


@_command(
    "stc", "one semicircle tail constant c(k,t)",
    _arg("--k", type=int, required=True),
    _arg("--t", type=int, required=True),
    _arg("--method", choices=["series", "closed"], default="series"),
)
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


@_command(
    "table", "triangular table of tail constants",
    _arg("--max-k", type=int, required=True, dest="max_k"),
    _arg("--samples", type=int, help=argparse.SUPPRESS),
)
def _cmd_table(args) -> int:
    from .satotate import tail_table

    rows = tail_table(args.max_k)
    print("k\\t\t" + "\t".join(f"t={t}" for t in range(1, args.max_k + 1)))
    for k, row in enumerate(rows, start=1):
        print(f"k={k}\t" + "\t".join(_format_entry(est) for est in row))
    return 0


@_command(
    "analyze", "per-prime reports for a JSON record file",
    _arg("file"),
    _arg("--out", help="output path (default: stdout)"),
    _arg("--format", choices=["tsv", "json"], default="tsv"),
)
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


@_command("classify", "metadata guarantees for a JSON record file", _arg("file"))
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(_named_command(argv))
    try:
        args = parser.parse_args(argv)
        # argparse reads the value of --flag=-- as an empty list
        missing = next((dest for dest, value in vars(args).items() if value == []), None)
        _require(missing is None, f"argument --{str(missing).replace('_', '-')}: expected one argument")
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
