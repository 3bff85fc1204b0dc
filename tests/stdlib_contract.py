"""The standard-library contract: what only a fresh ``python -S`` or
``python -O`` process can show.  Each command and demo runs with this
checkout's ``src`` alone on ``PYTHONPATH``; ``-S`` skips ``site``, so no
installed package can be imported.  Comparisons that an in-process test
already makes live in that test, where a failure says more; a command
run here for its module loads also compares its stdout with its golden.
Checks raise ``ContractError``, never ``assert``, so ``python -O`` keeps
them.  ``python tests/stdlib_contract.py`` exits 1 naming each failed
check; it uses only the standard library.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FORMS = str(DATA / "golden_forms.json")
ENTRY = "from heckeslopes.cli import entry; entry()"
CAP_ERROR = b"error: data: closure exceeds cap of 1000000 elements\n"
RECORD = {"d": 1, "field_poly": [0, 1], "level_norm": 1, "weight": [2], "cm": False, "ap": []}


class ContractError(Exception):
    """A check of the standard-library contract failed."""


def python(tmp, *args, flags=(), timeout=120):
    """Run ``python -S [flags] args`` in ``tmp`` with only ``src`` on the path."""
    command = [sys.executable, "-S", *flags, *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        return subprocess.run(command, capture_output=True, cwd=tmp, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ContractError(f"{shown(command)}: no exit within {timeout} s") from None


def cli(tmp, *argv, flags=(), timeout=120):
    return python(tmp, "-c", ENTRY, *argv, flags=flags, timeout=timeout)


def shown(command):
    """``command`` after ``python -S``, without its ``-c`` script."""
    args = command[2:]
    at = args.index("-c") if "-c" in args else len(args)
    return " ".join(args[:at] + args[at + 2:])


def expect(proc, code=0, out=None, err=b""):
    """``proc`` exited with ``code`` and wrote ``out`` and ``err`` (None: any); returns stdout."""
    if proc.returncode != code:
        raise ContractError(f"{shown(proc.args)}: exit {proc.returncode}, not {code}: {proc.stderr[-300:]!r}")
    for name, got, want in (("stdout", proc.stdout, out), ("stderr", proc.stderr, err)):
        if want is not None and got != want:
            pairs = enumerate(zip(got.splitlines(), want.splitlines()), 1)
            diff = next((f"line {i} is {a[:150]!r}, not {b[:150]!r}" for i, (a, b) in pairs if a != b),
                        f"{len(got)} bytes, not {len(want)}")
            raise ContractError(f"{shown(proc.args)}: {name} {diff}")
    return proc.stdout


def golden(name):
    return (DATA / name).read_bytes()


def lines(*rows, sep="\t"):
    """Each row's space-separated fields joined by ``sep``, one row a line."""
    return "".join(sep.join(row.split()) + "\n" for row in rows).encode()


def write(tmp, name, *records):
    (tmp / name).write_text(json.dumps(records))
    return name


def hidden_packages(tmp):
    """The runner hides installed packages: ``find_spec`` finds none of
    numpy, SciPy, mpmath or hypothesis."""
    probe = "import importlib.util, sys; print(*[m for m in sys.argv[1:] if importlib.util.find_spec(m)])"
    expect(python(tmp, "-c", probe, "numpy", "scipy", "mpmath", "hypothesis"), out=b"\n")


def optimized_and_synth(tmp):
    """Under ``python -O`` (no check may live in an assert) analyze
    reproduces the golden reports and the golden synth report, which runs
    every exact kernel (discriminant, gcd mod p, leq)."""
    for fmt in ("tsv", "json"):
        expect(cli(tmp, "analyze", "--format", fmt, FORMS, flags=["-O"]), out=golden(f"golden_report.{fmt}"))
    expect(cli(tmp, "analyze", str(DATA / "golden_synth.json"), flags=["-O"]), out=golden("golden_synth.tsv"))


def wreath_metadata(tmp):
    """classify decides S_6 wr S_2 records (order 1036800, over the cap)
    from CM, k_f_circ <= 2, a zero-slope interact fact or a 12-cycle
    generator, never walking the group; a record without them stops at
    the cap, and so does slope, which prints a line only once every
    invariant is known."""
    base = dict(RECORD, hecke_poly=[-1, -1] + [0] * 10 + [1], galois_degree=12,
                galois_gens=["(0 1 2 3 4 5)", "(0 1)", "(0 6)(1 7)(2 8)(3 9)(4 10)(5 11)"])
    fact = {"deg_K": 3, "deg_F": 1}
    decided = write(
        tmp, "decided.json", dict(base, label="cm", cm=True), dict(base, label="small", k_f_circ=2),
        dict(base, label="zero2", interact=fact), dict(base, label="zero3", weight=[3], interact=fact),
        dict(RECORD, label="tst03", hecke_poly=[-1, -1, 0, 0, 1], k_f_circ=4, assumptions=["tST(03)"]),
    )
    expect(cli(tmp, "classify", decided, timeout=10), out=lines(
        "cm case=CM_ordinary bound_on_kp=0 density=principally_abundant conditional_on=- note=k_f_circ-unknown",
        "small case=SmallFrobeniusField bound_on_kp=0 density=principally_abundant conditional_on=-",
        "zero2 case=ZeroSlope bound_on_kp=0 density=abundant conditional_on=- note=k_f_circ-unknown",
        "zero3 case=Weight3Bound bound_on_kp=0 density=abundant conditional_on=- note=k_f_circ-unknown",
        "tst03 case=RSTBound bound_on_kp=1 density=conditional_abundant conditional_on=tST(03)",
    ))
    cycle = dict(base, galois_gens=["(0 6 1 7 2 8 3 9 4 10 5 11)", "(0 1)"])
    generated = write(tmp, "cycle.json", dict(cycle, label="cycle2"), dict(cycle, label="cycle3", weight=[3]))
    expect(cli(tmp, "classify", generated, timeout=10), out=lines(
        "cycle2 case=ZeroSlope bound_on_kp=0 density=abundant conditional_on=- note=k_f_circ-unknown",
        "cycle3 case=Weight3Bound bound_on_kp=0 density=abundant conditional_on=- note=k_f_circ-unknown",
    ))
    for extra in ([], ["--min"]):
        expect(cli(tmp, "slope", "--gens", ";".join(cycle["galois_gens"]), "--n", "12", *extra, timeout=10),
               code=2, out=b"", err=CAP_ERROR)
    undecided = write(tmp, "undecided.json", dict(base, label="plain"))
    expect(cli(tmp, "classify", undecided, timeout=10), code=2, out=b"", err=CAP_ERROR)


def large_slopes(tmp):
    """slope gives S_60 and A_60 their invariants in closed form (no
    histogram over p(60) = 966467 cycle types)."""
    s60 = "(" + " ".join(map(str, range(60))) + ");(0 1)"
    a60 = "(" + " ".join(map(str, range(1, 60))) + ");(0 1 2)"
    for gens, extra, out in (
        (s60, [], "lambda=60 sigma=0 bisecting=true bisecting_fraction=1/1800"),
        (a60, [], "lambda=59 sigma=1/60 bisecting=true bisecting_fraction=1/900"),
        (a60, ["--min"], "lambda_min=30 sigma_min=1/2 bisecting=true bisecting_fraction=1/900"),
    ):
        expect(cli(tmp, "slope", "--gens", gens, "--n", "60", *extra, timeout=10), out=lines(out, sep="\n"))


def chain_and_cap(tmp):
    """slope walks S_8 x C_2 (80640 elements) and S_9 x C_2 (725760) over
    their chains and refuses C_2^200 at the cap, before walking."""
    expect(cli(tmp, "slope", "--gens", "(0 1 2 3 4 5 6 7);(0 1);(8 9)", "--n", "10"),
           out=lines("lambda=8 sigma=1/5 bisecting=false bisecting_fraction=0", sep="\n"))
    expect(cli(tmp, "slope", "--gens", "(0 1 2 3 4 5 6 7 8);(0 1);(9 10)", "--n", "11", timeout=10),
           out=lines("lambda=9 sigma=2/11 bisecting=false bisecting_fraction=0", sep="\n"))
    gens = ";".join(f"({2 * i} {2 * i + 1})" for i in range(200))
    expect(cli(tmp, "slope", "--gens", gens, "--n", "400", timeout=60), code=2, out=b"", err=CAP_ERROR)


def demos(tmp):
    """Every demo, at least five, exits 0 with output and no stderr."""
    found = sorted((ROOT / "demos").glob("*.py"))
    if len(found) < 5:
        raise ContractError(f"{len(found)} demos found, expected at least 5")
    for demo in found:
        if not expect(python(tmp, str(demo))):
            raise ContractError(f"{demo.name} printed nothing")


# each command (argv after "cli") and each bare import of a layer, the
# heckeslopes submodules it loads, and its stdout where a golden pins it
# (None: any)
# galois is loaded only by a file that lists generators
PIPELINE_LOADS = ["numberfield", "pipeline", "polygon"]
ANALYSIS_LOADS = ["cli", *PIPELINE_LOADS]
MODULE_LOADS = [
    (["cli", "polygon", "--op", "dual", "--a", "0,1"], ["cli", "polygon"], b"-1,0\n"),
    (["cli", "slope", "--gens", "(0 1 2 3);(0 2)", "--n", "4"], ["cli", "galois"], None),
    (["cli", "classify", str(DATA / "golden_galois.json")], ["galois", *ANALYSIS_LOADS], golden("golden_classify.tsv")),
    (["cli", "classify", FORMS], ANALYSIS_LOADS, None),
    (["cli", "analyze", FORMS], ANALYSIS_LOADS, golden("golden_report.tsv")),
    (["cli", "table", "--max-k", "8"], ["cli", "satotate"], golden("golden_table.tsv")),
    (["cli", "stc", "--k", "4", "--t", "2"], ["cli", "satotate"], (
        b'{"abs_error": 7.126770501346521e-17, "k": 4, "method": "series", '
        b'"samples_or_nodes": 6, "seed": null, "t": 2, "value": 0.3202429367885303}\n'
    )),
    *(([layer], [layer], b"") for layer in ("polygon", "galois", "numberfield", "satotate")),
    (["pipeline"], PIPELINE_LOADS, b""),
]
# a finder ahead of all others sees every attempt to import numpy, SciPy,
# dataclasses, pathlib or random, even one that -S makes fail and the
# code then catches
MODULE_PROBE = """
import importlib, sys
tried = []
class Probe:
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy", "dataclasses", "pathlib", "random"):
            tried.append(name)
sys.meta_path.insert(0, Probe)
import heckeslopes
root = [m for m in sys.modules if m.startswith("heckeslopes.")]
layer = importlib.import_module("heckeslopes." + sys.argv[1])
code = layer.main(sys.argv[2:]) if sys.argv[1] == "cli" else 0
loaded = sorted(m[12:] for m in sys.modules if m.startswith("heckeslopes."))
print("root", root, "loaded", loaded, "tried", tried, file=sys.stderr)
sys.exit(code)
"""


def modules(tmp):
    """``import heckeslopes`` loads no submodule; each command runs, prints
    its golden and loads exactly the submodules it needs, each layer
    imported alone loads only itself and the layers below it, and none
    imports numpy, SciPy, dataclasses, pathlib or random."""
    for argv, loads, out in MODULE_LOADS:
        want = f"root [] loaded {sorted(loads)} tried []\n".encode()
        expect(python(tmp, "-c", MODULE_PROBE, *argv), out=out, err=want)


CHECKS = [hidden_packages, modules, optimized_and_synth, demos, wreath_metadata, large_slopes, chain_and_cap]


def main():
    failed = 0
    for check in CHECKS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                check(Path(tmp))
                print("ok  ", check.__name__, flush=True)
            except ContractError as err:
                failed += 1
                print(f"FAIL {check.__name__}: {err}", flush=True)
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
