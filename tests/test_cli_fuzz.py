"""Exit-code contract of the CLI under adversarial input.

For ``analyze`` and ``classify``, each example takes a valid record,
replaces one field with an arbitrary small JSON value, and runs the CLI
in-process.  Whatever the input, the run must end in exit 0, 1 or 2
without an escaping exception, and a failing run must explain itself in
exactly one ``error: usage:`` or ``error: data:`` line on stderr.
``polygon`` gets arbitrary slope strings for every ``--op`` and must end
in exit 0 or 1, a failure in one ``error: usage:`` line.
"""
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeslopes.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_forms.json").read_text())

# the golden records carry no optional metadata; one extra record does,
# so replacing a single field can reach the galois and interact checks
WITH_METADATA = dict(
    GOLDEN[0],
    label="golden.sqrt2.meta",
    k_f_circ=1,
    d_tilde=1,
    assumptions=["SST", "tST(2)"],
    galois_gens=["(0 1)"],
    galois_degree=2,
    interact={"deg_K": 2, "deg_F": 1, "galois_group_kind": "symmetric", "disc_K": 8},
)
BASES = GOLDEN + [WITH_METADATA]
OPTIONAL_KEYS = ("k_f_circ", "d_tilde", "assumptions", "galois_gens", "galois_degree", "interact")

short_text = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="()0123456789 ,-/", max_size=8),  # near-miss rationals and cycles
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1000, max_value=1000),
    short_text,
)
json_values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.dictionaries(short_text, scalars, max_size=3),
)


@st.composite
def mutated_records(draw):
    record = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    where = draw(st.sampled_from(["top", "ap"]))
    if where == "top":
        key = draw(st.sampled_from(sorted(record) + list(OPTIONAL_KEYS)))
        record[key] = draw(json_values)
    else:
        entry = draw(st.sampled_from(record["ap"]))
        entry[draw(st.sampled_from(["p", "split_in_F", "a"]))] = draw(json_values)
    return record


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(record=mutated_records(), command=st.sampled_from(["analyze", "classify"]))
def test_exit_contract(tmp_path, capsysbinary, record, command):
    path = tmp_path / "forms.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    code = main([command, str(path)])
    err = capsysbinary.readouterr().err.decode("utf-8")
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(("error: usage:", "error: data:")), err


# polygon: slope strings near the interpreter's limit on integer
# strings (4300 digits), whose sums, duals and vertices can pass it
digit_runs = st.integers(4290, 4310).map(lambda n: "1" * n)
huge_exponents = st.builds(
    "{}e{}".format,
    st.sampled_from(["1", "5", "9", "-1", "0.5", "1/3"]),
    st.one_of(st.integers(-4310, 4310), st.integers(4290, 4300), st.integers(-10**6, 10**6)),
)
small_rationals = st.one_of(
    st.integers(-5, 5).map(str),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(-2, 5)),
    st.sampled_from(["1.5", "-0.25", "1e-3", " 2 ", ""]),
)
slope_atoms = st.one_of(small_rationals, huge_exponents, digit_runs, short_text)
slope_strings = st.one_of(st.lists(slope_atoms, max_size=4).map(",".join), short_text)
# P and Pprime print k * 2^d slopes, which the CLI caps at 2^20: any
# short digit string, signed or not, or junk that is not a number
short_ints = st.one_of(
    st.from_regex(r"-?[0-9]{1,7}", fullmatch=True),
    st.sampled_from(["", "x", "1.5", "--", "0x1", "2" * 4301]),
)


@st.composite
def polygon_argv(draw):
    op = draw(st.sampled_from(["oplus", "otimes", "dual", "leq", "P", "Pprime", "vertices"]))
    argv = ["polygon", "--op", op]
    flags = ("--a", "--b") if op not in ("P", "Pprime") else ("--d", "--k", "--i")
    values = slope_strings if op not in ("P", "Pprime") else short_ints
    for flag in flags:
        if draw(st.integers(0, 9)):  # now and then a flag is missing
            argv.append(f"{flag}={draw(values)}")
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=polygon_argv())
def test_polygon_exit_contract(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in out + err and "set_int_max_str_digits" not in out + err
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith("error: usage:"), err
