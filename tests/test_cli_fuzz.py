"""Exit-code contract of ``analyze`` and ``classify`` under adversarial records.

Each example takes a valid record, replaces one field with an arbitrary
small JSON value, and runs the CLI in-process.  Whatever the input, the
run must end in exit 0, 1 or 2 without an escaping exception, and a
failing run must explain itself in exactly one ``error: usage:`` or
``error: data:`` line on stderr.
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
