"""Command-line interface: golden outputs, exit codes, determinism."""
import json
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from heckeslopes import pipeline
from heckeslopes.cli import main
from heckeslopes.pipeline import analyze_form, emit_report, load_forms
from heckeslopes.polygon import SlopeMultiset, hodge_polygon
from stdlib_contract import python

FORM = {
    "label": "demo.sqrt2",
    "d": 1,
    "field_poly": [0, 1],
    "level_norm": 1,
    "weight": [2],
    "hecke_poly": [-2, 0, 1],
    "cm": False,
    "ap": [
        {"p": 2, "split_in_F": True, "a": ["1", "0"]},
        {"p": 3, "split_in_F": True, "a": ["1", "1"]},
        {"p": 7, "split_in_F": True, "a": ["3", "1"]},
    ],
}

# S_10 and A_10: 10! and 10!/2 elements, above the default closure cap
S10_GENS = ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"]
A10_GENS = ["(1 2 3 4 5 6 7 8 9)", "(0 1 2)"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# same rank and endpoint as FORM's Hodge polygon 0,0,1,1, but below it
BELOW_HODGE_SLOPES = [-1, 0, 1, 2]
BELOW_HODGE = SlopeMultiset(BELOW_HODGE_SLOPES)
NEWTON_BELOW_HODGE_ERROR = (
    "error: data: record 'demo.sqrt2', p=3: the Newton polygon does not lie on or "
    "above the Hodge polygon with the same endpoints\n"
)

FLOAT_RANGE_ERROR = (
    "error: data: record 'demo.sqrt2', p=3: hecke_poly or a_p exceeds the float range "
    "of the Weil check\n"
)
# FORM's row at p=3 when hecke_poly = x^2 + 1 mod 3 and a_p = 1 or 1 + x there: defect 0
ANALYZED_AT_3 = '3\tanalyzed\t0\ttrue\t[["0","0"],["2","0"],["4","2"]]\tnot_applicable'

# the label is shown escaped on one line; nothing goes to stdout
UNPRINTABLE_LABEL_ERROR = (
    "error: data: record #0: label 'bad\\tlabel\\nx' has an unprintable character\n"
)


@pytest.fixture
def forms_file(tmp_path):
    path = tmp_path / "forms.json"
    path.write_text(json.dumps([FORM]))
    return path


class TestPolygon:
    def test_family_weight_two(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "P", "--d", "2", "--k", "3", "--i", "1"])
        assert code == 0
        assert out == "0,0,1,1,1,1,1,1,1,1,2,2\n"

    def test_family_weight_three(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "Pprime", "--d", "1", "--k", "2", "--i", "1"])
        assert code == 0
        assert out == "0,1,1,2\n"

    def test_oplus(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "oplus", "--a", "0,1", "--b", "1/2"])
        assert (code, out) == (0, "0,1/2,1\n")

    def test_otimes(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "otimes", "--a", "0,1", "--b", "1/2,1"])
        assert (code, out) == (0, "1/2,1,3/2,2\n")

    def test_dual(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "dual", "--a", "0,1/3"])
        assert (code, out) == (0, "-1/3,0\n")

    def test_leq_true(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "leq", "--a", "0,1", "--b", "1/2,1/2"])
        assert (code, out) == (0, "true\n")

    def test_leq_false_notes_endpoint_mismatch(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "leq", "--a", "0,1", "--b", "0,1/2"])
        assert (code, out) == (0, "false\nnote=endpoint-mismatch\n")

    def test_vertices(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--op", "vertices", "--a", "0,1,1"])
        assert code == 0
        assert json.loads(out) == [["0", "0"], ["1", "0"], ["3", "2"]]

    USAGE_ERRORS = [
        (["polygon", "--op", "oplus", "--a", "0,1"], "--op oplus needs --a and --b"),
        (
            ["polygon", "--op", "leq", "--a", "0,x", "--b", "1"],
            "bad multiset for --a: Invalid literal for Fraction: 'x'",
        ),
        (["polygon", "--op", "P", "--d", "2"], "--op P needs --d and --k"),
        (["polygon", "--op", "P", "--d", "0", "--k", "1"], "frobenius_polygon needs d >= 1"),
        (
            ["polygon", "--op", "P", "--d", "1", "--k", "2", "--i", "3"],
            "frobenius_polygon needs 0 <= i <= k",
        ),
        (
            ["polygon", "--op", "Pprime", "--d", "1", "--k", "1", "--i", "-1"],
            "frobenius_polygon needs 0 <= i <= k",
        ),
        (["slope", "--gens", "(0 1)", "--n", "2", "--cap", "0"], "--cap must be >= 1"),
        (["slope", "--gens", "(0 1)", "--n", "2", "--cap", "-5"], "--cap must be >= 1"),
        (
            ["polygon", "--op", "dual", "--a", "1e999999999"],
            "bad multiset for --a: bad rational '1e999999999': exponent magnitude above 4300",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, message", USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))]
    )
    def test_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == f"error: usage: {message}\n"


class TestSlope:
    def test_group_invariants(self, capsys):
        code, out, _ = run(capsys, ["slope", "--gens", "(0 1)(2 3);(0 2)(1 3)", "--n", "4"])
        assert code == 0
        assert out == "lambda=2\nsigma=1/2\nbisecting=true\nbisecting_fraction=3/4\n"

    def test_min_orbit_invariants(self, capsys):
        code, out, _ = run(capsys, ["slope", "--gens", "(0 1 2 3);(0 2)", "--n", "4", "--min"])
        assert code == 0
        assert out == "lambda_min=4\nsigma_min=0\nbisecting=true\nbisecting_fraction=3/8\n"

    def test_closure_cap_is_data_error(self, capsys):
        # S_3 wr S_2, of order 72: neither S_6 nor A_6, so it is enumerated
        code, _, err = run(
            capsys,
            ["slope", "--gens", "(0 1 2);(0 1);(0 3)(1 4)(2 5)", "--n", "6", "--cap", "10"],
        )
        assert (code, err) == (2, "error: data: closure exceeds cap of 10 elements\n")

    @pytest.mark.parametrize(
        "gens,expected",
        [
            (S10_GENS, "lambda=10\nsigma=0\nbisecting=true\nbisecting_fraction=1/50\n"),
            (A10_GENS, "lambda=9\nsigma=1/10\nbisecting=true\nbisecting_fraction=1/25\n"),
        ],
    )
    def test_degree_ten_symmetric_and_alternating(self, capsys, gens, expected):
        assert run(capsys, ["slope", "--gens", ";".join(gens), "--n", "10"]) == (0, expected, "")

    def test_bad_generator_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["slope", "--gens", "(0 9)", "--n", "4"])
        assert code == 1
        assert err.startswith("error: usage:")


class TestTailConstant:
    def test_closed_form_json(self, capsys):
        code, out, _ = run(capsys, ["stc", "--k", "3", "--t", "1", "--method", "closed"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "closed_form"
        assert payload["seed"] is None
        assert payload["samples_or_nodes"] == 0
        assert abs(payload["value"] - 0.1587395) < 1e-6

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--k", "4", "--t", "2"],
                '{"abs_error": 7.126770501346521e-17, "k": 4, "method": "series", '
                '"samples_or_nodes": 6, "seed": null, "t": 2, "value": 0.3202429367885303}\n',
            ),
            (
                ["--k", "5", "--t", "1", "--method", "closed"],
                '{"abs_error": 1e-15, "k": 5, "method": "closed_form", '
                '"samples_or_nodes": 0, "seed": null, "t": 1, "value": 0.03978225879279239}\n',
            ),
        ],
        ids=["series", "closed"],
    )
    def test_json_bytes(self, capsysbinary, argv, expected):
        """One JSON object, keys sorted, floats in their shortest repr."""
        assert main(["stc"] + argv) == 0
        assert capsysbinary.readouterr() == (expected.encode(), b"")

    def test_bad_arguments(self, capsys):
        cases = [
            (["--k", "2", "--t", "3"], "need 1 <= t <= k"),
            (["--k", "4", "--t", "5", "--method", "series"], "need 1 <= t <= k"),
            (["--k", "4", "--t", "2", "--method", "closed"], "closed form only covers t = 1"),
        ]
        for argv, message in cases:
            code, out, err = run(capsys, ["stc"] + argv)
            assert (code, out, err) == (1, "", f"error: usage: {message}\n")


class TestTable:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, ["table", "--max-k", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k\\t\tt=1\tt=2"
        assert lines[1] == "k=1\t1"
        cells = lines[2].split("\t")
        assert cells[0] == "k=2"
        assert cells[1].startswith("0.31496")  # closed form at t=1
        assert cells[2] == "1"

    def test_deterministic(self, capsys):
        argv = ["table", "--max-k", "3"]
        assert run(capsys, argv) == run(capsys, argv)

    def test_max_k_out_of_range(self, capsys):
        code, out, err = run(capsys, ["table", "--max-k", "61"])
        assert (code, out, err) == (1, "", "error: usage: need 1 <= max_k <= 60\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--max-k", "8"],
            # the benchmark's argv: --threads, --seed and --samples are ignored
            ["--threads", "1", "--seed", "3", "table", "--max-k", "8", "--samples", "200000"],
        ],
        ids=["series", "ignored-flags"],
    )
    def test_matches_golden_bytes(self, capsysbinary, argv):
        assert main(argv) == 0
        out = capsysbinary.readouterr().out
        assert out == (Path(__file__).parent / "data" / "golden_table.tsv").read_bytes()


class TestAnalyze:
    def test_tsv_matches_library_bytes(self, capsysbinary, forms_file):
        code = main(["analyze", str(forms_file)])
        out = capsysbinary.readouterr().out
        assert code == 0
        expected = emit_report(
            [analyze_form(rec) for rec in load_forms(forms_file)], fmt="tsv"
        )
        assert out == expected

    def test_synth_records_match_golden_bytes(self, capsysbinary):
        # 16 generated records over base fields of degree 1..4 and Hecke
        # fields of degree 2..12: 736 primes, every status but skipped_index
        data = Path(__file__).parent / "data"
        assert main(["analyze", str(data / "golden_synth.json")]) == 0
        captured = capsysbinary.readouterr()
        assert (captured.out, captured.err) == ((data / "golden_synth.tsv").read_bytes(), b"")

    def test_json_format(self, capsys, forms_file):
        code, out, _ = run(capsys, ["analyze", str(forms_file), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["forms"][0]["label"] == "demo.sqrt2"

    def test_out_file(self, capsys, tmp_path, forms_file):
        dest = tmp_path / "report.tsv"
        code, out, _ = run(capsys, ["analyze", str(forms_file), "--out", str(dest)])
        assert code == 0
        assert out == ""
        expected = emit_report(
            [analyze_form(rec) for rec in load_forms(forms_file)], fmt="tsv"
        )
        assert dest.read_bytes() == expected

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.json")])
        assert code == 2
        assert err.startswith("error: data:")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert err.startswith("error: data:")

    def test_schema_violation(self, capsys, tmp_path):
        bad = dict(FORM, weight=[4])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert err.startswith("error: data:")
        assert "weight" in err

    def test_non_integral_ap_is_data_error(self, capsys, tmp_path):
        bad = dict(
            FORM,
            hecke_poly=[-5, 0, 1],
            ap=[{"p": 3, "split_in_F": True, "a": ["1/2", "0"]}],
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert err.startswith("error: data:")
        assert "'demo.sqrt2'" in err and "p=3" in err

    def test_algebraic_integer_outside_power_basis_order_is_data_error(self, capsys, tmp_path):
        # (1 + sqrt 5)/2 is an algebraic integer but not in Z[x]/(x^2 - 5)
        golden_ratio = dict(
            FORM,
            hecke_poly=[-5, 0, 1],
            ap=[{"p": 3, "split_in_F": True, "a": ["1/2", "1/2"]}],
        )
        path = tmp_path / "phi.json"
        path.write_text(json.dumps([golden_ratio]))
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert err == (
            "error: data: record 'demo.sqrt2', p=3: a_p over hecke_poly: coordinates must "
            "be integers in the power basis of the defining polynomial (elements of the "
            "maximal order outside Z[x] are not supported yet)\n"
        )

    def test_degree_ten_groups_are_not_enumerated(self, capsys, tmp_path, monkeypatch):
        from heckeslopes.galois import PermutationGroup

        def refuse(group):
            raise AssertionError(f"enumerated a group of order {group.order}")

        monkeypatch.setattr(PermutationGroup, "elements", property(refuse))
        x10 = [-1, -1] + [0] * 8 + [1]
        base = dict(FORM, hecke_poly=x10, galois_degree=10, ap=[])
        recs = [
            dict(base, label="S10", galois_gens=S10_GENS),
            dict(base, label="A10", galois_gens=A10_GENS),
            dict(base, label="A10.SST", galois_gens=A10_GENS, k_f_circ=10, assumptions=["SST"]),
            dict(base, label="S10.w3", galois_gens=S10_GENS, weight=[3]),
            dict(base, label="A10.w3", galois_gens=A10_GENS, weight=[3]),
        ]
        path = tmp_path / "degree10.json"
        path.write_text(json.dumps(recs))
        unknown = "\tnote=k_f_circ-unknown"
        assert run(capsys, ["classify", str(path)]) == (
            0,
            "S10\tcase=ZeroSlope\tbound_on_kp=0\tdensity=abundant\tconditional_on=-" + unknown + "\n"
            "A10\tcase=SlopeBound\tbound_on_kp=1\tdensity=abundant\tconditional_on=-" + unknown + "\n"
            "A10.SST\tcase=BisectionRST\tbound_on_kp=0\tdensity=conditional_abundant"
            "\tconditional_on=SST\n"
            "S10.w3\tcase=Weight3Bound\tbound_on_kp=0\tdensity=abundant\tconditional_on=-" + unknown + "\n"
            "A10.w3\tcase=Weight3Bound\tbound_on_kp=5\tdensity=abundant\tconditional_on=-" + unknown + "\n",
            "",
        )

    def test_unprintable_label_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([dict(FORM, label="bad\tlabel\nx")]))
        assert run(capsys, ["analyze", str(path)]) == (2, "", UNPRINTABLE_LABEL_ERROR)

    @pytest.mark.parametrize(
        "p,problem",
        [
            # psi_12 = 399165290221 * 798330580441 fools the twelve bases 2..37
            (318665857834031151167461, "318665857834031151167461 is not a prime"),
            (
                2**89 - 1,
                "618970019642690137449562111 is too large to test for primality "
                "(the limit is 3317044064679887385961981)",
            ),
        ],
    )
    def test_prime_outside_the_deterministic_test_is_data_error(self, capsys, tmp_path, p, problem):
        golden = json.loads((Path(__file__).parent / "data" / "golden_forms.json").read_text())[0]
        assert golden["label"] == "golden.sqrt2"
        path = tmp_path / "big.json"
        path.write_text(json.dumps([dict(golden, ap=[dict(golden["ap"][1], p=p)])]))
        assert run(capsys, ["analyze", str(path)]) == (
            2, "", f"error: data: record 'golden.sqrt2', field 'ap[0].p': {problem}\n"
        )

    @pytest.mark.parametrize(
        "change,rows",
        [
            # embeddings' root radius divides the coefficients as floats;
            # 10^309 + 1 is divisible by 7 and 1 mod 3
            (
                {"hecke_poly": [-(10**309) - 1, 0, 1]},
                ["2\tskipped_ramified\t\t\t\t", ANALYZED_AT_3, "7\tskipped_ramified\t\t\t\t"],
            ),
            # the Weil check converts the coordinates to floats, whether
            # the loader keeps them as int or, for "1e309", as Fraction
            ({"ap": [{"p": 3, "split_in_F": True, "a": [str(10**309), "0"]}]}, [ANALYZED_AT_3]),
            ({"ap": [{"p": 3, "split_in_F": True, "a": ["1e309", "0"]}]}, [ANALYZED_AT_3]),
        ],
        ids=["hecke-poly", "ap", "ap-fraction"],
    )
    def test_float_range_overflow_is_data_error(self, capsys, tmp_path, change, rows):
        # only the JSON report prints, and so runs, the Weil check
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([dict(FORM, **change)]))
        assert run(capsys, ["analyze", "--format", "json", str(path)]) == (2, "", FLOAT_RANGE_ERROR)
        header = "label\tp\tstatus\tk_p\tordinary\tnewton_vertices\thalf_bound\n"
        assert run(capsys, ["analyze", str(path)]) == (
            0, header + "".join(f"demo.sqrt2\t{row}\n" for row in rows), ""
        )

    def test_failing_json_report_writes_no_out_file(self, capsys, tmp_path):
        # the Weil check raises inside emit_report, before --out is opened
        path, out = tmp_path / "huge.json", tmp_path / "report.json"
        path.write_text(json.dumps([dict(FORM, hecke_poly=[-(10**309) - 1, 0, 1])]))
        assert run(capsys, ["analyze", "--format", "json", "--out", str(out), str(path)]) == (
            2, "", FLOAT_RANGE_ERROR
        )
        assert not out.exists()

    def test_newton_below_hodge_is_data_error(self, capsys, forms_file, monkeypatch):
        hodge = hodge_polygon(FORM["d"], len(FORM["hecke_poly"]) - 1)
        assert hodge.rank == BELOW_HODGE.rank and hodge.integral == BELOW_HODGE.integral
        assert not hodge.leq(BELOW_HODGE)
        monkeypatch.setattr(pipeline, "frobenius_polygon", lambda d, k, i, weight=2: BELOW_HODGE)
        code, _, err = run(capsys, ["analyze", str(forms_file)])
        assert code == 2
        assert err == NEWTON_BELOW_HODGE_ERROR


class TestClassify:
    def test_galois_actions_match_golden_bytes(self, capsysbinary):
        # C_n, D_n, A_n and S_n actions of degree 4..7, each listed twice
        data = Path(__file__).parent / "data"
        assert main(["classify", str(data / "golden_galois.json")]) == 0
        captured = capsysbinary.readouterr()
        assert (captured.out, captured.err) == ((data / "golden_classify.tsv").read_bytes(), b"")

    def test_line_format(self, capsys, tmp_path):
        recs = [
            dict(FORM, ap=[]),
            dict(FORM, label="demo.small", k_f_circ=2, ap=[]),
            dict(
                FORM,
                label="demo.rst",
                hecke_poly=[-2, 0, 0, 0, 1],
                k_f_circ=4,
                assumptions=["tST(1)", "RST"],
                ap=[],
            ),
        ]
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(recs))
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "demo.sqrt2\tcase=HalfBoundOnly\tbound_on_kp=1"
            "\tdensity=principally_abundant\tconditional_on=-"
            "\tnote=k_f_circ-unknown"
        )
        assert lines[1] == (
            "demo.small\tcase=SmallFrobeniusField\tbound_on_kp=0"
            "\tdensity=principally_abundant\tconditional_on=-"
        )
        assert lines[2] == (
            "demo.rst\tcase=RSTBound\tbound_on_kp=1"
            "\tdensity=conditional_abundant\tconditional_on=tST(1)"
        )

    def test_unprintable_label_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([dict(FORM, ap=[]), dict(FORM, label="bad\tlabel\nx", ap=[])]))
        assert run(capsys, ["classify", str(path)]) == (2, "", UNPRINTABLE_LABEL_ERROR.replace("#0", "#1"))

    def test_degree_beyond_primality_range_is_data_error(self, capsys, tmp_path):
        psi_13 = 3317044064679887385961981
        path = tmp_path / "big.json"
        path.write_text(json.dumps([dict(FORM, ap=[], interact={"deg_K": psi_13, "deg_F": 1})]))
        code, out, err = run(capsys, ["classify", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: data: record 'demo.sqrt2', field 'interact': ")
        assert err.count("\n") == 1

    def test_interact_type_error_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([dict(FORM, ap=[], interact={"deg_K": True})]))
        assert run(capsys, ["classify", str(path)]) == (
            2, "", "error: data: record 'demo.sqrt2', field 'interact': "
            "deg_K must be an integer, got True\n"
        )

    @pytest.mark.parametrize("assumption", ["tST(3)\n", "tST(\u0663)"], ids=["newline", "arabic_digit"])
    def test_tst_index_is_ascii_digits_only(self, capsys, tmp_path, assumption):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([dict(FORM, ap=[], k_f_circ=2, assumptions=[assumption])]))
        assert run(capsys, ["classify", str(path)]) == (
            2, "", f"error: data: record 'demo.sqrt2', field 'assumptions': unknown assumption {assumption!r}\n"
        )


# files the JSON reader refuses with a RecursionError, a
# UnicodeDecodeError (a UTF-16 byte-order mark) and Python's limit of
# 4300 digits on integer strings (3.11 on; 3.10 reads the integer and
# the record check refuses it)
MALFORMED_FILES = {
    "deep_nesting": b"[" * 100000 + b"]" * 100000,
    "utf16_bom": b"\xff\xfe[\x00]\x00",
    "long_integer": b"[" + b"7" * 5000 + b"]",
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_malformed_file_is_one_data_error(capsys, tmp_path, command, name):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_FILES[name])
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: data: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_huge_exponent_is_one_data_error(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([dict(FORM, ap=[{"p": 3, "split_in_F": True, "a": ["1e999999999", "0"]}])]))
    assert run(capsys, [command, str(path)]) == (
        2, "", "error: data: record 'demo.sqrt2', field 'ap[0].a': bad rational '1e999999999'\n"
    )


# a tST index past Python's 4300-digit limit on integer strings (3.11
# on), and Galois actions on more points than the quadratic Hecke
# field has embeddings; a degree of 3 * 10^7 must be refused before
# permutations of that many points are built
OVERSIZED_METADATA = {
    "long_tst_index": (dict(assumptions=["tST(" + "9" * 5000 + ")"]),
                       "'assumptions': tST index has more than 4300 digits"),
    "huge_galois_degree": (dict(galois_degree=3 * 10**7, galois_gens=["()"]),
                           "'galois_degree': must divide the Hecke degree 2"),
    "galois_degree_not_dividing": (dict(galois_degree=3, galois_gens=["(0 1 2)"]),
                                   "'galois_degree': must divide the Hecke degree 2"),
}


@pytest.mark.parametrize("name", OVERSIZED_METADATA)
@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_oversized_metadata_is_one_data_error(capsys, tmp_path, command, name):
    change, problem = OVERSIZED_METADATA[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([dict(FORM, **change)]))
    assert run(capsys, [command, str(path)]) == (2, "", f"error: data: record 'demo.sqrt2', field {problem}\n")


class TestGlobalFlags:
    def test_threads_do_not_change_output(self, capsys):
        argv = ["stc", "--k", "3", "--t", "2"]
        assert run(capsys, ["--threads", "1"] + argv) == run(capsys, ["--threads", "4"] + argv)


ROOT = Path(__file__).resolve().parent.parent


def test_console_script_smoke(tmp_path):
    """The console script that pyproject.toml declares runs in a fresh
    interpreter, called the way the installed wrapper calls it; no install
    and no particular working directory are needed."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["heckeslopes"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = python(tmp_path, "-c", wrapper, "polygon", "--op", "dual", "--a", "0,1", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"-1,0\n"


# the package root's exports, by the submodule that defines each
ROOT_EXPORTS = {
    "polygon": ["SlopeMultiset", "frobenius_polygon", "hodge_polygon"],
    "galois": ["Permutation", "PermutationGroup", "FieldInteraction", "interact_rules"],
    "numberfield": [
        "Field", "factor_mod_p", "PrimeSplitting", "splitting_type", "element_in_prime",
        "Defect", "k_of_p", "weil_bound_check", "half_bound_check",
    ],
    "satotate": [
        "CEstimate", "METHOD_CLOSED", "METHOD_SERIES",
        "tail_constant", "tail_constant_closed_form", "tail_table",
    ],
    "pipeline": [
        "FormRecord", "FormAnalysis", "PrimeReport", "Guarantee",
        "load_forms", "analyze_form", "guarantee", "emit_report",
    ],
}


def test_package_root_loads_on_first_use(tmp_path):
    """``import heckeslopes`` loads no submodule; each exported name is
    its submodule's object, loaded on first access; the error classes
    that ``pipeline`` and ``galois`` re-export are those of ``_errors``."""
    script = f"""
import importlib, sys
import heckeslopes
def loaded():
    return sorted(m for m in sys.modules if m.startswith("heckeslopes."))
assert loaded() == [], loaded()
try:
    heckeslopes.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("no_such_name resolved")
assert set(heckeslopes.__all__) <= set(dir(heckeslopes))
heckeslopes.tail_table
assert loaded() == ["heckeslopes.satotate"], loaded()
exports = {ROOT_EXPORTS!r}
assert sorted(heckeslopes.__all__) == sorted([*sum(exports.values(), []), "__version__"])
for module, names in exports.items():
    for name in names:
        assert getattr(heckeslopes, name) is getattr(importlib.import_module("heckeslopes." + module), name), name
namespace = {{}}
exec("from heckeslopes import *", namespace)
assert sorted(set(namespace) - {{"__builtins__"}}) == sorted(heckeslopes.__all__)
from heckeslopes import _errors, cli, galois, pipeline
assert pipeline.SchemaError is _errors.SchemaError and pipeline.DataError is _errors.DataError
assert galois.ClosureCapExceeded is _errors.ClosureCapExceeded
assert {{"SchemaError", "DataError"}} <= set(pipeline.__all__) and "ClosureCapExceeded" in galois.__all__
print(len(namespace) - 1)
"""
    proc = python(tmp_path, "-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"31\n"


def test_newton_below_hodge_is_data_error_under_optimize(forms_file):
    """The Hodge/Newton check is not an ``assert``: ``python -O`` keeps it."""
    script = (
        "import sys; from heckeslopes import pipeline; from heckeslopes.cli import main; "
        "from heckeslopes.polygon import SlopeMultiset; "
        f"pipeline.frobenius_polygon = lambda d, k, i, weight=2: SlopeMultiset({BELOW_HODGE_SLOPES}); "
        "print(sys.flags.optimize); sys.exit(main(sys.argv[1:]))"
    )
    proc = python(forms_file.parent, "-c", script, "analyze", str(forms_file), flags=["-O"], timeout=60)
    assert proc.stdout == b"1\n"
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == NEWTON_BELOW_HODGE_ERROR.encode()
