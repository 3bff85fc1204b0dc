"""Command-line interface: golden outputs, exit codes, determinism."""
import json
import os
import subprocess
import sys
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
        code, _, err = run(
            capsys,
            ["slope", "--gens", "(0 1 2 3 4 5);(0 1)", "--n", "6", "--cap", "10"],
        )
        assert code == 2
        assert err.startswith("error: data:")

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

    def test_newton_below_hodge_is_data_error(self, capsys, forms_file, monkeypatch):
        hodge = hodge_polygon(FORM["d"], len(FORM["hecke_poly"]) - 1)
        assert hodge.rank == BELOW_HODGE.rank and hodge.integral == BELOW_HODGE.integral
        assert not hodge.leq(BELOW_HODGE)
        monkeypatch.setattr(pipeline, "frobenius_polygon", lambda d, k, i, weight=2: BELOW_HODGE)
        code, _, err = run(capsys, ["analyze", str(forms_file)])
        assert code == 2
        assert err == NEWTON_BELOW_HODGE_ERROR


class TestClassify:
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "polygon", "--op", "dual", "--a", "0,1"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "-1,0\n"


def run_fresh(script, argv, cwd, flags=()):
    """Run ``python [flags] -c script argv...`` in a fresh interpreter
    that imports this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env=env,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["polygon", "--op", "dual", "--a", "0,1"],
        ["slope", "--gens", "(0 1 2 3);(0 2)", "--n", "4"],
        ["classify", "FORMS"],
        ["analyze", "FORMS"],
        ["table", "--max-k", "3"],
        ["stc", "--k", "3", "--t", "2"],
    ],
    ids=["polygon", "slope", "classify", "analyze", "table", "stc"],
)
def test_heavy_imports_only_where_used(forms_file, argv):
    """No command loads numpy or SciPy: a fresh process lists what a
    command left in ``sys.modules``."""
    script = (
        "import sys; from heckeslopes.cli import main; code = main(sys.argv[1:]); "
        "print('loaded=' + ','.join(m for m in ('numpy', 'scipy') if m in sys.modules), "
        "file=sys.stderr); sys.exit(code)"
    )
    argv = [str(forms_file) if a == "FORMS" else a for a in argv]
    proc = run_fresh(script, argv, forms_file.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "loaded="


@pytest.mark.parametrize(
    "argv",
    [
        ["stc", "--k", "3", "--t", "2", "--method", "mc"],
        ["table", "--method", "mc", "--max-k", "3"],
    ],
    ids=["stc", "table"],
)
def test_mc_without_numpy_is_one_usage_line(tmp_path, argv):
    """``--method mc`` is one usage line, whether or not numpy is
    installed."""
    script = (
        "import sys; sys.modules['numpy'] = None; from heckeslopes.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = run_fresh(script, argv, tmp_path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: usage: ")


def test_newton_below_hodge_is_data_error_under_optimize(forms_file):
    """The Hodge/Newton check is not an ``assert``: ``python -O`` keeps it."""
    script = (
        "import sys; from heckeslopes import pipeline; from heckeslopes.cli import main; "
        "from heckeslopes.polygon import SlopeMultiset; "
        f"pipeline.frobenius_polygon = lambda d, k, i, weight=2: SlopeMultiset({BELOW_HODGE_SLOPES}); "
        "print(sys.flags.optimize); sys.exit(main(sys.argv[1:]))"
    )
    proc = run_fresh(script, ["analyze", str(forms_file)], forms_file.parent, flags=["-O"])
    assert proc.stdout == "1\n"
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == NEWTON_BELOW_HODGE_ERROR
