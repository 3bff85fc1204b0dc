"""Eigenform ingestion, per-prime analysis, classification, reports."""
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeslopes import galois, numberfield, pipeline, polygon, satotate
from heckeslopes.pipeline import (
    CASE_BISECTION,
    CASE_CM,
    CASE_HALF,
    CASE_RST,
    CASE_SLOPE_BOUND,
    CASE_SMALL_FIELD,
    CASE_WEIGHT3,
    CASE_ZERO_SLOPE,
    DENSITY_ABUNDANT,
    DENSITY_CAVEAT,
    DENSITY_CONDITIONAL,
    DENSITY_NONE,
    DENSITY_PRINCIPAL,
    STATUS_ANALYZED,
    STATUS_DEGENERATE_AP_ZERO,
    STATUS_SKIPPED_NONSPLIT,
    STATUS_SKIPPED_RAMIFIED,
    DataError,
    SchemaError,
    analyze_form,
    emit_report,
    guarantee,
    load_forms,
    record_from_dict,
    records_from_obj,
    vertices_payload,
)
from heckeslopes.polygon import SlopeMultiset, frobenius_polygon

# Records covering every per-prime status, weight 3 and a degree-2 base
# field, with the TSV/JSON reports they produced before the per-prime
# analysis was reduced to one factorization.
DATA = Path(__file__).resolve().parent / "data"

def minimal_dict(**overrides):
    rec = {
        "label": "demo.1",
        "d": 1,
        "field_poly": [0, 1],
        "level_norm": 11,
        "weight": [2],
        "hecke_poly": [0, 1],
        "cm": False,
        "ap": [{"p": 3, "split_in_F": True, "a": ["-1"]}],
    }
    rec.update(overrides)
    return rec


def sqrt2_dict(**overrides):
    """Hecke field Q(sqrt 2) over the rational base, five primes probing
    every per-prime status."""
    rec = {
        "label": "demo.sqrt2",
        "d": 1,
        "field_poly": [0, 1],
        "level_norm": 1,
        "weight": [2],
        "hecke_poly": [-2, 0, 1],
        "cm": False,
        "ap": [
            {"p": 2, "split_in_F": True, "a": ["1", "0"]},   # ramified in K_f
            {"p": 3, "split_in_F": True, "a": ["1", "1"]},   # inert, unit norm
            {"p": 5, "split_in_F": False, "a": ["1", "0"]},  # not split in F
            {"p": 7, "split_in_F": True, "a": ["3", "1"]},   # defect 1
            {"p": 13, "split_in_F": True, "a": ["0", "0"]},  # a_p = 0
        ],
    }
    rec.update(overrides)
    return rec


def json_rows(analysis):
    """The JSON report's rows of one analysis, by prime: the report is
    where ``weil_ok`` is computed."""
    (form,) = json.loads(emit_report([analysis], fmt="json"))["forms"]
    return {row["p"]: row for row in form["primes"]}


class TestSchema:
    def test_minimal_record(self):
        rec = record_from_dict(minimal_dict())
        assert rec.label == "demo.1"
        assert rec.k_f == 1
        assert rec.motivic_weight == 2
        assert rec.eigenvalues[0].a == (Fraction(-1),)

    def test_rationals_accept_ints_and_strings(self):
        rec = record_from_dict(
            minimal_dict(ap=[{"p": 3, "split_in_F": True, "a": [-1]}])
        )
        assert rec.eigenvalues[0].a == (Fraction(-1),)
        rec = record_from_dict(
            minimal_dict(ap=[{"p": 3, "split_in_F": True, "a": ["-1/2"]}])
        )
        assert rec.eigenvalues[0].a == (Fraction(-1, 2),)

    def test_true_is_refused_beside_one_and_the_string_one(self):
        # a parsed "1" is kept by its string, so true never finds it
        ap = [{"p": 3, "split_in_F": True, "a": ["1"]}, {"p": 5, "split_in_F": True, "a": [1]}]
        with pytest.raises(SchemaError) as caught:
            records_from_obj([
                minimal_dict(label="a", ap=ap),
                minimal_dict(label="b", ap=ap + [{"p": 7, "split_in_F": True, "a": [True]}]),
            ])
        assert str(caught.value) == "record 'b', field 'ap[2].a': entries must be rational strings or integers"

    def test_integers_are_stored_as_int(self):
        # JSON ints and ASCII integer strings skip Fraction parsing
        rec = record_from_dict(minimal_dict(ap=[{"p": 3, "split_in_F": True, "a": ["-007"]}]))
        assert [type(c) for c in rec.eigenvalues[0].a] == [int]
        rec = record_from_dict(minimal_dict(ap=[{"p": 3, "split_in_F": True, "a": [12]}]))
        assert [type(c) for c in rec.eigenvalues[0].a] == [int]

    @settings(max_examples=400, deadline=None)
    @given(
        st.tuples(
            st.sampled_from(["", " ", "\t", "\n ", "\u3000"]),
            st.sampled_from(["", "-", "+", "--", "+-"]),
            st.text("0123456789", min_size=1, max_size=6)
            | st.sampled_from(["1_000", "1__0", "_1", "1_", "007", "\u0663", "\u0661\u0662", "\uff17"]),
            st.sampled_from(["", ".0", ".5", "e3", "E-2", "/7", "/0", "/-3", "/ 2", " /2", "/1_0", ".", "e"]),
            st.sampled_from(["", " ", "\n"]),
        ).map("".join)
        | st.text(max_size=8)
    )
    def test_coordinates_parse_as_fraction_does(self, text):
        # accepted exactly when Fraction accepts, with Fraction's value,
        # on the running Python's grammar (3.10 refuses "1_000"), except
        # that an exponent beyond 4300 in magnitude is refused
        obj = minimal_dict(ap=[{"p": 3, "split_in_F": True, "a": [text]}])
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
        try:
            if exponent and abs(int(exponent[1])) > 4300:
                raise ValueError("exponent beyond 4300")
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(SchemaError, match="bad rational"):
                record_from_dict(obj)
            return
        (coord,) = record_from_dict(obj).eigenvalues[0].a
        assert type(coord) in (int, Fraction)
        assert coord == expected

    @pytest.mark.parametrize("text", ["1e999999999", "-1E-999999999", "1.5e4301", "2e" + "9" * 5000])
    def test_huge_exponents_are_refused_at_once(self, text):
        # Fraction would build 10**999999999 before it returned
        obj = minimal_dict(ap=[{"p": 3, "split_in_F": True, "a": [text]}])
        with pytest.raises(SchemaError, match="bad rational"):
            record_from_dict(obj)

    def test_exponent_at_the_bound_is_read(self):
        obj = minimal_dict(ap=[{"p": 3, "split_in_F": True, "a": ["1e-4300"]}])
        assert record_from_dict(obj).eigenvalues[0].a == (Fraction(1, 10**4300),)

    def test_optional_metadata(self):
        rec = record_from_dict(
            minimal_dict(
                k_f_circ=1,
                d_tilde=1,
                assumptions=["RST", "tST(2)"],
                galois_gens=["()"],
                galois_degree=1,
                interact={"deg_K": 1, "deg_F": 1},
            )
        )
        assert rec.k_f_circ == 1
        assert rec.assumptions == {"RST", "tST(2)"}
        assert rec.galois_action.order == 1
        assert rec.interact.deg_K == 1

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            (dict(ap=[{"p": 3, "split_in_F": True, "a": ["1", "2"]}]), "a"),
            (dict(d=2, field_poly=[-2, 0, 1], weight=[2, 3]), "entries must all equal"),
            (dict(weight=[4]), "weight"),
            (dict(weight=[]), "weight"),
            (dict(weight=[2, 2]), "weight"),
            (dict(hecke_poly=[1, 2]), "hecke_poly"),
            (dict(field_poly=[2, 2]), "field_poly"),
            (dict(k_f_circ=3, hecke_poly=[-2, 0, 0, 0, 1]), "k_f_circ"),
            (dict(k_f_circ=0), "k_f_circ"),
            (dict(ap=[{"p": 4, "split_in_F": True, "a": ["1"]}]), "p"),
            (
                dict(
                    ap=[
                        {"p": 3, "split_in_F": True, "a": ["1"]},
                        {"p": 3, "split_in_F": False, "a": ["2"]},
                    ]
                ),
                "p",
            ),
            (dict(extra_field=1), "extra_field"),
            (dict(galois_gens=["()"]), "galois_degree"),
            # the action permutes the embeddings of K_f (or of a subfield)
            (dict(galois_gens=["(0 1)"], galois_degree=2), "galois_degree"),
            (dict(assumptions=["xST"]), "assumptions"),
            (dict(assumptions=["tST(0)"]), "assumptions"),
            (dict(d=True), "d"),
            (dict(cm="yes"), "cm"),
            (dict(ap=[{"p": 3, "split_in_F": True, "a": ["one"]}]), "a"),
            (dict(ap=[{"p": 3, "split_in_F": True}]), "a"),
            (dict(interact={"deg_Q": 1}), "interact"),
            (dict(label=7), "label"),
            (dict(label="bad\tlabel\nx"), "label"),
            (dict(label="ends in a carriage return\r"), "label"),
            (dict(interact={"deg_K": True}), "'interact': deg_K must be an integer"),
            (dict(interact={"disc_F": "8"}), "'interact': disc_F must be an integer"),
            (dict(interact={"galois_group_kind": 5}), "'interact': unknown galois_group_kind"),
            # psi_12, a strong pseudoprime to the twelve prime bases 2..37
            (dict(ap=[{"p": 318665857834031151167461, "split_in_F": True, "a": ["1"]}]),
             "'ap[0].p': 318665857834031151167461 is not a prime"),
            (dict(ap=[{"p": 2**89 - 1, "split_in_F": True, "a": ["1"]}]),
             "'ap[0].p': 618970019642690137449562111 is too large"),
            (dict(d=2), "'field_poly': degree 1 does not match d=2"),
            (dict(ap=[{"p": 3, "split_in_F": True, "a": [1.5]}]), "entries must be rational strings or integers"),
            (dict(ap=[{"p": 3, "split_in_F": True, "a": [True]}]), "entries must be rational strings or integers"),
        ],
    )
    def test_rejects_bad_records(self, mutation, fragment):
        with pytest.raises(SchemaError) as err:
            record_from_dict(minimal_dict(**mutation))
        assert fragment in str(err.value)
        assert "demo.1" in str(err.value) or "record" in str(err.value)

    @pytest.mark.parametrize(
        "obj, message",
        [
            (["demo.1"], "record #0: not a JSON object"),
            ({k: v for k, v in minimal_dict().items() if k != "cm"},
             "record 'demo.1', field 'cm': required key missing"),
        ],
        ids=["not-an-object", "missing-key"],
    )
    def test_rejects_non_records(self, obj, message):
        with pytest.raises(SchemaError) as err:
            record_from_dict(obj)
        assert str(err.value) == message

    def test_top_level_must_be_list(self):
        with pytest.raises(SchemaError):
            records_from_obj({"forms": []})

    def test_order_preserved(self, tmp_path):
        data = [minimal_dict(label=f"f{i}") for i in range(4)]
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(data))
        recs = load_forms(path)
        assert [r.label for r in recs] == ["f0", "f1", "f2", "f3"]

    def test_str_path_read_as_utf8(self, tmp_path):
        path = tmp_path / "forms.json"
        path.write_bytes(json.dumps([minimal_dict(label="Δ₁₁")], ensure_ascii=False).encode("utf-8"))
        assert [r.label for r in load_forms(str(path))] == ["Δ₁₁"]

    def test_round_trip_through_json(self, tmp_path):
        data = [
            minimal_dict(),
            sqrt2_dict(k_f_circ=2, assumptions=["RST"],
                       interact={"deg_K": 2, "deg_F": 1, "disc_K": 8, "disc_F": 1}),
        ]
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(data))
        first = load_forms(path)
        path.write_text(json.dumps(data))
        second = load_forms(path)
        assert first == second
        assert first[1].interact.disc_K == 8


def test_every_record_type_is_immutable():
    """Each record type, built the way the library builds it, refuses
    attribute assignment."""
    rec = record_from_dict(
        sqrt2_dict(galois_gens=["(0 1)"], galois_degree=2, interact={"deg_K": 2, "deg_F": 1})
    )
    analysis = analyze_form(rec)
    records = [
        rec,
        rec.eigenvalues[0],
        rec.interact,
        analysis,
        analysis.reports[0],
        analysis.summary,
        guarantee(rec),
        numberfield.splitting_type(rec.hecke_poly, 7),
        numberfield.k_of_p((3, 1), rec.hecke_poly, 7),
        satotate.tail_constant(3, 2),
    ]
    assert len({type(r) for r in records}) == len(records)
    for r in records:
        for name in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, None)


class TestAnalysis:
    def test_statuses(self):
        analysis = analyze_form(record_from_dict(sqrt2_dict()))
        by_p = {rep.p: rep for rep in analysis.reports}
        assert by_p[2].status == STATUS_SKIPPED_RAMIFIED
        assert by_p[3].status == STATUS_ANALYZED
        assert by_p[5].status == STATUS_SKIPPED_NONSPLIT
        assert by_p[7].status == STATUS_ANALYZED
        assert by_p[13].status == STATUS_DEGENERATE_AP_ZERO

    def test_defects_and_polygons(self):
        analysis = analyze_form(record_from_dict(sqrt2_dict()))
        by_p = {rep.p: rep for rep in analysis.reports}
        assert by_p[3].k_p == 0 and by_p[3].ordinary
        assert by_p[7].k_p == 1 and not by_p[7].ordinary
        assert by_p[13].k_p == 2 and not by_p[13].ordinary
        assert by_p[7].newton == frobenius_polygon(1, 2, 1)
        assert by_p[7].hodge == frobenius_polygon(1, 2, 0)
        assert by_p[13].newton == SlopeMultiset.from_string("1/2,1/2,1/2,1/2")
        for rep in analysis.reports:
            if rep.newton is not None:
                assert rep.hodge.leq(rep.newton)
                assert rep.newton.has_integral_breakpoints()

    def test_weil_and_half_bound(self):
        analysis = analyze_form(record_from_dict(sqrt2_dict()))
        by_p = {rep.p: rep for rep in analysis.reports}
        assert json_rows(analysis)[7]["weil_ok"] is True
        assert by_p[7].half_bound == "not_applicable"  # 7 <= 2^4
        assert by_p[13].half_bound == "not_applicable"  # a_p = 0

    def test_summary(self):
        analysis = analyze_form(record_from_dict(sqrt2_dict()))
        s = analysis.summary
        assert s.n_primes == 5
        assert s.n_analyzed == 3  # includes the degenerate prime
        assert s.n_ordinary == 1
        assert s.ordinary_density == Fraction(1, 3)
        assert s.exceptional_primes == (7, 13)
        assert dict(s.kp_counts) == {0: 1, 1: 1, 2: 1}
        assert s.prime_bound == 13

    def test_empty_eigenvalues(self):
        analysis = analyze_form(record_from_dict(minimal_dict(ap=[])))
        assert analysis.reports == ()
        assert analysis.summary.n_analyzed == 0
        assert analysis.summary.ordinary_density is None

    def test_weight_three_uses_stretched_polygons(self):
        rec = record_from_dict(
            minimal_dict(
                weight=[3],
                ap=[{"p": 3, "split_in_F": True, "a": ["1"]}],
            )
        )
        rep = analyze_form(rec).reports[0]
        assert rep.newton == frobenius_polygon(1, 1, 0, weight=3)
        assert rep.ordinary

    def test_weight_three_weil_bound(self):
        rec = record_from_dict(
            minimal_dict(
                weight=[3],
                ap=[{"p": 3, "split_in_F": True, "a": ["7"]}],  # |7| > 2*3 fails
            )
        )
        assert json_rows(analyze_form(rec))[3]["weil_ok"] is False

    def test_split_claim_cross_checked(self):
        # base field Q(sqrt 2): 3 is inert, so claiming split at 3 lies
        rec = record_from_dict(
            minimal_dict(
                d=2,
                field_poly=[-2, 0, 1],
                weight=[2, 2],
                ap=[{"p": 3, "split_in_F": True, "a": ["1"]}],
            )
        )
        with pytest.raises(DataError):
            analyze_form(rec)

    def test_split_claim_accepts_true_split(self):
        rec = record_from_dict(
            minimal_dict(
                d=2,
                field_poly=[-2, 0, 1],
                weight=[2, 2],
                ap=[{"p": 7, "split_in_F": True, "a": ["1"]}],
            )
        )
        assert analyze_form(rec).reports[0].status == STATUS_ANALYZED

    def test_split_claim_at_a_base_ramified_prime_is_accepted(self):
        # x^2 - 5 is x^2 mod 5, a repeated factor: its roots cannot refute the claim
        rec = record_from_dict(
            minimal_dict(
                d=2,
                field_poly=[-5, 0, 1],
                weight=[2, 2],
                ap=[{"p": 5, "split_in_F": True, "a": ["1"]}],
            )
        )
        assert analyze_form(rec).reports[0].status == STATUS_ANALYZED

    def test_non_integral_ap_is_data_error(self):
        rec = record_from_dict(
            sqrt2_dict(ap=[{"p": 3, "split_in_F": True, "a": ["1/2", "0"]}])
        )
        with pytest.raises(DataError, match=r"'demo.sqrt2', p=3: a_p over hecke_poly: coordinates must be integers"):
            analyze_form(rec)

    def test_analyze_factors_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze must not factor")

        monkeypatch.setattr(numberfield, "factor_mod_p", refuse)
        monkeypatch.setattr(numberfield, "splitting_type", refuse)
        for rec in load_forms(DATA / "golden_forms.json"):
            analysis = analyze_form(rec)
            assert analysis.summary.n_analyzed > 0

    def test_records_built_with_plain_tuples_analyze_alike(self):
        for rec in load_forms(DATA / "golden_forms.json"):
            plain = rec._replace(field_poly=tuple(rec.field_poly), hecke_poly=tuple(rec.hecke_poly))
            assert type(plain.field_poly) is tuple
            assert analyze_form(plain) == analyze_form(rec)._replace(record=plain)

    def test_one_polygon_per_defect_one_discriminant_per_polynomial(self, monkeypatch):
        calls = {"frobenius_polygon": 0, "leq_strict": 0, "_bareiss_det": 0, "embeddings": 0, "weil": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        polygon_fn = counting("frobenius_polygon", frobenius_polygon)
        # hodge_polygon calls frobenius_polygon through its own module
        monkeypatch.setattr(polygon, "frobenius_polygon", polygon_fn)
        monkeypatch.setattr(pipeline, "frobenius_polygon", polygon_fn)
        monkeypatch.setattr(SlopeMultiset, "leq_strict", counting("leq_strict", SlopeMultiset.leq_strict))
        # each discriminant is one Bareiss determinant
        monkeypatch.setattr(numberfield, "_bareiss_det", counting("_bareiss_det", numberfield._bareiss_det))
        # no Weil check where nothing prints it; one root finding per Hecke
        # polynomial, however many primes the JSON report checks
        monkeypatch.setattr(numberfield, "embeddings", counting("embeddings", numberfield.embeddings))
        monkeypatch.setattr(pipeline, "weil_bound_check", counting("weil", pipeline.weil_bound_check))

        records = load_forms(DATA / "golden_synth.json")
        analyses = [analyze_form(rec) for rec in records]
        defects = {(an.record.label, r.k_p) for an in analyses for r in an.reports if r.k_p is not None}
        polys = {
            poly
            for rec in records
            if any(e.split_in_F for e in rec.eigenvalues)
            for poly in (rec.hecke_poly, rec.field_poly)
        }
        assert sum(len(an.reports) for an in analyses) == 736
        assert calls["frobenius_polygon"] <= len(defects) + len(records)
        assert calls["leq_strict"] <= len(defects)
        assert calls["_bareiss_det"] == len(polys)
        emit_report(analyses, fmt="tsv")
        assert calls["embeddings"] == calls["weil"] == 0
        emit_report(analyses, fmt="json")
        weil_checked = {an.record.hecke_poly for an in analyses if any(r.k_p is not None for r in an.reports)}
        assert calls["embeddings"] == len(weil_checked) > 1

    def test_one_primality_test_per_prime_one_payload_per_polygon(self, monkeypatch):
        from heckeslopes.numberfield import is_prime

        is_prime.cache_clear()
        records = load_forms(DATA / "golden_synth.json")
        analyses = [analyze_form(rec) for rec in records]
        assert is_prime.cache_info().misses == len({e.p for rec in records for e in rec.eigenvalues})

        calls = []
        vertices = SlopeMultiset.vertices
        monkeypatch.setattr(SlopeMultiset, "vertices", lambda ms: calls.append(ms) or vertices(ms))
        newton = {r.newton for an in analyses for r in an.reports if r.newton is not None}
        hodge = {r.hodge for an in analyses for r in an.reports if r.hodge is not None}
        emit_report(analyses, "tsv")
        assert sorted(map(str, calls)) == sorted(map(str, newton))
        calls.clear()
        emit_report(analyses, "json")
        assert sorted(map(str, calls)) == sorted(map(str, newton | hodge))


class TestPerFileSharing:
    """Quantities of a field, not of a record, are computed once per file."""

    def test_one_split_verdict_per_field_and_prime(self, monkeypatch, capsysbinary):
        from heckeslopes.cli import main

        residues, powers = [], []
        init, pow_mod = numberfield.Residue.__init__, numberfield._pow_mod
        monkeypatch.setattr(
            numberfield.Residue, "__init__", lambda res, f, p: residues.append(res) or init(res, f, p)
        )
        monkeypatch.setattr(numberfield, "_pow_mod", lambda *args: powers.append(args[1]) or pow_mod(*args))
        path = DATA / "golden_synth.json"
        assert main(["analyze", str(path)]) == 0
        assert capsysbinary.readouterr().out == (DATA / "golden_synth.tsv").read_bytes()
        checks = [(rec.field_poly, e.p) for rec in load_forms(path) for e in rec.eigenvalues if e.split_in_F]
        assert (len(checks), len(set(checks))) == (284, 71)
        # the residue record of each (field_poly, p) keeps the one verdict
        # it computed, with no power of x when field_poly is linear
        verdicts = [res.p for res in residues if "splits" in vars(res)]
        assert sorted(verdicts) == sorted(p for _, p in set(checks))
        assert sorted(powers) == sorted(p for f, p in set(checks) if len(f) > 2) and len(powers) == 25

    def test_one_residue_per_field_and_prime_and_one_parse_per_coordinate(self, monkeypatch, capsysbinary):
        from heckeslopes.cli import main

        reductions, parsed = [], []
        reduce, pattern = numberfield._reduce, pipeline._INT_RE

        def counted_reduce(f, p):
            if isinstance(f, numberfield.Field):  # only a residue record reduces a Field
                reductions.append((f, p))
            return reduce(f, p)

        class CountedPattern:
            def fullmatch(self, text):
                parsed.append(text)
                return pattern.fullmatch(text)

        monkeypatch.setattr(numberfield, "_reduce", counted_reduce)
        monkeypatch.setattr(pipeline, "_INT_RE", CountedPattern())
        path = DATA / "golden_synth.json"
        assert main(["analyze", str(path)]) == 0
        assert capsysbinary.readouterr().out == (DATA / "golden_synth.tsv").read_bytes()

        raw = json.loads(path.read_text())
        strings = [c for rec in raw for e in rec["ap"] for c in e["a"]]
        assert (len(strings), len(set(strings))) == (4462, 230)
        assert sorted(parsed) == sorted(set(strings))

        records = load_forms(path)
        asked = {
            (poly, e.p)
            for rec in records
            for e in rec.eigenvalues
            if e.split_in_F
            for poly in (rec.field_poly, rec.hecke_poly)
        }
        assert len(reductions) == len(set(reductions)) == len(asked)
        assert set(reductions) == asked

    def test_one_discriminant_per_polynomial_per_run(self, monkeypatch, capsysbinary):
        from heckeslopes.cli import main

        calls = []
        det = numberfield._bareiss_det
        monkeypatch.setattr(numberfield, "_bareiss_det", lambda mat: calls.append(len(mat)) or det(mat))
        path = DATA / "golden_synth.json"
        for _ in range(2):
            assert main(["analyze", str(path)]) == 0
            assert capsysbinary.readouterr().out == (DATA / "golden_synth.tsv").read_bytes()
        records = load_forms(path)
        polys = {
            poly
            for rec in records
            if any(e.split_in_F for e in rec.eigenvalues)
            for poly in (rec.hecke_poly, rec.field_poly)
        }
        # nothing outlives a run: the second computes each one again
        assert len(calls) == 2 * len(polys) > 2

    def test_one_chain_per_distinct_action(self, monkeypatch, capsys):
        from heckeslopes import galois
        from heckeslopes.cli import main

        calls = []
        chain = galois._chain
        monkeypatch.setattr(galois, "_chain", lambda degree, gens: calls.append((degree, tuple(gens))) or chain(degree, gens))
        assert main(["classify", str(DATA / "golden_galois.json")]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "golden_classify.tsv").read_text(encoding="utf-8")
        # 16 distinct actions, and all but A_4 and A_6 have a generator
        # that is a full cycle, which decides both orbit lengths
        assert (out.count("\n"), len(calls), len(set(calls))) == (32, 2, 2)
        assert sorted(degree for degree, _ in calls) == [4, 6]

    def test_equal_generators_share_one_group(self):
        cubic = {"hecke_poly": [-2, 0, 0, 1], "ap": []}
        s3 = dict(cubic, galois_gens=["(0 1 2)", "(0 1)"], galois_degree=3)
        a, b, c = records_from_obj([
            minimal_dict(label="a", **s3),
            minimal_dict(label="b", **s3),
            minimal_dict(label="c", galois_gens=["(0 1 2)"], galois_degree=3, **cubic),
        ])
        assert a.galois_action is b.galois_action
        assert c.galois_action is not a.galois_action
        # each record alone builds its own
        assert record_from_dict(minimal_dict(**s3)).galois_action is not a.galois_action

    def test_equal_polynomials_share_one_field(self):
        quad = {"d": 2, "field_poly": [-5, 0, 1], "weight": [2, 2], "ap": []}
        a, b, c = records_from_obj([
            minimal_dict(label="a", hecke_poly=[-2, 0, 1], **quad),
            minimal_dict(label="b", hecke_poly=[-2, 0, 1], **quad),
            # its Hecke polynomial is the others' base polynomial
            minimal_dict(label="c", hecke_poly=[-5, 0, 1], **quad),
        ])
        assert type(a.field_poly) is type(a.hecke_poly) is numberfield.Field
        assert a.field_poly is b.field_poly is c.field_poly is c.hecke_poly
        assert a.hecke_poly is b.hecke_poly and a.hecke_poly == (-2, 0, 1)
        # each record alone builds its own
        alone = record_from_dict(minimal_dict(hecke_poly=[-2, 0, 1], **quad))
        assert alone == a._replace(label="demo.1")
        assert alone.field_poly is not a.field_poly and alone.hecke_poly is not a.hecke_poly

    def test_each_generator_list_parsed_once(self, monkeypatch):
        parsed = []
        parse = galois.Permutation.parse
        monkeypatch.setattr(galois.Permutation, "parse", lambda s, n: parsed.append(s) or parse(s, n))
        cubic = {"hecke_poly": [-2, 0, 0, 1], "ap": []}
        s3 = dict(cubic, galois_gens=["(0 1 2)", "(0 1)"], galois_degree=3)
        a, b, c = records_from_obj([
            minimal_dict(label="a", **s3),
            minimal_dict(label="b", **s3),
            # the same permutations written otherwise: parsed, then shared
            minimal_dict(label="c", galois_gens=["(1 2 0)", "1,0,2"], galois_degree=3, **cubic),
        ])
        assert parsed == ["(0 1 2)", "(0 1)", "(1 2 0)", "1,0,2"]
        assert a.galois_action is b.galois_action is c.galois_action


class TestGuarantee:
    def test_cm_wins(self):
        g = guarantee(record_from_dict(minimal_dict(cm=True)))
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_CM, 0, DENSITY_PRINCIPAL,
        )
        assert g.conditional_on == frozenset()

    def test_cm_wins_in_weight_three(self):
        g = guarantee(record_from_dict(minimal_dict(cm=True, weight=[3])))
        assert g.case == CASE_CM

    def test_small_frobenius_field(self):
        g = guarantee(record_from_dict(sqrt2_dict(k_f_circ=2)))
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_SMALL_FIELD, 0, DENSITY_PRINCIPAL,
        )

    def test_zero_slope_from_galois_action(self):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[-1, -1, 0, 1],  # cubic
                ap=[],
                galois_gens=["(0 1 2)"],
                galois_degree=3,
            )
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_ZERO_SLOPE, 0, DENSITY_ABUNDANT,
        )

    def test_zero_slope_from_interact_fact(self):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[-2, 0, 0, 0, 0, 1],  # quintic
                ap=[],
                interact={"deg_K": 5, "deg_F": 2},
            )
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp) == (CASE_ZERO_SLOPE, 0)

    def test_slope_bound_beats_half_bound_when_smaller(self):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[-2, 0, 0, 0, 1],  # quartic
                ap=[],
                galois_gens=["(0 1 2)"],  # orbit 3 of 4: slope 1/4
                galois_degree=4,
            )
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_SLOPE_BOUND, 1, DENSITY_ABUNDANT,
        )

    def test_half_bound_fallback_and_kf_circ_unknown(self):
        g = guarantee(record_from_dict(sqrt2_dict()))
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_HALF, 1, DENSITY_PRINCIPAL,
        )

    def test_half_bound_wins_ties_by_density(self):
        # trivial action on 3 points: slope bound = 3 * 1/2 ties the
        # half bound, and the principally abundant case must win
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[-1, -3, 0, 1],
                k_f_circ=3,
                ap=[],
                galois_gens=["()"],
                galois_degree=3,
            )
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_HALF, Fraction(3, 2), DENSITY_PRINCIPAL,
        )

    def test_rst_bound(self):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[-2, 0, 0, 0, 1],
                k_f_circ=4,
                assumptions=["tST(1)"],
                galois_gens=["(0 1)(2 3)", "(0 2)(1 3)"],
                galois_degree=4,
                ap=[],
            )
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_RST, 1, DENSITY_CONDITIONAL,
        )
        assert g.conditional_on == {"tST(1)"}

    @pytest.mark.parametrize(
        "listed,named",
        [
            (["SST", "RST", "tST(2)", "tST(1)"], "tST(1)"),
            # the least n, ties broken by the string, named as listed
            (["tST(03)", "tST(4)"], "tST(03)"),
            (["tST(3)", "tST(03)"], "tST(03)"),
            (["tST(10)", "tST(9)"], "tST(9)"),
        ],
    )
    def test_rst_bound_uses_weakest_sufficient_assumption(self, listed, named):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[-2, 0, 0, 0, 1],
                k_f_circ=4,
                assumptions=listed,
                ap=[],
            )
        )
        assert guarantee(rec).conditional_on == {named}

    def test_bisection_with_rst(self):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[1, 0, -10, 0, 1],  # Q(sqrt2, sqrt3)
                k_f_circ=4,
                assumptions=["RST"],
                galois_gens=["(0 1)(2 3)", "(0 2)(1 3)"],
                galois_degree=4,
                ap=[],
            )
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_BISECTION, 0, DENSITY_CONDITIONAL,
        )
        assert g.conditional_on == {"RST"}

    def test_bisection_accepts_sst(self):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[1, 0, -10, 0, 1],
                k_f_circ=4,
                assumptions=["SST"],
                galois_gens=["(0 1)(2 3)", "(0 2)(1 3)"],
                galois_degree=4,
                ap=[],
            )
        )
        g = guarantee(rec)
        assert g.case == CASE_BISECTION
        assert g.conditional_on == {"SST"}

    def test_bisection_needs_even_frobenius_degree(self):
        rec = record_from_dict(
            minimal_dict(
                hecke_poly=[-1, -3, 0, 1],
                k_f_circ=3,
                assumptions=["RST"],
                galois_gens=["(0 1 2)", "(0 1)"],  # S3 bisects via (0 1)? no: orbits 2,1
                galois_degree=3,
                ap=[],
            )
        )
        g = guarantee(rec)
        assert g.case != CASE_BISECTION

    def test_assumptions_never_hurt(self):
        base = dict(
            hecke_poly=[-2, 0, 0, 0, 1],
            k_f_circ=4,
            galois_gens=["(0 1)(2 3)", "(0 2)(1 3)"],
            galois_degree=4,
            ap=[],
        )
        plain = guarantee(record_from_dict(minimal_dict(**base)))
        with_t = guarantee(record_from_dict(minimal_dict(assumptions=["tST(1)"], **base)))
        with_rst = guarantee(record_from_dict(minimal_dict(assumptions=["RST"], **base)))
        assert plain.bound_on_kp >= with_t.bound_on_kp >= with_rst.bound_on_kp

    def test_weight_three_principal_bound(self):
        rec = record_from_dict(
            minimal_dict(weight=[3], hecke_poly=[-2, 0, 0, 0, 1], k_f_circ=2, ap=[])
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_WEIGHT3, 2, DENSITY_PRINCIPAL,
        )

    def test_weight_three_min_orbit_slope(self):
        rec = record_from_dict(
            minimal_dict(
                weight=[3],
                hecke_poly=[-2, 0, 0, 0, 1],
                galois_gens=["(0 1 2 3)", "(0 2)"],  # a 4-cycle: sigma' = 0
                galois_degree=4,
                ap=[],
            )
        )
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_WEIGHT3, 0, DENSITY_ABUNDANT,
        )

    def test_weight_three_no_metadata_falls_back(self):
        rec = record_from_dict(minimal_dict(weight=[3], hecke_poly=[-2, 0, 1], ap=[]))
        g = guarantee(rec)
        assert (g.case, g.bound_on_kp, g.density_class) == (
            CASE_WEIGHT3, 2, DENSITY_NONE,
        )

    def test_bound_is_fraction_in_range(self):
        for fixture in (minimal_dict(), sqrt2_dict(), minimal_dict(cm=True)):
            rec = record_from_dict(fixture)
            g = guarantee(rec)
            assert isinstance(g.bound_on_kp, Fraction)
            assert 0 <= g.bound_on_kp <= rec.k_f


# S_6 wr S_2 on 12 points, the action preserving the blocks {0..5} and
# {6..11}: order 720^2 * 2 = 1 036 800, over the closure cap
WREATH_S6_S2 = dict(
    d=1, field_poly=[0, 1], level_norm=1, hecke_poly=[-1, -1] + [0] * 10 + [1], ap=[],
    galois_degree=12, galois_gens=["(0 1 2 3 4 5)", "(0 1)", "(0 6)(1 7)(2 8)(3 9)(4 10)(5 11)"],
)
ZERO_SLOPE_FACT = {"deg_K": 3, "deg_F": 1}
DECIDED_WREATH = [
    (dict(cm=True, weight=[2]), "case=CM_ordinary\tbound_on_kp=0\tdensity=principally_abundant"),
    (dict(cm=False, weight=[2], k_f_circ=2), "case=SmallFrobeniusField\tbound_on_kp=0\tdensity=principally_abundant"),
    (dict(cm=False, weight=[2], interact=ZERO_SLOPE_FACT), "case=ZeroSlope\tbound_on_kp=0\tdensity=abundant"),
    (dict(cm=False, weight=[3], interact=ZERO_SLOPE_FACT), "case=Weight3Bound\tbound_on_kp=0\tdensity=abundant"),
]


class TestGuaranteeReadsOnlyWhatDecides:
    """Metadata that decides the case leaves the Galois action unread,
    so a group over the closure cap does not stop the classification."""

    @pytest.mark.parametrize("meta,fields", DECIDED_WREATH, ids=["cm", "small", "zero2", "zero3"])
    def test_decided_wreath_product_records(self, meta, fields, tmp_path, capsys):
        from heckeslopes.cli import main

        path = tmp_path / "wreath.json"
        path.write_text(json.dumps([dict(WREATH_S6_S2, label="wr", **meta)]), encoding="utf-8")
        assert main(["classify", str(path)]) == 0
        note = "" if "k_f_circ" in meta else "\tnote=k_f_circ-unknown"
        assert capsys.readouterr().out == f"wr\t{fields}\tconditional_on=-{note}\n"

    @pytest.mark.parametrize("meta,fields", DECIDED_WREATH, ids=["cm", "small", "zero2", "zero3"])
    def test_decided_records_read_no_orbit_invariant(self, meta, fields, monkeypatch):
        from heckeslopes.galois import PermutationGroup

        def unread(self):
            raise AssertionError("an orbit invariant was read")

        for name in ("slope", "min_orbit_slope", "has_bisecting"):
            monkeypatch.setattr(PermutationGroup, name, unread)
        # sigma = 0 from the interact fact: the bisection case, which
        # would ask has_bisecting, cannot win either
        meta = dict(meta, assumptions=["RST"], k_f_circ=meta.get("k_f_circ", 4))
        g = guarantee(record_from_dict(dict(WREATH_S6_S2, label="wr", **meta)))
        assert f"case={g.case}\tbound_on_kp={g.bound_on_kp}\tdensity={g.density_class}" == fields

    def test_undecided_wreath_product_still_stops_at_the_cap(self, tmp_path, capsys):
        from heckeslopes.cli import main

        path = tmp_path / "wreath.json"
        path.write_text(json.dumps([dict(WREATH_S6_S2, label="wr", cm=False, weight=[2])]), encoding="utf-8")
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == "error: data: closure exceeds cap of 1000000 elements\n"


class TestReports:
    def test_tsv_header_only_when_empty(self):
        out = emit_report([], fmt="tsv").decode()
        assert out == "label\tp\tstatus\tk_p\tordinary\tnewton_vertices\thalf_bound\n"

    def test_tsv_golden(self):
        analysis = analyze_form(record_from_dict(sqrt2_dict()))
        lines = emit_report([analysis], fmt="tsv").decode().splitlines()
        assert lines[0].split("\t") == [
            "label", "p", "status", "k_p", "ordinary", "newton_vertices", "half_bound",
        ]
        assert lines[1] == "demo.sqrt2\t2\tskipped_ramified\t\t\t\t"
        assert lines[2] == (
            'demo.sqrt2\t3\tanalyzed\t0\ttrue\t'
            '[["0","0"],["2","0"],["4","2"]]\tnot_applicable'
        )
        assert lines[4] == (
            'demo.sqrt2\t7\tanalyzed\t1\tfalse\t'
            '[["0","0"],["1","0"],["3","1"],["4","2"]]\tnot_applicable'
        )

    def test_json_report(self):
        analysis = analyze_form(record_from_dict(sqrt2_dict()))
        payload = json.loads(emit_report([analysis], fmt="json"))
        form = payload["forms"][0]
        assert form["label"] == "demo.sqrt2"
        assert form["summary"]["ordinary_density"] == "1/3"
        assert form["summary"]["kp_histogram"] == {"0": 1, "1": 1, "2": 1}
        assert form["summary"]["density_caveat"] == DENSITY_CAVEAT
        statuses = [row["status"] for row in form["primes"]]
        assert statuses == [
            "skipped_ramified", "analyzed", "skipped_nonsplit", "analyzed",
            "degenerate_ap_zero",
        ]

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_report_matches_golden_bytes(self, fmt):
        analyses = [analyze_form(rec) for rec in load_forms(DATA / "golden_forms.json")]
        assert emit_report(analyses, fmt=fmt) == (DATA / f"golden_report.{fmt}").read_bytes()

    def test_reports_byte_identical(self):
        analysis = analyze_form(record_from_dict(sqrt2_dict()))
        for fmt in ("tsv", "json"):
            assert emit_report([analysis], fmt=fmt) == emit_report([analysis], fmt=fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], fmt="xml")

    def test_vertices_payload(self):
        assert vertices_payload(frobenius_polygon(1, 2, 1)) == [
            ["0", "0"], ["1", "0"], ["3", "1"], ["4", "2"],
        ]
