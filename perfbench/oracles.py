"""Correctness checks from oracles independent of the library.

Each ``check_*`` takes the CLI's stdout bytes and the generated inputs
and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import asin, comb, pi, sqrt

import numpy as np
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_from_int_poly, gf_rem

_MAX_PROBLEMS = 5


# ---------------------------------------------------------------------
# analyze: per-prime rows recomputed with sympy's factorization mod p


def _factor_mod_p(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Irreducible factors of the ascending integer polynomial f mod p
    as (descending GF(p) coefficient list, multiplicity)."""
    _, factors = gf_factor(gf_from_int_poly(f[::-1], p), p, ZZ)
    return factors


def _newton_vertices(d: int, k_f: int, k_p: int, weight: int) -> list[list[str]]:
    """Vertices of the Newton polygon with k_p non-ordinary blocks out of
    k_f over a degree-d base, built from binomial counts: an ordinary
    block {0, s} tensored d times has C(d, j) slopes j*s, a supersingular
    block {s/2, s/2} has 2^d slopes d*s/2 (s = weight - 1)."""
    step = weight - 1
    counts: dict[Fraction, int] = {}
    for j in range(d + 1):
        counts[Fraction(j * step)] = counts.get(Fraction(j * step), 0) + comb(d, j) * (k_f - k_p)
    mid = Fraction(d * step, 2)
    counts[mid] = counts.get(mid, 0) + (2**d) * k_p
    x = y = Fraction(0)
    verts = [["0", "0"]]
    for slope in sorted(s for s, c in counts.items() if c):
        x += counts[slope]
        y += slope * counts[slope]
        verts.append([str(x), str(y)])
    return verts


def _expected_row(rec: dict, entry: dict, factors_cache: dict) -> dict:
    p = entry["p"]
    if not entry["split_in_F"]:
        return {"status": "skipped_nonsplit"}
    hecke = rec["hecke_poly"]
    key = (tuple(hecke), p)
    if key not in factors_cache:
        factors_cache[key] = _factor_mod_p(hecke, p)
    factors = factors_cache[key]
    if any(m > 1 for _, m in factors):
        return {"status": "skipped_ramified"}
    k_f = len(hecke) - 1
    a = [int(Fraction(c)) for c in entry["a"]]
    weight = rec["weight"][0]
    if not any(a):
        k_p, status = k_f, "degenerate_ap_zero"
    else:
        a_mod = gf_from_int_poly(a[::-1], p)
        k_p = sum(len(g) - 1 for g, _ in factors if not gf_rem(a_mod, g, p, ZZ))
        status = "analyzed"
    if status == "degenerate_ap_zero" or p <= 2 ** (2 * k_f):
        half = "not_applicable"
    else:
        half = "pass" if 2 * k_p <= k_f else "fail"
    return {
        "status": status,
        "k_p": k_p,
        "ordinary": status == "analyzed" and k_p == 0,
        "newton": _newton_vertices(rec["d"], k_f, k_p, weight),
        "half_bound": half,
    }


def check_analyze_tsv(out: bytes, records: list[dict]) -> list[str]:
    """Every row of the TSV report against sympy factorizations: status,
    k_p, ordinariness, Newton vertices and the half-bound verdict."""
    lines = out.decode("utf-8").splitlines()
    if not lines or lines[0] != "label\tp\tstatus\tk_p\tordinary\tnewton_vertices\thalf_bound":
        return ["TSV header missing or changed"]
    rows = {}
    for line in lines[1:]:
        cols = line.split("\t")
        if len(cols) != 7:
            return [f"malformed TSV row: {line[:80]!r}"]
        rows[(cols[0], int(cols[1]))] = cols
    problems = []
    expected_rows = 0
    cache: dict = {}
    for rec in records:
        for entry in rec["ap"]:
            expected_rows += 1
            got = rows.get((rec["label"], entry["p"]))
            if got is None:
                problems.append(f"{rec['label']} p={entry['p']}: row missing")
                continue
            want = _expected_row(rec, entry, cache)
            if want["status"] != got[2]:
                problems.append(
                    f"{rec['label']} p={entry['p']}: status {got[2]}, expected {want['status']}"
                )
                continue
            if "k_p" not in want:
                continue
            have = (got[3], got[4], json.loads(got[5]), got[6])
            need = (
                str(want["k_p"]),
                "true" if want["ordinary"] else "false",
                want["newton"],
                want["half_bound"],
            )
            if have != need:
                problems.append(f"{rec['label']} p={entry['p']}: row {have}, expected {need}")
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows for {expected_rows} listed primes")
    return problems[:_MAX_PROBLEMS]


# ---------------------------------------------------------------------
# classify: guarantees from closed-form invariants of C_n, D_n, A_n, S_n


def closed_form_invariants(family: str, n: int) -> tuple[Fraction, Fraction, bool]:
    """(slope, min-orbit slope, has a bisecting element) of the
    transitive family on n >= 4 points.  C_n, D_n and S_n contain an
    n-cycle; so does A_n for odd n, while for even n its longest cycle
    has length n - 1 and its best shortest orbit is n/2, from the even
    permutation of cycle type (n/2, n/2).  That type exists, so an
    element bisects, exactly when n is even, in every family."""
    if family == "alternating" and n % 2 == 0:
        return Fraction(1, n), Fraction(1, 2), True
    return Fraction(0), Fraction(0), n % 2 == 0


_DENSITY_RANK = {"principally_abundant": 3, "abundant": 2, "conditional_abundant": 1, "none": 0}


def expected_guarantee(rec: dict) -> tuple[str, Fraction, str, tuple[str, ...]]:
    family = rec["label"].split(".")[1]
    n = rec["galois_degree"]
    k_f = len(rec["hecke_poly"]) - 1
    sigma, sigma_min, bisecting = closed_form_invariants(family, n)
    circ = rec.get("k_f_circ")
    assumptions = set(rec.get("assumptions", []))
    sst, rst = "SST" in assumptions, "RST" in assumptions
    ts = sorted(int(s[4:-1]) for s in assumptions if s.startswith("tST("))
    cands = []
    if rec["cm"]:
        cands.append(("CM_ordinary", Fraction(0), "principally_abundant", ()))
    if rec["weight"][0] == 2:
        if circ is not None and circ <= 2:
            cands.append(("SmallFrobeniusField", Fraction(0), "principally_abundant", ()))
        bound = k_f * min(Fraction(1, 2), sigma)
        cands.append(("ZeroSlope" if bound == 0 else "SlopeBound", bound, "abundant", ()))
        if (sst or rst or ts) and circ is not None:
            used = f"tST({ts[0]})" if ts else ("RST" if rst else "SST")
            bound = Fraction(k_f, circ) * ((circ - 1) // 2)
            cands.append(("RSTBound", bound, "conditional_abundant", (used,)))
        if (sst or rst) and circ is not None and circ % 2 == 0 and bisecting:
            used = "RST" if rst else "SST"
            cands.append(("BisectionRST", Fraction(0), "conditional_abundant", (used,)))
        cands.append(("HalfBoundOnly", Fraction(k_f, 2), "principally_abundant", ()))
    else:
        if circ is not None:
            cands.append(("Weight3Bound", k_f - Fraction(k_f, circ), "principally_abundant", ()))
        cands.append(("Weight3Bound", k_f * sigma_min, "abundant", ()))
    ranked = sorted(
        range(len(cands)),
        key=lambda i: (cands[i][1], -_DENSITY_RANK[cands[i][2]], len(cands[i][3]), i),
    )
    return cands[ranked[0]]


def check_classify(out: bytes, records: list[dict]) -> list[str]:
    lines = out.decode("utf-8").splitlines()
    if len(lines) != len(records):
        return [f"{len(lines)} lines for {len(records)} records"]
    problems = []
    for line, rec in zip(lines, records):
        case, bound, density, cond = expected_guarantee(rec)
        want = (
            f"{rec['label']}\tcase={case}\tbound_on_kp={bound}\tdensity={density}"
            f"\tconditional_on={','.join(cond) or '-'}"
        )
        if "k_f_circ" not in rec:
            want += "\tnote=k_f_circ-unknown"
        if line != want:
            problems.append(f"got {line!r}, expected {want!r}")
    return problems[:_MAX_PROBLEMS]


# ---------------------------------------------------------------------
# table: the FFT-convolution law of log|y_1 ... y_t|


def _log_abs_product_cdfs(max_t: int, n_grid: int = 1 << 17):
    """For t = 1..max_t, the grid and cumulative mass of sum_i log|y_i|
    for i.i.d. semicircle y_i: the density of log|y| is put on a uniform
    grid ending at log 2 and convolved t times by FFT.  The error is
    first order in the grid step, about 5e-5 at the default grid (the
    t = 1 column against its closed form), with no sampling."""
    width = 46.0  # mass of log|y| below log 2 - 46 is about e^-46
    ds = width / n_grid
    s = np.log(2.0) - ds * np.arange(n_grid, dtype=np.float64)[::-1]
    y = np.exp(s)
    w = 2.0 * y * np.sqrt(np.maximum(4.0 - y * y, 0.0)) / (2.0 * np.pi) * ds
    w /= w.sum()
    out = {}
    for t in range(1, max_t + 1):
        n_out = t * (n_grid - 1) + 1
        n_fft = 1 << (n_out - 1).bit_length()
        conv = np.fft.irfft(np.fft.rfft(w, n_fft) ** t, n_fft)[:n_out]
        out[t] = (t * s[0] + ds * np.arange(n_out), np.cumsum(conv))
    return out


def tail_oracle(max_k: int) -> dict[tuple[int, int], float]:
    """c(k, t) = P(|y_1 ... y_t| < 2^(t-k)) for 1 <= t < k <= max_k."""
    cdfs = _log_abs_product_cdfs(max_k - 1)
    table = {}
    for k in range(2, max_k + 1):
        for t in range(1, k):
            grid, cum = cdfs[t]
            below = np.searchsorted(grid, (t - k) * np.log(2.0))
            table[(k, t)] = float(cum[below - 1])
    return table


def closed_form_c_k1(k: int) -> float:
    u = 2.0 ** (-k)
    return (2.0 / pi) * (u * sqrt(1.0 - u * u) + asin(u))


def parse_table(out: bytes) -> dict[tuple[int, int], str]:
    lines = out.decode("utf-8").splitlines()
    cells = {}
    for k, line in enumerate(lines[1:], start=1):
        label, *entries = line.split("\t")
        if label != f"k={k}" or len(entries) != k:
            raise ValueError(f"malformed table row {line!r}")
        for t, cell in enumerate(entries, start=1):
            cells[(k, t)] = cell
    return cells


def table_max_abs_error(out: bytes) -> float:
    cells = parse_table(out)
    return max(float(c.split("±")[1]) for c in cells.values() if "±" in c)


def check_table(out: bytes, max_k: int, samples: int, oracle: dict) -> list[str]:
    """Diagonal exactly 1; every other entry within five standard
    deviations + 1e-4 of the oracle; and no printed abs_error above the
    three-sigma bound 1.5/sqrt(samples) of the requested sample count
    (2% slack for the printed rounding), so fewer samples cannot pass.

    abs_error is three standard deviations, so a tolerance of abs_error
    alone fails a correct table for about one seed in twenty (21 Monte
    Carlo entries); five standard deviations, 5/3 * abs_error, does so
    for about one in a hundred thousand."""
    try:
        cells = parse_table(out)
    except ValueError as exc:
        return [str(exc)]
    if len(cells) != max_k * (max_k + 1) // 2:
        return [f"{len(cells)} table entries, expected {max_k * (max_k + 1) // 2}"]
    problems = []
    accuracy = 1.02 * 1.5 / sqrt(samples)
    for (k, t), cell in sorted(cells.items()):
        if t == k:
            if cell != "1":
                problems.append(f"diagonal ({k},{k}) printed {cell!r}")
            continue
        value, err = (float(x) for x in cell.split("±"))
        if abs(value - oracle[(k, t)]) > 5 / 3 * err + 1e-4:
            problems.append(f"c({k},{t}) = {value} vs oracle {oracle[(k, t)]:.5f}, abs_error {err}")
        if t == 1 and abs(value - closed_form_c_k1(k)) > 1e-5:
            problems.append(f"c({k},1) = {value} vs closed form {closed_form_c_k1(k):.5f}")
        if err > accuracy:
            problems.append(f"c({k},{t}) abs_error {err} above {accuracy:.2e}")
    return problems[:_MAX_PROBLEMS]


def check_setup(out: bytes) -> list[str]:
    return [] if out == b"-1,0\n" else [f"polygon --op dual --a 0,1 printed {out[:40]!r}"]

