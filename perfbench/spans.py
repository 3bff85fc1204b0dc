"""Spans around the library's public functions, for the traced run.

``Tracer.install`` wraps each traced function where it is defined and
in every ``heckeslopes`` module that imported it by name, and the
traced methods and properties on their classes; ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, run id, extra) stay
in memory, one run at a time; ``layer_metrics`` turns a run's spans into the per-layer
metrics and ``write_spans`` saves them when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from weakref import WeakSet

NUMBERFIELD_FUNCTIONS = ("splitting_type", "factor_mod_p", "k_of_p", "weil_bound_check", "embeddings")
POLYGON_FUNCTIONS = ("frobenius_polygon", "hodge_polygon")
POLYGON_METHODS = ("leq_strict", "vertices")
GALOIS_INVARIANTS = ("slope", "min_orbit_slope", "has_bisecting", "element_fraction")
PIPELINE_FUNCTIONS = ("load_forms", "analyze_form", "emit_report", "guarantee")
STATUSES = ("analyzed", "degenerate_ap_zero", "skipped_nonsplit", "skipped_ramified", "skipped_index")
TAIL_METHODS = ("closed_form", "quadrature", "monte_carlo")


def _statuses(args, analysis):
    return Counter(r.status for r in analysis.reports)


def _tail_estimate(args, est):
    return est.method, est.samples_or_nodes, est.abs_error


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)``
        stores a value in the span's extra slot once the span has
        ended, so its cost is not charged to this span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = exc
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                rec[5] = after(args, result)
            return result

        return traced

    def _closure(self, fget):
        """``PermutationGroup.elements``: a span for the first access on
        each group, which runs the closure; later accesses are cached
        lookups and record nothing."""
        closed = WeakSet()
        traced = self.wrap("galois.closure", fget, after=lambda args, res: res)

        def elements(group):
            if group in closed:
                return fget(group)
            result = traced(group)
            closed.add(group)
            return result

        return property(elements)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, after=None):
        """Wrap ``module.attr`` and every ``heckeslopes`` module-level
        name bound to the same object."""
        orig = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        new = self.wrap(f"{short}.{attr}", orig, after)
        for name, mod in list(sys.modules.items()):
            if (name == "heckeslopes" or name.startswith("heckeslopes.")) and vars(mod).get(attr) is orig:
                self._patch(mod, attr, new)

    def install(self):
        from heckeslopes import cli, galois, numberfield, pipeline, polygon, satotate

        self._patch_function(cli, "main")
        for fn in PIPELINE_FUNCTIONS:
            after = {"analyze_form": _statuses, "emit_report": lambda a, r: len(r)}.get(fn)
            self._patch_function(pipeline, fn, after)
        for fn in NUMBERFIELD_FUNCTIONS:
            self._patch_function(numberfield, fn)
        for fn in POLYGON_FUNCTIONS:
            self._patch_function(polygon, fn, lambda a, r: r.rank)
        for meth in POLYGON_METHODS:
            orig = polygon.SlopeMultiset.__dict__[meth]
            self._patch(polygon.SlopeMultiset, meth, self.wrap(f"polygon.SlopeMultiset.{meth}", orig))
        group = galois.PermutationGroup
        self._patch(group, "elements", self._closure(group.__dict__["elements"].fget))
        for meth in GALOIS_INVARIANTS:
            self._patch(group, meth, self.wrap(f"galois.invariants.{meth}", group.__dict__[meth]))
        self._patch_function(satotate, "tail_constant", _tail_estimate)
        self._patch_function(satotate, "tail_table")

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def start_run(self, run: int) -> None:
        """Drop the previous run's spans; parent fields index into the
        current run's list."""
        self.spans.clear()
        self.run = run


def layer_metrics(spans: list[list], primes_factored: int) -> dict[str, float]:
    """Per-layer metrics of one traced run's spans.  ``.s`` is inclusive
    time, ``.self_s`` excludes the time of traced callees; both in
    seconds.  ``primes_factored`` (primes of the input that reach
    factorization) is the base of ``splitting_type.calls_per_prime``."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_t: Counter = Counter()
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        incl[s[0]] += dur[i]
        self_t[s[0]] += dur[i] - child[i]

    m: dict[str, float] = {
        "pipeline.load_forms.s": incl["pipeline.load_forms"],
        "pipeline.emit_report.s": incl["pipeline.emit_report"],
        "pipeline.analyze_form.self_s": self_t["pipeline.analyze_form"],
        "pipeline.guarantee.calls": calls["pipeline.guarantee"],
        "pipeline.guarantee.self_s": self_t["pipeline.guarantee"],
    }
    m["pipeline.emit_report.bytes_out"] = sum(s[5] for s in spans if s[0] == "pipeline.emit_report")
    statuses: Counter = Counter()
    for s in spans:
        if s[0] == "pipeline.analyze_form":
            statuses.update(s[5])
    for status in STATUSES:
        m[f"pipeline.status.{status}"] = statuses[status]

    for fn in NUMBERFIELD_FUNCTIONS:
        m[f"numberfield.{fn}.calls"] = calls[f"numberfield.{fn}"]
        m[f"numberfield.{fn}.self_s"] = self_t[f"numberfield.{fn}"]
    m["numberfield.splitting_type.calls_per_prime"] = (
        calls["numberfield.splitting_type"] / primes_factored if primes_factored else 0.0
    )

    polygon_names = [f"polygon.{fn}" for fn in POLYGON_FUNCTIONS] + [
        f"polygon.SlopeMultiset.{meth}" for meth in POLYGON_METHODS
    ]
    for key in polygon_names:
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.s"] = incl[key]
    m["polygon.slopes_built"] = sum(s[5] for s in spans if s[0] == "polygon.frobenius_polygon")

    # shares of analyze_form's time spent (self) in each layer below it
    in_analysis = [False] * len(spans)
    analysis_self: Counter = Counter()
    for i, s in enumerate(spans):
        in_analysis[i] = s[0] == "pipeline.analyze_form" or (s[3] >= 0 and in_analysis[s[3]])
        if in_analysis[i]:
            analysis_self[s[0].split(".")[0]] += dur[i] - child[i]
    analysis = incl["pipeline.analyze_form"]
    for layer in ("numberfield", "polygon"):
        m[f"{layer}.analysis_share"] = analysis_self[layer] / analysis if analysis else 0.0

    closures = [s for s in spans if s[0] == "galois.closure"]
    done = [s[5] for s in closures if not isinstance(s[5], Exception)]
    m["galois.closure.calls"] = len(closures)
    m["galois.closure.s"] = incl["galois.closure"]
    m["galois.closure.elements"] = sum(len(e) for e in done)
    m["galois.closure.distinct_groups"] = len(set(done))
    m["galois.invariants.s"] = sum(self_t[f"galois.invariants.{meth}"] for meth in GALOIS_INVARIANTS)

    tails = [(s[2] - s[1], s[5]) for s in spans if s[0] == "satotate.tail_constant"]
    ests = [e for _, e in tails]
    for method in TAIL_METHODS:
        m[f"satotate.tail_constant.calls.{method}"] = sum(1 for e in ests if e[0] == method)
        m[f"satotate.tail_constant.s.{method}"] = sum(d for d, e in tails if e[0] == method)
    m["satotate.mc_samples"] = sum(e[1] for e in ests if e[0] == "monte_carlo")
    m["satotate.quad_nodes"] = sum(e[1] for e in ests if e[0] == "quadrature")
    m["satotate.max_abs_error"] = max((e[2] for e in ests), default=0.0)
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def write_spans(spans: list[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, run, _ in spans:
            fh.write(json.dumps([name, start, end, parent, run]) + "\n")
