"""Benchmark of the heckeslopes CLI and its layers.

Run from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload analyze-synth --seed 1 --seconds 36 --trace 0

Workloads (the inputs are generated from ``--seed``; see workloads.py):

- ``analyze-synth``: ``analyze`` (TSV) on many records over base fields
  of degree 1..4 and Hecke fields of degree 2..12; factorization mod p
  and polygons dominate.
- ``classify-galois``: ``classify`` over records carrying C_n, D_n, A_n
  and S_n actions of degree 4..7; group closure and orbit invariants
  dominate.
- ``table``: ``table --max-k 8``, Monte Carlo tail constants in numpy.

``--trace 0`` measures the CLI as a user runs it: each invocation is a
fresh ``python -c 'from heckeslopes.cli import entry; entry()'`` with
``PYTHONPATH=src`` and ``--threads 1``, one at a time (a closed loop
with one client) on one CPU, and its CPU time and peak RSS come from
``wait4``.
It reports, as medians:

- ``setup_s``: wall time of the trivial ``polygon --op dual --a 0,1``
  (interpreter start, imports, argument parsing), run before each of
  the workload's invocations, so its samples span the whole CLI phase;
- ``wall_s``, ``cpu_s``, ``peak_rss_mb``: the workload's invocation;
- ``items_per_s``: in-process throughput of ``cli.main`` on the same
  arguments (primes listed for ``analyze``, records for ``classify``,
  table entries for ``table``), timed after the import and after one
  warm-up on the input of another seed; every timed pass gets an input
  the process has not seen, so caches keyed by input (such as
  ``pipeline._EMBEDDING_CACHE``) cannot turn it into lookups.

Times are scaled to a reference CPU speed (see CALIBRATION_REF_S); the
raw medians are on the info line.  Three figures are deliberately not
metrics.  A tail percentile of the CLI wall time: a run holds 8 to 20
fresh-process samples, so no percentile above the median has ten
samples beyond it (the samples are on the info line).  The failed
share: it is ``failed / attempted`` of the result line, and zero.  The
table's largest abs_error: it is a correctness bound instead, so a
table computed from fewer samples fails the check, and its value is
the per-layer ``satotate.max_abs_error``.

``--trace 1`` runs the same arguments in-process, each input once
untraced and once with spans recorded around the public functions of
the layers (spans.py), and reports the per-layer metrics, the import
time by top-level dependency (``python -X importtime``) and
``trace_overhead_s``, the traced minus the untraced pass time on the
same inputs (see ``traced_run``), scaled like the other times.  On
``classify-galois`` it also runs one degree-10 symmetric record, whose
closure passes the library's element cap (a known defect), and counts
that as ``galois.closure.cap_exceeded``.

Every output is checked against an independent oracle (oracles.py) and
must be byte-identical across repeats.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, with
each metric's unit as BENCHMARK.json declares it; the line before it
describes the run (input composition, sample counts).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import oracles
import spans
import workloads

CLI_SHARE = 0.65  # of --seconds spent on fresh CLI invocations; the rest in-process
MIN_CLI_SAMPLES = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
ALT_SEED_OFFSET = 1_000_003  # seeds of in-process inputs other than the main one
ENTRY = "from heckeslopes.cli import entry; entry()"
SETUP_ARGV = ["--threads", "1", "polygon", "--op", "dual", "--a", "0,1"]
OUT_DIR = ".bench_out"

# The host's CPU speed drifts by 20-35% over minutes (neighbouring
# load), which moves raw times from run to run far more than their
# in-run noise.  A fixed pure-Python loop timed next to every sample
# tracks that drift; reported times are scaled by
# CALIBRATION_REF_S / (median loop time of the run), i.e. expressed at
# the speed where the loop takes CALIBRATION_REF_S (about this host's
# uncontended speed).  Raw medians are printed on the info line.
CALIBRATION_REF_S = 0.010
CALIBRATION_ROUNDS = 3

# a degree-10 symmetric action: its closure passes the library's 10^6
# element cap, which is a known defect; probed once per traced
# classify-galois run and reported as galois.closure.cap_exceeded
S10_PROBE = {
    "label": "gal.symmetric.10.probe",
    "d": 1,
    "field_poly": [0, 1],
    "level_norm": 1,
    "weight": [2],
    "hecke_poly": [-1, -1] + [0] * 8 + [1],
    "cm": False,
    "galois_gens": ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"],
    "galois_degree": 10,
    "ap": [],
}


@dataclass
class Prepared:
    """One generated input: CLI arguments, item count, what it holds and
    how to check the CLI's output."""

    argv: list[str]
    items: int
    composition: dict
    check: Callable[[bytes], list[str]]
    primes_factored: int = 0
    describe: Callable[[bytes], dict] = field(default=lambda out: {})


def _analyze_statuses_tsv(out: bytes) -> dict:
    rows = out.decode("utf-8").splitlines()[1:]
    return {"status_counts": dict(sorted(Counter(r.split("\t")[2] for r in rows).items()))}


def _write_validated(records: list[dict], path: str) -> int:
    from heckeslopes.pipeline import load_forms

    size = workloads.write_records(records, path)
    load_forms(path)  # a generator bug fails here, before anything is timed
    return size


def prepare_analyze_synth(seed: int, workdir: str) -> Prepared:
    records, comp = workloads.synth_records(seed)
    path = os.path.join(workdir, f"synth-{seed}.json")
    comp["bytes_in"] = _write_validated(records, path)
    return Prepared(
        argv=["--threads", "1", "analyze", path],
        items=comp["primes_listed"],
        composition=comp,
        check=lambda out: oracles.check_analyze_tsv(out, records),
        primes_factored=comp["primes_split_in_F"],
        describe=_analyze_statuses_tsv,
    )


def prepare_classify_galois(seed: int, workdir: str) -> Prepared:
    records, comp = workloads.galois_records(seed)
    path = os.path.join(workdir, f"galois-{seed}.json")
    comp["bytes_in"] = _write_validated(records, path)
    return Prepared(
        argv=["--threads", "1", "classify", path],
        items=comp["records"],
        composition=comp,
        check=lambda out: oracles.check_classify(out, records),
    )


_TAIL_ORACLE: dict = {}


def _check_table(out: bytes) -> list[str]:
    if not _TAIL_ORACLE:
        _TAIL_ORACLE.update(oracles.tail_oracle(workloads.TABLE_MAX_K))
    return oracles.check_table(out, workloads.TABLE_MAX_K, workloads.TABLE_SAMPLES, _TAIL_ORACLE)


def prepare_table(seed: int, workdir: str) -> Prepared:
    k = workloads.TABLE_MAX_K
    return Prepared(
        argv=["--threads", "1", "--seed", str(seed), "table", "--max-k", str(k),
              "--samples", str(workloads.TABLE_SAMPLES)],
        items=k * (k + 1) // 2,
        composition={"max_k": k, "samples": workloads.TABLE_SAMPLES, "entries": k * (k + 1) // 2,
                     "monte_carlo_entries": (k - 1) * (k - 2) // 2},
        check=_check_table,
        describe=lambda out: {"max_abs_error": oracles.table_max_abs_error(out)},
    )


WORKLOADS = {
    "analyze-synth": prepare_analyze_synth,
    "classify-galois": prepare_classify_galois,
    "table": prepare_table,
}


# ---------------------------------------------------------------------
# processes


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def spawn(cmd: list[str], workdir: str, src: str) -> Sample:
    """Run ``cmd`` to completion with stdout and stderr in files, and
    take its CPU time and peak RSS from ``wait4``."""
    out_path = os.path.join(workdir, "child.stdout")
    err_path = os.path.join(workdir, "child.stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=os.waitstatus_to_exitcode(status),
        stdout=stdout,
        stderr=stderr,
    )


def run_cli(argv: list[str], workdir: str, src: str) -> Sample:
    return spawn([sys.executable, "-c", ENTRY, *argv], workdir, src)


def run_in_process(argv: list[str]) -> tuple[float, int, bytes]:
    """``cli.main(argv)`` with stdout captured; returns (seconds, exit
    code, stdout bytes)."""
    from heckeslopes import cli

    buf = io.BytesIO()
    saved = sys.stdout
    sys.stdout = capture = io.TextIOWrapper(buf, encoding="utf-8")
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        capture.flush()
        elapsed = time.perf_counter() - start
    finally:
        sys.stdout = saved
        capture.detach()  # keep buf open
    return elapsed, code, buf.getvalue()


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)$")


def import_seconds_by_dependency(workdir: str, src: str) -> dict[str, float]:
    """Self import time of ``heckeslopes.cli`` and everything it pulls
    in, summed by top-level package: heckeslopes, numpy, scipy, other."""
    sample = spawn([sys.executable, "-X", "importtime", "-c", "import heckeslopes.cli"], workdir, src)
    if sample.exit_code != 0:
        raise RuntimeError(f"import of heckeslopes.cli failed: {sample.stderr[-300:]!r}")
    by_dep = Counter()
    for line in sample.stderr.decode("utf-8").splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            top = m.group(3).split(".")[0]
            by_dep[top if top in ("heckeslopes", "numpy", "scipy") else "other"] += int(m.group(1))
    out = {"cli.import_s": sum(by_dep.values()) / 1e6}
    for dep in ("heckeslopes", "numpy", "scipy", "other"):
        out[f"cli.import_s.{dep}"] = by_dep[dep] / 1e6
    return out


# ---------------------------------------------------------------------
# runs


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 3:
                self.problems.append(problems[0])


def _cli_problems(sample: Sample, expected: bytes | None) -> list[str]:
    if sample.exit_code != 0:
        return [f"exit {sample.exit_code}: {sample.stderr.decode('utf-8', 'replace')[-200:]}"]
    if expected is not None and sample.stdout != expected:
        return ["output differs from the first invocation"]
    return []


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Calibration loop times collected next to a run's samples."""

    def __init__(self):
        self.loops: list[float] = []

    def sample(self) -> None:
        self.loops.extend(calibration_loop() for _ in range(CALIBRATION_ROUNDS))

    def scale(self) -> float:
        """Factor that brings this run's times to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.loops)


def fresh_inputs(prepare, seed: int, workdir: str):
    """Inputs of seeds seed + k * ALT_SEED_OFFSET, k = 1, 2, ...: each
    in-process pass after the first sees an input this process has not
    seen, so no cache keyed by input can turn a pass into lookups."""
    k = 1
    while True:
        yield prepare(seed + k * ALT_SEED_OFFSET, workdir)
        k += 1


def untraced_run(prep: Prepared, fresh, seconds: int, workdir: str, src: str):
    tally = Tally()
    speed = Speed()
    setup: list[float] = []
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds * CLI_SHARE
    while len(samples) < MIN_CLI_SAMPLES or time.perf_counter() < deadline:
        speed.sample()
        s = run_cli(SETUP_ARGV, workdir, src)
        tally.record(_cli_problems(s, None) or oracles.check_setup(s.stdout))
        setup.append(s.wall_s)
        speed.sample()
        samples.append(run_cli(prep.argv, workdir, src))
    reference = samples[0].stdout
    verdict = _cli_problems(samples[0], None) or prep.check(reference)
    for s in samples:
        tally.record(verdict or _cli_problems(s, reference))

    # in-process: warm up on one fresh input, time the main input (its
    # output must equal the checked CLI output), then further fresh ones
    run_in_process(next(fresh).argv)
    deadline = time.perf_counter() + seconds * (1 - CLI_SHARE)
    speed.sample()
    elapsed, code, out = run_in_process(prep.argv)
    tally.record([] if (code, out) == (0, reference) else ["in-process output differs from the CLI's"])
    rates = [prep.items / elapsed]
    while time.perf_counter() < deadline:
        other = next(fresh)
        speed.sample()
        elapsed, code, _ = run_in_process(other.argv)
        tally.record([f"in-process exit {code}"] if code else [])
        rates.append(other.items / elapsed)

    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(s.wall_s for s in samples),
        "items_per_s": statistics.median(rates),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
    }
    scale = speed.scale()
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "items_per_s": raw["items_per_s"] / scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }
    info = {
        "samples": {"setup": len(setup), "cli": len(samples), "in_process": len(rates)},
        "raw": raw,
        "speed_scale": scale,
        "setup_s_samples": [round(s, 4) for s in setup],
        "wall_s_samples": [round(s.wall_s, 4) for s in samples],
        "output_bytes": len(reference),
        **prep.describe(reference),
    }
    return tally, metrics, info


def _timed_pass(argv: list[str], tracer: spans.Tracer | None) -> tuple[float, int, bytes]:
    """One in-process pass with the embedding cache emptied first, so a
    pass never finds what an earlier pass on the same input stored."""
    from heckeslopes import pipeline

    pipeline._EMBEDDING_CACHE.clear()
    if tracer is None:
        return run_in_process(argv)
    tracer.install()
    try:
        return run_in_process(argv)
    finally:
        tracer.uninstall()


def traced_run(prep: Prepared, fresh, seconds: int, workdir: str, src: str, workload: str):
    """Warm up, then run the main input and then fresh inputs each twice,
    untraced and traced, alternating which pass goes first.  The main
    input's traced pass is checked and its spans give every per-layer
    metric, so counts repeat exactly for a seed.  The tracing overhead
    is the mean of the median traced-minus-untraced difference with
    each order, which cancels what the first pass on an input leaves
    the second (allocator and cache state)."""
    tally = Tally()
    speed = Speed()
    tracer = spans.Tracer()
    run_in_process(next(fresh).argv)
    overheads: tuple[list[float], list[float]] = ([], [])  # untraced first, traced first
    deadline = time.perf_counter() + seconds
    target = prep
    pairs = 0
    while not all(overheads) or time.perf_counter() < deadline:
        speed.sample()
        elapsed = {}
        order = pairs % 2
        for traced in (True, False) if order else (False, True):
            if traced:
                tracer.start_run(pairs + 1)
            elapsed[traced], code, out = _timed_pass(target.argv, tracer if traced else None)
            if target is prep and traced:
                tally.record([f"traced exit {code}"] if code else prep.check(out))
            else:
                tally.record([f"in-process exit {code}"] if code else [])
        overheads[order].append(elapsed[True] - elapsed[False])
        pairs += 1
        if target is prep:
            values = spans.layer_metrics(tracer.spans, prep.primes_factored)
            main_spans = list(tracer.spans)
        target = next(fresh)

    os.makedirs(OUT_DIR, exist_ok=True)
    spans.write_spans(main_spans, os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
    values["trace_overhead_s"] = statistics.mean(map(statistics.median, overheads)) * speed.scale()
    imports = [import_seconds_by_dependency(workdir, src) for _ in range(IMPORTTIME_REPEATS)]
    values.update(spans.median_metrics(imports))

    cap_hits = 0
    if workload == "classify-galois":
        path = os.path.join(workdir, "s10-probe.json")
        workloads.write_records([S10_PROBE], path)
        probe = run_cli(["--threads", "1", "classify", path], workdir, src)
        cap_hits = int(probe.exit_code == 2 and b"closure exceeds cap" in probe.stderr)
    values["galois.closure.cap_exceeded"] = cap_hits

    info = {"samples": {"input_pairs": pairs}}
    return tally, values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "heckeslopes", "cli.py")):
        print("perfbench: src/heckeslopes not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process and, by inheritance, every child: the
    # calibration loop then runs where the samples run, and the CLI's
    # thread pools (OpenBLAS starts one per CPU at import) do not make
    # times depend on whether the other core is idle
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        prepare = WORKLOADS[args.workload]
        prep = prepare(args.seed, workdir)
        fresh = fresh_inputs(prepare, args.seed, workdir)
        if args.trace:
            tally, metrics, info = traced_run(prep, fresh, args.seconds, workdir, src, args.workload)
        else:
            tally, metrics, info = untraced_run(prep, fresh, args.seconds, workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    description = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "composition": prep.composition,
        **info,
    }
    if tally.problems:
        description["problems"] = tally.problems
    print(json.dumps(description, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
