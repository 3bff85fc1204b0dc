"""Record a baseline: every workload over a list of seeds, untraced, plus
one traced run per workload, with machine information.

    python3 perfbench/baseline.py --seeds 1-10

writes perfbench/BASELINE.json (or the file given with ``--out``).

Reads the workloads, bounds and run length from BENCHMARK.json at the
repository root.  For each end-to-end metric it reports the median of
the per-run values, their quartiles, and the spread (third minus first
quartile, as a share of the median) next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    info_line, result_line = proc.stdout.splitlines()[-2:]
    info = json.loads(info_line)
    info["run_s"] = round(time.perf_counter() - start, 1)
    return info, json.loads(result_line)


def _seeds(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def machine() -> dict:
    import numpy
    import scipy
    import sympy

    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
    }


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "bound": bound,
        "runs": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default="1-10", help="a range, e.g. 1-10")
    parser.add_argument("--out", default=os.path.join("perfbench", "BASELINE.json"))
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = args.seeds
    result = {
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "traced_seed": seeds[0],
        "workloads": {},
    }
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = [_run(name, seed, seconds, 0) for seed in seeds]
        for info, res in runs:
            print(f"{name} seed={info['seed']} run_s={info['run_s']} correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
        traced_info, traced = _run(name, seeds[0], seconds, 1)
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [res["metrics"][metric["name"]]["value"] for _, res in runs]
            end_to_end[metric["name"]] = {"unit": metric["unit"], **summarize(values, metric["bound"])}
        result["workloads"][name] = {
            "why": wl["why"],
            "composition": runs[0][0]["composition"],
            "attempted": sum(res["attempted"] for _, res in runs),
            "failed": sum(res["failed"] for _, res in runs),
            "run_s_max": max(info["run_s"] for info, _ in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run_s": traced_info["run_s"],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
