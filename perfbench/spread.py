#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]
                                [--trace 0|1] [--baseline]

For every metric: median, first and third quartile (as
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json fixes.  With
--baseline the result is stored under the workload in baseline.json.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, cwd=ROOT, text=True).stdout
        lines = out.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        result["seed"], result["run_s"] = seed, time.perf_counter() - t0
        # run.py prints the unscaled times on the line before the result
        result["raw"] = {k + ".raw": v for k, v in json.loads(lines[-2])["raw"].items()}
        runs.append(result)
        print("seed %d: correct %s, %d/%d failed, %.1f s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            result["run_s"]), flush=True)
    summary = {}
    print("%-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for r in runs:
        r["metrics"].update({k: {"value": v, "unit": "s"} for k, v in r["raw"].items()})
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        bound = bounds.get(name)
        print("%-34s %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound))
    if args.baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        entry = baseline.setdefault(args.workload, {})
        entry["traced" if args.trace else "end_to_end"] = {
            "seeds": args.seeds, "seconds": seconds, "metrics": summary,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_s": [round(r["run_s"], 1) for r in runs],
        }
        baseline["machine"] = {
            "nproc": len(__import__("os").sched_getaffinity(0)),
            "python": platform.python_version(),
            "mpmath_backend": __import__("mpmath").libmp.BACKEND,
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
