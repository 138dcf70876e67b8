#!/usr/bin/env python3
"""Measure how much a workload's times follow the reference kernel.

    python3 perfbench/calibrate.py --workload NAME [--seconds 180]

Runs the workload's passes for --seconds and fits, over every job's
computation (its time less any process start), log(time) = alpha *
log(kernel time) + c, c one constant per job kind, by least squares.
The machine's speed has to change during the run for the fit to mean
anything, so the kernel range is printed beside it.  Each workload's
alpha in workloads.py is this fit rounded to 0.1.
"""

import argparse
import json
import math
import random
import sys

import run


def fit(groups):
    """Slope of log(time) on log(kernel), an intercept per group."""
    sxx = sxy = 0.0
    for pairs in groups.values():
        x = [math.log(k) for _, k in pairs]
        y = [math.log(t) for t, _ in pairs]
        mx, my = sum(x) / len(x), sum(y) / len(y)
        sxx += sum((a - mx) ** 2 for a in x)
        sxy += sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / sxx if sxx else float("nan")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=run.workloads.NAMES)
    p.add_argument("--seconds", type=float, default=180.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    wl = run.workloads.make(args.workload, run.ROOT)
    rng = random.Random(args.seed)
    try:
        wl.setup(rng)
        expected = json.loads(run.EXPECTED.read_text()).get(args.workload, {})
        rec = run.measure(wl, rng, args.seconds, expected)
    finally:
        wl.close()
    # the computation of each job: its time without a process start
    compute = {k: [(t.wall - t.start_wall, t.kernel) for t in ts]
               for k, ts in rec.timings.items()}
    kernels = [t.kernel for ts in rec.timings.values() for t in ts]
    print("%s: %d job runs, %d failed; kernel %.2f-%.2f ms" % (
        args.workload, sum(map(len, compute.values())), rec.failed,
        1000 * min(kernels), 1000 * max(kernels)))
    print("  alpha: %.3f (workloads.py: %g)" % (fit(compute), wl.alpha))
    return 1 if rec.failed else 0


if __name__ == "__main__":
    sys.exit(main())
