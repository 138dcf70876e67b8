#!/usr/bin/env python3
"""Benchmark of the bcft pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is report, sweep, classify, cli-cache, or all (each in turn, in
child processes).  Run from the repository root; bcft is imported from
src/.

One run sets up the workload, then runs passes over its job list in a
closed loop with one client until S seconds have gone by (the first
pass always completes), and checks every job's output against
expected.json.  With --trace 1 it then runs one more pass with spans
recorded around each module's public functions.  It prints an
end-to-end table (and, traced, a per-layer table) and, as its last
line, one JSON object with keys correct, attempted, failed, metrics.

    python3 perfbench/run.py --workload NAME --record

re-records expected.json for NAME from the current sources; do that
only at a commit whose outputs are known to be right.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# set-ups timed in fresh processes per run, spread over the timed passes
SETUP_PROBES = {"classify": 3}  # its set-up builds 39 models: ~2.5 s each
SETUP_PROBES_DEFAULT = 9


class Record:
    """Timings and check results of the jobs run in one measurement."""

    def __init__(self, wl):
        self.alpha = wl.alpha
        self.timings = defaultdict(list)  # job kind -> reference.Timing of each run
        self.setups = []  # reference.Timing of each set-up probe
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.docs = {}

    def wall(self, timing):
        """Wall seconds at the reference speed."""
        return timing.scaled(self.alpha)[0]

    def cpu(self, timing):
        """CPU seconds at the reference speed."""
        return timing.scaled(self.alpha)[1]

    def estimate(self, weights, value):
        """Time of one pass: per job kind, its count times the median of
        value(timing) over its runs."""
        return sum(n * statistics.median(map(value, self.timings[kind]))
                   for kind, n in weights.items())


def measure(wl, rng, seconds, expected, tracer=None, keep=(), probe=None, probes=0):
    """Run passes until `seconds` of jobs have gone by; one pass when
    traced or recording (expected is None).

    With `probe`, it is called `probes` times, at even steps of job time
    between the jobs, and its results go to rec.setups; its own time does
    not count toward `seconds`."""
    rec = Record(wl)
    start = time.perf_counter()
    paused = 0.0
    due = [(i + 0.5) * seconds / probes for i in range(probes)]

    def run_probes(until):
        nonlocal paused
        while due and due[0] <= until:
            due.pop(0)
            t0 = time.perf_counter()
            rec.setups.append(probe())
            paused += time.perf_counter() - t0

    complete = False
    while True:
        for job in wl.new_pass(rng):
            run_probes(time.perf_counter() - start - paused)
            if complete and time.perf_counter() - start - paused >= seconds:
                run_probes(seconds)
                return rec
            timing, outcome = wl.run(job, tracer)
            rec.timings[job.kind].append(timing)
            problems, doc = wl.check(job, outcome)
            if doc is not None:
                if expected is None:
                    rec.digests[job.kind] = gate.digest(doc)
                elif job.kind not in expected:
                    problems.append("no recorded output")
                else:
                    problems += gate.compare(expected[job.kind], doc)
                if job.kind in keep:
                    rec.docs[job.kind] = doc
            rec.attempted += 1
            rec.failed += bool(problems)
            rec.problems += ["%s: %s" % (job.kind, p) for p in problems]
        complete = True
        if tracer is not None or expected is None:
            run_probes(seconds)
            return rec


def setup_probe(args):
    """reference.Timing of the workload's set-up in a fresh process, all
    of it start part, with an import reference started just before."""
    start_ref = reference.import_time()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        check=True, stdout=subprocess.PIPE, cwd=ROOT).stdout
    t = float(out.split()[-1])
    return reference.Timing(t, t, reference.REFERENCE_S, t, t, start_ref)


def cli_medians(wl, rec):
    """(scaled median, raw median, samples) of warm (hit) and cold (miss)
    invocations of the cached commands."""
    if not isinstance(wl, workloads.CliCache):
        return {}
    out = {}
    for key, suffix in (("hit", ":warm"), ("miss", ":cold")):
        runs = [t for k, ts in rec.timings.items()
                if k.endswith(suffix) and k.split(":")[0] in wl.cached for t in ts]
        out[key] = (statistics.median(map(rec.wall, runs)),
                    statistics.median(t.wall for t in runs), len(runs))
    return out


def end_to_end(args, wl, weights, rec, medians):
    """Print the end-to-end table; return the gated metrics and the raw
    value of each timed one.

    Times are scaled to the reference speed (see reference.py); the raw
    value is printed beside each one.
    """
    cli = isinstance(wl, workloads.CliCache)
    rows = [  # name, value, unit, raw value, note
        ("setup_s", statistics.median(map(rec.wall, rec.setups)), "s",
         statistics.median(t.wall for t in rec.setups),
         "median of %d set-ups in fresh processes" % len(rec.setups)),
        ("wall_s", rec.estimate(weights, rec.wall), "s",
         rec.estimate(weights, lambda t: t.wall),
         "one pass of %d jobs, summed per-job medians" % sum(weights.values())),
        ("cpu_s", rec.estimate(weights, rec.cpu), "s",
         rec.estimate(weights, lambda t: t.cpu),
         "same pass, CPU of the child processes" if cli else "same pass, process CPU"),
        ("peak_rss_mb", wl.peak_rss_mb(), "MB", None,
         "largest child process" if cli else "this process"),
        ("failed_ratio", rec.failed / rec.attempted, "ratio", None,
         "%d/%d jobs" % (rec.failed, rec.attempted)),
    ]
    for key, name in (("hit", "cache_hit_p50_s"), ("miss", "cache_miss_p50_s")):
        if key in medians:
            value, raw, n = medians[key]
            rows.append((name, value, "s", raw, "n=%d invocations" % n))
    print("== %s: seed %d, %g s measured, closed loop, 1 client ==" % (
        args.workload, args.seed, args.seconds))
    kernel = [t.kernel for ts in rec.timings.values() for t in ts]
    print("  reference kernel: median %.3f ms with %d jobs (%.3f ms nominal); "
          "alpha %g" % (
              1000 * statistics.median(kernel), len(kernel), 1000 * reference.REFERENCE_S,
              wl.alpha))
    print("  %-18s %12s %-6s %12s  %s" % ("metric", "value", "unit", "raw", "note"))
    for name, value, unit, raw, note in rows:
        print("  %-18s %12.4f %-6s %12s  %s" % (
            name, value, unit, "-" if raw is None else "%.4f" % raw, note))
    print("  per job: median wall s (scaled, raw), samples")
    for kind in weights:
        runs = rec.timings[kind]
        print("    %-28s %9.4f %9.4f  n=%d" % (
            kind, statistics.median(map(rec.wall, runs)),
            statistics.median(t.wall for t in runs), len(runs)))
    # failed_ratio is 0 on a good run, so it travels as attempted/failed;
    # the cache medians exist on cli-cache only and travel as per-layer metrics
    gated = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
    return ({name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows
             if name in gated},
            {name: raw for name, _, _, raw, _ in rows if name in gated and raw is not None})


def per_layer(tracer, untraced, traced, weights, medians):
    """Per-layer metrics of the traced pass, and the base of each ratio."""
    s = spans.summarize(tracer.spans)
    counters = tracer.counters
    metrics, bases = {}, {}

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def secs(name):
        return s[name]["s"] if name in s else 0.0

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def put_ratio(name, num, den):
        put(name, num / den if den else 0.0, "ratio")
        bases[name] = "%.6g/%.6g" % (num, den)

    for name in ("modular_data.build", "fusion.verlinde", "invariants.enumerate_physical",
                 "hp.eig_symmetric", "characters.characters_for", "characters.evaluate",
                 "hp.kahan_sum", "report.annulus", "report.heat_kernel_check",
                 "persistence.load", "persistence.store"):
        put(name + ".calls", calls(name), "count")
        put(name + ".s", secs(name), "s")
    for name in ("modular_data.validate", "fusion.verify_axioms", "hp.nullspace",
                 "hp.rref_rows", "nimreps.enumerate_su2_nimreps", "nimreps.spectrum_match",
                 "nimreps.verify", "nimreps.psi_matrix", "characters.s_transform_residual",
                 "report.full_report", "report.index_report", "persistence.canonical_json",
                 "cli.main"):
        put(name + ".s", secs(name), "s")
    put("invariants.found", counters["invariants.found"], "count")
    put("nimreps.certified", calls("nimreps.canonical_generator"), "count")
    put("nimreps.unique", calls("nimreps.generate_from_generator"), "count")
    put_ratio("nimreps.unique_per_certified", calls("nimreps.generate_from_generator"),
              calls("nimreps.canonical_generator"))
    put("characters.div.calls", calls("characters.div"), "count")
    put_ratio("characters.builds_per_report", calls("characters.characters_for"),
              calls("report.full_report"))
    put("persistence.bytes_read", counters["persistence.bytes_read"], "bytes")
    put("persistence.bytes_written", counters["persistence.bytes_written"], "bytes")
    put_ratio("persistence.hit_ratio", counters["persistence.hits"], calls("persistence.load"))
    # spans hold raw times, so the CLI overhead is taken from raw process times
    raw_wall = sum(t.wall for ts in traced.timings.values() for t in ts)
    put("cli.overhead_s", raw_wall - secs("cli.main") if "cli.main" in s else 0.0, "s")
    put("cli.cache_hit_p50_s", medians["hit"][0] if medians else 0.0, "s")
    put("cli.cache_miss_p50_s", medians["miss"][0] if medians else 0.0, "s")
    # raw on both sides: the traced pass has no kernel sampling during its
    # jobs, so scaled times of the two passes would not be comparable
    put_ratio("trace.overhead_ratio", raw_wall,
              untraced.estimate(weights, lambda t: t.wall))
    return metrics, bases, s


def print_per_layer(metrics, bases, summary, tracer):
    print("== per layer: one traced pass (total and self time of each span) ==")
    print("  %-34s %8s %12s %12s" % ("span", "calls", "total s", "self s"))
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["s"]):
        print("  %-34s %8d %12.4f %12.4f" % (name, row["calls"], row["s"], row["self_s"]))
    print("  metrics:")
    for name, m in metrics.items():
        base = "  = %s" % bases[name] if name in bases else ""
        print("    %-34s %14.6g %-6s%s" % (name, m["value"], m["unit"], base))
    names = ("characters.characters_for", "characters.div", "report.full_report")
    for job, n in sorted(spans.calls_by_job(tracer.spans, names).items()):
        if n["report.full_report"]:
            print("    %s: characters.builds_per_report = %d/%d, characters.div.calls = %d"
                  % (job, n["characters.characters_for"], n["report.full_report"],
                     n["characters.div"]))


def run_one(args):
    wl = workloads.make(args.workload, ROOT)
    rng = random.Random(args.seed)
    try:
        wl.setup(rng)
        if args.setup_probe:
            print(time.perf_counter() - T0)
            return 0
        recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        if args.record:
            rec = measure(wl, rng, 0, None)
            if rec.problems:
                sys.exit("not recorded:\n" + "\n".join(rec.problems))
            recorded[args.workload] = rec.digests
            EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print("recorded %d jobs of %s" % (len(rec.digests), args.workload))
            return 0
        expected = recorded.get(args.workload, {})
        weights = wl.kinds()
        first = next(iter(weights))
        rec = measure(wl, rng, args.seconds, expected, keep=(first,),
                      probe=lambda: setup_probe(args),
                      probes=SETUP_PROBES.get(args.workload, SETUP_PROBES_DEFAULT))
        problems = list(rec.problems)
        if first in rec.docs:
            problems += ["gate self-check: " + p
                         for p in gate.self_check(expected[first], rec.docs[first])]
        medians = cli_medians(wl, rec)
        metrics, raw = end_to_end(args, wl, weights, rec, medians)
        attempted, failed = rec.attempted, rec.failed
        if args.trace:
            tracer = spans.Tracer()
            wl.install_tracing(tracer, rng)
            traced = measure(wl, rng, 0, expected, tracer=tracer)
            attempted += traced.attempted
            failed += traced.failed
            problems += traced.problems
            metrics, bases, summary = per_layer(tracer, rec, traced, weights, medians)
            print_per_layer(metrics, bases, summary, tracer)
    finally:
        wl.close()
    for p in problems:
        print("FAILED " + p, file=sys.stderr)
    # unscaled times for spread.py; the result line stays last
    print(json.dumps({"raw": raw}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    raw = {}
    for name in workloads.NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, cwd=ROOT, text=True).stdout
        lines = out.rstrip("\n").split("\n")
        print("\n".join(lines[:-2]), flush=True)
        raw.update(("%s.%s" % (name, k), v) for k, v in json.loads(lines[-2])["raw"].items())
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = m
    print(json.dumps({"raw": raw}))
    print(json.dumps(combined))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (ROOT / "src" / "bcft" / "__init__.py").is_file():
        sys.exit("perfbench: no bcft sources under %s" % (ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
