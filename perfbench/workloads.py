"""The four workloads: job lists, set-up, and one run of each job.

Every workload is a closed loop with one client: the next job starts
when the previous one has finished.  The seed sets the job order within
each pass, the beta of each report job and the cold/warm interleaving
of the CLI workload; it never changes which jobs run.  The job lists are
cut down from the criterion-1 and criterion-9 sets so that a pass fits
several times into one timed run; README.md gives the reasons.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import reference

ORDER = 400  # bcft's default q-series order, as `bcft report` uses it
BETA_RANGE = (0.9 * 2 * math.pi, 1.1 * 2 * math.pi)

REPORT_TRIPLES = (  # (job id, family, params, invariant tag or None for diagonal)
    ("su2_k10_E6", "su2", (10,), "E6"),
    ("su2_k8_D6", "su2", (8,), "D6"),
    ("minimal_4_3", "minimal", (4, 3), None),
    ("minimal_5_4", "minimal", (5, 4), None),
)


def _minimal_pairs(p_max):
    return [(p, pp) for p in range(3, p_max + 1) for pp in range(2, p)
            if math.gcd(p, pp) == 1]


SWEEP_MODELS = ([("su2", (k,)) for k in range(1, 21)]
                + [("minimal", pair) for pair in _minimal_pairs(10)])
CLASSIFY_MODELS = ([("su2", (k,)) for k in range(1, 21)]
                   + [("minimal", pair) for pair in _minimal_pairs(9)])

# (job id, bcft arguments, whether the command goes through --cache)
CLI_COMMANDS = (
    ("fusion", ["fusion", "--model", "minimal", "--p", "4", "--pp", "3"], True),
    ("invariants", ["invariants", "--model", "su2", "--level", "10"], True),
    ("nimreps-enumerate",
     ["nimreps", "enumerate", "--model", "su2", "--level", "10", "--size", "6"], True),
    ("characters",
     ["characters", "--model", "su2", "--level", "2", "--order", "100"], True),
    ("annulus", ["annulus", "--model", "minimal", "--p", "4", "--pp", "3",
                 "--nimrep", "regular", "--pair", "1,1"], True),
    ("indices", ["indices", "--model", "minimal", "--p", "4", "--pp", "3",
                 "--theta", "0:1,2:1"], True),
    ("check-s-transform",
     ["check", "s-transform", "--model", "minimal", "--p", "5", "--pp", "2"], False),
    ("report-minimal-4-3", ["report", "--model", "minimal", "--p", "4", "--pp", "3"], True),
    ("report-su2-k10-E6",
     ["report", "--model", "su2", "--level", "10", "--invariant-tag", "E6"], True),
)
WARM_RUNS = 2  # warm invocations after each cold one, per pass


def model_id(family, params):
    return "su2_k%d" % params if family == "su2" else "minimal_%d_%d" % params


class Job:
    def __init__(self, kind, call, **info):
        self.kind = kind
        self.call = call
        self.info = info


class Outcome:
    """What one job run produced: its result or the exception it raised."""

    def __init__(self, result=None, error=None):
        self.result = result
        self.error = error


def _build(bcft, family, params):
    if family == "su2":
        return bcft.build_su2(*params)
    return bcft.build_minimal(*params)


class InProcess:
    """Library calls in this process."""

    # exponent of the speed scaling of computation (reference.Timing), as
    # calibrate.py measured it
    alpha = 1.0

    def __init__(self, uses_sympy):
        self.uses_sympy = uses_sympy
        self.jobs = []

    def setup(self, rng):
        """Import, then prepare the jobs."""
        import bcft

        self.bcft = bcft
        if self.uses_sympy:
            # bcft imports sympy on first certification; do it here once
            import sympy

            self.clear_cache = sympy.core.cache.clear_cache
        self.jobs = self.make_jobs(rng)

    def kinds(self):
        return Counter(job.kind for job in self.jobs)

    def new_pass(self, rng):
        order = list(self.jobs)
        rng.shuffle(order)
        return order

    def install_tracing(self, tracer, rng):
        """Wrap bcft's functions, then set the jobs up again under job id
        "setup", so set-up work (classify's model builds) shows too."""
        tracer.install()
        tracer.job = "setup"
        self.jobs = self.make_jobs(rng)

    def run(self, job, tracer=None):
        """(reference.Timing, Outcome) of one job.

        Untraced, the kernel also runs during the job (reference.Sampler)
        and its time is taken off the job's."""
        if self.uses_sympy:
            # every job pays sympy's certification work, as one CLI process would
            self.clear_cache()
        if tracer is not None:
            tracer.job = job.kind
        sampler = reference.Sampler()
        before = reference.burst()
        with sampler if tracer is None else contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outcome = Outcome(job.call())
            except Exception as exc:  # a failing job is counted, not fatal
                outcome = Outcome(error=exc)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        kernel = statistics.median([before, reference.burst()] + sampler.samples)
        return reference.Timing(wall - sampler.spent_wall, cpu - sampler.spent_cpu,
                                kernel), outcome

    def check(self, job, outcome):
        """(problems, output document) of one job run."""
        if outcome.error is not None:
            return ["raised %r" % outcome.error], None
        return [], self.document(job, outcome.result)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


class Report(InProcess):
    """`bcft report` in-process: build, verlinde, invariant and nimrep pick,
    full_report, for each (model, invariant, nimrep) triple."""

    alpha = 0.8

    def __init__(self):
        super().__init__(uses_sympy=True)

    def make_jobs(self, rng):
        jobs = []
        for kind, family, params, tag in REPORT_TRIPLES:
            beta = rng.uniform(*BETA_RANGE)
            jobs.append(Job(kind, self._pipeline(family, params, tag, beta), beta=beta))
        return jobs

    def _pipeline(self, family, params, tag, beta):
        bcft = self.bcft

        def call():
            md = _build(bcft, family, params)
            fr = bcft.verlinde(md)
            if tag is None:  # the CLI's default: diagonal invariant, regular nimrep
                Z, nr = bcft.diagonal_invariant(md), bcft.regular_nimrep(fr)
            else:
                Z = next(z for z in bcft.enumerate_physical(md) if z.tag == tag)
                nr = next(n for n in bcft.enumerate_su2_nimreps(md, Z.size)
                          if bcft.spectrum_match(n, Z, md).ok)
            return bcft.full_report(md, Z, nr, ORDER, beta)

        return call

    def check(self, job, outcome):
        problems, doc = super().check(job, outcome)
        if doc is not None:
            for text in (doc["beta"], doc["heat_kernel"].get("beta", doc["beta"])):
                if abs(float(text) - job.info["beta"]) > 1e-12:
                    problems.append("beta %s, asked for %r" % (text, job.info["beta"]))
        return problems, doc

    def document(self, job, result):
        return result


class Sweep(InProcess):
    """Criterion-1 style sweep: build, verlinde, regular nimrep verify and
    fusion axioms for each model."""

    alpha = 0.8

    def __init__(self):
        super().__init__(uses_sympy=False)

    def make_jobs(self, rng):
        bcft = self.bcft

        def job(family, params):
            def call():
                fr = bcft.verlinde(_build(bcft, family, params))
                return (fr, bcft.verify(bcft.regular_nimrep(fr), fr).ok,
                        bcft.verify_axioms(fr).ok)

            return Job(model_id(family, params), call)

        return [job(f, p) for f, p in SWEEP_MODELS]

    def document(self, job, result):
        fr, nimrep_ok, axioms_ok = result
        doc = self.bcft.fusion.fusion_document(fr)
        doc.update(regular_nimrep_ok=nimrep_ok, axioms_ok=axioms_ok)
        return doc


class Classify(InProcess):
    """enumerate_physical per model, then for each su2 invariant the
    nimreps of its size and their spectrum matches.  Models are built
    during set-up."""

    alpha = 0.9

    def __init__(self):
        super().__init__(uses_sympy=True)

    def make_jobs(self, rng):
        bcft = self.bcft

        def job(family, params):
            md = _build(bcft, family, params)

            def call():
                invs = bcft.enumerate_physical(md)
                if md.family != "su2":
                    return invs, []
                found = []
                for Z in invs:
                    nrs = bcft.enumerate_su2_nimreps(md, Z.size)
                    found.append([(nr, bcft.spectrum_match(nr, Z, md).ok) for nr in nrs])
                return invs, found

            return Job(model_id(family, params), call)

        return [job(f, p) for f, p in CLASSIFY_MODELS]

    def document(self, job, result):
        invs, found = result
        return {
            "invariants": [self.bcft.invariant_document(z) for z in invs],
            "nimreps": [[[self.bcft.nimrep_document(nr), ok] for nr, ok in per_z]
                        for per_z in found],
        }


class CliCache:
    """Sequential `bcft ... --format structured --cache DIR` processes;
    each pass starts from an empty cache, runs every command once cold
    and WARM_RUNS times warm, interleaved by the seed."""

    alpha = 0.6  # as in InProcess

    def __init__(self, root: Path):
        self.root = root
        self.work = None

    def setup(self, rng):
        """Make the scratch directory and start the CLI once."""
        scratch = self.root / ".bench_build"
        scratch.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self._spawn([sys.executable, "-m", "bcft.cli", "models"], check=True)
        self.jobs = {kind: args for kind, args, _ in CLI_COMMANDS}
        self.cached = {kind for kind, _, cached in CLI_COMMANDS if cached}

    def _spawn(self, argv, check=False):
        return subprocess.run(argv, cwd=self.work, env=self.env, check=check,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def kinds(self):
        out = Counter()
        for kind in self.jobs:
            out[kind + ":cold"] = 1
            out[kind + ":warm"] = WARM_RUNS
        return out

    def new_pass(self, rng):
        self.cache = self.work / "cache"
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cold_stdout = {}
        left = {kind: ["cold"] + ["warm"] * WARM_RUNS for kind in self.jobs}
        order = []
        while left:
            kind = rng.choice(sorted(left))
            order.append(Job(kind + ":" + left[kind].pop(0), None, command=kind))
            if not left[kind]:
                del left[kind]
        return order

    def install_tracing(self, tracer, rng):
        pass  # each traced process installs its own wrappers (cli_shim.py)

    def _cache_files(self):
        return sum(len(files) for _, _, files in os.walk(self.cache))

    def run(self, job, tracer=None):
        """(reference.Timing, Outcome) of one CLI process.

        The process starts through cli_shim.py, which times bcft.cli.main
        in the child; the rest of the process (start, imports) is its
        start part, timed with an import reference started just before
        it.  The kernel is timed here, just before and after it."""
        side = self.work / "shim.json"
        side.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).resolve().parent / "cli_shim.py"),
                str(side), "1" if tracer is not None else "0"]
        argv += self.jobs[job.info["command"]] + [
            "--format", "structured", "--cache", str(self.cache)]
        before = self._cache_files()
        start_ref = reference.import_time()
        kernel = [reference.burst()]
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = self._spawn(argv)
        wall = time.perf_counter() - t0
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
        kernel = statistics.median(kernel + [reference.burst()])
        outcome = Outcome((proc, self._cache_files() - before))
        try:
            data = json.loads(side.read_text())
        except (OSError, ValueError):  # the child died before writing it
            return reference.Timing(wall, cpu, kernel), outcome
        if tracer is not None:
            tracer.merge(data, job.kind)
        return reference.Timing(wall, cpu, kernel, wall - data["main_wall"],
                                cpu - data["main_cpu"], start_ref), outcome

    def check(self, job, outcome):
        """Exit code 0; a cold run stores one entry (when the command uses
        the cache) and its document is compared with the recording; a warm
        run stores nothing and prints exactly what the cold run printed."""
        proc, stored = outcome.result
        command = job.info["command"]
        if proc.returncode != 0:
            return ["exit code %d: %s" % (proc.returncode,
                                          proc.stderr.decode(errors="replace")[-300:])], None
        cold = job.kind.endswith(":cold")
        want_stored = 1 if cold and command in self.cached else 0
        problems = []
        if stored != want_stored:
            problems.append("stored %d cache entries, expected %d" % (stored, want_stored))
        if not cold:
            want = self.cold_stdout.get(command)
            if want is None:
                problems.append("no cold stdout to compare with")
            elif proc.stdout != want:
                at = next((i for i, (a, b) in enumerate(zip(proc.stdout, want)) if a != b),
                          min(len(proc.stdout), len(want)))
                problems.append("warm stdout differs from the cold stdout (%d vs %d bytes, "
                                "first at byte %d: warm %r, cold %r)" % (
                                    len(proc.stdout), len(want), at,
                                    proc.stdout[max(0, at - 60):at + 60],
                                    want[max(0, at - 60):at + 60]))
            return problems, None
        self.cold_stdout[command] = proc.stdout
        try:
            return problems, json.loads(proc.stdout)
        except ValueError as exc:
            out = proc.stdout
            return problems + ["stdout is not a JSON document (%s; %d bytes, starts %r, "
                               "ends %r; stderr ends %r)" % (
                                   exc, len(out), out[:80], out[-80:],
                                   proc.stderr[-200:])], None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


def make(name, root):
    if name == "cli-cache":
        return CliCache(root)
    return {"report": Report, "sweep": Sweep, "classify": Classify}[name]()


NAMES = ("report", "sweep", "classify", "cli-cache")
