"""The machine's current speed, from two fixed references.

On the reference machine the speed of a fixed piece of code drifts by
tens of percent over seconds to minutes (other tenants on the host), in
CPU time as much as in wall time.  So every job's computation is timed
together with kernel() (before, during and after it), and every process
start with a fresh interpreter that imports a fixed set of modules
(import_time()).  End-to-end times are reported scaled to a machine
where these take REFERENCE_S and IMPORT_REFERENCE_S (see Timing).
"""

import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from mpmath import mp, mpf, workdps

REFERENCE_S = 0.0025
IMPORT_REFERENCE_S = 0.1
# standard-library modules import_time()'s interpreter loads
IMPORT_MODULES = ("fractions, decimal, json, argparse, subprocess, email.parser, "
                  "http.client, xml.dom.minidom, unittest, asyncio, logging, csv, "
                  "sqlite3, ssl, zipfile")
BURST = 3  # kernel runs per sample point
INTERVAL = 0.25  # seconds between sample points inside a job


def kernel():
    """Time of a fixed piece of pure-Python work like bcft's own: mpmath
    dot products at 60 digits, a q-series style integer division loop
    and rational sums.  It uses no bcft code, so bcft changes leave it
    alone."""
    t0 = time.perf_counter()
    with workdps(60):
        a = [mpf(i) / 7 for i in range(1, 60)]
        b = [mpf(i) / 11 for i in range(1, 60)]
        for _ in range(6):
            mp.fdot(a, b)
    c = [(-1) ** i * (i % 13) for i in range(160)]
    out = [0] * len(c)
    for j in range(len(c)):
        acc = c[j]
        for i in range(j):
            if c[j - i] and out[i]:
                acc -= out[i] * c[j - i]
        out[j] = acc
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(1, i)
    return time.perf_counter() - t0


def burst(n=BURST):
    """Median kernel time over n runs.

    The garbage collector is off meanwhile: a collection the kernel's
    allocations set off would walk the heap of the job around it and so
    tie the kernel's time to the job's memory."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(kernel() for _ in range(n))
    finally:
        if enabled:
            gc.enable()


class Timing:
    """One job's wall and CPU seconds and the reference times measured
    with it.

    start_wall/start_cpu is the part spent starting a process and
    importing: all of a set-up, the part of a CLI process outside
    bcft.cli.main.  It is scaled by IMPORT_REFERENCE_S / start_ref,
    start_ref the import_time() taken with it.  The rest is computation.
    A slow spell of the machine slows the kernel more than it slows
    bcft: log time moves by a fraction alpha of log kernel time, as
    calibrate.py measures it per workload.  So computation is scaled by
    (REFERENCE_S / kernel) ** alpha.
    """

    def __init__(self, wall, cpu, kernel, start_wall=0.0, start_cpu=0.0,
                 start_ref=IMPORT_REFERENCE_S):
        self.wall, self.cpu, self.kernel = wall, cpu, kernel
        self.start_wall, self.start_cpu, self.start_ref = start_wall, start_cpu, start_ref

    def scaled(self, alpha):
        """(wall, cpu) at the reference speed."""
        a, b = IMPORT_REFERENCE_S / self.start_ref, (REFERENCE_S / self.kernel) ** alpha
        return (self.start_wall * a + (self.wall - self.start_wall) * b,
                self.start_cpu * a + (self.cpu - self.start_cpu) * b)


class Sampler:
    """Kernel bursts every INTERVAL seconds while a job runs.

    A SIGALRM handler runs them between the job's bytecodes, so a long
    job's speed is sampled during it; `spent_wall`/`spent_cpu` is what
    the handler took, to be taken off the job's times.  The kernel sets
    mpmath's precision only inside workdps, which restores the job's.
    """

    def __init__(self):
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(burst())
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def import_time():
    """Wall seconds of a fresh interpreter that imports IMPORT_MODULES.

    Process start and imports (mapping the interpreter, reading and
    unmarshalling files, running module bodies) follow the machine's
    state otherwise than kernel() does, and the import reference follows
    them.  It loads only the standard library, so bcft changes leave it
    alone."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + IMPORT_MODULES], check=True)
    return time.perf_counter() - t0
