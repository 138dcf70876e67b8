"""Spans around the public functions of each bcft module.

install() replaces every binding of a traced function inside the bcft
package (the defining module and each module that imported the name)
with a wrapper that records a span: name, start, end, parent span and
job id.  Spans stay in memory; dump() writes them out at the end.
Nothing under src/ is changed; the wrappers exist only in the process
that calls install().
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute or Class.method)
TARGETS = (
    ("modular_data.build", "bcft.modular_data", "build_su2"),
    ("modular_data.build", "bcft.modular_data", "build_minimal"),
    ("modular_data.validate", "bcft.modular_data", "validate"),
    ("fusion.verlinde", "bcft.fusion", "verlinde"),
    ("fusion.verify_axioms", "bcft.fusion", "verify_axioms"),
    ("invariants.enumerate_physical", "bcft.invariants", "enumerate_physical"),
    ("hp.nullspace", "bcft.hp", "nullspace"),
    ("hp.rref_rows", "bcft.hp", "rref_rows"),
    ("hp.eig_symmetric", "bcft.hp", "eig_symmetric"),
    ("hp.kahan_sum", "bcft.hp", "kahan_sum"),
    ("nimreps.enumerate_su2_nimreps", "bcft.nimreps", "enumerate_su2_nimreps"),
    ("nimreps.spectrum_match", "bcft.nimreps", "spectrum_match"),
    ("nimreps.verify", "bcft.nimreps", "verify"),
    ("nimreps.psi_matrix", "bcft.nimreps", "psi_matrix"),
    ("nimreps.canonical_generator", "bcft.nimreps", "canonical_generator"),
    ("nimreps.generate_from_generator", "bcft.nimreps", "generate_from_generator"),
    ("characters.characters_for", "bcft.characters", "characters_for"),
    ("characters.div", "bcft.characters", "QSeries.__truediv__"),
    ("characters.evaluate", "bcft.characters", "QSeries.evaluate"),
    ("characters.s_transform_residual", "bcft.characters", "s_transform_residual"),
    ("report.full_report", "bcft.report", "full_report"),
    ("report.annulus", "bcft.report", "annulus"),
    ("report.heat_kernel_check", "bcft.report", "heat_kernel_check"),
    ("report.index_report", "bcft.report", "index_report"),
    ("persistence.load", "bcft.persistence", "Cache.load"),
    ("persistence.store", "bcft.persistence", "Cache.store"),
    ("persistence.canonical_json", "bcft.persistence", "canonical_json"),
)


def _found(counters, args, result):
    counters["invariants.found"] += len(result)


def _loaded(counters, args, result):
    if result is not None:
        cache, key = args[0], args[1]
        counters["persistence.hits"] += 1
        counters["persistence.bytes_read"] += cache.path_for(key).stat().st_size


def _stored(counters, args, result):
    counters["persistence.bytes_written"] += args[0].path_for(result).stat().st_size


# counters taken from a call's arguments and result, by span name
AFTER = {
    "invariants.enumerate_physical": _found,
    "persistence.load": _loaded,
    "persistence.store": _stored,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.stack = []
        self.counters = Counter()
        self.job = None

    def wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self.counters, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at each name its callers look up."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bcft" or n.startswith("bcft."))]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans, counters=self.counters), fh)

    def merge(self, data, job):
        """Append the spans and counters a traced child process dumped."""
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, job])
        self.counters.update(data["counters"])


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.

    Total counts only outermost spans of a name, so recursion is not
    counted twice; self time is a span's duration minus its children's.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def nested_in_same(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if not nested_in_same(i):
            row["s"] += end - start
    return out


def calls_by_job(spans, names):
    """{job id: {span name: calls}} for the given names."""
    out = defaultdict(Counter)
    for name, _, _, _, job in spans:
        if name in names:
            out[job][name] += 1
    return out
