"""Correctness gate: compare a job's output document with its recording.

A document is split into an exact skeleton and its decimal fields.
Exact fields (integers, fractions, q-series coefficients, tags,
exponents, fusion tensors, flags) must match the recording byte for
byte, through the SHA-256 of the canonical skeleton.  Decimal fields
(strings such as "0.2886..." or "4.3e-60") must match to within the
working precision.  Keys in SKIPPED (the seed-drawn beta) are left out
of both and checked by the caller.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
from decimal import Decimal, localcontext

# bcft renders decimals with this many significant digits by default
PRECISION = 50
# a decimal field may move by this much (relative, floor 1) between runs
DECIMAL_SLACK = Decimal(10) ** -(PRECISION - 5)

_UNSIGNED = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_DECIMAL = re.compile(r"^[+-]?%s$" % _UNSIGNED)
_COMPLEX = re.compile(r"^([+-]?%s)([+-])(%s)i$" % (_UNSIGNED, _UNSIGNED))
SKIPPED = ("beta",)
# integer arrays whose first entry the self-check flips, in preference order
_COEFFICIENT_KEYS = ("coeffs", "tensor", "nmats", "Z")
_RESIDUALS = (
    ("max_residual", "tolerance"),
    ("residual", "tolerance"),
    ("cardy_residual", "cardy_tolerance"),
)


def _decimal_parts(text):
    """The numeric parts of a decimal or complex string, else None.

    Plain integers ("10") are sector names or counts and stay exact.
    """
    if _DECIMAL.match(text) and not text.lstrip("+-").isdigit():
        return (Decimal(text),)
    m = _COMPLEX.match(text)
    if m:
        imag = Decimal(m.group(3))
        return (Decimal(m.group(1)), -imag if m.group(2) == "-" else imag)
    return None


def project(doc):
    """(exact skeleton, decimal values in canonical key order)."""
    decimals = []

    def walk(node):
        if isinstance(node, dict):
            return {
                k: "<skipped>" if k in SKIPPED else walk(node[k]) for k in sorted(node)
            }
        if isinstance(node, list):
            return [walk(x) for x in node]
        if isinstance(node, str) and _decimal_parts(node) is not None:
            decimals.append(node)
            return "<decimal>"
        return node

    return walk(doc), decimals


def digest(doc) -> dict:
    """The recording of a document: exact-skeleton hash plus decimals."""
    skeleton, decimals = project(doc)
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "decimals": decimals,
    }


def _close(a: str, b: str) -> bool:
    pa, pb = _decimal_parts(a), _decimal_parts(b)
    if pa is None or pb is None or len(pa) != len(pb):
        return False
    with localcontext() as ctx:
        ctx.prec = PRECISION + 20
        for x, y in zip(pa, pb):
            if abs(x - y) > DECIMAL_SLACK * max(Decimal(1), abs(x), abs(y)):
                return False
    return True


def residual_problems(doc) -> list:
    """Residual fields that are not below the tolerance beside them."""
    bad = []

    def walk(node, path):
        if isinstance(node, dict):
            for res_key, tol_key in _RESIDUALS:
                if res_key in node and tol_key in node:
                    res = _decimal_parts(str(node[res_key]))
                    tol = _decimal_parts(str(node[tol_key]))
                    if res is None or tol is None or abs(res[0]) >= tol[0]:
                        bad.append("%s/%s over %s" % (path, res_key, node[tol_key]))
            for k in sorted(node):
                walk(node[k], path + "/" + k)
        elif isinstance(node, list):
            for i, x in enumerate(node):
                walk(x, "%s/%d" % (path, i))

    walk(doc, "")
    return bad


def compare(recorded: dict, doc) -> list:
    """Mismatches between a document and its recording (empty if none)."""
    got = digest(doc)
    problems = []
    if got["sha256"] != recorded["sha256"]:
        problems.append("exact fields differ (sha256 %s, recorded %s)"
                        % (got["sha256"][:12], recorded["sha256"][:12]))
    want = recorded["decimals"]
    if len(got["decimals"]) != len(want):
        problems.append("%d decimal fields, recorded %d" % (len(got["decimals"]), len(want)))
    else:
        for i, (a, b) in enumerate(zip(got["decimals"], want)):
            if not _close(a, b):
                problems.append("decimal field %d is %s, recorded %s" % (i, a, b))
                break
    return problems + residual_problems(doc)


def _first(node, want):
    """Path (list of keys) to the first leaf accepted by want(key, value)."""
    if isinstance(node, dict):
        items = [(k, node[k]) for k in sorted(node)]
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return None
    for k, v in items:
        if want(k, v):
            return [k]
        sub = _first(v, want)
        if sub is not None:
            return [k] + sub
    return None


def _node(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _mutated(doc, path, change):
    out = copy.deepcopy(doc)
    node = _node(out, path[:-1])
    node[path[-1]] = change(node[path[-1]])
    return out


def self_check(recorded: dict, doc) -> list:
    """Show that the gate catches a single flipped coefficient.

    doc must match recorded.  Returns what the gate failed to do: it
    must reject one integer flipped by 1 (a q-series coefficient when
    the document has one) and one decimal moved at the 30th digit, and
    accept that decimal moved in its last printed digit.
    """
    failures = []
    if compare(recorded, doc):
        return ["the unmodified document does not match its recording"]

    def integer(key, value):
        return isinstance(value, int) and not isinstance(value, bool)

    path = None
    for name in _COEFFICIENT_KEYS:
        at = _first(doc, lambda k, v: k == name)
        inner = at and _first(_node(doc, at), integer)
        if inner:
            path = at + inner
            break
    path = path or _first(doc, integer)
    if path is None:
        failures.append("document has no integer field to flip")
    elif not compare(recorded, _mutated(doc, path, lambda x: x + 1)):
        failures.append("a flipped integer at %s was not caught" % path)

    path = _first(doc, lambda k, v: isinstance(v, str) and k not in SKIPPED
                  and _DECIMAL.match(v) is not None and len(v) > 40)
    if path is not None:
        def nudge(scale):
            def change(text):
                x = _decimal_parts(text)[0]
                with localcontext() as ctx:
                    ctx.prec = PRECISION + 20
                    step = scale * max(Decimal(1), abs(x))
                    return str(x + step)
            return change

        far = _mutated(doc, path, nudge(Decimal(10) ** -30))
        near = _mutated(doc, path, nudge(Decimal(10) ** -(PRECISION - 1)))
        if not compare(recorded, far):
            failures.append("a decimal moved at the 30th digit was not caught")
        if compare(recorded, near):
            failures.append("a decimal moved in its last digit was rejected")
    return failures
