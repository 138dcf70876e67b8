"""Modular data of rational chiral models.

A model is described by its sector list, exact central charge and
conformal weights, and the S/T matrices at a chosen working precision.
Builders cover the su(2) level-k series and the Virasoro minimal
models; arbitrary models can be loaded from structured documents.

Conventions: sector 0 is the vacuum (h_0 = 0, fusion unit), S is
symmetric and unitary, T_rho = exp(2 pi i (h_rho - c/24)), S^2 = C is
the conjugation permutation and (ST)^3 = S^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, workdps

from .errors import (
    BadKacLabels,
    DocumentFormatError,
    ModularRelationViolation,
    SymmetryViolation,
    TrivialLevelError,
    UnitarityViolation,
    VacuumPlacementError,
    VacuumRowError,
)
from .hp import (
    GUARD_DIGITS,
    Fixed,
    fixed_bits,
    num_str,
    parse_number,
    phase_from_fraction,
    to_fixed,
    tolerance,
)

DEFAULT_PRECISION = 50

MODEL_DOCUMENT_FORMAT = "bcft-model/1"


@dataclass(frozen=True)
class SectorLabel:
    id: int
    name: str


@dataclass(frozen=True)
class ModularData:
    """Sectors, exact (c, h), and high-precision (S, T) of one model.

    family/params identify a builder when the model came from one
    ("su2", (k,)) or ("minimal", (p, p')); loaded models without a
    builder reference carry family None.
    """

    sectors: tuple
    c: Fraction
    h: tuple
    S: tuple
    T: tuple
    conj: tuple
    precision: int
    family: str | None = None
    params: tuple = ()

    @property
    def n(self) -> int:
        return len(self.sectors)

    def sector_named(self, name: str) -> int:
        for s in self.sectors:
            if s.name == name:
                return s.id
        raise KeyError(name)

    def is_unitary_family(self) -> bool:
        if self.family == "su2":
            return True
        if self.family == "minimal":
            p, pp = self.params
            return abs(p - pp) == 1
        return all(x > 0 for x in vacuum_row_real(self))


def vacuum_row_real(md: ModularData):
    row = []
    for x in md.S[0]:
        v = mp.mpmathify(x)
        row.append(v.real if hasattr(v, "real") else v)
    return row


def _conjugation_from_s(S2: Fixed, precision):
    """Read the conjugation permutation off C = S^2 (the fixed-point
    product S S is passed in); raises if C is not a permutation matrix."""
    n = len(S2.re)
    tol2 = to_fixed(tolerance(precision), S2.bits) ** 2
    near_one = (Fixed(S2.re - (1 << S2.bits), S2.im, S2.bits).abs2() < tol2).astype(bool)
    near_zero = (S2.abs2() < tol2).astype(bool)
    conj = []
    for i in range(n):
        hits = [j for j in range(n) if near_one[i, j]]
        zeros = all(near_zero[i, j] for j in range(n) if j not in hits)
        if len(hits) != 1 or not zeros:
            raise ModularRelationViolation("S^2 is not a permutation matrix")
        conj.append(hits[0])
    if sorted(conj) != list(range(n)) or any(conj[conj[i]] != i for i in range(n)):
        raise ModularRelationViolation("S^2 is not an involutive permutation")
    return tuple(conj)


def _square(S, precision) -> tuple:
    """S rounded to fixed_bits(precision), and S^2 from it."""
    F = Fixed.of(S, fixed_bits(precision))
    return F, F.dot(F).rescale(F.bits)


def validate(md: ModularData, require_positive_vacuum_row: bool = True, fixed=None) -> dict:
    """Check all structural invariants; returns the residual report.

    Raises a distinct error type per violated invariant.  Positivity of
    the vacuum row is optional because non-unitary minimal models carry
    signed vacuum-row entries in this convention.  The products S S^dagger,
    S^2 and (ST)^3 are exact Python-int contractions of S and T rounded
    to fixed_bits(precision) fraction bits; fixed passes in (S, S^2) when
    the caller has already formed them.
    """
    n = md.n
    tol = tolerance(md.precision)
    bits = fixed_bits(md.precision)
    S, S2 = fixed or _square(md.S, md.precision)
    with workdps(md.precision + GUARD_DIGITS):
        if [s.id for s in md.sectors] != list(range(n)):
            raise DocumentFormatError("sector ids must be 0..n-1 in order")
        if md.h[0] != 0:
            raise VacuumPlacementError("sector 0 must have h = 0")
        res_sym = (S - S.T).max_abs()
        if res_sym > tol:
            raise SymmetryViolation("max |S - S^T| = " + mp.nstr(res_sym, 5))
        # for a real S equal to its transpose, S S^dagger is S^2
        real_symmetric = S.im is None and res_sym == 0
        SSd = S2 if real_symmetric else S.dot(S.conj().T).rescale(bits)
        res_uni = (SSd - Fixed.identity(n, bits)).max_abs()
        if res_uni > tol:
            raise UnitarityViolation("max |S S^dagger - 1| = " + mp.nstr(res_uni, 5))
        if _conjugation_from_s(S2, md.precision) != md.conj:
            raise ModularRelationViolation("stored conjugation disagrees with S^2")
        # (ST)^3 = S^2 with T diagonal: (ST)^2 = S (T S T), (ST)^3 = ((ST)^2 S) T,
        # so every contraction has S as one factor.  X * t scales column j of
        # X by T_j, X * t.T row i by T_i.
        t = Fixed.of([md.T], bits)
        ST2 = S.dot((S * t * t.T).rescale(bits)).rescale(bits)
        ST3 = (ST2.dot(S) * t).rescale(bits)
        res_st = (ST3 - S2).max_abs()
        if res_st > tol:
            raise ModularRelationViolation("max |(ST)^3 - S^2| = " + mp.nstr(res_st, 5))
        t0 = phase_from_fraction(-md.c / 24, md.precision)
        if abs(md.T[0] - t0) > tol:
            raise VacuumPlacementError("T_0 differs from exp(-2 pi i c/24)")
        row = vacuum_row_real(md)
        for j in range(n):
            if abs(mp.mpmathify(md.S[0][j]).imag) > tol:
                raise VacuumRowError("S_{0 rho} must be real")
            if abs(row[j]) < tol:
                raise VacuumRowError(
                    "|S_{0 %d}| = %s is below the tolerance %s at precision %d"
                    % (j, mp.nstr(abs(row[j]), 3), mp.nstr(tol, 3), md.precision)
                )
            if require_positive_vacuum_row and row[j] < 0:
                raise VacuumRowError("S_{0 rho} must be positive")
        return {
            "symmetry": res_sym,
            "unitarity": res_uni,
            "modular_relation": res_st,
        }


def _finish(sectors, c, h, S, precision, family, params):
    """Add T and the conjugation to (sectors, c, h, S) and validate; a
    model without a builder family must have a positive vacuum row."""
    n = len(sectors)
    with workdps(precision + GUARD_DIGITS):
        T = tuple(phase_from_fraction(h[i] - c / 24, precision) for i in range(n))
    fixed = _square(S, precision)
    md = ModularData(
        sectors=tuple(sectors),
        c=c,
        h=tuple(h),
        S=S,
        T=T,
        conj=_conjugation_from_s(fixed[1], precision),
        precision=precision,
        family=family,
        params=params,
    )
    validate(md, family is None or md.is_unitary_family(), fixed)
    return md


def _sinpi_over(den: int):
    """num -> sin(pi num/den) at the current precision, one mp.sinpi per
    distinct integer num.  The argument is not reduced mod 2: that would
    change its rounding, and with it the S entries."""
    return functools.lru_cache(maxsize=None)(lambda num: mp.sinpi(mpf(num) / den))


def build_su2(k: int, precision: int = DEFAULT_PRECISION) -> ModularData:
    """su(2) level k: sectors a = 0..k (twice the spin)."""
    if not isinstance(k, int) or k < 0:
        raise TrivialLevelError("level must be a positive integer")
    if k == 0:
        raise TrivialLevelError("k = 0 is the trivial theory")
    N = k + 2
    c = Fraction(3 * k, N)
    h = [Fraction(a * (a + 2), 4 * N) for a in range(k + 1)]
    sectors = [SectorLabel(a, str(a)) for a in range(k + 1)]
    with workdps(precision + GUARD_DIGITS):
        norm = mp.sqrt(mpf(2) / N)
        sin = _sinpi_over(N)
        S = tuple(
            tuple(norm * sin((a + 1) * (b + 1)) for b in range(k + 1))
            for a in range(k + 1)
        )
    return _finish(sectors, c, h, S, precision, "su2", (k,))


def minimal_sector_table(p: int, pp: int):
    """Kac-table orbit representatives, vacuum first then by (h, r).

    Representative of {(r,s), (p'-r, p-s)} is the lexicographically
    smaller pair.
    """
    seen = {}
    for r in range(1, pp):
        for s in range(1, p):
            rep = min((r, s), (pp - r, p - s))
            if rep not in seen:
                h = Fraction((p * rep[0] - pp * rep[1]) ** 2 - (p - pp) ** 2, 4 * p * pp)
                seen[rep] = h
    items = sorted(seen.items(), key=lambda kv: (kv[1] != 0, kv[1], kv[0][0]))
    return items


def build_minimal(p: int, p_prime: int, precision: int = DEFAULT_PRECISION) -> ModularData:
    """Virasoro minimal model with Kac labels (p, p'), 2 <= p' < p coprime."""
    if not (isinstance(p, int) and isinstance(p_prime, int)):
        raise BadKacLabels("labels must be integers")
    if not (2 <= p_prime < p):
        raise BadKacLabels("need 2 <= p' < p")
    if math.gcd(p, p_prime) != 1:
        raise BadKacLabels("p and p' must be coprime")
    table = minimal_sector_table(p, p_prime)
    c = Fraction(1) - Fraction(6 * (p - p_prime) ** 2, p * p_prime)
    sectors = [
        SectorLabel(i, "%d,%d" % rep) for i, (rep, _) in enumerate(table)
    ]
    h = [hv for _, hv in table]
    n = len(table)
    with workdps(precision + GUARD_DIGITS):
        norm = 2 * mp.sqrt(mpf(2) / (p * p_prime))
        sin_r, sin_s = _sinpi_over(p_prime), _sinpi_over(p)
        S_rows = []
        for (r, s), _ in table:
            row = []
            for (rho, sigma), _ in table:
                sign = -1 if (1 + s * rho + r * sigma) % 2 else 1
                row.append(
                    norm
                    * sign
                    * sin_r(p * r * rho)
                    * sin_s(p_prime * s * sigma)
                )
            S_rows.append(tuple(row))
        S = tuple(S_rows)
    assert n == (p - 1) * (p_prime - 1) // 2
    return _finish(sectors, c, h, S, precision, "minimal", (p, p_prime))


def quantum_dims(md: ModularData) -> tuple:
    """d_rho = S_{0 rho} / S_{0 0}.

    For unitary models these are >= 1; non-unitary minimal models give
    signed values in this vacuum-row convention.
    """
    with workdps(md.precision + GUARD_DIGITS):
        row = vacuum_row_real(md)
        return tuple(x / row[0] for x in row)


def global_index(md: ModularData):
    """mu = sum of squared quantum dimensions (= 1/S_00^2)."""
    with workdps(md.precision + GUARD_DIGITS):
        return mp.fsum(d ** 2 for d in quantum_dims(md))


# ---------------------------------------------------------------------------
# structured model documents


def model_to_document(md: ModularData) -> dict:
    doc = {
        "format": MODEL_DOCUMENT_FORMAT,
        "name": model_name(md),
        "c": str(md.c),
        "precision": md.precision,
        "sectors": [{"name": s.name, "h": str(md.h[s.id])} for s in md.sectors],
        "S": [[num_str(x, md.precision) for x in row] for row in md.S],
    }
    if md.family is not None:
        doc["builder"] = {"family": md.family, "params": list(md.params)}
    return doc


def model_name(md: ModularData) -> str:
    if md.family == "su2":
        return "su2_k%d" % md.params
    if md.family == "minimal":
        return "minimal_%d_%d" % md.params
    return "custom"


def load_model(document: dict, precision: int = DEFAULT_PRECISION) -> ModularData:
    """Build validated modular data from a structured document.

    The document supplies name, c, and the sector list (names and exact
    h); the S matrix is either given explicitly as decimal strings or
    produced by a named builder.  Explicit-S documents must have a
    strictly positive vacuum row.
    """
    if not isinstance(document, dict):
        raise DocumentFormatError("model document must be a mapping")
    if document.get("format", MODEL_DOCUMENT_FORMAT) != MODEL_DOCUMENT_FORMAT:
        raise DocumentFormatError("unsupported document format %r" % document.get("format"))
    if "precision" in document:
        precision = int(document["precision"])
        if precision < 1:
            raise DocumentFormatError("field 'precision' must be at least 1, not %d" % precision)
    builder = document.get("builder")
    if builder is not None:
        family = builder.get("family")
        params = builder.get("params", [])
        if family == "su2":
            return build_su2(int(params[0]), precision)
        if family == "minimal":
            return build_minimal(int(params[0]), int(params[1]), precision)
        raise DocumentFormatError("unknown builder family %r" % family)
    try:
        c = Fraction(document["c"])
        raw_sectors = document["sectors"]
        raw_s = document["S"]
    except KeyError as exc:
        raise DocumentFormatError("missing field %s" % exc) from exc
    n = len(raw_sectors)
    if n == 0:
        raise DocumentFormatError("empty sector list")
    h = []
    sectors = []
    for i, rec in enumerate(raw_sectors):
        sectors.append(SectorLabel(i, str(rec["name"])))
        h.append(Fraction(rec["h"]))
    if h[0] != 0:
        raise VacuumPlacementError("vacuum (h = 0) must be listed at index 0")
    if len(raw_s) != n or any(len(r) != n for r in raw_s):
        raise DocumentFormatError("S must be %d x %d" % (n, n))
    with workdps(precision + GUARD_DIGITS):
        S = tuple(tuple(parse_number(x, precision) for x in row) for row in raw_s)
    return _finish(sectors, c, h, S, precision, None, ())
