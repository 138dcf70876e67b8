"""Modular data of rational chiral models.

A model is described by its sector list, exact central charge and
conformal weights, and the S matrix at a chosen working precision; T
and the conjugation follow from these.
Builders cover the su(2) level-k series and the Virasoro minimal
models; arbitrary models can be loaded from structured documents.

Conventions: sector 0 is the vacuum (h_0 = 0, fusion unit), S is
symmetric and unitary, T_rho = exp(2 pi i (h_rho - c/24)), S^2 = C is
the conjugation permutation and (ST)^3 = C; given the others, S^-1 C = S
makes that relation S T S = T^-1 S T^-1, the form validate checks.
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
from .persistence import DEFAULT_PRECISION, MODEL_DOCUMENT_FORMAT, model_header


@dataclass(frozen=True)
class SectorLabel:
    id: int
    name: str


@dataclass(frozen=True)
class ModularData:
    """Sectors, exact (c, h), and high-precision S of one model.

    family/params identify a builder when the model came from one
    ("su2", (k,)) or ("minimal", (p, p')); loaded models without a
    builder reference carry family None.  T, the conjugation and the
    fixed-point S are derived from these fields on first use and cached
    on the instance (dataclasses.replace starts a fresh cache).
    """

    sectors: tuple
    c: Fraction
    h: tuple
    S: tuple
    precision: int
    family: str | None = None
    params: tuple = ()

    @functools.cached_property
    def T(self) -> tuple:
        """T_rho = exp(2 pi i (h_rho - c/24)) at the working precision."""
        return tuple(phase_from_fraction(h - self.c / 24, self.precision) for h in self.h)

    @functools.cached_property
    def fixed(self) -> tuple:
        """(S, W, S^2): S and W = (1/S_0k)_k rounded to fixed_bits(precision),
        and S S floored to the same bits; the arrays are read-only."""
        bits = fixed_bits(self.precision)
        with workdps(self.precision + GUARD_DIGITS):
            S = Fixed.of(self.S, bits)
            W = Fixed.of([1 / mp.mpmathify(x) for x in self.S[0]], bits)
        out = (S, W, S.dot(S).rescale(bits))
        for part in [p for F in out for p in (F.re, F.im) if p is not None]:
            part.flags.writeable = False
        return out

    @functools.cached_property
    def unitarity_defect(self) -> Fixed:
        """S S^dagger - 1 over fixed, the product floored (S^2 if S is real symmetric)."""
        S, _, S2 = self.fixed
        real_symmetric = S.im is None and (S.re == S.re.T).all()
        SSd = S2 if real_symmetric else S.dot(S.conj().T).rescale(S.bits)
        return SSd - Fixed.identity(self.n, S.bits)

    @functools.cached_property
    def conj(self) -> tuple:
        """The conjugation permutation, read off C = S^2 of fixed; raises
        unless C is an involutive permutation matrix."""
        C, n = self.fixed[2], self.n
        tol2 = to_fixed(tolerance(self.precision), C.bits) ** 2
        near_one = (Fixed(C.re - (1 << C.bits), C.im, C.bits).abs2() < tol2).astype(bool)
        near_zero = (C.abs2() < tol2).astype(bool)
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
    return [mp.mpmathify(x).real for x in md.S[0]]


def validate(md: ModularData) -> dict:
    """Check all structural invariants; returns the residual report.

    Raises a distinct error type per violated invariant.  The vacuum row
    must be positive except in a non-unitary minimal model, whose
    vacuum-row entries are signed in this convention.  (ST)^3 = C is
    checked last, as S T S = T^-1 S T^-1: symmetry, unitarity and S^2 = C
    give S^-1 C = S, and (ST)^3 - C = ST (S T S - T^-1 S T^-1) T.  The
    products S S^dagger, S^2 and S (T S) are exact Python-int contractions
    of md.fixed and of T rounded to the same fixed_bits(precision).
    """
    n = md.n
    tol = tolerance(md.precision)
    bits = fixed_bits(md.precision)
    with workdps(md.precision + GUARD_DIGITS):
        if [s.id for s in md.sectors] != list(range(n)):
            raise DocumentFormatError("sector ids must be 0..n-1 in order")
        if md.h[0] != 0:
            raise VacuumPlacementError("sector 0 must have h = 0")
        S = md.fixed[0]
        res_sym = (S - S.T).max_abs()
        if res_sym > tol:
            raise SymmetryViolation("max |S - S^T| = " + mp.nstr(res_sym, 5))
        res_uni = md.unitarity_defect.max_abs()
        if res_uni > tol:
            raise UnitarityViolation("max |S S^dagger - 1| = " + mp.nstr(res_uni, 5))
        md.conj  # raises unless S^2 is an involutive permutation
        # X * t.T scales row i of X by T_i, X * t column j by T_j; T^-1 = conj(T)
        t = Fixed.of([md.T], bits)
        STS = S.dot((S * t.T).rescale(bits)).rescale(bits)
        res_st = (STS - (S * t.conj() * t.conj().T).rescale(bits)).max_abs()
        if res_st > tol:
            raise ModularRelationViolation("max |S T S - T^-1 S T^-1| = " + mp.nstr(res_st, 5))
        signed = md.family == "minimal" and not md.is_unitary_family()
        row = vacuum_row_real(md)
        for j in range(n):
            if abs(mp.mpmathify(md.S[0][j]).imag) > tol:
                raise VacuumRowError("S_{0 rho} must be real")
            if abs(row[j]) < tol:
                raise VacuumRowError(
                    "|S_{0 %d}| = %s is below the tolerance %s at precision %d"
                    % (j, mp.nstr(abs(row[j]), 3), mp.nstr(tol, 3), md.precision)
                )
            if not signed and row[j] < 0:
                raise VacuumRowError("S_{0 rho} must be positive")
        return {
            "symmetry": res_sym,
            "unitarity": res_uni,
            "modular_relation": res_st,
        }


def _finish(sectors, c, h, S, precision, family, params):
    """The validated model of (sectors, c, h, S) at this precision."""
    md = ModularData(tuple(sectors), c, tuple(h), S, precision, family, params)
    validate(md)
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


def _rational(value, field: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DocumentFormatError(
            "field %s must be a rational number, not %r" % (field, value)) from exc


def _s_entry(value, precision: int):
    if not isinstance(value, str):
        raise DocumentFormatError("field 'S' entries must be decimal strings, not %r" % (value,))
    try:
        return parse_number(value, precision)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentFormatError("field 'S' entry %r is not a number" % value) from exc


def load_model(document: dict, precision: int = DEFAULT_PRECISION) -> ModularData:
    """Build validated modular data from a structured document.

    The document supplies name, c, and the sector list (names and exact
    h); the S matrix is either given explicitly as decimal strings or
    produced by a named builder.  Explicit-S documents must have a
    strictly positive vacuum row.
    """
    precision, builder = model_header(document, precision)
    if builder is not None:
        family, params = builder
        return (build_su2 if family == "su2" else build_minimal)(*params, precision)
    try:
        c = _rational(document["c"], "'c'")
        raw_sectors = document["sectors"]
        raw_s = document["S"]
    except KeyError as exc:
        raise DocumentFormatError("missing field %s" % exc) from exc
    if not isinstance(raw_sectors, list):
        raise DocumentFormatError("field 'sectors' must be a list, not %r" % (raw_sectors,))
    n = len(raw_sectors)
    if n == 0:
        raise DocumentFormatError("empty sector list")
    h = []
    sectors = []
    for i, rec in enumerate(raw_sectors):
        if not (isinstance(rec, dict) and "name" in rec and "h" in rec):
            raise DocumentFormatError(
                "field 'sectors' entry %d must be a mapping with 'name' and 'h', not %r" % (i, rec))
        sectors.append(SectorLabel(i, str(rec["name"])))
        h.append(_rational(rec["h"], "'sectors' entry %d 'h'" % i))
    if h[0] != 0:
        raise VacuumPlacementError("vacuum (h = 0) must be listed at index 0")
    if not (isinstance(raw_s, list) and len(raw_s) == n
            and all(isinstance(r, list) and len(r) == n for r in raw_s)):
        raise DocumentFormatError("field 'S' must be %d x %d" % (n, n))
    with workdps(precision + GUARD_DIGITS):
        S = tuple(tuple(_s_entry(x, precision) for x in row) for row in raw_s)
    return _finish(sectors, c, h, S, precision, None, ())
