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

from mpmath import mp, mpf, workdps, workprec
from mpmath.libmp import from_rational, mpf_cos_sin_pi, round_nearest

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
    from_fixed,
    num_str,
    parse_fixed,
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
    """Sectors, exact (c, h), and the fixed-point S of one model.

    S_fixed is the model's S: (re, im), S 2^B as rows of Python ints at
    B = fixed_bits(precision), im None for a real S; each entry lies within
    2^-B of the exact S (_sine_table) or of a document's decimal strings.
    family/params identify a builder when the model came from one
    ("su2", (k,)) or ("minimal", (p, p')); loaded models without a
    builder reference carry family None.  S_fixed is the only form of S:
    every check contracts it (fixed), and what prints S reads it through
    from_fixed.  The fixed-point row T (T 2^B as Python ints, written from
    the exact c and h), the conjugation and the fixed arrays are derived
    from these fields on first use and cached on the instance: equality
    and hash cover the fields alone, and dataclasses.replace starts a
    fresh cache.
    """

    sectors: tuple
    c: Fraction
    h: tuple
    S_fixed: tuple
    precision: int
    family: str | None = None
    params: tuple = ()

    @functools.cached_property
    def T(self) -> Fixed:
        """T_rho = exp(2 pi i (h_rho - c/24)) as a read-only Fixed row of
        shape (1, n) at B = fixed_bits(precision), im None when every phase
        rounds real: T 2^B written as Python ints from the exact (c, h).

        Each h_rho - c/24 is m_rho / D mod 1 over one denominator D, and each
        distinct m takes one mpf_cos_sin_pi of 2m/D: a fixed number of
        big-int steps per sector (the argument is one division), whatever
        the size of D.  Why each part lies within 0.51 units of 2^-B.  At
        P = B + 10 bits from_rational rounds 2m/D < 2 to nearest, off by at
        most 2^-P, which moves cos and sin of pi times it by at most pi 2^-P.
        mpf_cos_sin_pi carries 10 guard bits past P and rounds each part, of
        modulus at most 1, to nearest at P bits: off by under 2^-P.  So each
        part errs by under (pi + 1) 2^-P < 2^-(B+7) before to_fixed rounds it
        to 2^-B by at most 1/2 unit: under 1/2 + 2^-7 < 0.51 units.
        """
        bits, c24 = fixed_bits(self.precision), self.c / 24
        x = [h - c24 for h in self.h]
        D = math.lcm(*(v.denominator for v in x))
        m = [v.numerator * (D // v.denominator) % D for v in x]
        cs = {k: mpf_cos_sin_pi(from_rational(2 * k, D, bits + 10, round_nearest), bits + 10,
                                round_nearest) for k in set(m)}
        re, im = ([[to_fixed(mp.make_mpf(cs[k][i]), bits) for k in m]] for i in (0, 1))
        return _read_only(Fixed.exact(re, im if any(im[0]) else None, bits))[0]

    @functools.cached_property
    def fixed(self) -> tuple:
        """(S, W, S^2) at B = fixed_bits(precision), read-only: S_fixed, W
        the exact reciprocals 1/S_0k of its vacuum row rounded to the nearest
        2^-B (one int division per part), and S S floored to B bits (gram if
        real_symmetric).  A zero S_0k, which has no reciprocal, raises
        VacuumRowError naming k, also on a model that validate never saw."""
        bits = fixed_bits(self.precision)
        S = Fixed.exact(*self.S_fixed, bits)
        x, y = S.re[0], (0 if S.im is None else S.im[0])
        d, one = x * x + y * y, 1 << 2 * bits  # 1/(x + iy) = (x - iy)/d
        if not d.all():
            raise VacuumRowError("S_{0 %d} = 0 has no reciprocal" % list(d).index(0))
        W = Fixed((2 * one * x + d) // (2 * d),
                  None if S.im is None else (d - 2 * one * y) // (2 * d), bits)
        return _read_only(S, W, (S.gram() if self.real_symmetric else S.dot(S)).rescale(bits))

    @functools.cached_property
    def real_symmetric(self) -> bool:
        """S_fixed is real and exactly symmetric, as every builder's S is."""
        re, im = self.S_fixed
        return im is None and tuple(zip(*re)) == re

    @functools.cached_property
    def unitarity_defect(self) -> Fixed:
        """S S^dagger - 1 over fixed, the product floored (S^2 if real_symmetric)."""
        S, _, S2 = self.fixed
        SSd = S2 if self.real_symmetric else S.dot(S.conj().T).rescale(S.bits)
        return SSd - Fixed.identity(self.n, S.bits)

    @functools.cached_property
    def conj(self) -> tuple:
        """The conjugation permutation, read off C = S^2 of fixed; raises
        unless C is an involutive permutation matrix."""
        C, n = self.fixed[2], self.n
        tol2 = to_fixed(tolerance(self.precision), C.bits) ** 2
        near_one = (Fixed(C.re - (1 << C.bits), C.im, C.bits).abs2() < tol2).astype(bool)
        # one entry near 1 per row and every other near 0; an involution is a bijection
        if not ((near_one.sum(axis=1) == 1).all() and (near_one | (C.abs2() < tol2)).all()):
            raise ModularRelationViolation("S^2 is not a permutation matrix")
        conj = near_one.argmax(axis=1)
        if not (conj[conj] == range(n)).all():
            raise ModularRelationViolation("S^2 is not an involutive permutation")
        return tuple(conj.tolist())

    @property
    def n(self) -> int:
        return len(self.sectors)

    def sector_named(self, name: str) -> int:
        for s in self.sectors:
            if s.name == name:
                return s.id
        raise KeyError(name)

    def is_unitary_family(self) -> bool:
        if self.family == "minimal":
            return abs(self.params[0] - self.params[1]) == 1
        return all(x > 0 for x in self.S_fixed[0][0])  # su2: always


def validate(md: ModularData) -> dict:
    """Check all structural invariants; returns the residual report.

    Raises a distinct error type per violated invariant.  The vacuum row,
    checked first on md.S_fixed as W = 1/S_0k needs it nonzero, must be
    real, above the tolerance and positive except in a non-unitary minimal
    model, whose vacuum-row entries are signed in this convention.  (ST)^3
    = C is checked last, as S T S = T^-1 S T^-1: symmetry, unitarity and
    S^2 = C give S^-1 C = S, and (ST)^3 - C = ST (S T S - T^-1 S T^-1) T.
    The products S S^dagger, S^2 and S (T S) are exact Python-int
    contractions of md.fixed and of md.T, written at the same bits; no mpc
    is made.  If md.real_symmetric, S S^dagger is S^2, and S^2 and S T S
    are one triangle each (Fixed.gram); otherwise Fixed.dot.
    """
    n = md.n
    tol = tolerance(md.precision)
    bits = fixed_bits(md.precision)
    with workdps(md.precision + GUARD_DIGITS):
        if [s.id for s in md.sectors] != list(range(n)):
            raise DocumentFormatError("sector ids must be 0..n-1 in order")
        if md.h[0] != 0:
            raise VacuumPlacementError("sector 0 must have h = 0")
        signed = md.family == "minimal" and not md.is_unitary_family()
        (re, im), unit = md.S_fixed, to_fixed(tol, bits)
        for j, x in enumerate(re[0]):
            if im is not None and abs(im[0][j]) > unit:
                raise VacuumRowError("S_{0 rho} must be real")
            if abs(x) < unit:
                raise VacuumRowError(
                    "|S_{0 %d}| = %s is below the tolerance %s at precision %d"
                    % (j, mp.nstr(from_fixed(abs(x), bits), 3), mp.nstr(tol, 3), md.precision))
            if not signed and x < 0:
                raise VacuumRowError("S_{0 rho} must be positive")
        S = md.fixed[0]
        res_sym = mpf(0) if md.real_symmetric else (S - S.T).max_abs()
        if res_sym > tol:
            raise SymmetryViolation("max |S - S^T| = " + mp.nstr(res_sym, 5))
        res_uni = md.unitarity_defect.max_abs()
        if res_uni > tol:
            raise UnitarityViolation("max |S S^dagger - 1| = " + mp.nstr(res_uni, 5))
        md.conj  # raises unless S^2 is an involutive permutation
        # X * t.T scales row i of X by T_i, X * t column j by T_j; T^-1 = conj(T)
        t = md.T
        STS = (S.gram(t[0]) if md.real_symmetric else S.dot((S * t.T).rescale(bits))).rescale(bits)
        res_st = (STS - (S * t.conj() * t.conj().T).rescale(bits)).max_abs()
        if res_st > tol:
            raise ModularRelationViolation("max |S T S - T^-1 S T^-1| = " + mp.nstr(res_st, 5))
        return {
            "symmetry": res_sym,
            "unitarity": res_uni,
            "modular_relation": res_st,
        }


def _read_only(*arrays: Fixed) -> tuple:
    """The Fixed arrays, every part made read-only."""
    for part in [p for F in arrays for p in (F.re, F.im) if p is not None]:
        part.flags.writeable = False
    return arrays


def _finish(sectors, c, h, S_fixed, precision, family, params):
    """The validated model of (sectors, c, h, S_fixed) at this precision."""
    md = ModularData(tuple(sectors), c, tuple(h), S_fixed, precision, family, params)
    validate(md)
    return md


SINE_GUARD_BITS = 8  # G below: bits past B that build_minimal's tables carry


def _sine_table(den: int, bits: int, square=Fraction(1)) -> list:
    """[round(sqrt(square) sin(pi m/den) 2^bits) for m in 0..2 den - 1],
    square <= 4/3, from one mp.sinpi per m in 0..den//2: m is taken mod
    2 den, sin(x + pi) = -sin x folds the sign, and sin(pi - x) = sin x.

    Why a builder's S entries lie within 2^-B of the exact S.  In mpf at
    bits + 10 bits the norm, the sine (of m/den <= 1/2, off by 2^-(bits+11))
    and their product, all below 2, err by under 2^-(bits+6), so an entry
    is within e = 1/2 + 2^-6 units of 2^-bits: build_su2 reads S off a
    table at B bits.  build_minimal multiplies tables of norm sin_r and of
    sin_s at T = B + G bits, entries below 1.16 2^T + e, so the product is
    off by under 1.2 2^T units of 2^-2T, and rounded to 2^-B (a T + G bit
    shift) by under 1/2 + 1.2 2^-G < 0.51 units.  verlinde_inputs,
    invariants.entry_bounds and the nimrep bounds keep their constants.
    """
    with workprec(bits + 10):
        norm = mp.sqrt(mpf(square.numerator) / square.denominator)
        half = [to_fixed(norm * mp.sinpi(mpf(m) / den), bits) for m in range(den // 2 + 1)]
    table = [half[min(m, den - m)] for m in range(den)]
    return table + [-v for v in table]


def build_su2(k: int, precision: int = DEFAULT_PRECISION) -> ModularData:
    """su(2) level k: sectors a = 0..k (twice the spin), with
    S_ab = sqrt(2/N) sin(pi (a+1)(b+1)/N), N = k + 2."""
    if not isinstance(k, int) or k < 0:
        raise TrivialLevelError("level must be a positive integer")
    if k == 0:
        raise TrivialLevelError("k = 0 is the trivial theory")
    N = k + 2
    c = Fraction(3 * k, N)
    h = [Fraction(a * (a + 2), 4 * N) for a in range(k + 1)]
    sectors = [SectorLabel(a, str(a)) for a in range(k + 1)]
    row = _sine_table(N, fixed_bits(precision), Fraction(2, N))
    S = tuple(tuple(row[(a + 1) * (b + 1) % (2 * N)] for b in range(k + 1)) for a in range(k + 1))
    return _finish(sectors, c, h, (S, None), precision, "su2", (k,))


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
    T = fixed_bits(precision) + SINE_GUARD_BITS
    shift, half = T + SINE_GUARD_BITS, 1 << T + SINE_GUARD_BITS - 1
    # S_(r,s)(rho,sigma) = (-1)^(1 + s rho + r sigma) 2 sqrt(2/(p p'))
    #   sin(pi p r rho / p') sin(pi p' s sigma / p)
    sin_r, sin_s = _sine_table(p_prime, T, Fraction(8, p * p_prime)), _sine_table(p, T)
    S = tuple(
        tuple(
            ((-1 if (1 + s * rho + r * sigma) % 2 else 1)
             * sin_r[p * r * rho % (2 * p_prime)] * sin_s[p_prime * s * sigma % (2 * p)]
             + half) >> shift
            for (rho, sigma), _ in table)
        for (r, s), _ in table)
    assert n == (p - 1) * (p_prime - 1) // 2
    return _finish(sectors, c, h, (S, None), precision, "minimal", (p, p_prime))


def quantum_dims(md: ModularData) -> tuple:
    """d_rho = S_{0 rho} / S_{0 0}.

    For unitary models these are >= 1; non-unitary minimal models give
    signed values in this vacuum-row convention.
    """
    bits = fixed_bits(md.precision)
    with workdps(md.precision + GUARD_DIGITS):
        row = [from_fixed(x, bits) for x in md.S_fixed[0][0]]
        return tuple(x / row[0] for x in row)


def global_index(md: ModularData):
    """mu = sum of squared quantum dimensions (= 1/S_00^2)."""
    with workdps(md.precision + GUARD_DIGITS):
        return mp.fsum(d ** 2 for d in quantum_dims(md))


# ---------------------------------------------------------------------------
# structured model documents


def model_to_document(md: ModularData) -> dict:
    (re, im), bits = md.S_fixed, fixed_bits(md.precision)
    doc = {
        "format": MODEL_DOCUMENT_FORMAT,
        "name": model_name(md),
        "c": str(md.c),
        "precision": md.precision,
        "sectors": [{"name": s.name, "h": str(md.h[s.id])} for s in md.sectors],
        "S": [[num_str(from_fixed(x, bits, y), md.precision) for x, y in zip(rx, ry)]
              for rx, ry in zip(re, im or [[0] * md.n] * md.n)],
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


def _s_entry(value, bits: int) -> tuple:
    if not isinstance(value, str):
        raise DocumentFormatError("field 'S' entries must be decimal strings, not %r" % (value,))
    try:
        return parse_fixed(value, bits)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentFormatError("field 'S' entry %r is not a number with real and imaginary "
                                  "parts in [-2, 2]" % value) from exc


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
    bits = fixed_bits(precision)
    entries = [[_s_entry(x, bits) for x in row] for row in raw_s]
    re, im = (tuple(tuple(e[part] for e in row) for row in entries) for part in (0, 1))
    return _finish(sectors, c, h, (re, im if any(map(any, im)) else None), precision, None, ())
