"""Exact q-series and chiral characters.

A QSeries stores an exact rational offset plus integer coefficients on
an evenly spaced exponent grid: coefficient j multiplies
q^(offset + j/grid).  Characters of the built-in families live on the
integer grid (grid = 1); sums of characters from different sectors are
re-gridded to a common refinement automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, workdps

from .errors import SeriesDivisionError
from .hp import GUARD_DIGITS, Fixed, fixed_bits, mpf_from_fraction, to_fixed
from .modular_data import ModularData
from .persistence import DEFAULT_ORDER

S_TRANSFORM_MIN_ORDER = 200  # fewest terms s_transform_residual accepts

QSERIES_DOCUMENT_FORMAT = "bcft-qseries/1"


@dataclass(frozen=True)
class QSeries:
    offset: Fraction
    grid: int
    coeffs: tuple

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError("grid must be a positive integer")

    @property
    def order(self) -> int:
        """Number of known coefficients (in grid steps)."""
        return len(self.coeffs)

    def exponent(self, j: int) -> Fraction:
        return self.offset + Fraction(j, self.grid)

    def known_through(self) -> Fraction:
        return self.offset + Fraction(len(self.coeffs) - 1, self.grid)

    def leading(self):
        """(exponent, coefficient) of the first nonzero term."""
        for j, cj in enumerate(self.coeffs):
            if cj:
                return self.exponent(j), cj
        return None, 0

    def regrid(self, new_grid: int) -> "QSeries":
        if new_grid == self.grid:
            return self
        if new_grid % self.grid:
            raise ValueError("new grid must refine the old one")
        f = new_grid // self.grid
        out = [0] * ((len(self.coeffs) - 1) * f + 1 if self.coeffs else 0)
        for j, cj in enumerate(self.coeffs):
            out[j * f] = cj
        return QSeries(self.offset, new_grid, tuple(out))

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Product, known as far as both factors are: one slice pass per
        nonzero term of the left factor (a sparse character numerator), on
        object arrays of Python ints, so every sum is exact."""
        g = math.lcm(self.grid, other.grid)
        a, b = self.regrid(g), other.regrid(g)
        length = min(len(a.coeffs), len(b.coeffs))
        out, bs = np.zeros(length, dtype=object), np.array(b.coeffs[:length], dtype=object)
        for i, ci in enumerate(a.coeffs[:length]):
            if ci:
                out[i:] += ci * bs[:length - i]
        return QSeries(a.offset + b.offset, g, tuple(out.tolist()))

    def __truediv__(self, other: "QSeries") -> "QSeries":
        """Quotient by a divisor led by +-1: out_j = lead (a_j - sum out_(j-i) b_i)
        over the divisor's nonzero b_i, 0 < i <= j (~2 sqrt(2j/3) for eta)."""
        g = math.lcm(self.grid, other.grid)
        a, b = self.regrid(g), other.regrid(g)
        if not b.coeffs or b.coeffs[0] not in (1, -1):
            raise SeriesDivisionError("divisor must have unit leading coefficient")
        length = min(len(a.coeffs), len(b.coeffs))
        lead = b.coeffs[0]
        terms = [(i, bi) for i, bi in enumerate(b.coeffs[1:length], 1) if bi]
        out = [0] * length
        for j in range(length):
            acc = a.coeffs[j]
            for i, bi in terms:
                if i > j:
                    break
                acc -= out[j - i] * bi
            out[j] = acc * lead
        return QSeries(a.offset - b.offset, g, tuple(out))

    def evaluate(self, q, dps: int):
        """Value at real 0 < q < 1: Horner's rule on ints scaled by 2^B,
        B = fixed_bits(dps) (the hp.Fixed convention), with x = q^(1/grid)
        rounded to 2^-B, then one multiply by q^offset, over the terms that
        can reach 2^-B.

        Cut: with X = round(x 2^B) and L = X.bit_length(), both x and its
        rounding lie below 2^(L-B).  When L < B (so x < 1/2), only the
        terms j < t = ceil((M + 1 + B + 40) / (B - L)) are summed, where
        |c_j| < 2^M for every j.  The rest add at most
        sum_{j >= t} 2^M x^j = 2^M x^t / (1 - x) <= 2^(M+1) 2^-(B-L)t
        <= 2^-(B+40); at x = 0 (L = 0) that keeps 2 terms when
        M + 41 <= B.  When L = B every term is summed.

        Rounding: each floor costs < 2^-B and later steps damp it by x, so
        all cost < 2^-B sum_j x^j <= 2^-B / (1 - x).  x is off by at most
        2^-(B+1) from its rounding plus 2^-(P-1) from q^(1/grid) at the
        working precision P bits, which moves the sum by that times
        max |f'| near x.  With the cut's 2^-(B+40), all stay far below the
        GUARD_DIGITS carried past dps; the multiply by q^offset then
        rounds at P bits."""
        bits = fixed_bits(dps)
        with workdps(dps + GUARD_DIGITS):
            q = mpf(q)
            x = to_fixed(q ** (mpf(1) / self.grid), bits)
            coeffs, room = self.coeffs, bits - x.bit_length()
            if room > 0:
                top = max(map(abs, coeffs), default=0).bit_length()
                coeffs = coeffs[:-(-(top + 1 + bits + 40) // room)]
            acc = 0
            for cj in reversed(coeffs):
                acc = (acc * x >> bits) + (cj << bits)
            return mp.ldexp(acc, -bits) * q ** mpf_from_fraction(self.offset, dps)


def linear_combination(terms) -> QSeries:
    """sum_i m_i f_i over (m_i, f_i) pairs, on the coarsest common grid
    and known through the least known exponent of any term, summed
    exactly on an object array of Python ints."""
    off = min(f.offset for _, f in terms)
    g = math.lcm(*(math.lcm(f.grid, (f.offset - off).denominator) for _, f in terms))
    length = int((min(f.known_through() for _, f in terms) - off) * g) + 1
    out = np.zeros(length, dtype=object)
    for m, f in terms:
        at = out[int((f.offset - off) * g)::g // f.grid]  # a view: += writes out
        at += m * np.array(f.coeffs[:len(at)], dtype=object)
    return QSeries(off, g, tuple(out.tolist()))


def qseries_one(order: int) -> QSeries:
    return QSeries(Fraction(0), 1, (1,) + (0,) * order)


def _theta_sum(terms, step: int, den: int, order: int) -> QSeries:
    """sum of w(x) q^(x^2/den) over the x = x0 (mod step) of each (x0, w)
    in terms, on the integer grid above the first term's x0^2/den and
    known through order; an x with x^2 below that x0^2 is left out.
    Each w returns a Python int."""
    base = terms[0][0] ** 2
    top = math.isqrt(order * den + base)
    coeffs = [0] * (order + 1)
    for x0, w in terms:
        for x in range((x0 + top) % step - top, top + 1, step):
            if x * x >= base:
                coeffs[(x * x - base) // den] += w(x)
    return QSeries(Fraction(base, den), 1, tuple(coeffs))


def eta_series(order: int) -> QSeries:
    """Dedekind eta: q^(1/24) prod (1 - q^n) = sum chi_12(x) q^(x^2/24),
    chi_12(x) = +1 for x = +-1 and -1 for x = +-5 (mod 12)."""
    return _theta_sum(((1, lambda x: 1), (7, lambda x: -1)), 12, 24, order)


def theta_prime_series(m: int, N: int, order: int) -> QSeries:
    """sum_{n in Z} (m + 2Nn) q^((m+2Nn)^2 / 4N), exponents relative to
    the n = 0 term (integer spaced)."""
    if not 0 < m < 2 * N:
        raise ValueError("need 0 < m < 2N")
    return _theta_sum(((m, lambda x: x),), 2 * N, 4 * N, order)


def _inverse(den: QSeries) -> QSeries:
    """1 / den, known as far as den is."""
    return qseries_one(den.order - 1) / den


def _su2_character(k: int, a: int, weyl_inverse: QSeries) -> QSeries:
    """Level-k character of sector a: theta'_{a+1,k+2} times the inverse of
    the shared Weyl denominator theta'_{1,2}.  It leads with a+1 (the
    dimension of the ground multiplet) at q^(h_a - c/24)."""
    N = k + 2
    chi = theta_prime_series(a + 1, N, weyl_inverse.order - 1) * weyl_inverse
    expo, lead = chi.leading()
    assert expo == Fraction(a * (a + 2), 4 * N) - Fraction(3 * k, 24 * N)
    assert lead == a + 1
    return chi


def _minimal_character(p: int, pp: int, r: int, s: int, eta_inverse: QSeries) -> QSeries:
    """Kac-label (r, s) character: the alternating lattice sum times the
    inverse of the shared eta."""
    A = p * r - pp * s
    B = p * r + pp * s
    lattice = _theta_sum(((A, lambda x: 1), (B, lambda x: -1)), 2 * p * pp, 4 * p * pp,
                         eta_inverse.order - 1)
    chi = lattice * eta_inverse
    expo, lead = chi.leading()
    h = Fraction(A * A - (p - pp) ** 2, 4 * p * pp)
    c = Fraction(1) - Fraction(6 * (p - pp) ** 2, p * pp)
    assert expo == h - c / 24
    assert lead == 1
    return chi


def characters_for(md: ModularData, order: int = DEFAULT_ORDER) -> tuple:
    """Characters of every sector, in sector order: sparse numerators
    times one inverse of the denominator they share."""
    if md.family == "su2":
        (k,) = md.params
        inverse = _inverse(theta_prime_series(1, 2, order))
        return tuple(_su2_character(k, a, inverse) for a in range(md.n))
    if md.family == "minimal":
        p, pp = md.params
        inverse = _inverse(eta_series(order))
        return tuple(
            _minimal_character(p, pp, *map(int, sec.name.split(",")), inverse)
            for sec in md.sectors
        )
    raise ValueError("characters are only available for built-in families")


def truncation_tail(order: int, q_abs, offset_min: Fraction, dps: int):
    """Upper estimate for sum_{j > order} |c_j| |q|^(offset_min + j).

    Uses |c_j| <= 100 (j+1)^4 exp(pi sqrt(6 j)), which dominates the
    coefficient growth of every built-in character family.
    """
    with workdps(dps + GUARD_DIGITS):
        q_abs = mpf(q_abs)
        if q_abs <= 0 or q_abs >= 1:
            raise ValueError("need 0 < |q| < 1")

        def term(j):
            return 100 * mpf(j + 1) ** 4 * mp.exp(mp.pi * mp.sqrt(6 * j)) * q_abs ** j

        t1 = term(order + 1)
        ratio = term(order + 2) / t1
        if ratio >= 1:
            return mp.inf
        tail = t1 / (1 - ratio)
        return tail * q_abs ** mpf_from_fraction(offset_min, dps)


class _Evaluated:
    """One (model, order) character table at q = exp(-beta) and
    q~ = exp(-4 pi^2 / beta) (beta defaults to 2 pi): every sector's
    value at each nome (chi_q, chi_qt), each rounded once to 2^-B as a
    Fixed row at B = fixed_bits(dps), and the truncation tail estimate at
    each nome, shared by every channel check of the same call.  When a
    tail is +inf every residual is +inf, and chi_q and chi_qt are None:
    nothing is evaluated, as the other nome can give a value of some
    10^60 bits (beta = 1e60 or 1e-30).  Create and use it at the working
    precision dps + GUARD_DIGITS."""

    def __init__(self, chis: tuple, order: int, beta, dps: int):
        beta = mpf(beta) if beta is not None else 2 * mp.pi
        if not mp.isfinite(beta) or beta <= 0:
            raise ValueError("beta must be positive and finite")
        nomes = (mp.exp(-beta), mp.exp(-4 * mp.pi ** 2 / beta))
        if max(nomes) >= 1:  # beta below about eps or above about 4 pi^2/eps
            raise ValueError(
                "beta = %s rounds q = exp(-beta) or q~ = exp(-4 pi^2/beta) to 1 at "
                "precision %d; the usable range of --beta is %s < beta < %s"
                % (mp.nstr(beta, 5), dps, mp.nstr(mp.eps, 3),
                   mp.nstr(4 * mp.pi ** 2 / mp.eps, 3)))
        offset_min = min(chi.offset for chi in chis)
        self.tail_q, self.tail_qt = (truncation_tail(order, x, offset_min, dps) for x in nomes)
        self.chi_q = self.chi_qt = None
        if mp.isfinite(self.tail_q) and mp.isfinite(self.tail_qt):
            bits = fixed_bits(dps)
            self.chi_q, self.chi_qt = (
                Fixed.exact([to_fixed(chi.evaluate(x, dps), bits) for chi in chis], None, bits)
                for x in nomes)


def _s_residual(md: ModularData, ev: _Evaluated):
    """max |S chi(q) - chi(q~)| over md.fixed and the rounded characters,
    raised to the larger tail (+inf when a tail is).  S chi(q) is exact
    and floored once, so with the rounding of each chi by 1/2 unit and
    sum_mu |S_lambda mu| <= sqrt(n) the value lies within (sqrt(n) + 3) / 2
    units of 2^-B of the residual over the unrounded characters."""
    tail = max(ev.tail_q, ev.tail_qt)
    if ev.chi_q is None:
        return tail
    S = md.fixed[0]
    return max((S.dot(ev.chi_q).rescale(S.bits) - ev.chi_qt).max_abs(), tail)


def s_transform_residual(md: ModularData, order: int = DEFAULT_ORDER, beta=None):
    """max_lambda |chi_lambda(q~) - sum_mu S_{lambda mu} chi_mu(q)|.

    q = exp(-beta), q~ = exp(-4 pi^2 / beta).  The reported value is
    raised to the analytic truncation tail estimate when that is
    larger (+inf when a tail is; _s_residual bounds the rounding), so
    a residual below a tolerance is never one the tail could hide.
    """
    if order < S_TRANSFORM_MIN_ORDER:
        raise ValueError("order must be at least %d" % S_TRANSFORM_MIN_ORDER)
    with workdps(md.precision + GUARD_DIGITS):
        ev = _Evaluated(characters_for(md, order), order, beta, md.precision)
        return _s_residual(md, ev)


def qseries_document(f: QSeries) -> dict:
    return {
        "format": QSERIES_DOCUMENT_FORMAT,
        "offset": "%d/%d" % (f.offset.numerator, f.offset.denominator),
        "grid": f.grid,
        "coeffs": list(f.coeffs),
    }
