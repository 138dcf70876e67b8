"""Exact q-series and chiral characters.

A QSeries stores an exact rational offset plus integer coefficients on
an evenly spaced exponent grid: coefficient j multiplies
q^(offset + j/grid).  Characters of the built-in families live on the
integer grid (grid = 1); sums of characters from different sectors are
re-gridded to a common refinement automatically.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, workdps

from .errors import ConvergenceWarning, SeriesDivisionError
from .hp import GUARD_DIGITS, fixed_bits, mpf_from_fraction, to_fixed
from .modular_data import ModularData
from .persistence import CHANNEL_TOL, DEFAULT_ORDER

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
        nonzero term of the left factor (a sparse character numerator)."""
        g = math.lcm(self.grid, other.grid)
        a, b = self.regrid(g), other.regrid(g)
        length = min(len(a.coeffs), len(b.coeffs))
        out = [0] * length
        for i, ci in enumerate(a.coeffs[:length]):
            if ci:
                out[i:] = [x + ci * y for x, y in zip(out[i:], b.coeffs)]
        return QSeries(a.offset + b.offset, g, tuple(out))

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
        rounded to 2^-B, then one multiply by q^offset.  Each floor costs
        < 2^-B and later steps damp it by x, so all cost < 2^-B / (1 - x);
        rounding x adds <= 2^-(B+1) |f'(x)|.  Both stay far below the
        GUARD_DIGITS carried past dps."""
        bits = fixed_bits(dps)
        with workdps(dps + GUARD_DIGITS):
            q = mpf(q)
            x = to_fixed(q ** (mpf(1) / self.grid), bits)
            acc = 0
            for cj in reversed(self.coeffs):
                acc = (acc * x >> bits) + (cj << bits)
            return mp.ldexp(acc, -bits) * q ** mpf_from_fraction(self.offset, dps)


def linear_combination(terms) -> QSeries:
    """sum_i m_i f_i over (m_i, f_i) pairs, on the coarsest common grid
    and known through the least known exponent of any term."""
    off = min(f.offset for _, f in terms)
    g = math.lcm(*(math.lcm(f.grid, (f.offset - off).denominator) for _, f in terms))
    length = int((min(f.known_through() for _, f in terms) - off) * g) + 1
    out = [0] * length
    for m, f in terms:
        at = slice(int((f.offset - off) * g), length, g // f.grid)
        out[at] = [x + m * c for x, c in zip(out[at], f.coeffs)]
    return QSeries(off, g, tuple(out))


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
    value at each nome (chi_q, chi_qt) and the truncation tail estimate
    at each nome, shared by every channel check of the same call.
    Create and use it at the working precision dps + GUARD_DIGITS."""

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
        self.chi_q, self.chi_qt = (tuple(chi.evaluate(x, dps) for chi in chis) for x in nomes)


def _warn_if_tail_dominates(tail, tol):
    if tail > mpf(tol):
        # at the first caller outside the package, however deep the check runs
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__", "").startswith(__package__ + "."):
            frame, level = frame.f_back, level + 1
        warnings.warn("truncation tail estimate %s exceeds tolerance %s"
                      % (mp.nstr(tail, 5), tol), ConvergenceWarning, stacklevel=level)


def _s_residual(md: ModularData, ev: _Evaluated, tol):
    raw = mpf(0)
    for lam in range(md.n):
        transformed = mp.fsum(md.S[lam][mu] * ev.chi_q[mu] for mu in range(md.n))
        raw = max(raw, abs(ev.chi_qt[lam] - transformed))
    tail = max(ev.tail_q, ev.tail_qt)
    _warn_if_tail_dominates(tail, tol)
    return max(raw, tail)


def s_transform_residual(
    md: ModularData,
    order: int = DEFAULT_ORDER,
    beta=None,
    *,
    tol: float = CHANNEL_TOL,
):
    """max_lambda |chi_lambda(q~) - sum_mu S_{lambda mu} chi_mu(q)|.

    q = exp(-beta), q~ = exp(-4 pi^2 / beta).  The reported value is
    raised to the analytic truncation tail estimate when that is
    larger, and a ConvergenceWarning fires if the estimate exceeds tol.
    """
    if order < S_TRANSFORM_MIN_ORDER:
        raise ValueError("order must be at least %d" % S_TRANSFORM_MIN_ORDER)
    with workdps(md.precision + GUARD_DIGITS):
        ev = _Evaluated(characters_for(md, order), order, beta, md.precision)
        return _s_residual(md, ev, tol)


def qseries_document(f: QSeries) -> dict:
    return {
        "format": QSERIES_DOCUMENT_FORMAT,
        "offset": "%d/%d" % (f.offset.numerator, f.offset.denominator),
        "grid": f.grid,
        "coeffs": list(f.coeffs),
    }
