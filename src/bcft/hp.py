"""High-precision numeric helpers built on mpmath.

Precision is given in decimal digits everywhere.  Matrices are plain
tuples of tuples of mpf/mpc so domain objects stay hashable and
immutable; mpmath matrix objects and the fixed-point arrays of Fixed,
which carry the exact big-int contractions, are only created transiently.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, mpc, workdps

from .errors import RationalizationFailure

GUARD_DIGITS = 10
# binary digits carried past GUARD_DIGITS by the fixed-point format
FIXED_GUARD_BITS = 8


def mpf_from_fraction(x: Fraction, dps: int):
    with workdps(dps + GUARD_DIGITS):
        return mpf(x.numerator) / x.denominator


def phase_from_fraction(x: Fraction, dps: int):
    """exp(2 pi i x) for exact rational x."""
    with workdps(dps + GUARD_DIGITS):
        return mp.expjpi(2 * mpf_from_fraction(x, dps))


def to_fraction(x) -> Fraction:
    """Exact rational value of an mpf."""
    sign, man, exp, _ = mp.mpf(x)._mpf_
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def rationalize(x, dps: int, max_denominator: int = 10**6) -> Fraction:
    """Nearest small-denominator rational, or RationalizationFailure.

    The fit must reproduce x within tolerance(dps).
    """
    exact = to_fraction(x)
    fit = exact.limit_denominator(max_denominator)
    tol = tolerance(dps)
    if abs(fit - exact) > to_fraction(tol):
        raise RationalizationFailure(
            "no rational with denominator <= %d within %s of %s"
            % (max_denominator, mp.nstr(tol, 3), mp.nstr(mp.mpf(x), 25))
        )
    return fit


def num_str(x, dps: int) -> str:
    """Deterministic decimal rendering at the given precision; a complex
    value with zero imaginary part renders as its real part."""
    with workdps(dps + GUARD_DIGITS):
        v = mp.mpmathify(x)
        if v.imag == 0:
            return mp.nstr(mp.mpf(v.real), dps, strip_zeros=False)
        v = mp.mpc(v)
        return "%s%s%si" % (
            mp.nstr(v.real, dps, strip_zeros=False),
            "+" if v.imag >= 0 else "-",
            mp.nstr(abs(v.imag), dps, strip_zeros=False),
        )


def parse_number(s: str, dps: int):
    """Inverse of num_str; also accepts exact 'p/q' rationals."""
    s = s.strip()
    with workdps(dps + GUARD_DIGITS):
        if "/" in s:
            f = Fraction(s)
            return mpf(f.numerator) / f.denominator
        if s.endswith("i"):
            body = s[:-1]
            for k in range(1, len(body)):
                if body[k] in "+-" and body[k - 1] not in "eE":
                    return mpc(mp.mpf(body[:k]), mp.mpf(body[k:]))
            return mpc(0, mp.mpf(body))
        return mp.mpf(s)


@functools.lru_cache(maxsize=None)
def tolerance(dps: int):
    """The precision-tied threshold 10^-max(1, dps//2), computed at guard
    precision: residuals below it count as zero at dps digits (one digit
    still gets a threshold below 1).  An mpf is immutable, so each dps
    computes it once."""
    with workdps(dps + GUARD_DIGITS):
        return mpf(10) ** -max(1, dps // 2)


# ---------------------------------------------------------------------------
# exact fixed-point arithmetic on Python ints


def fixed_bits(dps: int) -> int:
    """Fraction bits B of the fixed-point format at dps digits: the guard
    precision in binary plus FIXED_GUARD_BITS."""
    return math.ceil((dps + GUARD_DIGITS) * math.log2(10)) + FIXED_GUARD_BITS


def to_fixed(x, bits: int) -> int:
    """round(x * 2^bits) for a real mpf, exactly from its mantissa and
    exponent (halves round away from zero)."""
    sign, man, exp, _ = x._mpf_
    shift = exp + bits
    v = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -v if sign else v


class Fixed:
    """An array of complex values (re + i im) / 2^bits held as numpy
    object arrays of Python ints; im is None when every entry is real.

    Products are exact and add the scales; rescale() is the only
    rounding step (floor, so it moves each part by less than 2^-bits).
    """

    __slots__ = ("re", "im", "bits")

    def __init__(self, re, im, bits: int):
        self.re, self.im, self.bits = re, im, bits

    @classmethod
    def of(cls, values, bits: int) -> "Fixed":
        """Each entry of a nested sequence of mpf/mpc, rounded to 2^-bits."""
        vals = np.array(values, dtype=object)
        re = np.frompyfunc(lambda v: to_fixed(mp.mpmathify(v).real, bits), 1, 1)(vals)
        im = np.frompyfunc(lambda v: to_fixed(mp.mpmathify(v).imag, bits), 1, 1)(vals)
        return cls(re, im if im.any() else None, bits)

    @classmethod
    def identity(cls, n: int, bits: int) -> "Fixed":
        return cls(np.identity(n, dtype=object) * (1 << bits), None, bits)

    def _combine(self, other, op, bits):
        re = op(self.re, other.re)
        if self.im is None and other.im is None:
            return Fixed(re, None, bits)
        if other.im is None:
            return Fixed(re, op(self.im, other.re), bits)
        if self.im is None:
            return Fixed(re, op(self.re, other.im), bits)
        return Fixed(re - op(self.im, other.im),
                     op(self.re, other.im) + op(self.im, other.re), bits)

    def __mul__(self, other: "Fixed") -> "Fixed":
        """Exact elementwise (broadcasting) product."""
        return self._combine(other, np.multiply, self.bits + other.bits)

    def dot(self, other: "Fixed") -> "Fixed":
        """Exact matrix product."""
        return self._combine(other, np.dot, self.bits + other.bits)

    def rescale(self, bits: int) -> "Fixed":
        """Floor every part down to 2^-bits."""
        shift = self.bits - bits
        return Fixed(self.re >> shift, None if self.im is None else self.im >> shift, bits)

    def conj(self) -> "Fixed":
        return Fixed(self.re, None if self.im is None else -self.im, self.bits)

    @property
    def T(self) -> "Fixed":
        return Fixed(self.re.T, None if self.im is None else self.im.T, self.bits)

    def __getitem__(self, index) -> "Fixed":
        return Fixed(self.re[index], None if self.im is None else self.im[index], self.bits)

    def __sub__(self, other: "Fixed") -> "Fixed":
        im = (self.im if other.im is None else
              -other.im if self.im is None else self.im - other.im)
        return Fixed(self.re - other.re, im, self.bits)

    def abs2(self):
        """|entry|^2 * 4^bits, exactly, as an object array."""
        return self.re * self.re if self.im is None else self.re * self.re + self.im * self.im

    def bound(self) -> Fraction:
        """An upper bound on every modulus, before and after the rounding
        to 2^-bits."""
        return Fraction(math.isqrt(int(self.abs2().max())) + 2, 1 << self.bits)

    def max_abs(self):
        """The largest modulus, as an mpf at the current precision."""
        return mp.ldexp(mp.sqrt(mpf(int(self.abs2().max()))), -self.bits)


# ---------------------------------------------------------------------------
# small dense linear algebra on tuple matrices


def nullspace(rows, n_vars: int, dps: int):
    """Kernel basis of a real linear system at working precision.

    rows: iterable of coefficient sequences (mpf) over n_vars unknowns.
    Returns one basis vector per free column, with a unit entry there:
    reduced echelon form over the free variables, canonical for the subspace.
    """
    with workdps(dps + GUARD_DIGITS):
        a, pivots = rref_rows([r for r in rows if any(x != 0 for x in r)], dps)
        basis = []
        for fc in (c for c in range(n_vars) if c not in pivots):
            v = [mpf(0)] * n_vars
            v[fc] = mpf(1)
            for r, pc in enumerate(pivots):
                v[pc] = -a[r][fc]
            basis.append(v)
        return basis


def independent_rows(matrix: np.ndarray) -> list:
    """Indices of rows spanning the row space of a float64 matrix, by
    Gauss elimination with complete pivoting.  Pivots count down to the
    float64 noise floor, so a misjudged rank adds a dependent row rather
    than dropping an independent one."""
    a = np.array(matrix, dtype=np.float64)
    floor = np.abs(a).max(initial=0.0) * a.shape[1] * np.finfo(np.float64).eps
    rows = []
    for _ in range(a.shape[1]):
        r, c = np.unravel_index(np.abs(a).argmax(), a.shape)
        if abs(a[r, c]) <= floor:
            break
        rows.append(int(r))
        a -= np.outer(a[:, c] / a[r, c], a[r])
    return rows


def rref_rows(vectors, dps: int):
    """Reduced row echelon form of a list of row vectors (Gauss-Jordan
    with partial pivoting; entries below tolerance(dps) count as zero).

    Returns (nonzero rows, pivot_columns).
    """
    with workdps(dps + GUARD_DIGITS):
        thresh = tolerance(dps)
        a = [list(map(mpf, v)) for v in vectors]
        n_vars = len(a[0]) if a else 0
        pivots = []
        row = 0
        for col in range(n_vars):
            best, best_val = None, thresh
            for r in range(row, len(a)):
                v = abs(a[r][col])
                if v > best_val:
                    best, best_val = r, v
            if best is None:
                continue
            a[row], a[best] = a[best], a[row]
            pv = a[row][col]
            a[row] = [x / pv for x in a[row]]
            for r in range(len(a)):
                if r != row and abs(a[r][col]) > 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[row])]
            pivots.append(col)
            row += 1
            if row == len(a):
                break
        return a[:row], pivots


# unused by the package; perfbench/spans.py traces it by name until
# stages are recorded inside the package
def eig_symmetric(rows, dps: int):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real
    symmetric matrix given as nested sequences."""
    with workdps(dps + GUARD_DIGITS):
        n = len(rows)
        a = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                a[i, j] = mpf(rows[i][j])
        e, q = mp.eigsy(a)
        vals = [e[i] for i in range(n)]
        vecs = [[q[i, j] for i in range(n)] for j in range(n)]
        order = sorted(range(n), key=lambda i: vals[i])
        return [vals[i] for i in order], [vecs[i] for i in order]


# unused by the package; perfbench/spans.py traces it by name until
# stages are recorded inside the package
def kahan_sum(terms):
    """Compensated summation of an iterable of mpf/mpc terms."""
    s = mpf(0)
    c = mpf(0)
    for t in terms:
        y = t - c
        u = s + y
        c = (u - s) - y
        s = u
    return s
