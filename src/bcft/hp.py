"""High-precision numeric helpers built on mpmath.

Precision is given in decimal digits everywhere.  Matrices of mpf/mpc
are tuples of tuples, so domain objects stay hashable and immutable;
mpmath matrices are only transient.  Integer tensors (fusion tensors,
nimrep families) are read-only arrays made once by int_array: int64 where
every entry fits, Python ints past that.  Fixed arrays carry the exact
big-int contractions.  A model's S is itself fixed point: the builders
and the document reader write S 2^B as Python ints (ModularData.S_fixed),
the model caches S, 1/S_0 and S^2 over them (ModularData.fixed,
read-only), and its mpf S is a view, x / 2^B, built only for the readers
that need mpf; all other Fixed arrays are transient.  Fixed.gram forms
S^2 and S T S of a real, exactly symmetric S as one triangle; any other S
takes Fixed.dot.  The Gauss-Jordan elimination runs on Python ints.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import from_man_exp

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
    """Exact rational value of an mpf, whatever the working precision (any
    other number is made an mpf at the working precision first)."""
    sign, man, exp, _ = (x if isinstance(x, mpf) else mpf(x))._mpf_
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def rationalize(x: Fraction, dps: int, max_denominator: int = 10**6) -> Fraction:
    """Nearest small-denominator rational to the exact value x, or
    RationalizationFailure.

    The fit must reproduce x within tolerance(dps).
    """
    fit = x.limit_denominator(max_denominator)
    if abs(fit - x) > exact_tolerance(dps):
        raise RationalizationFailure(
            "no rational with denominator <= %d within %s of %s"
            % (max_denominator, mp.nstr(tolerance(dps), 3), mp.nstr(mpf_from_fraction(x, dps), 25))
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


def parse_fixed(s: str, bits: int) -> tuple:
    """Inverse of num_str in fixed point: (re, im) of the decimal (or exact
    'p/q') text s, each part rounded from its exact value to 2^-bits.  A
    part above 2 in modulus, which no entry of a unitary S has, raises
    ValueError."""
    real, imag = s.strip(), "0"
    if real.endswith("i"):
        body = real[:-1]
        signs = (k for k in range(1, len(body)) if body[k] in "+-" and body[k - 1] not in "eE")
        k = next(signs, 0)
        real, imag = body[:k] or "0", body[k:]
    return tuple(_fixed_part(x, bits) for x in (real, imag))


_EXPONENT = re.compile(r"(.*)[eE]([-+]?\d+(?:_\d+)*)\s*\Z", re.S)


def _fixed_part(x: str, bits: int) -> int:
    """round(v 2^bits) of the exact value v of the text x; ValueError if
    |v| > 2.

    A decimal exponent e is weighed before 10^e is built (Fraction(x)
    builds it first).  With L the bit length of the mantissa's numerator
    less that of its denominator, log2|v| lies strictly between
    L - 1 + e log2(10) and L + 1 + e log2(10), and log2(10) > 3.  So e > 0
    with L + 3e >= 2 puts |v| above 2, and e < 0 with L + 3e <= -bits - 2
    puts it below 2^-(bits+1), where it rounds to 0; any other e is small."""
    m = _EXPONENT.match(x)
    v = Fraction(x if m is None else m[1] + "e0")  # the mantissa: Fraction's own syntax
    if m is not None and v:
        e = int(m[2])
        L = v.numerator.bit_length() - v.denominator.bit_length()
        if e > 0 and L + 3 * e >= 2:
            raise ValueError("%r is above 2 in modulus" % x)
        if e < 0 and L + 3 * e <= -bits - 2:
            return 0
        v *= Fraction(10) ** e
    if abs(v) > 2:
        raise ValueError("%r is above 2 in modulus" % x)
    return round(v * (1 << bits))


@functools.lru_cache(maxsize=None)
def tolerance(dps: int):
    """The precision-tied threshold 10^-max(1, dps//2), computed at guard
    precision: residuals below it count as zero at dps digits (one digit
    still gets a threshold below 1).  An mpf is immutable, so each dps
    computes it once."""
    with workdps(dps + GUARD_DIGITS):
        return mpf(10) ** -max(1, dps // 2)


@functools.lru_cache(maxsize=None)
def exact_tolerance(dps: int) -> Fraction:
    """tolerance(dps) as an exact Fraction, for the checks made on ints."""
    return to_fraction(tolerance(dps))


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


def from_fixed(x: int, bits: int, y: int = 0):
    """(x + i y) / 2^bits exactly, at any precision: an mpf, or an mpc
    when y is nonzero."""
    re = from_man_exp(x, -bits)
    return mp.make_mpc((re, from_man_exp(y, -bits))) if y else mp.make_mpf(re)


def exact_dtype(terms: int, *arrays):
    """The dtype in which products of these integer arrays are exact.

    A product whose entries sum at most `terms` products of entries is
    exact in float64, in any summation order (BLAS may reorder), when
    terms * max|a| * max|b| < 2^53: every partial sum is then an integer
    that float64 holds.  Returns float64 when terms * M^2 < 2^53 for the
    largest modulus M >= 1 over the int64 or Python-int arrays (from max and
    min: np.abs wraps -2^63), so every entry converts exactly; object otherwise.
    """
    big = max([1] + [max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in arrays])
    return np.float64 if terms * big * big < 1 << 53 else object


def int_array(rows) -> np.ndarray:
    """rows as a read-only array: int64 if every entry fits, else (or if
    ragged) Python ints.  An array int_array made is returned as it is."""
    if isinstance(rows, np.ndarray) and rows.dtype in (np.int64, object) \
            and not rows.flags.writeable:
        return rows
    try:
        a = np.array(rows, dtype=np.int64)
    except (OverflowError, ValueError):
        a = np.array(rows, dtype=object)
    a.flags.writeable = False
    return a


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
    def exact(cls, re, im, bits: int) -> "Fixed":
        """Nested sequences of Python ints taken as they are (im None: real)."""
        return cls(*(None if p is None else np.array(p, dtype=object) for p in (re, im)), bits)

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

    def gram(self, w: "Fixed | None" = None) -> "Fixed":
        """A diag(w) A^T for a real square A = self and a Fixed row w (None:
        all 1), each entry i <= j formed once and mirrored: per part of w,
        sum_k A_ik floor(w_k A_jk / 2^w.bits), which for a symmetric S is
        S.dot((S * w.T).rescale(S.bits)) on and above the diagonal."""
        A, out = self.re, []
        for part in [None] if w is None else [x for x in (w.re, w.im) if x is not None]:
            W = A if part is None else (A * part) >> w.bits  # row j weighted, floored
            a = np.empty_like(A)
            for i in range(len(A)):
                a[i, i:] = a[i:, i] = W[i:].dot(A[i])
            out.append(a)
        return Fixed(out[0], out[1] if len(out) > 1 else None, 2 * self.bits)

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
# Gauss-Jordan on fixed-point Python ints


def nullspace(rows, n_vars: int, dps: int):
    """Kernel basis of a real linear system in fixed point.

    rows: iterable of coefficient sequences over n_vars unknowns, Python
    ints scaled by 2^B with B = fixed_bits(dps).  Returns one basis
    vector per free column at the same scale, with the unit 2^B there:
    reduced echelon form over the free variables, canonical for the
    subspace.
    """
    a, pivots = rref_rows([r for r in rows if any(r)], dps)
    one = 1 << fixed_bits(dps)
    basis = []
    for fc in (c for c in range(n_vars) if c not in pivots):
        v = [0] * n_vars
        v[fc] = one
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
    """Reduced row echelon form of row vectors of Python ints scaled by
    2^B, B = fixed_bits(dps): Gauss-Jordan with partial pivoting (the
    first largest entry wins), the pivot row divided as (x << B) // pivot
    and the others reduced as x - ((f * y) >> B), so each step floors by
    less than 2^-B.  Entries of at most floor(tolerance(dps) 2^B) count
    as zero.

    Returns (nonzero rows at scale 2^B, pivot_columns).
    """
    bits = fixed_bits(dps)
    thresh = math.floor(exact_tolerance(dps) * (1 << bits))
    a = [list(map(int, v)) for v in vectors]
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
        a[row] = [(x << bits) // pv for x in a[row]]
        for r in range(len(a)):
            f = a[r][col]
            if r != row and f:
                a[r] = [x - ((f * y) >> bits) for x, y in zip(a[r], a[row])]
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
