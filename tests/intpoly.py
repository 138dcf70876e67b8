"""Exact polynomials with integer or Fraction coefficients.

A polynomial is a list of coefficients, highest degree first, with no
leading zeros (the zero polynomial is the empty list).  All arithmetic is
exact, so the spectral certificates built on it involve no rounding.  The
tests use it as a reference: oracles.certify_norm and the characteristic-
polynomial spectrum check of test_nimreps.py run on it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def charpoly(a) -> list:
    """det(xI - a) of a square integer matrix, by Faddeev-LeVerrier.

    With M_1 = I and M_(j+1) = a M_j + c_j I, the coefficient of x^(n-j)
    is c_j = -tr(a M_j) / j; every c_j is an integer, so the division is
    exact.  The products are Python-int object arrays and cannot overflow.
    """
    a = np.array(a, dtype=object)
    eye = np.identity(a.shape[0], dtype=object)
    coeffs = [1]
    m = eye
    for j in range(1, a.shape[0] + 1):
        am = a.dot(m)
        c = -int(np.trace(am)) // j
        coeffs.append(c)
        m = am + c * eye
    return coeffs


def _trim(p) -> list:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return list(p[i:])


def mul(p, q) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def divmod_poly(p, q):
    """(quotient, remainder) of p on division by a nonzero q.  Integer
    inputs stay integers when q is monic; otherwise Fractions appear."""
    lead = q[0]
    r = list(p)
    quot = []
    for i in range(len(p) - len(q) + 1):
        c = r[i] if lead == 1 else Fraction(r[i]) / lead
        quot.append(c)
        for j in range(1, len(q)):
            r[i + j] -= c * q[j]
    return quot, _trim(r[len(quot):])


def rem(p, q) -> list:
    return divmod_poly(p, q)[1]


def _mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def cyclotomic(n: int) -> list:
    """Phi_n(z) = prod over d | n of (z^d - 1)^mu(n/d)."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        mu = _mobius(n // d) if n % d == 0 else 0
        if mu:
            factor = [1] + [0] * (d - 1) + [-1]
            if mu > 0:
                num = mul(num, factor)
            else:
                den = mul(den, factor)
    return divmod_poly(num, den)[0]


def psi(n: int) -> list:
    """The minimal polynomial of 2cos(2 pi/n) (Watkins & Zeitlin 1993).

    For n >= 3, Phi_n is palindromic of degree 2h and
    z^-h Phi_n(z) = a_h + sum_(j=1..h) a_(h+j) (z^j + z^-j).  With
    x = z + 1/z, z^j + z^-j = V_j(x), where V_0 = 2, V_1 = x and
    V_(j+1) = x V_j - V_(j-1).
    """
    if n <= 2:
        return [1, -2] if n == 1 else [1, 2]
    phi = cyclotomic(n)
    h = (len(phi) - 1) // 2
    out = [phi[h]] + [0] * h  # lowest degree first while summing
    prev, cur = [2], [0, 1]
    for j in range(1, h + 1):
        for i, x in enumerate(cur):
            out[i] += phi[h + j] * x
        nxt = [0] + cur
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return out[::-1]


def _value(p, x):
    v = 0
    for c in p:
        v = v * x + c
    return v


def roots_above(p, x) -> int:
    """Number of distinct real roots of p in (x, oo), by a Sturm count
    over Fractions; x must not be a multiple root of p."""
    deriv = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    chain = [list(p), deriv]
    while chain[-1]:
        chain.append([-c for c in rem(chain[-2], chain[-1])])
    chain.pop()

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    x = Fraction(x)
    return changes([_value(q, x) for q in chain]) - changes([q[0] for q in chain])
