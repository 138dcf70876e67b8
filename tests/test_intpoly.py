"""Exact integer polynomials: characteristic polynomials, psi_N, Sturm counts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, workdps

from intpoly import charpoly, cyclotomic, divmod_poly, mul, psi, rem, roots_above


def test_charpoly_matches_numpy_poly_on_random_integer_matrices():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        for _ in range(15):
            a = rng.integers(-5, 6, (n, n))
            want = [int(round(x)) for x in np.poly(a)]
            assert charpoly(a) == want, a


def test_charpoly_is_exact_where_floats_overflow_their_mantissa():
    a = np.diag([10**9, 10**9 + 1, -(10**9)])
    # (x - 1e9)(x - 1e9 - 1)(x + 1e9) needs ~90 bits
    assert charpoly(a) == mul(mul([1, -(10**9)], [1, -(10**9) - 1]), [1, 10**9])


def test_psi_has_the_numeric_roots_2cos_2pi_j_over_n():
    with workdps(60):
        for n in range(1, 121):
            p = psi(n)
            roots = [
                2 * mp.cos(2 * mp.pi * j / n)
                for j in range(n // 2 + 1)
                if math.gcd(j, n) == 1
            ]
            assert p[0] == 1 and len(p) - 1 == len(roots), n
            assert all(abs(mp.polyval(p, r)) < mp.mpf(10) ** -40 for r in roots), n


def test_cyclotomic_products_give_z_to_the_n_minus_one():
    for n in range(1, 40):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = mul(prod, cyclotomic(d))
        assert prod == [1] + [0] * (n - 1) + [-1]


def test_remainder_and_quotient():
    p = mul(mul([1, -1], [1, 2]), [1, 0, 1])
    quot, r = divmod_poly(p, [1, 0, 1])
    assert quot == mul([1, -1], [1, 2]) and r == []
    assert rem([1, 0, 0], [1, -3]) == [9]
    quot, r = divmod_poly([1, 0, 0], [2, 1])
    assert quot == [Fraction(1, 2), Fraction(-1, 4)] and r == [Fraction(1, 4)]


@pytest.mark.parametrize(
    "roots, x, above",
    [
        ([1, 2, 3], Fraction(1, 2), 3),
        ([1, 2, 3], Fraction(5, 2), 1),
        ([1, 2, 3], 4, 0),
        ([1, 1, 2], 0, 2),  # repeated roots count once
        ([-3, -1, 0, 5], Fraction(-2), 3),
        ([-3, -1, 0, 5], -1, 2),  # a simple root at x itself is not above it
    ],
)
def test_sturm_counts_distinct_roots_above_x(roots, x, above):
    p = [1]
    for r in roots:
        p = mul(p, [1, -r])
    assert roots_above(p, x) == above


def test_sturm_count_on_irrational_roots():
    # x^2 - 2: one root above 1.414, none above 1.415
    assert roots_above([1, 0, -2], Fraction(1414, 1000)) == 1
    assert roots_above([1, 0, -2], Fraction(1415, 1000)) == 0
    # psi_24 = x^4 - 4x^2 + 1: top root 2cos(pi/12) = 1.93185...
    assert roots_above(psi(24), Fraction(19318, 10000)) == 1
    assert roots_above(psi(24), Fraction(19319, 10000)) == 0
    # no real roots at all
    assert roots_above([1, 0, 1], -100) == 0
