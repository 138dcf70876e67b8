"""Gauss-Jordan elimination, the precision-tied tolerance, fixed-point
products and decimal rendering."""

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, workdps

from bcft.errors import RationalizationFailure
from bcft.hp import (
    Fixed,
    fixed_bits,
    num_str,
    nullspace,
    rationalize,
    rref_rows,
    to_fixed,
    tolerance,
)

DPS = 30


def test_tolerance_is_half_the_digits_at_guard_precision():
    with workdps(60):
        assert tolerance(50) == mpf(10) ** -25
    with workdps(17):
        assert tolerance(7) == mpf(10) ** -3


def test_rationalize_accepts_a_fit_within_the_precision_tolerance():
    with workdps(60):
        x = mpf(1) / 3 + mpf("1e-19")
        assert rationalize(x, 8) == Fraction(1, 3)
        with pytest.raises(RationalizationFailure, match="within 1.0e-25 of"):
            rationalize(x, 50)


def test_rank_deficient_kernel_annihilates_rows():
    # rank 2 in 4 unknowns; irrational entries so nothing is exact
    with workdps(DPS + 10):
        r2 = mp.sqrt(2)
        rows = [[1, r2, 3, 0], [2, 2 * r2, 6, 0], [0, 1, +mp.pi, 1]]
    _, pivots = rref_rows(rows, DPS)
    free = [c for c in range(4) if c not in pivots]
    basis = nullspace(rows, 4, DPS)
    assert pivots == [0, 1]
    assert len(basis) == len(free) == 2
    with workdps(DPS + 10):
        for fc, v in zip(free, basis):
            assert v[fc] == 1
            assert all(v[c] == 0 for c in free if c != fc)
            for r in rows:
                assert abs(mp.fsum(a * x for a, x in zip(r, v))) < tolerance(DPS)


def test_all_zero_rows_give_the_identity_basis():
    basis = nullspace([[0, 0, 0], [0, 0, 0]], 3, DPS)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([], 2, DPS) == [[1, 0], [0, 1]]


def test_full_rank_system_has_empty_kernel():
    with workdps(DPS + 10):
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, +mp.e]]
    assert nullspace(rows, 3, DPS) == []


@pytest.mark.parametrize(
    "vectors, pivots, reduced",
    [
        ([[0, 1, 2], [0, 2, 5]], [1, 2], [[0, 1, 0], [0, 0, 1]]),
        ([[1, 2, 3], [2, 4, 6]], [0], [[1, 2, 3]]),
        ([[0, 0, 4], [3, 0, 0]], [0, 2], [[1, 0, 0], [0, 0, 1]]),
        ([], [], []),
    ],
)
def test_rref_rows_pivot_columns(vectors, pivots, reduced):
    rows, got = rref_rows(vectors, DPS)
    assert got == pivots
    assert rows == reduced


def test_entries_below_tolerance_count_as_zero():
    tiny = mpf(10) ** -(DPS // 2 + 5)
    _, pivots = rref_rows([[tiny, 1], [0, 0]], DPS)
    assert pivots == [1]
    assert nullspace([[tiny, 1]], 2, DPS) == [[1, -tiny]]


def test_to_fixed_rounds_exactly_from_the_mantissa():
    assert to_fixed(mpf(0.75), 1) == 2
    assert to_fixed(mpf(-0.75), 1) == -2
    assert to_fixed(mpf(0.7), 1) == 1
    assert to_fixed(mpf(3), 4) == 48
    with workdps(60):
        third = mpf(1) / 3
        assert abs(to_fixed(third, 200) - third * 2**200) <= mpf(1) / 2


def test_fixed_complex_product_matches_mpmath():
    bits = fixed_bits(DPS)
    with workdps(DPS + 10):
        a = [[mpc(1, 2) / 3, mp.sqrt(2)], [mp.pi, mpc(-1, mp.e)]]
        b = [[mp.sqrt(3), mpc(0, 1) / 7], [mpc(2, -1), mp.ln(2)]]
        prod = Fixed.of(a, bits).dot(Fixed.of(b, bits)).rescale(bits)
        want = mp.matrix(a) * mp.matrix(b)
        for i in range(2):
            for j in range(2):
                got = mpc(prod.re[i, j], prod.im[i, j]) / mpf(2) ** bits
                assert abs(got - want[i, j]) < mpf(2) ** (-bits + 4)
        real = Fixed.of([[mp.sqrt(2), 1]], bits)
        assert real.im is None
        assert (real - real).max_abs() == 0


def test_num_str_renders_a_zero_imaginary_part_as_real():
    with workdps(60):
        x = mp.sqrt(2)
        assert num_str(mpc(x, 0), 20) == num_str(x, 20) == "1.4142135623730950488"
        assert num_str(complex(0.5, 0), 5) == "0.50000"
        assert num_str(mpc(x, -x), 5) == "1.4142-1.4142i"
