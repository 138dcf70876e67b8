"""Gauss-Jordan elimination and the precision-tied tolerance."""

import pytest
from mpmath import mp, mpf, workdps

from bcft.hp import nullspace, rref_rows, tolerance

DPS = 30


def test_tolerance_is_half_the_digits_at_guard_precision():
    with workdps(60):
        assert tolerance(50) == mpf(10) ** -25
    with workdps(17):
        assert tolerance(7) == mpf(10) ** -3


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
