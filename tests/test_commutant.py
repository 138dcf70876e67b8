"""The S,T-commutant basis behind the invariant search.

_commutant eliminates only the constraint rows that float64 picks and
certifies the result against every row; the oracle here eliminates all
of them, as the search did before.
"""

import dataclasses

import numpy as np
import pytest
from mpmath import mp, mpf, workdps

from bcft.errors import RationalizationFailure
from bcft.hp import GUARD_DIGITS, independent_rows, nullspace, rationalize, rref_rows
from bcft.invariants import _commutant, t_allowed_pairs
from bcft.modular_data import load_model
from conftest import all_coprime_pairs, minimal, su2, su3_level1_document


def _full_elimination(md):
    """Commutant from a Gauss-Jordan over every S-constraint row, (ZS -
    SZ)_ab = 0 for all a, b split into real and imaginary parts."""
    pairs = t_allowed_pairs(md)
    index = {v: t for t, v in enumerate(pairs)}
    n, dps = md.n, md.precision
    with workdps(dps + GUARD_DIGITS):
        rows = []
        for a in range(n):
            for b in range(n):
                coeff = [mpf(0)] * len(pairs)
                for j in range(n):
                    if (a, j) in index:
                        coeff[index[a, j]] += md.S[j][b]
                for i in range(n):
                    if (i, b) in index:
                        coeff[index[i, b]] -= md.S[a][i]
                if any(getattr(x, "imag", 0) != 0 for x in coeff):
                    rows.append([mp.re(x) for x in coeff])
                    rows.append([mp.im(x) for x in coeff])
                else:
                    rows.append(coeff)
        reduced, pivots = rref_rows(nullspace(rows, len(pairs), dps), dps)
        return pairs, [[rationalize(x, dps) for x in vec] for vec in reduced], pivots


MODELS = (
    [("su2", (k,)) for k in [*range(1, 21), 28]]
    + [("minimal", labels) for labels in all_coprime_pairs(9)]
    + [("su3", (1,))]
)


@pytest.mark.parametrize(
    "family, params", MODELS, ids=["%s-%s" % (f, ",".join(map(str, p))) for f, p in MODELS]
)
def test_commutant_matches_full_elimination(family, params):
    """su(3) level 1 has a complex S, so its rows split into real and
    imaginary parts."""
    builders = {"su2": su2, "minimal": minimal,
                "su3": lambda k: load_model(su3_level1_document())}
    md = builders[family](*params)
    assert _commutant(md) == _full_elimination(md)


def test_certificate_sees_below_float64_resolution():
    md = su2(10)
    S = [list(row) for row in md.S]
    with workdps(md.precision + GUARD_DIGITS):
        S[0][1] = S[1][0] = S[0][1] + mpf("1e-20")
    moved = dataclasses.replace(md, S=tuple(map(tuple, S)))
    assert float(moved.S[0][1]) == float(md.S[0][1])
    try:
        got = _commutant(moved)
    except RationalizationFailure:
        return
    assert got != _commutant(md)
    assert got == _full_elimination(moved)


@pytest.mark.parametrize(
    "matrix, rank",
    [
        ([[0.0, 0.0], [0.0, 0.0]], 0),
        ([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]], 1),
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0], [3.0, 0.0, 3.0]], 2),
    ],
)
def test_independent_rows_span_the_row_space(matrix, rank):
    rows = independent_rows(matrix)
    assert len(rows) == rank
    a = np.array(matrix)
    assert np.linalg.matrix_rank(a[rows]) == np.linalg.matrix_rank(a) == rank
