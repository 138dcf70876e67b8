"""The S,T-commutant basis behind the invariant search.

_commutant eliminates only the constraint rows that float64 picks, in
fixed point, and certifies the result against every row by V S - S V;
the oracles here eliminate all of them on mpf, and hold every row as
one dense matrix of fixed-point ints (tests/oracles.py).
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf, workdps

from bcft.errors import RationalizationFailure
from bcft.hp import GUARD_DIGITS, independent_rows, rationalize, to_fraction
from bcft.invariants import _commutant, _commutator, _s_constraint_rows, t_allowed_pairs
from bcft.modular_data import load_model
from conftest import all_coprime_pairs, minimal, su2, su3_level1_document
from oracles import mpf_s, nullspace, rref_rows, s_constraint_rows, with_s


def _full_elimination(md):
    """Commutant from a Gauss-Jordan over every S-constraint row, (ZS -
    SZ)_ab = 0 for all a, b split into real and imaginary parts."""
    pairs = t_allowed_pairs(md)
    index = {v: t for t, v in enumerate(pairs)}
    n, dps, S = md.n, md.precision, mpf_s(md)
    with workdps(dps + GUARD_DIGITS):
        rows = []
        for a in range(n):
            for b in range(n):
                coeff = [mpf(0)] * len(pairs)
                for j in range(n):
                    if (a, j) in index:
                        coeff[index[a, j]] += S[j][b]
                for i in range(n):
                    if (i, b) in index:
                        coeff[index[i, b]] -= S[a][i]
                if any(getattr(x, "imag", 0) != 0 for x in coeff):
                    rows.append([mp.re(x) for x in coeff])
                    rows.append([mp.im(x) for x in coeff])
                else:
                    rows.append(coeff)
        reduced, pivots = rref_rows(nullspace(rows, len(pairs), dps), dps)
        exact = [[rationalize(to_fraction(x), dps) for x in vec] for vec in reduced]
        return pairs, exact, pivots


MODELS = (
    [("su2", (k,)) for k in [*range(1, 21), 28]]
    + [("minimal", labels) for labels in all_coprime_pairs(9)]
    + [("su3", (1,))]
)


MODEL_IDS = ["%s-%s" % (f, ",".join(map(str, p))) for f, p in MODELS]


def _model(family, params):
    builders = {"su2": su2, "minimal": minimal,
                "su3": lambda k: load_model(su3_level1_document())}
    return builders[family](*params)


def _moved_su2_10():
    """su2(10) with S_01 = S_10 moved by 1e-20, below float64 resolution."""
    md = su2(10)
    S = [list(row) for row in mpf_s(md)]
    with workdps(md.precision + GUARD_DIGITS):
        S[0][1] = S[1][0] = S[0][1] + mpf("1e-20")
    return with_s(md, S)


@pytest.mark.parametrize("family, params", MODELS, ids=MODEL_IDS)
def test_commutant_matches_full_elimination(family, params):
    """su(3) level 1 has a complex S, so its rows split into real and
    imaginary parts."""
    md = _model(family, params)
    assert _commutant(md) == _full_elimination(md)


@pytest.mark.parametrize("family, params", MODELS + [("moved", ())],
                         ids=MODEL_IDS + ["su2-10-moved"])
def test_certificate_equals_the_dense_rows(family, params):
    """C v = V S - S V from the nonzero entries of v equals the dense
    oracle rows times v, row for row and with its sign (so |C v| does), for each basis
    vector of su2(10)'s commutant scaled to ints (on the moved su2(10)
    they fail the certificate) or of the model's own, and for a seeded
    random vector over every pair; _s_constraint_rows gives the oracle's
    rows on ints and, from a float64 S, its rows rounded to float64."""
    md = _moved_su2_10() if family == "moved" else _model(family, params)
    pairs = t_allowed_pairs(md)
    dense = s_constraint_rows(md, pairs)
    S = md.fixed[0]
    parts, one = np.array([S.re] if S.im is None else [S.re, S.im]), 1 << S.bits
    every = range(parts.size)
    assert _s_constraint_rows(parts, pairs, every).tolist() == dense.tolist()
    floats = _s_constraint_rows((parts / one).astype(float), pairs, every)
    assert np.allclose(floats, (dense / one).astype(float), rtol=0, atol=1e-15)
    _, basis, _ = _commutant(su2(10) if family == "moved" else md)
    vecs = [[int(x * math.lcm(*(y.denominator for y in vec))) for x in vec] for vec in basis]
    rng = np.random.default_rng(len(pairs))
    vecs.append([int(x) for x in rng.integers(-3, 4, len(pairs))])
    for v in vecs:
        assert _commutator(parts, pairs, v).tolist() == dense.dot(np.array(v, dtype=object)).tolist()


def test_certificate_sees_below_float64_resolution():
    md = su2(10)
    moved = _moved_su2_10()
    assert float(mpf_s(moved)[0][1]) == float(mpf_s(md)[0][1])
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
