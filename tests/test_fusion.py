"""Fusion coefficients: integrality, axioms, closed-form oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from bcft.errors import IntegralityFailure
from bcft.fusion import (
    fusion_document,
    fusion_from_document,
    fusion_matrix,
    verify_axioms,
    verlinde,
    verlinde_inputs,
)
from bcft.hp import GUARD_DIGITS, tolerance
from bcft.modular_data import load_model, validate
from conftest import fusion_minimal, fusion_su2, minimal, su3_level1_document, su2


def test_ising_fusion_table():
    fr = fusion_minimal(4, 3)
    # order: 0 = vacuum, 1 = sigma (h=1/16), 2 = eps (h=1/2)
    assert fr.N[1][1][0] == 1  # sigma x sigma -> 1
    assert fr.N[1][1][2] == 1  # sigma x sigma -> eps
    assert fr.N[1][1][1] == 0
    assert fr.N[1][2][1] == 1  # sigma x eps -> sigma
    assert fr.N[2][2][0] == 1  # eps x eps -> 1
    assert fr.N[2][2][2] == 0
    assert fr.max_residual < 1e-50


def su2_closed_form(k: int) -> np.ndarray:
    """Independent truncated Clebsch-Gordan rule."""
    n = k + 1
    N = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (a + b + c) % 2 == 0 and abs(a - b) <= c <= min(
                    a + b, 2 * k - a - b
                ):
                    N[a][b][c] = 1
    return N


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_su2_fusion_matches_closed_form(k):
    fr = fusion_su2(k)
    assert np.array_equal(fr.as_array(), su2_closed_form(k))


def test_axioms_hold_for_many_models():
    for fr in [fusion_su2(k) for k in range(1, 11)] + [
        fusion_minimal(4, 3),
        fusion_minimal(5, 4),
        fusion_minimal(5, 2),
        fusion_minimal(7, 3),
    ]:
        assert verify_axioms(fr).ok
        assert fr.max_residual < 1e-50


def _first_associativity_violation(A):
    """Reference: both sides as whole n^4 arrays, first offender in
    (a, b, c, d) order."""
    lhs = np.einsum("abm,mcd->abcd", A, A)
    rhs = np.einsum("bcm,amd->abcd", A, A)
    bad = np.argwhere(lhs != rhs)
    return tuple(map(int, bad[0])) if len(bad) else None


@pytest.mark.parametrize("s, r, t", [(1, 1, 2), (2, 3, 1), (4, 4, 4), (3, 5, 5)])
def test_associativity_slices_report_the_whole_array_offender(s, r, t):
    fr = fusion_su2(6)
    A = fr.as_array()
    A[s, r, t] += 1
    A[r, s, t] = A[s, r, t]  # stays commutative
    broken = dataclasses.replace(fr, N=tuple(tuple(map(tuple, p)) for p in A.tolist()))
    (where,) = [v[1] for v in verify_axioms(broken).violations if v[0] == "associativity"]
    assert where == _first_associativity_violation(A)


def test_conjugation_column():
    fr = fusion_minimal(7, 2)
    for s in range(fr.n):
        for r in range(fr.n):
            assert fr.N[s][r][0] == (1 if r == fr.conj[s] else 0)


def test_fusion_matrix_is_left_multiplication():
    fr = fusion_su2(4)
    for sigma in range(fr.n):
        mat = fusion_matrix(fr, sigma)
        for a in range(fr.n):
            for b in range(fr.n):
                assert mat[a][b] == fr.N[sigma][a][b]


def test_fusion_matrices_represent_the_ring():
    fr = fusion_su2(5)
    mats = [np.array(fusion_matrix(fr, s), dtype=np.int64) for s in range(fr.n)]
    A = fr.as_array()
    for s in range(fr.n):
        for r in range(fr.n):
            combo = sum(A[s][r][t] * mats[t] for t in range(fr.n))
            assert np.array_equal(mats[s] @ mats[r], combo)


def test_integrality_failure_on_perturbed_s():
    md = minimal(4, 3)
    rows = [list(row) for row in md.S]
    rows[1][1] += mpf("1e-6")
    bad = dataclasses.replace(md, S=tuple(tuple(r) for r in rows))
    with pytest.raises(IntegralityFailure) as exc:
        verlinde(bad)
    assert exc.value.residual > 1e-10


def test_rounding_is_checked_against_the_error_bound():
    # a tolerance the residual alone meets fails once the bound E is added
    md = su2(2)
    fr = verlinde(md)
    E = verlinde_inputs(md)[2]
    assert 0 < E < 1e-60
    assert verlinde(md, integrality_tol=fr.max_residual + 2 * float(E)) == fr
    with pytest.raises(IntegralityFailure):
        verlinde(md, integrality_tol=fr.max_residual + float(E) / 2)


@pytest.mark.parametrize(
    "model",
    [lambda: su2(7), lambda: minimal(7, 3), lambda: load_model(su3_level1_document())],
    ids=["su2_k7", "minimal_7_3", "su3_k1"],
)
def test_fixed_point_sums_lie_within_the_bound(model):
    # the contraction verlinde forms, against the same sums over the
    # working-precision S and 1/S_0k evaluated at 150 digits
    md = model()
    S, W, E = verlinde_inputs(md)
    with workdps(md.precision + GUARD_DIGITS):
        inv0 = [1 / x for x in md.S[0]]
    worst = 0
    with workdps(150):
        for s in range(md.n):
            V = (S[s] * S[s:] * W).rescale(S.bits).dot(S.conj().T)
            for r in range(s, md.n):
                for t in range(md.n):
                    exact = mp.fsum(md.S[s][k] * md.S[r][k] * mp.conj(md.S[t][k]) * inv0[k]
                                    for k in range(md.n))
                    im = 0 if V.im is None else V.im[r - s, t]
                    got = mp.mpc(V.re[r - s, t], im) / mp.mpf(2) ** (2 * S.bits)
                    worst = max(worst, abs(got - exact))
        bound = mp.mpf(E.numerator) / E.denominator
        assert worst <= bound
        assert worst > bound / 10**6  # and the bound is not vacuous


@pytest.mark.parametrize("model", [lambda: su2(30), lambda: minimal(12, 11)],
                         ids=["su2_k30", "minimal_12_11"])
def test_error_bound_is_far_below_the_working_precision(model):
    E = verlinde_inputs(model())[2]
    assert E < 1e-50


def test_complex_s_su3_level1():
    md = load_model(su3_level1_document())
    assert md.conj == (0, 2, 1)
    fr = verlinde(md)
    assert fr.N == tuple(
        tuple(tuple(int(t == (a + b) % 3) for t in range(3)) for b in range(3))
        for a in range(3)
    )
    assert fr.max_residual < 1e-50
    assert verify_axioms(fr).ok
    rep = validate(md)
    assert all(rep[key] < tolerance(50) for key in ("symmetry", "unitarity", "modular_relation"))


def test_document_round_trip():
    fr = fusion_minimal(5, 4)
    assert fusion_from_document(fusion_document(fr)) == fr


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_unit_and_commutativity_properties(k):
    fr = fusion_su2(k)
    A = fr.as_array()
    assert np.array_equal(A[0], np.eye(fr.n, dtype=np.int64))
    assert np.array_equal(A, A.transpose(1, 0, 2))
    assert A.min() >= 0
