"""Fusion coefficients: integrality, axioms, closed-form oracle."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

import bcft.fusion
import bcft.nimreps
from bcft.errors import IntegralityFailure
from bcft.fusion import (
    DEFAULT_INTEGRALITY_TOL,
    verify_axioms,
    verlinde,
    verlinde_inputs,
)
from bcft.hp import Fixed, tolerance
from bcft.modular_data import load_model, validate
from bcft.nimreps import Nimrep, regular_nimrep, verify
from conftest import (all_coprime_pairs, fusion_minimal, fusion_su2, minimal,
                      su3_level1_document, su2)
from oracles import with_s


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
    assert np.array_equal(fr.N, su2_closed_form(k))


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


def test_associativity_past_the_float64_bound_matches_the_object_oracle():
    # 7 * (2^40)^2 is far past 2^53, so the products run on Python ints,
    # where int64 would wrap the square of the raised coefficient to 0
    fr = fusion_su2(6)
    A = fr.N.astype(object)
    A[2, 2, 2] = 2**40
    broken = dataclasses.replace(fr, N=A)
    (where,) = [v[1] for v in verify_axioms(broken).violations if v[0] == "associativity"]
    assert where == _first_associativity_violation(A)


@pytest.mark.parametrize("s, r, t", [(1, 1, 2), (2, 3, 1), (4, 4, 4), (3, 5, 5)])
def test_associativity_slices_report_the_whole_array_offender(s, r, t):
    fr = fusion_su2(6)
    A = fr.N.copy()
    A[s, r, t] += 1
    A[r, s, t] = A[s, r, t]  # stays commutative
    broken = dataclasses.replace(fr, N=A)
    (where,) = [v[1] for v in verify_axioms(broken).violations if v[0] == "associativity"]
    assert where == _first_associativity_violation(A)


def test_conjugation_column():
    fr = fusion_minimal(7, 2)
    for s in range(fr.n):
        for r in range(fr.n):
            assert fr.N[s][r][0] == (1 if r == fr.conj[s] else 0)


def test_fusion_matrix_is_left_multiplication():
    """The plane N[sigma] is sigma's left-multiplication matrix: its row rho
    holds sigma x rho.  The regular nimrep acts by the stored planes."""
    fr = fusion_su2(4)
    assert regular_nimrep(fr).nmats is fr.N  # the stored planes, not a copy
    for sigma in range(fr.n):
        assert fr.N[sigma, 0].tolist() == [int(t == sigma) for t in range(fr.n)]  # sigma x 1


def test_fusion_matrices_represent_the_ring():
    fr = fusion_su2(5)
    mats = [np.array(fr.N[s], dtype=np.int64) for s in range(fr.n)]
    A = fr.N
    for s in range(fr.n):
        for r in range(fr.n):
            combo = sum(A[s][r][t] * mats[t] for t in range(fr.n))
            assert np.array_equal(mats[s] @ mats[r], combo)


def test_integrality_failure_on_perturbed_s():
    md = minimal(4, 3)
    rows = [list(row) for row in md.S]
    rows[1][1] += mpf("1e-6")
    bad = with_s(md, rows)
    with pytest.raises(IntegralityFailure) as exc:
        verlinde(bad)
    assert exc.value.residual > 1e-10


def _verlinde_reference(md):
    """The all-tau reference: the sum for every (sigma, rho >= sigma, tau),
    with no use of the ring law or of the symmetry of real S.  Returns N as
    a dtype=object array and each summed triple's squared residual in units
    of 4^-2B (-1 where not summed)."""
    n = md.n
    S, W, _ = verlinde_inputs(md)
    bits = 2 * S.bits
    one = 1 << bits
    N = np.empty((n, n, n), dtype=object)
    resid2 = np.full((n, n, n), -1, dtype=object)
    for s in range(n):
        V = (S[s] * S[s:] * W).rescale(S.bits).dot(S.conj().T)
        m = (V.re + (one >> 1)) >> bits
        resid2[s, s:] = Fixed(V.re - m * one, V.im, bits).abs2()
        N[s, s:] = N[s:, s] = m
    return N, resid2


def _plane_residuals(md, g):
    """The squared residuals of the whole plane g, every rho, at 4^-2B."""
    S, W, _ = verlinde_inputs(md)
    V = (S[g] * S * W).rescale(S.bits).dot(S.conj().T)
    one = 1 << 2 * S.bits
    m = (V.re + (one >> 1)) >> 2 * S.bits
    return m, Fixed(V.re - m * one, V.im, 2 * S.bits).abs2()


# su2 k <= 30 and minimal p <= 12, thinned so that the reference loop
# adds about 3 s to the suite
ORACLE_MODELS = ([("su2", (k,)) for k in list(range(1, 13)) + [16, 20, 24, 30]]
                 + [("minimal", pq) for pq in all_coprime_pairs(9)]
                 + [("minimal", pq) for pq in [(10, 9), (12, 7), (12, 11)]])


@pytest.mark.parametrize("family, params", ORACLE_MODELS + [("su3_k1", ())],
                         ids=lambda v: str(v).replace(" ", ""))
def test_verlinde_equals_the_all_tau_reference(family, params):
    md = (su2(*params) if family == "su2" else minimal(*params) if family == "minimal"
          else load_model(su3_level1_document()))
    fr = verlinde(md)
    N, _ = _verlinde_reference(md)
    assert fr.N.tolist() == N.tolist()
    # a few summed planes grow every other one, and max_residual is the
    # worst over the summed planes' entries
    summed = bcft.fusion._planes(md, DEFAULT_INTEGRALITY_TOL)[2]
    assert len(summed) <= 2
    one = 1 << 2 * verlinde_inputs(md)[0].bits
    worst = max([int(_plane_residuals(md, g)[1].max()) for g in summed], default=0)
    assert fr.max_residual == math.isqrt(worst) / one


def test_integrality_failure_names_the_first_offender_in_summation_order():
    md = minimal(7, 3)
    rows = [list(row) for row in md.S]
    rows[2][2] += mpf("1e-6")
    bad = with_s(md, rows)
    # S is then far from unitary, so no plane can be grown: the unit plane
    # is summed first, and its first offender in row-major order is named
    m, resid2 = _plane_residuals(bad, 0)
    one = 1 << 2 * verlinde_inputs(bad)[0].bits
    slack = Fraction(DEFAULT_INTEGRALITY_TOL) - verlinde_inputs(bad)[2]
    offenders = [(0, r, t) for r in range(md.n) for t in range(md.n)
                 if resid2[r, t] > slack * slack * one * one or m[r, t] < 0]
    with pytest.raises(IntegralityFailure) as exc:
        verlinde(bad)
    assert exc.value.triple == offenders[0]
    assert exc.value.residual == math.isqrt(int(resid2[offenders[0][1:]])) / one
    assert exc.value.residual > DEFAULT_INTEGRALITY_TOL


def test_rounding_is_checked_against_the_error_bound():
    # a tolerance the residual alone meets fails once the bound E is added
    md = su2(2)
    fr = verlinde(md)
    E = verlinde_inputs(md)[2]
    assert 0 < E < 1e-60
    # so tight a tolerance leaves no plane to grow: all three are summed, and
    # max_residual is the worst of them
    tight = verlinde(md, integrality_tol=fr.max_residual + 2 * float(E))
    assert np.array_equal(tight.N, fr.N) and tight.max_residual >= fr.max_residual
    with pytest.raises(IntegralityFailure):
        verlinde(md, integrality_tol=fr.max_residual + float(E) / 2)


@pytest.mark.parametrize("k, tol, n_summed", [(60, 1e-35, 3), (2, None, 3)],
                         ids=["su2_k60_re_anchored", "su2_k2_every_plane_summed"])
def test_re_anchored_planes_equal_the_all_tau_reference(k, tol, n_summed):
    # a grown plane whose bound exceeds the slack is summed, and growth
    # goes on from it; the tiny tolerance above leaves no plane to grow
    md = su2(k)
    if tol is None:
        tol = verlinde(md).max_residual + 2 * float(verlinde_inputs(md)[2])
    N, _, summed, _ = bcft.fusion._planes(md, tol)
    assert len(summed) == n_summed
    assert N.tolist() == _verlinde_reference(md)[0].tolist()


def _exact_planes(md, dps=150):
    """X_sigma of every sigma: the sums over the working S (the fixed-point
    S itself) and its 1/S_0k, evaluated at dps digits."""
    with workdps(dps):
        inv0 = [1 / x for x in md.S[0]]
        return [[[mp.fsum(md.S[s][k] * md.S[r][k] * mp.conj(md.S[t][k]) * inv0[k]
                          for k in range(md.n)) for t in range(md.n)]
                 for r in range(md.n)] for s in range(md.n)]


@pytest.mark.parametrize(
    "model",
    [lambda: su2(7), lambda: minimal(7, 3), lambda: load_model(su3_level1_document())],
    ids=["su2_k7", "minimal_7_3", "su3_k1"],
)
def test_grown_planes_lie_within_their_bounds(model):
    md = model()
    N, bounds, summed, _ = bcft.fusion._planes(md, DEFAULT_INTEGRALITY_TOL)
    grown = [t for t in range(md.n) if t not in summed]
    assert grown
    one = mpf(2) ** (2 * verlinde_inputs(md)[0].bits)
    X = _exact_planes(md)
    with workdps(150):
        for t in range(md.n):
            norm = max(sum(abs(X[t][r][c] - int(N[t, r, c])) for c in range(md.n))
                       for r in range(md.n))
            assert norm <= bounds[t] / one
            if t in grown:
                assert bounds[t] / one < mpf("1e-30")


@pytest.mark.parametrize(
    "model",
    [lambda: su2(7), lambda: minimal(7, 3), lambda: load_model(su3_level1_document())],
    ids=["su2_k7", "minimal_7_3", "su3_k1"],
)
def test_fixed_point_sums_lie_within_the_bound(model):
    # the contraction verlinde forms, against the same sums over the
    # working S (the fixed-point S itself) and its 1/S_0k, at 150 digits
    md = model()
    S, W, E = verlinde_inputs(md)
    worst = 0
    with workdps(150):
        inv0 = [1 / x for x in md.S[0]]
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
    assert fr.N.tolist() == [
        [[int(t == (a + b) % 3) for t in range(3)] for b in range(3)] for a in range(3)
    ]
    assert fr.max_residual < 1e-50
    assert verify_axioms(fr).ok
    rep = validate(md)
    assert all(rep[key] < tolerance(50) for key in ("symmetry", "unitarity", "modular_relation"))


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_unit_and_commutativity_properties(k):
    fr = fusion_su2(k)
    A = fr.N
    assert np.array_equal(A[0], np.eye(fr.n, dtype=np.int64))
    assert np.array_equal(A, A.transpose(1, 0, 2))
    assert A.min() >= 0


# the sweep workload's models (su2 k <= 20, minimal p <= 10) up to n = 16;
# the object oracle costs n^5 Python-int operations, about 11 s for the six
# larger ones
SWEEP_MODELS = [("su2", (k,)) for k in range(1, 21)] + [("minimal", pq)
                                                        for pq in all_coprime_pairs(10)]
CHECKED_SWEEP = [(f, p) for f, p in SWEEP_MODELS
                 if (p[0] + 1 if f == "su2" else (p[0] - 1) * (p[1] - 1) // 2) <= 16]


def _checks(fr, nr):
    return verify_axioms(fr).violations, verify(nr, fr).violations


def _object_checks(fr, nr, monkeypatch):
    """The same checks with every product on Python ints: both modules'
    exact_dtype answer object, and their arrays, int64 or object, become
    arrays of Python ints."""
    asked = []
    with monkeypatch.context() as m:
        for module in (bcft.fusion, bcft.nimreps):
            m.setattr(module, "exact_dtype", lambda terms, *arrays: asked.append(arrays) or object)
        got = _checks(fr, nr)
    assert len(asked) == 2
    assert all(type(x) is int for arrays in asked for a in arrays for x in a.astype(object).flat)
    return got


@pytest.mark.parametrize("family, params", CHECKED_SWEEP, ids=lambda v: str(v).replace(" ", ""))
def test_float64_checks_equal_the_object_oracle(family, params, monkeypatch):
    fr = fusion_su2(*params) if family == "su2" else fusion_minimal(*params)
    nr = regular_nimrep(fr)
    assert _checks(fr, nr) == _object_checks(fr, nr, monkeypatch) == ((), ())
    # one coefficient and one nimrep entry raised by one
    A = fr.N.copy()
    A[-1, -1, -1] += 1
    bumped = dataclasses.replace(fr, N=A)
    mats = nr.nmats.astype(object)
    mats[-1, 0, -1] += 1
    nr = Nimrep(nr.labels, mats)
    got = _checks(bumped, nr)
    assert got == _object_checks(bumped, nr, monkeypatch)
    assert got[1]


# the largest coefficient of su2 k=6 (n = 7) with n M^2 < 2^53
FLOAT64_BOUND = math.isqrt(((1 << 53) - 1) // 7)


@pytest.mark.parametrize("entry", [FLOAT64_BOUND, FLOAT64_BOUND + 1, 1 << 63, -(1 << 63)],
                         ids=["0", "1", "past-int64", "int64-min"])
def test_checks_at_the_float64_bound_equal_the_object_oracle(entry, monkeypatch):
    # ids 0 and 1 are the excess over the bound: n M^2 < 2^53 just holds
    # (float64) or just fails (object), the raised coefficient's square
    # within a factor n of 2^53.  2^63 does not fit int64, so that tensor
    # and nimrep stay Python ints; -2^63 does, and np.abs wraps it in int64
    fr = fusion_su2(6)
    A = fr.N.astype(object)
    A[2, 2, 2] = entry
    big = dataclasses.replace(fr, N=A)
    B = big.N
    assert B.dtype == (object if entry == 1 << 63 else np.int64) and B.tolist() == A.tolist()
    assert bcft.fusion.exact_dtype(fr.n, B) is (np.float64 if entry == FLOAT64_BOUND else object)
    nr = regular_nimrep(big)
    got = _checks(big, nr)
    assert got == _object_checks(big, nr, monkeypatch)
    assert got[0] and got[1]
