"""Fusion rings from modular data via the Verlinde sum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IntegralityFailure
from .hp import Fixed, exact_dtype, int_array, to_fixed, tolerance
from .invariants import perron_row
from .modular_data import ModularData

# Fixed, not tied to --precision: a test of S, with E and the growth bounds
# taken off exactly.  tolerance(dps) would pass sums 1e-3 off an integer at 6
# digits, and at 50 (1e-25) cut growth that su2 k=100 needs (bounds 2.6e-15).
DEFAULT_INTEGRALITY_TOL = 1e-10

FUSION_DOCUMENT_FORMAT = "bcft-fusion/1"


@dataclass(frozen=True)
class FusionRing:
    """Integer tensor N[sigma][rho][tau] = N^tau_{sigma rho}.  The plane
    N[sigma] is the left-multiplication matrix of sigma, (N_sigma)_{rho tau}."""

    n: int
    N: tuple
    conj: tuple
    sector_names: tuple
    max_residual: float
    precision: int

    def as_array(self) -> np.ndarray:
        """The tensor as int64, or as Python ints past int64 (hp.int_array)."""
        return int_array(self.N)


def verlinde_inputs(md: ModularData):
    """S and the row 1/S_0k in fixed point, and the a-priori error bound.

    Returns (S, W, E): S and W = (1/S_0k)_k of md.fixed, at B = fixed_bits(precision)
    fraction bits.  verlinde forms U_k = S_sk S_rk W_k floored to B bits and
    the exact contraction sum_k U_k conj(S_tk); E (a Fraction) bounds its
    distance from sum_k S_sk S_rk conj(S_tk) / S_0k over the working S, the
    fixed-point S, and its exact 1/S_0k, from n, max|S|, max|W|, max|U| <=
    max|S|^2 max|W| and 2^-B.  The working S lies within 2^-B of the exact
    S, so that sum lies within n s^2 w (3 + 2 s w) 2^-B of the exact one,
    far inside the 1/2 that tells integers apart.
    """
    S, W, _ = md.fixed
    # With eps = 2^-B: S is the working S, W lies within eps/2 of its 1/S_0k
    # and the floor of U moves it by less than 2 eps; s_max and w_max bound
    # the entries before and after rounding.  Then |U_k - S_sk S_rk / S_0k|
    # <= e_u, and each of the n terms of a sum is off by at most
    # e_u s_max + u_max eps.
    eps = Fraction(1, 1 << S.bits)
    s_max, w_max = S.bound(), W.bound()
    e_u = eps * (2 * s_max * w_max + s_max * s_max + 2)
    u_max = s_max * s_max * w_max + e_u
    return S, W, md.n * (e_u * s_max + u_max * eps)


def verlinde(md: ModularData, integrality_tol: float = DEFAULT_INTEGRALITY_TOL) -> FusionRing:
    """N^tau_{sigma rho} = sum_k S_sk S_rk conj(S_tk) w_k, w_k = 1/S_0k, certified.

    X_sigma is the plane (rho, tau) of that sum over the working S
    and w, ||.|| the largest row sum.  A plane N_sigma is kept only under a
    bound ||X_sigma - N_sigma|| <= e_sigma <= slack = integrality_tol - E.
    - Summed (n^3 products): every entry of the contraction of
      verlinde_inputs lies within slack of an integer >= 0, or the first
      offender in summation order raises IntegralityFailure.  e_g = n (r_g
      + E), r_g the worst residual; max_residual is the worst r_g.
    - Grown: if t is the one unknown sector with c_t > 0 in a row c =
      (N_g)_rho of a summed N_g, the ring law gives N_t = (N_g N_rho -
      sum_{tau != t} c_tau N_tau) / c_t on small ints.  An inexact division
      or a negative entry sums N_t instead, and e_t > slack sums N_t and a
      grown N_rho, so that growth restarts from fresh bounds.  The unit plane
      starts under e_0.  With none to grow, the unknown t of smallest
      |S_t omega| above |S_0 omega|, omega = perron_row(md), is summed (|S|
      in floored steps of tolerance(precision), ties to the lower index).
      At 50 digits su2 sums one plane up to k = 100, a minimal model at most two.
    Why e_t bounds ||X_t - N_t||.  X_sigma = S L_sigma S^dagger, L_sigma =
    diag_k(S_sk w_k); with A = S^dagger S - 1, |S| <= s and |w_k| <= w, the law
    holds for X up to Delta = X_g X_rho - sum_tau (X_g)_{rho tau} X_tau = S (L_g
    A L_rho - diag_k(w_k sum_m S_gm S_rm w_m A_mk)) S^dagger.  Less the exact
    law, with d_tau = (X_g - N_g)_{rho tau},
        c_t (X_t - N_t) = (X_g - N_g) X_rho + N_g (X_rho - N_rho) - Delta
                          - sum_tau d_tau X_tau - sum_{tau != t} c_tau (X_tau - N_tau).
    md.unitarity_defect bounds ||S S^dagger - 1||_F by d past the rounding, so
    the squared singular values of S, shared by S S^dagger and S^dagger S, lie
    within d of 1: ||S||_2^2 <= 1 + d, ||A||_2 <= d.  As ||.|| <= sqrt(n) ||.||_2,
    ||X_tau|| <= x = sqrt(n) (1 + d) s w and ||Delta|| <= delta = sqrt(n) (1 +
    sqrt(n)) (1 + d) s^2 w^2 d; with sum |d_tau| <= e_g, e_t = (2 e_g x +
    ||N_g|| e_rho + delta + sum_{tau != t} c_tau e_tau) / c_t.  X_0 - 1 = S (L_0
    - 1) S^dagger + S S^dagger - 1 gives e_0.  Bounds are ints at 2^-2B.
    """
    N, _, _, worst = _planes(md, integrality_tol)
    return FusionRing(
        n=md.n,
        N=tuple(tuple(tuple(row) for row in plane) for plane in N.tolist()),
        conj=md.conj,
        sector_names=tuple(sec.name for sec in md.sectors),
        max_residual=math.isqrt(worst) / (1 << 2 * md.fixed[0].bits),
        precision=md.precision,
    )


def _planes(md: ModularData, integrality_tol: float):
    """verlinde's tensor, each plane's bound e at 2^-2B, the summed sectors
    in order, and the largest squared residual of a summed entry at 4^-2B."""
    n = md.n
    S, W, E = verlinde_inputs(md)
    bits = 2 * S.bits
    one = 1 << bits
    slack = Fraction(integrality_tol) - E
    limit2, limit = ((math.floor(slack * slack * one * one), math.floor(slack * one))
                     if slack >= 0 else (-1, -1))
    # s, w and the unitarity defect u at 2^-B, the rest at 2^-2B (rounded up),
    # where eps = 2^-B is 1 << B and the real number 1 is one
    s, w, u = (int(F.bound() * (1 << S.bits)) for F in (S, W, md.unitarity_defect))
    lam = int(Fixed((S[0] * W).re - one, (S[0] * W).im, bits).bound() * one) + s + w
    d = n * ((u + 2) << S.bits) + 2 * n * n * s
    rn, sw = math.isqrt(n - 1) + 1, (one + d) * s * w  # sqrt(n) <= rn; sw / one^2
    e0 = -(-rn * (one + d) * lam // one) + d
    delta = -(-rn * (1 + rn) * sw * s * w * d // one**3)
    x, e_sum = -(-rn * sw // (one * one)), math.ceil(E * one)
    # entries stay below (1 + d) s w + 1 and a grown plane sums at most 2n
    # products of two, so float64 holds every step exactly
    dt = np.float64 if 2 * n * (sw // (one * one) + 1) ** 2 < 1 << 53 else object
    tol = to_fixed(tolerance(md.precision), S.bits)
    dim = [math.isqrt(int(v)) // tol for v in S[:, perron_row(md)].abs2()]
    planes, bounds, summed, worst = [None] * n, [0] * n, [], 0

    def add_sum(g):
        nonlocal worst
        V = (S[g] * S * W).rescale(S.bits).dot(S.conj().T)
        m = (V.re + (one >> 1)) >> bits
        resid2 = Fixed(V.re - m * one, V.im, bits).abs2()
        bad = ((resid2 > limit2) | (m < 0)).astype(bool)
        if bad.any():
            r, t = map(int, np.argwhere(bad)[0])
            raise IntegralityFailure((g, r, t), math.isqrt(int(resid2[r, t])) / one)
        top = int(resid2.max())
        worst = max(worst, top)
        planes[g], bounds[g] = m.astype(dt), n * (math.isqrt(top) + 1 + e_sum)
        summed.append(g)

    if e0 <= limit:
        planes[0], bounds[0] = np.identity(n, dtype=dt), e0
    else:
        add_sum(0)
    while any(P is None for P in planes):
        known = np.array([P is not None for P in planes])
        # the first row of a summed plane with one unknown sector
        hit = next(((g, r) for g in summed for r in
                    np.flatnonzero(known & ((planes[g][:, ~known] > 0).sum(axis=1) == 1))), None)
        if hit is None:
            rest = [int(t) for t in np.flatnonzero(~known)]
            add_sum(min([t for t in rest if dim[t] > dim[0]] or rest, key=lambda t: dim[t]))
            continue
        g, r = hit
        row = planes[g][r]
        support = np.flatnonzero(row)
        t = int(next(t for t in support if not known[t]))
        others, c = [v for v in support if v != t], int(row[t])
        e = 2 * bounds[g] * x + int(planes[g].sum(axis=1).max()) * bounds[r] + delta
        e = -(-(e + sum(int(row[v]) * bounds[v] for v in others)) // c)
        R = planes[g] @ planes[r] - sum(row[v] * planes[v] for v in others)
        if e > limit or (R % c).any() or (R < 0).any():
            add_sum(t)
            if e > limit and r not in summed:  # a fresh chain needs a fresh rho too
                add_sum(int(r))
        else:
            planes[t], bounds[t] = R // c, e
    N = np.array(planes)
    return (N if dt is object else N.astype(np.int64)), bounds, summed, worst


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_axioms(fr: FusionRing) -> AxiomReport:
    """Exact integer checks: unit, conjugation, commutativity,
    associativity, non-negativity.  The products run in float64 (BLAS)
    where hp.exact_dtype proves them exact, on Python ints otherwise."""
    n = fr.n
    A = fr.as_array()
    A = A.astype(exact_dtype(n, A))
    bad = []
    if (A < 0).any():
        s, r, t = map(int, np.argwhere(A < 0)[0])
        bad.append(("negativity", (s, r, t)))
    for r in range(n):
        for t in range(n):
            if fr.N[0][r][t] != (1 if r == t else 0):
                bad.append(("unit", (0, r, t)))
    for s in range(n):
        for r in range(n):
            if fr.N[s][r][0] != (1 if r == fr.conj[s] else 0):
                bad.append(("conjugation", (s, r, 0)))
    if not (A == A.transpose(1, 0, 2)).all():
        s, r, t = map(int, np.argwhere(A != A.transpose(1, 0, 2))[0])
        bad.append(("commutativity", (s, r, t)))
    # associativity: sum_m N^m_{ab} N^d_{mc} = sum_m N^m_{bc} N^d_{am}, one
    # a-slice at a time so that the memory stays n^3
    by_m_first, by_m_last = A.reshape(n, n * n), A.reshape(n * n, n)
    for a in range(n):
        lhs = (A[a] @ by_m_first).reshape(n, n, n)
        rhs = (by_m_last @ A[a]).reshape(n, n, n)
        if not (lhs == rhs).all():
            b, c, d = map(int, np.argwhere(lhs != rhs)[0])
            bad.append(("associativity", (a, b, c, d)))
            break
    return AxiomReport(violations=tuple(bad))


def fusion_document(fr: FusionRing) -> dict:
    return {
        "format": FUSION_DOCUMENT_FORMAT,
        "n": fr.n,
        "sectors": list(fr.sector_names),
        "conjugation": list(fr.conj),
        "tensor": [[list(row) for row in plane] for plane in fr.N],
        "max_residual": repr(fr.max_residual),
        "precision": fr.precision,
    }
