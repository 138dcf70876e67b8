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

# Fixed, not tied to --precision: a test of S, with E taken off exactly.
# tolerance(dps) would pass sums 1e-3 off an integer at 6 digits.
DEFAULT_INTEGRALITY_TOL = 1e-10

FUSION_DOCUMENT_FORMAT = "bcft-fusion/1"


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Integer tensor N[sigma, rho, tau] = N^tau_{sigma rho}, a read-only
    array of shape (n, n, n) made by hp.int_array: int64 where every entry
    fits, Python ints (dtype object) past that.  The plane N[sigma] is the
    left-multiplication matrix of sigma, (N_sigma)_{rho tau}."""

    n: int
    N: np.ndarray
    conj: tuple
    sector_names: tuple
    max_residual: float
    precision: int

    def __post_init__(self):
        object.__setattr__(self, "N", int_array(self.N))


def verlinde_inputs(md: ModularData):
    """S and the row 1/S_0k in fixed point, and the a-priori error bound.

    Returns (S, W, E): S and W = (1/S_0k)_k of md.fixed, at B = fixed_bits(precision)
    fraction bits.  verlinde forms U_k = S_sk S_rk W_k floored to B bits and
    the exact contraction sum_k U_k conj(S_tk); E (a Fraction) bounds its
    distance from sum_k S_sk S_rk conj(S_tk) / S_0k over the working S, the
    fixed-point S, and its exact 1/S_0k, from n, max|S|, max|W|, max|U| <=
    max|S|^2 max|W| and 2^-B.
    Where the working S lies within eps = 2^-B of an exact S (a builder's,
    md.exact_s), that sum lies within D = n s^2 w (3 + 2 s w) eps of the
    exact one, s = S.bound() and w = W.bound(): s bounds both S entrywise,
    each 1/S_0k moves by at most eps w 2w while eps w <= 1/2 (D < 1/2
    implies it, as a unitary S has s >= 1/sqrt(n) and w >= sqrt(n)), and so
    each of the n terms moves by at most 3 s^2 w eps + s^3 2 w^2 eps.
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


def verlinde(md: ModularData) -> FusionRing:
    """N^tau_{sigma rho} = sum_k S_sk S_rk conj(S_tk) w_k, w_k = 1/S_0k, certified.

    X_sigma is the plane (rho, tau) of that sum over the working S and w.
    - Summed: every entry of the contraction of verlinde_inputs lies within
      slack = DEFAULT_INTEGRALITY_TOL - E of an integer >= 0, or the first
      offender in row-major order raises IntegralityFailure; max_residual is
      the worst residual of a summed plane.  If md.real_symmetric the plane
      is one triangle, Fixed.gram(S_g W) mirrored, about n^3/2 products: its
      weight S_gk W_k stays at 2B bits, so gram floors S_tk S_gk W_k to B
      bits once, exactly as U is floored, and entry (rho, tau), rho <= tau,
      is the contraction's entry (tau, rho); E holds unchanged and the
      residual is taken over that triangle.  Any other S takes Fixed.dot, all
      n^3 products.
    - Grown, only if md.exact_s and DEFAULT_INTEGRALITY_TOL + D < 1/2 (D
      of verlinde_inputs).  A summed N_g then lies within that tolerance of
      X_g, and X_g within D of the sum over the exact S, whose entries are
      the integer fusion rules: so N_g is the exact plane, as is the unit
      plane, the identity.  The ring law N_g N_rho = sum_tau c_tau N_tau, c
      = (N_g)_rho, holds exactly on them, so if t is the one unknown sector
      with c_t > 0 in a row c of a summed N_g, N_t = (N_g N_rho - sum_{tau
      != t} c_tau N_tau) / c_t is exact too, with no bound to carry.  With
      none to grow, the unknown t of smallest |S_t omega| above |S_0
      omega|, omega = perron_row(md), is summed (|S| in floored steps of
      tolerance(precision), ties to the lower index).  su2 sums one plane,
      and at 50 digits a minimal model sums at most two.  An exact S is
      unitary, so |N^tau_{sigma rho}| <= s w by Cauchy-Schwarz on rows
      sigma and rho: a grown plane's sums of 2n products of two run in
      float64 when 2n (s w + 1)^2 < 2^53, on Python ints otherwise.
    - Any other model, an explicit-S document or a dataclasses.replace
      copy, sums every plane in order 0..n-1.
    """
    N, worst, _ = _planes(md, DEFAULT_INTEGRALITY_TOL)
    return FusionRing(
        n=md.n,
        N=N,
        conj=md.conj,
        sector_names=tuple(sec.name for sec in md.sectors),
        max_residual=math.isqrt(worst) / (1 << 2 * md.fixed[0].bits),
        precision=md.precision,
    )


def _planes(md: ModularData, integrality_tol: float):
    """verlinde's tensor, the largest squared residual of a formed summed
    entry (one triangle of a real symmetric S) at 4^-2B, and the summed
    sectors in order."""
    n = md.n
    S, W, E = verlinde_inputs(md)
    bits = 2 * S.bits
    one = 1 << bits
    slack = Fraction(integrality_tol) - E
    limit2 = math.floor(slack * slack * one * one) if slack >= 0 else -1
    s, w = S.bound(), W.bound()
    D = n * s * s * w * (3 + 2 * s * w) / (1 << S.bits)
    grow = md.exact_s and Fraction(integrality_tol) + D < Fraction(1, 2)
    dt = np.float64 if 2 * n * (s * w + 1) ** 2 < 1 << 53 else object
    tol = to_fixed(tolerance(md.precision), S.bits)
    dim = [math.isqrt(int(v)) // tol for v in S[:, perron_row(md)].abs2()]
    planes, summed, worst = [None] * n, [], 0
    known = np.zeros(n, dtype=bool)

    def add_sum(g):
        nonlocal worst
        V = (S.gram(S[g] * W) if md.real_symmetric
             else (S[g] * S * W).rescale(S.bits).dot(S.conj().T))
        m = (V.re + (one >> 1)) >> bits
        resid2 = Fixed(V.re - m * one, V.im, bits).abs2()
        bad = ((resid2 > limit2) | (m < 0)).astype(bool)
        if bad.any():
            r, t = map(int, np.argwhere(bad)[0])
            raise IntegralityFailure((g, r, t), math.isqrt(int(resid2[r, t])) / one)
        worst = max(worst, int(resid2.max()))
        planes[g], known[g] = m.astype(dt), True
        summed.append(g)

    if grow:
        planes[0], known[0] = np.identity(n, dtype=dt), True
    else:
        for g in range(n):
            add_sum(g)
    while not known.all():
        # the first row of a summed plane with one unknown sector
        hit = next(((g, r) for g in summed for r in
                    np.flatnonzero(known & ((planes[g][:, ~known] > 0).sum(axis=1) == 1))), None)
        if hit is None:
            rest = np.flatnonzero(~known).tolist()
            add_sum(min([t for t in rest if dim[t] > dim[0]] or rest, key=dim.__getitem__))
            continue
        g, r = hit
        row = planes[g][r]
        support = np.flatnonzero(row).tolist()
        t = next(v for v in support if not known[v])
        R = planes[g] @ planes[r]
        for v in support:
            if v != t:
                R -= row[v] * planes[v]
        c = int(row[t])
        planes[t], known[t] = R if c == 1 else R // c, True  # float64 // is slow
    return int_array(planes), worst, summed


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
    A = fr.N.astype(exact_dtype(n, fr.N))
    bad = [("negativity", tuple(v)) for v in np.argwhere(A < 0).tolist()[:1]]
    C = np.eye(n, dtype=np.int64)[list(fr.conj)]  # N^0_{s r} = 1 exactly when r = conj(s)
    bad += [("unit", (0, r, t)) for r, t in np.argwhere(A[0] != np.eye(n)).tolist()]
    bad += [("conjugation", (s, r, 0)) for s, r in np.argwhere(A[:, :, 0] != C).tolist()]
    bad += [("commutativity", tuple(v)) for v in np.argwhere(A != A.swapaxes(0, 1)).tolist()[:1]]
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
        "tensor": fr.N.tolist(),
        "max_residual": repr(fr.max_residual),
        "precision": fr.precision,
    }
