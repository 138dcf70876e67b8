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
    - Summed: every entry of the contraction of verlinde_inputs lies
      within slack of an integer >= 0, or the first offender in row-major
      order raises IntegralityFailure.  e_g = n (r_g + E), r_g the worst
      residual; max_residual is the worst r_g.  If md.real_symmetric the
      plane is one triangle, Fixed.gram(S_g W) mirrored, about n^3/2
      products: its weight S_gk W_k stays at 2B bits, so gram floors
      S_tk S_gk W_k to B bits once, exactly as U is floored, and entry
      (rho, tau), rho <= tau, is the contraction's entry (tau, rho); E holds
      unchanged and r_g is taken over that triangle.  Any other S takes
      Fixed.dot, all n^3 products.
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
        N=N,
        conj=md.conj,
        sector_names=tuple(sec.name for sec in md.sectors),
        max_residual=math.isqrt(worst) / (1 << 2 * md.fixed[0].bits),
        precision=md.precision,
    )


def _planes(md: ModularData, integrality_tol: float):
    """verlinde's tensor, each plane's bound e at 2^-2B, the summed sectors
    in order, and the largest squared residual of a formed summed entry
    (one triangle of a real symmetric S) at 4^-2B."""
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
    # norms[g] = ||N_g|| of each summed g, for the bound of every plane grown off it
    planes, bounds, norms, summed, worst = [None] * n, [0] * n, [0] * n, [], 0
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
        top = int(resid2.max())
        worst = max(worst, top)
        planes[g], bounds[g] = m.astype(dt), n * (math.isqrt(top) + 1 + e_sum)
        norms[g], known[g] = int(planes[g].sum(axis=1).max()), True
        summed.append(g)

    if e0 <= limit:
        planes[0], bounds[0], known[0] = np.identity(n, dtype=dt), e0, True
    else:
        add_sum(0)
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
        others, c = [v for v in support if v != t], int(row[t])
        e = 2 * bounds[g] * x + norms[g] * bounds[r] + delta
        e = -(-(e + sum(int(row[v]) * bounds[v] for v in others)) // c)
        R = planes[g] @ planes[r]
        for v in others:
            R -= row[v] * planes[v]
        if e > limit or (R < 0).any() or c > 1 and (R % c).any():
            add_sum(t)
            if e > limit and r not in summed:  # a fresh chain needs a fresh rho too
                add_sum(int(r))
        else:
            planes[t], bounds[t], known[t] = R if c == 1 else R // c, e, True
    return int_array(planes), bounds, summed, worst


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
