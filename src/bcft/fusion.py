"""Fusion rings from modular data via the Verlinde sum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DocumentFormatError, IntegralityFailure
from .hp import Fixed, exact_dtype
from .modular_data import ModularData
from .persistence import _ints

DEFAULT_INTEGRALITY_TOL = 1e-10

FUSION_DOCUMENT_FORMAT = "bcft-fusion/1"


@dataclass(frozen=True)
class FusionRing:
    """Integer tensor N[sigma][rho][tau] = N^tau_{sigma rho}."""

    n: int
    N: tuple
    conj: tuple
    sector_names: tuple
    max_residual: float
    precision: int

    def as_array(self) -> np.ndarray:
        """The tensor as a dtype=object array of Python ints, exact at any size."""
        return np.array(self.N, dtype=object)


def verlinde_inputs(md: ModularData):
    """S and the row 1/S_0k in fixed point, and the a-priori error bound.

    Returns (S, W, E): S and W = (1/S_0k)_k of md.fixed, at B = fixed_bits(precision)
    fraction bits.  verlinde forms U_k = S_sk S_rk W_k floored to B bits and
    the exact contraction sum_k U_k conj(S_tk); E (a Fraction) bounds its
    distance from sum_k S_sk S_rk conj(S_tk) / S_0k over the working-precision
    S and 1/S_0k, from n, max|S|, max|W|, max|U| <= max|S|^2 max|W| and 2^-B.
    """
    S, W, _ = md.fixed
    # With eps = 2^-B: to_fixed moves an entry by at most eps in modulus and
    # the floor of U by less than 2 eps; s_max and w_max bound the entries
    # before and after rounding.  Then |U_k - S_sk S_rk / S_0k| <= e_u, and
    # each of the n terms of a sum is off by at most e_u s_max + u_max eps.
    eps = Fraction(1, 1 << S.bits)
    s_max, w_max = S.bound(), W.bound()
    e_u = eps * (2 * s_max * w_max + s_max * s_max + 2)
    u_max = s_max * s_max * w_max + e_u
    return S, W, md.n * (e_u * s_max + u_max * eps)


def verlinde(md: ModularData, integrality_tol: float = DEFAULT_INTEGRALITY_TOL) -> FusionRing:
    """N^tau_{sigma rho} = sum_kappa S_sk S_rk conj(S_tk) / S_0k, rounded.

    The sums are exact Python-int contractions of the fixed-point inputs
    of verlinde_inputs, and the rounding is certified: every coefficient
    must lie within integrality_tol - E of a non-negative integer, or the
    first offender raises IntegralityFailure.  For real S the sum is
    symmetric in (sigma, rho, tau) term by term, so only the triples
    sigma <= rho <= tau are summed, checked and reported, in that order;
    complex S sums (sigma, rho >= sigma, tau) and N^tau_{rho sigma} is
    N^tau_{sigma rho}.  max_residual is the worst over the summed triples.
    """
    n = md.n
    S, W, E = verlinde_inputs(md)
    bits = 2 * S.bits
    one = 1 << bits
    slack = Fraction(integrality_tol) - E
    limit = math.floor(slack * slack * one * one) if slack >= 0 else -1
    Sbar_t = S.conj().T
    real = S.im is None
    N = np.empty((n, n, n), dtype=object)
    worst = 0
    for s in range(n):
        U = (S[s] * S[s:] * W).rescale(S.bits)  # rows rho = s..n-1
        if real:
            # sum only tau >= rho; the other entries stay 0, which passes,
            # and are read off their sorted triple below
            V = Fixed(np.zeros((n - s, n), dtype=object), None, bits)
            for r in range(s, n):
                V.re[r - s, r:] = S.re[r:].dot(U.re[r - s])
        else:
            V = U.dot(Sbar_t)
        m = (V.re + (one >> 1)) >> bits
        resid2 = Fixed(V.re - m * one, V.im, bits).abs2()
        bad = ((resid2 > limit) | (m < 0)).astype(bool)
        if bad.any():
            r, t = map(int, np.argwhere(bad)[0])
            raise IntegralityFailure((s, s + r, t), math.isqrt(int(resid2[r, t])) / one)
        worst = max(worst, int(resid2.max()))
        N[s, s:] = N[s:, s] = m
    if real:
        N = N[tuple(np.sort(np.indices((n, n, n)), axis=0))]
    return FusionRing(
        n=n,
        N=tuple(tuple(tuple(row) for row in plane) for plane in N.tolist()),
        conj=md.conj,
        sector_names=tuple(sec.name for sec in md.sectors),
        max_residual=math.isqrt(worst) / one,
        precision=md.precision,
    )


def fusion_matrix(fr: FusionRing, sigma: int) -> tuple:
    """(N_sigma)_{a b} = N^b_{sigma a}, the left-multiplication matrix: the stored plane."""
    return fr.N[sigma]


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


def fusion_from_document(doc: dict) -> FusionRing:
    if doc.get("format") != FUSION_DOCUMENT_FORMAT:
        raise DocumentFormatError("expected a %s document" % FUSION_DOCUMENT_FORMAT)
    return FusionRing(
        n=_ints(doc["n"], "n", 0),
        N=_ints(doc["tensor"], "tensor", 3),
        conj=_ints(doc["conjugation"], "conjugation"),
        sector_names=tuple(str(x) for x in doc["sectors"]),
        max_residual=float(doc["max_residual"]),
        precision=_ints(doc["precision"], "precision", 0),
    )
