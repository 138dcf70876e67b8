"""Fusion rings from modular data via the Verlinde sum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workdps

from .errors import DocumentFormatError, IntegralityFailure
from .hp import GUARD_DIGITS
from .modular_data import ModularData

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
        return np.array(self.N, dtype=np.int64)


def verlinde(md: ModularData, integrality_tol: float = DEFAULT_INTEGRALITY_TOL) -> FusionRing:
    """N^tau_{sigma rho} = sum_kappa S_sk S_rk conj(S_tk) / S_0k, rounded.

    Every coefficient must land within integrality_tol of a
    non-negative integer; the worst offender otherwise raises
    IntegralityFailure.
    """
    n = md.n
    with workdps(md.precision + GUARD_DIGITS):
        is_complex = any(abs(mp.mpmathify(x).imag) != 0 for row in md.S for x in row)
        S = [list(row) for row in md.S]
        Sbar = [[mp.conj(x) for x in row] for row in S] if is_complex else S
        inv0 = [1 / x for x in S[0]]
        tol = mpf(integrality_tol)
        worst = mpf(0)
        worst_triple = (0, 0, 0)
        N = [[[0] * n for _ in range(n)] for _ in range(n)]
        for s in range(n):
            srow = S[s]
            for r in range(s, n):
                u = [srow[k] * S[r][k] * inv0[k] for k in range(n)]
                for t in range(n):
                    val = mp.fdot(u, Sbar[t])
                    re = val.real if hasattr(val, "real") else val
                    m = int(mp.nint(re))
                    resid = abs(val - m)
                    if resid > worst:
                        worst, worst_triple = resid, (s, r, t)
                    if resid > tol or m < 0:
                        raise IntegralityFailure((s, r, t), float(resid))
                    N[s][r][t] = m
                    N[r][s][t] = m
        return FusionRing(
            n=n,
            N=tuple(tuple(tuple(row) for row in plane) for plane in N),
            conj=md.conj,
            sector_names=tuple(sec.name for sec in md.sectors),
            max_residual=float(worst),
            precision=md.precision,
        )


def fusion_matrix(fr: FusionRing, sigma: int) -> tuple:
    """(N_sigma)_{a b} = N^b_{sigma a}, the left-multiplication matrix."""
    return tuple(tuple(fr.N[sigma][a][b] for b in range(fr.n)) for a in range(fr.n))


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_axioms(fr: FusionRing) -> AxiomReport:
    """Exact integer checks: unit, conjugation, commutativity,
    associativity, non-negativity."""
    n = fr.n
    A = fr.as_array()
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
    # associativity: sum_m N^m_{ab} N^d_{mc} = sum_m N^m_{bc} N^d_{am}
    lhs = np.einsum("abm,mcd->abcd", A, A)
    rhs = np.einsum("bcm,amd->abcd", A, A)
    if not (lhs == rhs).all():
        a, b, c, d = map(int, np.argwhere(lhs != rhs)[0])
        bad.append(("associativity", (a, b, c, d)))
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
        n=int(doc["n"]),
        N=tuple(
            tuple(tuple(int(x) for x in row) for row in plane)
            for plane in doc["tensor"]
        ),
        conj=tuple(int(x) for x in doc["conjugation"]),
        sector_names=tuple(str(x) for x in doc["sectors"]),
        max_residual=float(doc["max_residual"]),
        precision=int(doc["precision"]),
    )
