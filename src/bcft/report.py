"""Boundary spectra, channel-duality checks and index bookkeeping.

The annulus spectrum between boundaries a, b is the exact character
combination picked out by the nimrep row n^rho_ab.  Its value at
q = exp(-beta) must agree with the closed-channel sum over boundary
states at the dual nome exp(-4 pi^2 / beta); the residual of that
identity is the main numerical certificate of every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workdps

from .characters import (
    S_TRANSFORM_MIN_ORDER,
    _Evaluated,
    _s_residual,
    characters_for,
    linear_combination,
)
from .errors import DegenerateExponents
from .hp import GUARD_DIGITS, Fixed, from_fixed, num_str
from .invariants import ModularInvariant, invariant_document
from .modular_data import (
    ModularData,
    global_index,
    model_name,
    model_to_document,
    quantum_dims,
)
from .nimreps import Nimrep, PsiMatrix, nimrep_document, psi_matrix
from .persistence import CHANNEL_TOL, DEFAULT_ORDER


@dataclass(frozen=True)
class AnnulusSpectrum:
    pair: tuple
    multiplicities: tuple
    Z_ab: object
    vacuum_present: bool


@dataclass(frozen=True)
class IndexReport:
    theta_mult: tuple
    d_pi: object
    mu: object
    two_interval: object
    c8_index: object


def _check_labels(nr: Nimrep, a: int, b: int):
    if a not in nr.labels or b not in nr.labels:
        raise ValueError("unknown boundary label in (%r, %r)" % (a, b))


def annulus(
    md: ModularData,
    nr: Nimrep,
    a: int,
    b: int,
    order: int = DEFAULT_ORDER,
) -> AnnulusSpectrum:
    """Character content of the boundary pair (a, b)."""
    _check_labels(nr, a, b)
    return _annulus(nr, characters_for(md, order), a, b, {})


def _annulus(nr: Nimrep, chis: tuple, a: int, b: int, combined: dict):
    """combined maps each multiplicity vector seen to its (shared) series."""
    mults = tuple(nr.nmats[:, nr.labels.index(a), nr.labels.index(b)].tolist())
    if mults not in combined:
        # no sector at all: the zero series on the vacuum character's grid
        terms = [(mult, chi) for mult, chi in zip(mults, chis) if mult] or [(0, chis[0])]
        combined[mults] = linear_combination(terms)
    return AnnulusSpectrum((a, b), mults, combined[mults], mults[0] >= 1)


def heat_kernel_residuals(
    md: ModularData,
    nr: Nimrep,
    Z: ModularInvariant,
    beta=None,
    order: int = DEFAULT_ORDER,
) -> dict:
    """{(a, b): |open channel - closed channel|} over every boundary pair,
    from one psi-matrix and one character table at md.precision.

    Open channel: sum_rho n^rho_ab chi_rho(q) at q = exp(-beta).
    Closed channel: sum_lambda psi_a psi_b* chi_lambda(q~) / S_0lambda
    at q~ = exp(-4 pi^2 / beta).  Both are fixed-point products of
    md.fixed, the psi-matrix and the characters rounded once to 2^-B
    (_heat_kernel_residuals bounds their rounding).  Each residual is
    raised to its truncation tail estimate when that is larger, and is
    +inf when a tail is.
    """
    psi = psi_matrix(nr, Z, md)
    with workdps(md.precision + GUARD_DIGITS):
        ev = _Evaluated(characters_for(md, order), order, beta, md.precision)
        return _heat_kernel_residuals(md, nr, psi, ev)


def heat_kernel_check(
    md: ModularData,
    nr: Nimrep,
    Z: ModularInvariant,
    a: int,
    b: int,
    beta=None,
    order: int = DEFAULT_ORDER,
):
    """The heat_kernel_residuals entry of the pair (a, b)."""
    _check_labels(nr, a, b)
    return heat_kernel_residuals(md, nr, Z, beta, order)[a, b]


def _heat_kernel_residuals(md, nr, psi: PsiMatrix, ev: _Evaluated) -> dict:
    """{(a, b): |open - closed|}, each raised to its tail, from md.fixed,
    psi.psi and the rounded characters; every residual is +inf when a
    tail is.

    The open channel chi(q) . n is exact.  The closed channel
    psi diag(chi(q~) W) psi^dagger floors chi(q~) W, its product with psi
    and the final sum once each: within sqrt(e) + 2 units of 2^-B of the
    product over the rounded chi(q~) and W, for a unitary psi of e columns.
    The tail weights sum_rho n^rho_ab and sum_lambda |psi_a lambda
    psi_b lambda W_lambda| are read off the same ints."""
    S, W, _ = md.fixed
    lams, bits, Psi = list(psi.exponents), S.bits, psi.psi
    N = nr.nmats.astype(object)
    moduli = np.frompyfunc(math.isqrt, 1, 1)  # of abs2: |x| 2^bits, floored
    A = moduli(Psi.abs2())
    weight_open, weight_closed = N.sum(axis=0), (A * moduli(W[lams].abs2())).dot(A.T)
    raw = None
    if ev.chi_q is not None:
        weights = (ev.chi_qt[lams] * W[lams]).rescale(bits)
        closed = (Psi * weights).rescale(bits).dot(Psi.conj().T).rescale(bits)
        raw = (closed - Fixed(np.tensordot(ev.chi_q.re, N, (0, 0)), None, bits)).abs2()
    residuals = {}
    for ai, a in enumerate(nr.labels):
        for bi, b in enumerate(nr.labels):
            tail = max(weight_open[ai, bi] * ev.tail_q,
                       from_fixed(weight_closed[ai, bi], 3 * bits) * ev.tail_qt)
            residuals[a, b] = mp.inf if raw is None else max(
                mp.ldexp(mp.sqrt(raw[ai, bi]), -bits), tail)
    return residuals


def normalize_theta(md: ModularData, theta_mult) -> tuple:
    """Sector multiplicity vector from a mapping or sequence."""
    if isinstance(theta_mult, dict):
        mults = [0] * md.n
        for key, val in theta_mult.items():
            try:
                idx = key if isinstance(key, int) else md.sector_named(str(key))
            except KeyError:
                raise ValueError("theta item %r: no sector is named %r"
                                 % ("%s:%s" % (key, val), str(key))) from None
            if not 0 <= idx < md.n:
                raise ValueError(
                    "sector index %d is outside 0..%d" % (idx, md.n - 1)
                )
            mults[idx] = int(val)
    else:
        mults = [int(x) for x in theta_mult]
        if len(mults) != md.n:
            raise ValueError(
                "need %d multiplicities, got %d" % (md.n, len(mults))
            )
    return tuple(mults)


def index_report(md: ModularData, theta_mult) -> IndexReport:
    """Index data of an extension with vacuum-sector content theta.

    d_pi = sum_rho m_rho d_rho; the two-interval index is d_pi^2 mu
    and the braided-product index equals mu itself.
    """
    mults = normalize_theta(md, theta_mult)
    if mults[0] < 1:
        raise ValueError("theta must contain the vacuum sector")
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be non-negative")
    dps = md.precision
    with workdps(dps + GUARD_DIGITS):
        dims = quantum_dims(md)
        d_pi = mp.fsum(m * d for m, d in zip(mults, dims) if m)
        mu = global_index(md)
        two_interval = d_pi * d_pi * mu
        return IndexReport(mults, d_pi, mu, two_interval, mu)


def index_document(md: ModularData, rep: IndexReport) -> dict:
    dps = md.precision
    return {
        "format": "bcft-index/1",
        "theta": list(rep.theta_mult),
        "d_pi": num_str(rep.d_pi, dps),
        "mu": num_str(rep.mu, dps),
        "two_interval": num_str(rep.two_interval, dps),
        "c8_index": num_str(rep.c8_index, dps),
    }


def annulus_document(md: ModularData, spectrum: AnnulusSpectrum) -> dict:
    return {
        "pair": list(spectrum.pair),
        "multiplicities": list(spectrum.multiplicities),
        "offset": "%s/%s"
        % (spectrum.Z_ab.offset.numerator, spectrum.Z_ab.offset.denominator),
        "grid": spectrum.Z_ab.grid,
        "coeffs": list(spectrum.Z_ab.coeffs),
        "vacuum_present": spectrum.vacuum_present,
    }


FAILED = "failed"  # the status of a channel check whose residual reaches its tolerance


def _channel(res, dps: int, **extra) -> dict:
    """A channel check's entry: status "ok" when res < CHANNEL_TOL, the
    comparison the check subcommands make, and FAILED otherwise."""
    return {"status": "ok" if res < CHANNEL_TOL else FAILED,
            "max_residual": num_str(res, dps), "tolerance": "1e-8", **extra}


def full_report(
    md: ModularData,
    Z: ModularInvariant,
    nr: Nimrep,
    order: int = DEFAULT_ORDER,
    beta=None,
) -> dict:
    """Bundle of everything derived from one (model, Z, nimrep) triple.

    Deterministic field order; every residual is reported next to the
    tolerance it was held against, and each channel check's status is
    its verdict (see _channel).  theta is read off the vacuum row
    of Z, the sector content of the chiral extension behind Z.  The
    annulus spectra cost one character table and one combination per
    distinct multiplicity vector (12 for the 36 pairs of E6).
    """
    dps = md.precision
    with workdps(dps + GUARD_DIGITS):
        beta_v = mpf(beta) if beta is not None else 2 * mp.pi
        doc = {
            "format": "bcft-report/1",
            "model": model_to_document(md),
            "name": model_name(md),
            "order": order,
            "beta": num_str(beta_v, dps),
            "precision": dps,
            "invariant": invariant_document(Z),
            "nimrep": nimrep_document(nr),
        }

        try:
            psi = psi_matrix(nr, Z, md)
        except DegenerateExponents as exc:
            psi = None
            doc["psi"] = {"status": "degenerate-exponents", "detail": str(exc)}
        if psi is not None:
            Psi = psi.psi
            im = Psi.re * 0 if Psi.im is None else Psi.im
            doc["psi"] = {
                "status": "ok",
                "exponents": list(psi.exponents),
                "matrix": [[num_str(from_fixed(x, Psi.bits, y), dps) for x, y in zip(rx, ry)]
                           for rx, ry in zip(Psi.re.tolist(), im.tolist())],
                "cardy_residual": num_str(psi.cardy_residual, dps),
                "cardy_tolerance": "1e-12",
            }

        # one character table serves every pair and both channel checks
        chis = characters_for(md, order)
        ev = _Evaluated(chis, order, beta_v, dps)
        pairs = []
        vacuum_ok = True
        combined = {}
        for a in nr.labels:
            for b in nr.labels:
                spectrum = _annulus(nr, chis, a, b, combined)
                pairs.append(annulus_document(md, spectrum))
                # the vacuum appears once in (a, a) and never in (a, b), b != a
                vacuum_ok &= spectrum.multiplicities[0] == (a == b)
        doc["annulus"] = pairs
        doc["vacuum_rule"] = {"ok": vacuum_ok}

        if psi is None:
            doc["heat_kernel"] = {"status": "skipped-degenerate-exponents"}
        else:
            residuals = _heat_kernel_residuals(md, nr, psi, ev)
            doc["heat_kernel"] = _channel(max(residuals.values()), dps,
                                          beta=num_str(beta_v, dps))

        if order < S_TRANSFORM_MIN_ORDER:
            ev = _Evaluated(
                characters_for(md, S_TRANSFORM_MIN_ORDER),
                S_TRANSFORM_MIN_ORDER, beta_v, dps,
            )
        doc["s_transform"] = _channel(_s_residual(md, ev), dps)

        theta = tuple(int(Z.Z[0][rho]) for rho in range(md.n))
        rep = index_report(md, theta)
        doc["index"] = index_document(md, rep)
        return doc
