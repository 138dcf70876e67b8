"""Non-negative integer matrix representations of the fusion rules.

A nimrep assigns to every sector rho a non-negative integer matrix
n^rho over a set of boundary labels so that matrix products follow the
fusion coefficients exactly.  For level-k data the whole family grows
from the fundamental-sector generator by a three-term recursion.  The
generators are the A-D-E-T graphs of Coxeter number k + 2, an integer
table: enumeration reads its candidates off it, and a user's generator
is refused unless the table lists it at k + 2.  A candidate is certified
exactly when its grown family closes, n^k n^1 = n^(k-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workdps

from .errors import (
    CheckFailure,
    DegenerateExponents,
    DocumentFormatError,
    NegativityFailure,
    SizeMismatch,
    SpectralRadiusTooLarge,
)
from .fusion import FusionRing
from .hp import GUARD_DIGITS, Fixed, exact_dtype, exact_tolerance, int_array
from .invariants import ModularInvariant
from .modular_data import ModularData, _read_only

PSI_TOL = 1e-12  # fixed: full_report renders it as cardy_tolerance "1e-12"


@dataclass(frozen=True, eq=False)
class Nimrep:
    """The matrices n^rho over the boundary labels: nmats[rho, a, b] is
    n^rho_ab, a read-only array of shape (sectors, m, m) made by
    hp.int_array: int64 where every entry fits, Python ints (dtype object)
    past that.  A ragged document's nmats stays a lower-dimensional object
    array, which verify refuses by its shape."""

    labels: tuple
    nmats: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nmats", int_array(self.nmats))

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class VerifyReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class MatchReport:
    """The sectors rho whose trace tr n^rho differs from the sum over the
    exponents lambda of S_rho lambda / S_0 lambda."""

    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class PsiMatrix:
    psi: Fixed
    exponents: tuple
    cardy_residual: float


def regular_nimrep(fr: FusionRing) -> Nimrep:
    """The fusion matrices acting on the sectors themselves."""
    return Nimrep(tuple(range(fr.n)), fr.N)


def verify(candidate: Nimrep, fr: FusionRing) -> VerifyReport:
    """Exact integer check of the representation laws.  The products run
    in float64 (BLAS) where hp.exact_dtype proves them exact, on Python
    ints otherwise."""
    violations = []
    m, n = candidate.size, len(candidate.nmats)
    if n != fr.n:
        return VerifyReport((("sector_count", n, fr.n),))
    if candidate.nmats.shape[1:] != (m, m):
        return VerifyReport((("shape", candidate.nmats.shape[1:], (m, m)),))
    dtype = exact_dtype(max(n, m), fr.N, candidate.nmats)
    N, mats = fr.N.astype(dtype), candidate.nmats.astype(dtype)
    if not np.array_equal(mats[0], np.eye(m)):
        violations.append(("unit", 0))
    negative = np.flatnonzero(mats.min(axis=(1, 2)) < 0).tolist()
    violations += [("negative_entry", sigma) for sigma in negative]
    unpaired = np.flatnonzero((mats[list(fr.conj)] != mats.transpose(0, 2, 1)).any(axis=(1, 2)))
    violations += [("conjugate_transpose", sigma) for sigma in unpaired.tolist()]
    by_tau = mats.reshape(fr.n, m * m)
    for sigma in range(fr.n):
        # n_sigma n_rho against sum_tau N^tau_{sigma rho} n_tau, for every rho at once
        lhs = (mats[sigma] @ mats).reshape(fr.n, m * m)
        rhs = N[sigma] @ by_tau
        for rho in np.flatnonzero((lhs != rhs).any(axis=1)):
            violations.append(("product", sigma, int(rho)))
    return VerifyReport(tuple(violations))


def _check_generator(G) -> np.ndarray:
    """G as a dtype=object array of Python ints: nothing wraps before the norm check.
    G is an integer array or rows of Python ints; bools, floats and strings are refused."""
    rows = G.tolist() if isinstance(G, np.ndarray) and G.dtype.kind in "iu" else G
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(row, (list, tuple)) and len(row) == len(rows)
                    and all(type(x) is int for x in row) for row in rows)):
        raise ValueError("expected a square integer adjacency matrix")
    a = np.array(rows, dtype=object)
    if not np.array_equal(a, a.T):
        raise ValueError("generator must be symmetric")
    if a.min() < 0:
        raise ValueError("generator must be non-negative")
    # breadth-first from node 0 over the nonzero entries: each row is read
    # once, so O(m^2)
    reached, seen = [0], {0}
    for v in reached:
        for u in np.flatnonzero(a[v]).tolist():
            if u not in seen:
                seen.add(u)
                reached.append(u)
    if len(reached) < len(a):
        raise ValueError("generator must be connected")
    return a


def generate_from_generator(G, md: ModularData) -> Nimrep:
    """Grow the full level-k family from the fundamental matrix by
    n^{a+1} = n^a n^1 - n^{a-1} (_grow), labelled as G.

    Raises, before any growth, CheckFailure if G has more than k + 1
    nodes (no level-k generator is larger than A_(k+1)),
    SpectralRadiusTooLarge if its norm is 2 or more (_coxeter_number finds
    no h'), and CheckFailure if its norm 2cos(pi/h') is not the norm
    2cos(pi/(k+2)) that every generator of the level has (soundness in
    enumerate_su2_nimreps); then NegativityFailure at the first level
    where the recursion leaves the non-negative integers.
    """
    if md.family != "su2":
        raise ValueError("generator recursion requires level-k data")
    (k,) = md.params
    a = _check_generator(G)
    if len(a) > k + 1:
        raise CheckFailure("generator has %d nodes; level %d admits at most %d" % (len(a), k, k + 1))
    h = _coxeter_number(a)
    if h is None:
        raise SpectralRadiusTooLarge("generator norm is 2 or more, which no level admits")
    if h != k + 2:
        norm, level_norm = (2 * math.cos(math.pi / x) for x in (h, k + 2))
        raise CheckFailure("generator norm %.12f is not the level-%d norm 2cos(pi/%d) = %.12f"
                           % (norm, k, k + 2, level_norm))
    return _grow(a, k)


def _grow(G, k: int) -> Nimrep:
    """n^0..n^k from a generator G of norm below 2 by n^(a+1) = n^a G -
    n^(a-1), in int64: no entry of n^a exceeds a + 1 (_closes).  Raises
    NegativityFailure at the first step that leaves the non-negative
    integers."""
    a = np.array(G, dtype=np.int64)
    mats = [np.eye(len(a), dtype=np.int64), a]
    for step in range(2, k + 1):
        nxt = mats[-1] @ a - mats[-2]
        if nxt.min() < 0:
            raise NegativityFailure(step)
        mats.append(nxt)
    return Nimrep(tuple(range(len(a))), mats)


def _exponent_traces(md: ModularData, exps) -> tuple:
    """sum over lambda in exps of S_rho lambda / S_0 lambda, for every rho,
    in fixed point from md.fixed, with its error bound.

    Returns (bits, re, im, err): the sum for sector rho is
    (re[rho] + i im[rho]) / 2^bits, within err / 2^bits of the sum over the
    working S (the fixed-point S) and its 1/S_0.  Rounding W = 1/S_0 moves a ratio
    by at most (s_max + w_max) 2^-bits, and the floor of each part by less
    than 2^-bits, so by at most delta = ceil(s_max + w_max) + 2 units; the
    m ratios of a sum give err = m delta.
    """
    S, W, _ = md.fixed
    cols = list(exps)
    R = (S[:, cols] * W[cols]).rescale(S.bits)
    re = R.re.sum(axis=1)
    im = np.zeros_like(re) if R.im is None else R.im.sum(axis=1)
    delta = math.ceil(S.bound() + W.bound()) + 2
    return S.bits, re, im, len(cols) * delta


def spectrum_match(nr: Nimrep, Z: ModularInvariant, md: ModularData) -> MatchReport:
    """Compare, sector by sector, the integer trace of n^rho with the sum
    over the exponents lambda of Z of S_rho lambda / S_0 lambda.

    nr must be a nimrep (callers pass a regular one, or one of
    enumerate_su2_nimreps, whose grown family closes and so is one):
    its commuting normal n^rho have a joint spectrum of characters
    rho -> S_rho lambda / S_0 lambda, and since S is invertible the n
    traces fix the multiplicity of every lambda.  The traces match exactly when that spectrum is Exp(Z), which
    is when every characteristic polynomial of n^rho matches.  A sum of
    _exponent_traces must lie within tolerance(precision) minus its error
    bound of the trace, as verlinde certifies its integers.
    """
    exps = Z.exponents
    m = len(exps)
    if nr.size != m:
        raise SizeMismatch("nimrep has %d boundaries, invariant needs %d" % (nr.size, m))
    bits, re, im, err = _exponent_traces(md, exps)
    slack = exact_tolerance(md.precision) * (1 << bits) - err
    mismatches = []
    # summed on Python ints: an int64 sum could wrap
    traces = [sum(d) for d in nr.nmats.diagonal(axis1=1, axis2=2).tolist()]
    for rho in range(md.n):
        diff = int(re[rho]) - (traces[rho] << bits)
        if slack < 0 or diff * diff + int(im[rho]) ** 2 > slack * slack:
            mismatches.append(rho)
    return MatchReport(tuple(mismatches))


def psi_matrix(nr: Nimrep, Z: ModularInvariant, md: ModularData) -> PsiMatrix:
    """Boundary-state coefficient matrix.

    Column lambda is the common unit eigenvector of the n^rho with the
    eigenvalues S_rho lambda / S_0 lambda, read off the spectral projector
    P_lambda = S_0 lambda sum_rho conj(S_rho lambda) n^rho (Behrend, Pearce,
    Petkova and Zuber 2000).  For a simple exponent P_lambda is
    psi_lambda psi_lambda^dagger, so its column b over sqrt(P_bb), at the
    largest diagonal entry, is psi_lambda up to a phase; the phase makes the
    first entry above tolerance real positive.  psi is a read-only Fixed of
    shape (m, e) at B = fixed_bits(precision).

    Every P_lambda is one exact contraction of md.fixed with the family at
    2^-2B, and column lambda is P_ab conj(P_lb) / (sqrt(P_bb) |P_lb|) at
    the lead row l, with both roots floored by isqrt and one floored
    division: for a projector (P_bb >= 1/m) each entry lies within
    sqrt(m) + 2 units of 2^-B of the unit vector over the exact P.
    cardy_residual is the largest entry of
    psi diag(S_rho lambda / S_0 lambda) psi^dagger - n^rho over every rho,
    from exact fixed-point products.
    """
    exps = Z.exponents
    if len(set(exps)) != len(exps):
        raise DegenerateExponents("exponents %s carry multiplicity" % (exps,))
    if nr.size != len(exps):
        raise SizeMismatch("nimrep has %d boundaries, invariant needs %d" % (nr.size, len(exps)))
    S, W, _ = md.fixed
    lams, bits, m = list(exps), S.bits, nr.size
    one, tol = 1 << 2 * bits, exact_tolerance(md.precision)
    N = nr.nmats.astype(object)
    coef = S[0, lams] * S[:, lams].conj()  # [rho, lambda]
    P = Fixed(*(None if c is None else np.tensordot(c, N, (0, 0)) for c in (coef.re, coef.im)),
              2 * bits)
    cols = []
    for i, lam in enumerate(exps):
        diag = P.re[i].diagonal()
        b = max(range(m), key=diag.__getitem__)
        # tr P = 1, so a projector of rank one has a diagonal entry >= 1/m
        if diag[b] * m <= tol * one:
            raise CheckFailure("no eigenvector matches exponent %d" % lam)
        col = P[i, :, b]
        size, above = col.abs2(), tol * tol * diag[b] * one
        # entry a is above tol when |P_ab| / sqrt(P_bb) is; a unit vector
        # longer than tol^-2 may have no entry above tol
        lead = next((a for a in range(m) if size[a] > above), max(range(m), key=size.__getitem__))
        x, d = col * col[lead].conj(), math.isqrt(diag[b]) * math.isqrt(size[lead])
        cols.append([None if part is None else part // d for part in (x.re, x.im)])
    re, im = zip(*cols)
    Psi = _read_only(Fixed(np.stack(re, 1), None if P.im is None else np.stack(im, 1), bits))[0]
    R = (S[:, lams] * W[lams]).rescale(bits)
    # K[a, lambda, b] = psi_a lambda conj(psi_b lambda); R.dot(K)[rho] is
    # psi diag(R[rho]) psi^dagger
    K = (Psi[:, :, None] * Psi.conj().T[None, :, :]).rescale(bits)
    with workdps(md.precision + GUARD_DIGITS):
        worst = (R.dot(K) - Fixed(N << 2 * bits, None, 2 * bits)).max_abs()
        if worst > mpf(PSI_TOL):
            raise CheckFailure("boundary-state identity residual %s exceeds %s"
                               % (mp.nstr(worst, 5), PSI_TOL))
    return PsiMatrix(Psi, exps, float(worst))


def path_graph(m: int) -> tuple:
    return tuple(
        tuple(1 if abs(i - j) == 1 else 0 for j in range(m)) for i in range(m)
    )


def canonical_generator(G) -> tuple:
    """Canonical adjacency matrix of a loop-marked tree.

    Rooted-tree encoding (mark, sorted child encodings) taken at the
    tree center, which is relabeling-invariant; the matrix is rebuilt
    from the encoding in preorder.  Raises ValueError for a non-tree.
    Encoding recurses about two frames per level below the center, so a
    tree of radius near 500, such as the path on 996 nodes, passes
    Python's default limit of 1,000 frames and raises RecursionError.
    """
    a = np.array(G, dtype=object)
    m = a.shape[0]
    if m == 1:
        return ((int(a[0, 0]),),)
    nbrs = [
        [j for j in range(m) if j != i and a[i, j]] for i in range(m)
    ]
    n_edges = sum(len(x) for x in nbrs) // 2

    deg = [len(x) for x in nbrs]
    alive = set(range(m))
    layer = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2 and layer:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in nbrs[v]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    # m - 1 edges and no cycle, which would never peel: a tree
    if n_edges != m - 1 or len(alive) > 2:
        raise ValueError("canonical form needs a loop-marked tree")
    centers = sorted(alive)

    def encode(v, parent):
        subs = sorted(encode(u, v) for u in nbrs[v] if u != parent)
        return (int(a[v, v]), tuple(subs))

    enc = min(encode(c, None) for c in centers)

    rows = [[0] * m for _ in range(m)]
    counter = [0]

    def rebuild(node, parent_idx):
        idx = counter[0]
        counter[0] += 1
        rows[idx][idx] = node[0]
        if parent_idx is not None:
            rows[idx][parent_idx] = rows[parent_idx][idx] = 1
        for child in node[1]:
            rebuild(child, idx)

    rebuild(enc, None)
    return tuple(tuple(r) for r in rows)


def _spider(legs) -> np.ndarray:
    """Tree made of chains grafted onto one center vertex."""
    m = 1 + sum(legs)
    a = np.zeros((m, m), dtype=np.int64)
    v = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            a[prev, v] = a[v, prev] = 1
            prev = v
            v += 1
    return a


def _coxeter_candidates(m: int, h: int) -> list:
    """The connected graphs on m nodes of norm 2cos(pi/h), loops allowed
    (Smith 1970): A_m when h = m + 1, D_m (m >= 4) when h = 2(m - 1), E6,
    E7 and E8 when (m, h) is (6, 12), (7, 18) or (8, 30), and the tadpole
    T_m, a path with a loop at one end, when h = 2m + 1."""
    out = []
    if h == m + 1:
        out.append(path_graph(m))
    if m >= 4 and h == 2 * (m - 1):
        out.append(_spider((m - 3, 1, 1)))
    if (m, h) in ((6, 12), (7, 18), (8, 30)):
        out.append(_spider((m - 4, 2, 1)))
    if h == 2 * m + 1:
        tadpole = np.array(path_graph(m), dtype=np.int64)
        tadpole[-1, -1] = 1
        out.append(tadpole)
    return out


def _coxeter_number(a: np.ndarray):
    """The h' at which _coxeter_candidates lists the connected graph a up
    to relabeling, so that its norm is 2cos(pi/h'); None when there is
    none, which is when its norm is 2 or more (Smith 1970, see
    enumerate_su2_nimreps).  An entry above 1 already forces that, and
    canonical_generator would read it as an edge."""
    if a.max() > 1:
        return None
    m = len(a)
    try:
        form = canonical_generator(a)
    except ValueError:  # a cycle
        return None
    return next((h for h in (m + 1, 2 * (m - 1), 2 * m + 1, 12, 18, 30)
                 for c in _coxeter_candidates(m, h) if canonical_generator(c) == form), None)


def _closes(nr: Nimrep) -> bool:
    """n^k n^1 = n^(k-1) for a family n^0..n^k grown by the recursion of
    _grow: exactly when n^(k+1) = 0.

    The product runs where hp.exact_dtype proves it exact.  A generator G of
    norm below 2, as every enumerated candidate has, keeps that product
    small: n^a = U_a(G/2) is symmetric with the eigenvalues sin((a+1)t)/sin
    t, t in (0, pi), at most a + 1 in modulus, so no entry of n^a exceeds
    a + 1, and m (k+1)^2 < 2^53 puts n^k G in float64.  Any other family is
    multiplied exactly on Python ints.
    """
    G, prev, top = nr.nmats[1], nr.nmats[-2], nr.nmats[-1]
    dtype = exact_dtype(len(G), top, G)
    return np.array_equal(top.astype(dtype) @ G.astype(dtype), prev)


def enumerate_su2_nimreps(md: ModularData, m: int) -> tuple:
    """All size-m nimreps of level-k data, up to relabeling.

    The candidates are the graphs of Coxeter number h = k + 2 on m nodes
    (_coxeter_candidates), read off an integer table.  Each grows its
    family n^0..n^k by _grow, labelled as canonical_generator orders it,
    and none passes the checks of user input that generate_from_generator
    makes; a family that leaves the non-negative integers is dropped, and
    one is kept when it closes, n^k n^1 = n^(k-1) (_closes).  That
    certificate is exact and loses nothing, with G the generator:

    - Closure pins the spectrum.  n^a = U_a(G/2), Chebyshev polynomials
      of the second kind, and G is symmetric, so n^(k+1) = U_(k+1)(G/2)
      = 0 holds exactly when every eigenvalue of G is 2cos(pi j/h) with
      1 <= j <= k + 1.
    - Soundness.  G is connected and non-negative, so its top eigenvalue
      has a Perron vector v > 0.  Were it 2cos(pi j/h) with j >= 2, take
      an integer a + 1 in (h/j, 2h/j): the interval is longer than 1 and
      lies inside [2, h - 1], and n^a v = sin(pi j(a+1)/h)/sin(pi j/h) v
      < 0 contradicts n^a >= 0, which the recursion checked through step
      k.  So the top eigenvalue is exactly 2cos(pi/h).
    - A norm below 2 leaves a tree with at most one loop.  Each of [2],
      [[0, 2], [2, 0]], a cycle and a path with a loop at both ends has the
      eigenvalue 2 on the all-ones vector.  The norm of a non-negative
      symmetric matrix is at least that of any principal submatrix and
      grows with its entries, so no principal submatrix of G dominates one
      of them: its entries are 0/1, it has no cycle, and two loops would lie
      at the ends of a path.  Being connected, G is a tree with at most one
      loop.
    - Completeness.  The trees with at most one loop of norm below 2 are
      A_m, D_m, E6, E7, E8 and T_m, of norms 2cos(pi/h') with h' =
      m + 1, 2(m - 1), 12, 18, 30 and 2m + 1 (Smith 1970), and their
      eigenvalues are all of the form 2cos(pi j/h').  A nimrep's
      generator closes, so by soundness its norm is 2cos(pi/h) < 2; it is
      then on that list with h' = h, which the table returns, and every
      graph the table returns closes.
    """
    if md.family != "su2":
        raise ValueError("enumeration requires level-k data")
    if m < 1:
        raise ValueError("size must be at least 1")
    (k,) = md.params
    out = []
    for candidate in _coxeter_candidates(m, k + 2):
        try:
            nr = _grow(canonical_generator(candidate), k)
        except NegativityFailure:
            continue
        if _closes(nr):
            out.append(nr)
    return tuple(out)


NIMREP_DOCUMENT_FORMAT = "bcft-nimrep/1"


def nimrep_document(nr: Nimrep) -> dict:
    return {
        "format": NIMREP_DOCUMENT_FORMAT,
        "labels": list(nr.labels),
        "nmats": nr.nmats.tolist(),
    }


def _ints(x, field: str, depth: int = 1):
    """x itself if it holds ints alone, depth JSON lists deep (depth 0: one
    int); bools, floats and strings are refused, not read as int() would."""
    if depth == 0 and type(x) is int:
        return x
    if depth > 0 and type(x) is list:
        for v in x:
            _ints(v, field, depth - 1)
        return x
    raise DocumentFormatError("field %r: expected integers" % field)


def nimrep_from_document(doc: dict) -> Nimrep:
    if not isinstance(doc, dict) or doc.get("format") != NIMREP_DOCUMENT_FORMAT:
        raise DocumentFormatError("expected a %s document" % NIMREP_DOCUMENT_FORMAT)
    labels = tuple(_ints(doc.get("labels"), "labels"))
    if len(set(labels)) < len(labels):  # a repeated label names no boundary of its own
        raise DocumentFormatError("field 'labels': a label is repeated")
    return Nimrep(labels, _ints(doc.get("nmats"), "nmats", 3))
