"""Non-negative integer matrix representations of the fusion rules.

A nimrep assigns to every sector rho a non-negative integer matrix
n^rho over a set of boundary labels so that matrix products follow the
fusion coefficients exactly.  For level-k data the whole family grows
from the fundamental-sector generator by a three-term recursion, so
enumeration reduces to a graph search for valid generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workdps

from .errors import (
    CheckFailure,
    DegenerateExponents,
    DocumentFormatError,
    NegativityFailure,
    SearchBudgetExceeded,
    SizeMismatch,
    SpectralRadiusTooLarge,
)
from .fusion import FusionRing, fusion_matrix
from .hp import GUARD_DIGITS, eig_general, eig_symmetric, tolerance
from .invariants import DEFAULT_NODE_BUDGET, ModularInvariant
from .modular_data import ModularData

SPECTRUM_TOL = 1e-15
PSI_TOL = 1e-12


@dataclass(frozen=True)
class Nimrep:
    labels: tuple
    nmats: tuple

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n_sectors(self) -> int:
        return len(self.nmats)

    def generator(self) -> tuple:
        """The fundamental-sector matrix (meaningful for level-k data,
        where it determines the family)."""
        return self.nmats[1]


@dataclass(frozen=True)
class VerifyReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class MatchReport:
    deviations: tuple
    tol: float

    @property
    def ok(self) -> bool:
        return all(d <= self.tol for d in self.deviations)


@dataclass(frozen=True)
class PsiMatrix:
    psi: tuple
    exponents: tuple
    cardy_residual: float


def regular_nimrep(fr: FusionRing) -> Nimrep:
    """The fusion matrices acting on the sectors themselves."""
    mats = tuple(fusion_matrix(fr, sigma) for sigma in range(fr.n))
    return Nimrep(tuple(range(fr.n)), mats)


def verify(candidate: Nimrep, fr: FusionRing) -> VerifyReport:
    """Exact integer check of the representation laws."""
    violations = []
    m = candidate.size
    if candidate.n_sectors != fr.n:
        return VerifyReport((("sector_count", candidate.n_sectors, fr.n),))
    mats = [np.array(mat, dtype=np.int64) for mat in candidate.nmats]
    for mat in mats:
        if mat.shape != (m, m):
            return VerifyReport((("shape", mat.shape, (m, m)),))
    if not np.array_equal(mats[0], np.eye(m, dtype=np.int64)):
        violations.append(("unit", 0))
    for mat, sigma in zip(mats, range(fr.n)):
        if mat.min() < 0:
            violations.append(("negative_entry", sigma))
    for sigma in range(fr.n):
        if not np.array_equal(mats[fr.conj[sigma]], mats[sigma].T):
            violations.append(("conjugate_transpose", sigma))
    N = fr.as_array()
    mats = np.stack(mats)
    for sigma in range(fr.n):
        # n_sigma n_rho against sum_tau N^tau_{sigma rho} n_tau, for every rho at once
        lhs = mats[sigma] @ mats
        rhs = np.tensordot(N[sigma], mats, axes=1)
        for rho in np.flatnonzero((lhs != rhs).any(axis=(1, 2))):
            violations.append(("product", sigma, int(rho)))
    return VerifyReport(tuple(violations))


def _check_generator(G) -> np.ndarray:
    a = np.array(G, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("generator must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("generator must be symmetric")
    if a.min() < 0:
        raise ValueError("generator must be non-negative")
    # connectivity via reachability of the boolean adjacency
    m = a.shape[0]
    reach = np.eye(m, dtype=bool) | (a > 0)
    for _ in range(m):
        reach = reach | (reach @ reach)
    if not reach.all():
        raise ValueError("generator must be connected")
    return a


def generate_from_generator(G, md: ModularData) -> Nimrep:
    """Grow the full level-k family from the fundamental matrix by
    n^{a+1} = n^a n^1 - n^{a-1}.

    Raises SpectralRadiusTooLarge if the generator norm is >= 2 (no
    level admits it) and NegativityFailure at the first level where
    the recursion leaves the non-negative integers.
    """
    if md.family != "su2":
        raise ValueError("generator recursion requires level-k data")
    (k,) = md.params
    a = _check_generator(G)
    norm = float(np.linalg.eigvalsh(a.astype(np.float64)).max())
    if norm >= 2 - 1e-12:
        raise SpectralRadiusTooLarge(
            "generator norm %.6f admits no level" % norm
        )
    m = a.shape[0]
    mats = [np.eye(m, dtype=np.int64), a]
    for step in range(2, k + 1):
        nxt = mats[-1] @ a - mats[-2]
        if nxt.min() < 0:
            raise NegativityFailure(step)
        mats.append(nxt)
    return Nimrep(
        tuple(range(m)),
        tuple(tuple(tuple(int(x) for x in row) for row in mat) for mat in mats),
    )


def _su2_eigenvalue_table(md: ModularData, thetas):
    """Chebyshev growth of the generator eigenvalues: value of each
    n^a on a generator eigenvector with eigenvalue theta."""
    (k,) = md.params
    table = []
    prev = [mpf(1)] * len(thetas)
    cur = list(thetas)
    table.append(prev)
    table.append(cur)
    for _ in range(2, k + 1):
        nxt = [c * t - p for c, t, p in zip(cur, thetas, prev)]
        table.append(nxt)
        prev, cur = cur, nxt
    return table


def spectrum_match(
    nr: Nimrep,
    Z: ModularInvariant,
    md: ModularData,
    fr: FusionRing | None = None,
    tol: float = SPECTRUM_TOL,
) -> MatchReport:
    """Compare eigenvalue multisets of n^rho with the S-matrix ratios
    over the exponents of Z, sector by sector."""
    exps = Z.exponents
    if nr.size != len(exps):
        raise SizeMismatch(
            "nimrep has %d boundaries, invariant needs %d"
            % (nr.size, len(exps))
        )
    dps = md.precision
    with workdps(dps + GUARD_DIGITS):
        expected = [
            sorted(
                (mp.re(md.S[rho][lam] / md.S[0][lam]) for lam in exps),
            )
            for rho in range(md.n)
        ]
        deviations = []
        if md.family == "su2":
            thetas, _ = eig_symmetric(nr.nmats[1], dps)
            table = _su2_eigenvalue_table(md, thetas)
            for rho in range(md.n):
                got = sorted(table[rho])
                deviations.append(
                    float(max(abs(g - e) for g, e in zip(got, expected[rho])))
                )
        else:
            for rho in range(md.n):
                vals = eig_general(nr.nmats[rho], dps)
                got = sorted(mp.re(v) for v in vals)
                worst = max(abs(g - e) for g, e in zip(got, expected[rho]))
                worst = max(worst, max(abs(mp.im(v)) for v in vals))
                deviations.append(float(worst))
    return MatchReport(tuple(deviations), tol)


def psi_matrix(nr: Nimrep, Z: ModularInvariant, md: ModularData) -> PsiMatrix:
    """Boundary-state coefficient matrix.

    Columns are the common eigenvectors of the nimrep family, indexed
    by the exponents of Z, orthonormal, with the phase fixed so the
    first nonvanishing entry of each column is real positive.
    """
    exps = Z.exponents
    if len(set(exps)) != len(exps):
        raise DegenerateExponents(
            "exponents %s carry multiplicity" % (exps,)
        )
    if nr.size != len(exps):
        raise SizeMismatch(
            "nimrep has %d boundaries, invariant needs %d"
            % (nr.size, len(exps))
        )
    dps = md.precision
    m = nr.size
    with workdps(dps + GUARD_DIGITS):
        tol = tolerance(dps)
        ratios = [
            [mp.re(md.S[rho][lam] / md.S[0][lam]) for lam in exps]
            for rho in range(md.n)
        ]

        def build(evals, evecs, targets):
            cols = []
            used = set()
            for pos, target in enumerate(targets):
                best, best_gap = None, None
                for i in range(m):
                    if i in used:
                        continue
                    gap = abs(evals[i] - target)
                    if best is None or gap < best_gap:
                        best, best_gap = i, gap
                if best_gap > tol:
                    raise CheckFailure(
                        "no eigenvector matches exponent %d" % exps[pos]
                    )
                used.add(best)
                col = list(evecs[best])
                lead = next(x for x in col if abs(x) > tol)
                if lead < 0:
                    col = [-x for x in col]
                cols.append(col)
            psi = tuple(
                tuple(cols[j][a] for j in range(len(exps))) for a in range(m)
            )
            worst = mpf(0)
            for rho in range(md.n):
                for a in range(m):
                    for b in range(m):
                        val = mp.fsum(
                            psi[a][i] * mp.conj(psi[b][i]) * ratios[rho][i]
                            for i in range(len(exps))
                        )
                        worst = max(worst, abs(val - nr.nmats[rho][a][b]))
            return psi, worst

        if md.family == "su2":
            evals, evecs = eig_symmetric(nr.nmats[1], dps)
            psi, worst = build(evals, evecs, [r for r in ratios[1]])
        else:
            # generic mixer; distinct weights separate the joint
            # eigenspaces for some seed when Exp is multiplicity-free
            psi = worst = None
            for seed in range(2, 7):
                weights = [
                    mpf(1) / (min(rho, md.conj[rho]) + seed)
                    for rho in range(md.n)
                ]
                mixed = [
                    [
                        mp.fsum(
                            weights[rho] * nr.nmats[rho][a][b]
                            for rho in range(md.n)
                        )
                        for b in range(m)
                    ]
                    for a in range(m)
                ]
                evals, evecs = eig_symmetric(mixed, dps)
                targets = [
                    mp.fsum(
                        weights[rho] * ratios[rho][i] for rho in range(md.n)
                    )
                    for i in range(len(exps))
                ]
                try:
                    psi, worst = build(evals, evecs, targets)
                except CheckFailure:
                    continue
                if worst < mpf(PSI_TOL):
                    break
            if psi is None:
                raise CheckFailure(
                    "no weight seed separated the joint eigenspaces"
                )
        if worst > mpf(PSI_TOL):
            raise CheckFailure(
                "boundary-state identity residual %s exceeds %s"
                % (mp.nstr(worst, 5), PSI_TOL)
            )
    return PsiMatrix(psi, exps, float(worst))


def path_graph(m: int) -> tuple:
    return tuple(
        tuple(1 if abs(i - j) == 1 else 0 for j in range(m)) for i in range(m)
    )


def d_graph(m: int) -> tuple:
    """D_m: a path on m-1 nodes with one extra node forking at the end."""
    if m < 4:
        raise ValueError("D_m needs m >= 4")
    rows = [[0] * m for _ in range(m)]
    for i in range(m - 2):
        if i + 1 <= m - 3:
            rows[i][i + 1] = rows[i + 1][i] = 1
    rows[m - 3][m - 2] = rows[m - 2][m - 3] = 1
    rows[m - 3][m - 1] = rows[m - 1][m - 3] = 1
    return tuple(tuple(r) for r in rows)


def tadpole_graph(m: int) -> tuple:
    """Path with a unit loop at the last node."""
    rows = [list(r) for r in path_graph(m)]
    rows[m - 1][m - 1] = 1
    return tuple(tuple(r) for r in rows)


def _e_graph(spine: int, fork_at: int) -> tuple:
    m = spine + 1
    rows = [[0] * m for _ in range(m)]
    for i in range(spine - 1):
        rows[i][i + 1] = rows[i + 1][i] = 1
    rows[fork_at][m - 1] = rows[m - 1][fork_at] = 1
    return tuple(tuple(r) for r in rows)


def e6_graph() -> tuple:
    return _e_graph(5, 2)


def e7_graph() -> tuple:
    return _e_graph(6, 2)


def e8_graph() -> tuple:
    return _e_graph(7, 2)


def canonical_generator(G) -> tuple:
    """Canonical adjacency matrix of a loop-marked tree.

    Rooted-tree encoding (mark, sorted child encodings) taken at the
    tree center, which is relabeling-invariant; the matrix is rebuilt
    from the encoding in preorder.  Non-tree inputs fall back to the
    minimum over all permutations and must be small.
    """
    a = np.array(G, dtype=np.int64)
    m = a.shape[0]
    if m == 1:
        return ((int(a[0, 0]),),)
    nbrs = [
        [j for j in range(m) if j != i and a[i, j]] for i in range(m)
    ]
    n_edges = sum(len(x) for x in nbrs) // 2
    if n_edges != m - 1:
        return _canonical_bruteforce(a)

    deg = [len(x) for x in nbrs]
    alive = set(range(m))
    layer = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in nbrs[v]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
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


def _canonical_bruteforce(a: np.ndarray) -> tuple:
    from itertools import permutations

    m = a.shape[0]
    if m > 9:
        raise ValueError("canonical form of a non-tree needs size <= 9")
    best = None
    for perm in permutations(range(m)):
        cand = tuple(
            int(a[perm[i], perm[j]]) for i in range(m) for j in range(m)
        )
        if best is None or cand < best:
            best = cand
    return tuple(tuple(best[i * m + j] for j in range(m)) for i in range(m))


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


def _candidate_trees(m: int) -> list:
    """All trees on m nodes that can carry spectral radius below 2.

    A degree-4 vertex dominates the star K_{1,4} and two degree-3
    vertices dominate an affine D-type subtree; both have spectral
    radius exactly 2, and the radius is monotone in entrywise order,
    so such trees are out.  What remains: paths and trees with one
    trivalent vertex, i.e. three chains from a common center.
    """
    if m == 1:
        return [np.zeros((1, 1), dtype=np.int64)]
    out = [np.array(path_graph(m), dtype=np.int64)]
    for a in range(1, m - 1):
        for b in range(1, min(a, m - 1 - a) + 1):
            c = m - 1 - a - b
            if 1 <= c <= b:
                out.append(_spider((a, b, c)))
    return out


def enumerate_su2_nimreps(
    md: ModularData,
    m: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple:
    """All size-m nimreps of level-k data, up to relabeling.

    Any generator with norm below 2 has 0/1 entries, no cycle and at
    most one loop (a second loop, a cycle or a double edge each force
    norm >= 2 by eigenvalue monotonicity of non-negative matrices), so
    candidates are the degree-constrained trees of _candidate_trees
    with at most one added loop.  Survivors of a float spectral filter
    are certified exactly: the characteristic polynomial must vanish
    on the minimal polynomial of 2cos(pi/(k+2)), and the top
    eigenvalue must sit on the right root.
    """
    if md.family != "su2":
        raise ValueError("enumeration requires level-k data")
    if not 1 <= m <= 30:
        raise ValueError("size must lie in 1..30")
    (k,) = md.params
    budget_state = {"nodes": 0, "budget": node_budget}

    candidates = []
    for a in _candidate_trees(m):
        candidates.append(a)
        for v in range(m):
            b = a.copy()
            b[v, v] = 1
            candidates.append(b)

    target = float(2 * np.cos(np.pi / (k + 2)))
    survivors = []
    if candidates:
        stack = np.stack([c.astype(np.float64) for c in candidates])
        tops = np.linalg.eigvalsh(stack)[:, -1]
        budget_state["nodes"] += len(candidates)
        if budget_state["nodes"] > budget_state["budget"]:
            raise SearchBudgetExceeded(
                "generator search exceeded %d nodes" % budget_state["budget"]
            )
        for c, top in zip(candidates, tops):
            if abs(top - target) < 1e-9:
                survivors.append(c)

    certified = []
    for c in survivors:
        if _certify_norm(c, k, md.precision):
            certified.append(c)

    seen = {}
    for c in certified:
        canon = canonical_generator(c)
        if canon not in seen:
            seen[canon] = canon
    out = []
    for canon in sorted(seen):
        try:
            nr = generate_from_generator(canon, md)
        except NegativityFailure:
            continue
        out.append(nr)
    return tuple(out)


def _certify_norm(c: np.ndarray, k: int, dps: int) -> bool:
    """Exact check that the top eigenvalue equals 2cos(pi/(k+2))."""
    import sympy

    x = sympy.Symbol("x")
    mat = sympy.Matrix(c.tolist())
    charpoly = mat.charpoly(x).as_expr()
    minpoly = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / (k + 2)), x)
    if sympy.rem(charpoly, minpoly, x) != 0:
        return False
    with workdps(dps + GUARD_DIGITS):
        evals, _ = eig_symmetric(c.tolist(), dps)
        top = evals[-1]
        want = 2 * mp.cos(mp.pi / (k + 2))
        return abs(top - want) < mpf(10) ** (-20)


NIMREP_DOCUMENT_FORMAT = "bcft-nimrep/1"


def nimrep_document(nr: Nimrep) -> dict:
    return {
        "format": NIMREP_DOCUMENT_FORMAT,
        "labels": list(nr.labels),
        "nmats": [[list(row) for row in mat] for mat in nr.nmats],
    }


def nimrep_from_document(doc: dict) -> Nimrep:
    if doc.get("format") != NIMREP_DOCUMENT_FORMAT:
        raise DocumentFormatError("expected a %s document" % NIMREP_DOCUMENT_FORMAT)
    return Nimrep(
        tuple(doc["labels"]),
        tuple(
            tuple(tuple(int(x) for x in row) for row in mat)
            for mat in doc["nmats"]
        ),
    )
