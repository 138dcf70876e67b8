"""Exhaustive classification of physical modular invariant matrices.

A physical invariant is a non-negative integer matrix Z with Z_00 = 1
commuting with both modular generators.  T-commutation is decided
exactly on the classes h mod 1; S-commutation cuts out a rational
subspace.  Float64 picks its constraint rows from a float64 S, only
those are solved on fixed-point ints, and the exact V S - S V of each
basis vector certifies it against every row.  Physical matrices are
its lattice points in the Perron box, walked on ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CheckFailure, RationalizationFailure, SearchBudgetExceeded
from .hp import exact_tolerance, independent_rows, nullspace, rationalize, rref_rows
from .modular_data import ModularData

DEFAULT_NODE_BUDGET = 10**9


@dataclass(frozen=True)
class ModularInvariant:
    Z: tuple
    exponents: tuple
    tag: str

    @property
    def size(self) -> int:
        """Total diagonal multiplicity (the boundary count of a
        matching nimrep)."""
        return sum(self.Z[i][i] for i in range(len(self.Z)))

    def flat(self) -> tuple:
        return tuple(x for row in self.Z for x in row)


def exponents_of(Z) -> tuple:
    """Diagonal labels with multiplicity, sorted."""
    return tuple(i for i, row in enumerate(Z) for _ in range(row[i]))


def _matrix(n, pairs, vec):
    """n x n integer matrix with vec at the positions pairs, zero elsewhere."""
    Z = [[0] * n for _ in range(n)]
    for (i, j), x in zip(pairs, vec):
        Z[i][j] = x
    return tuple(tuple(row) for row in Z)


def _invariant(md: ModularData, Z) -> ModularInvariant:
    exps = exponents_of(Z)
    return ModularInvariant(Z, exps, ade_tag(md, exps))


def t_allowed_pairs(md: ModularData) -> tuple:
    """Positions (i, j) not forced to zero by T-commutation.

    Z_ij (T_j - T_i) = 0, so an entry can be nonzero only when
    h_i = h_j mod 1: row i pairs with the sectors of its exact class.
    """
    group = {}
    for i, h in enumerate(md.h):
        group.setdefault(h % 1, []).append(i)
    return tuple((i, j) for i, h in enumerate(md.h) for j in group[h % 1])


def _s_constraint_rows(parts: np.ndarray, pairs, rows) -> np.ndarray:
    """The given rows of the linear system (ZS - SZ)_ab = 0 over the
    allowed entries, on a stack of S parts of any dtype.  Row
    p n^2 + a n + b is part p of equation (a, b); its entry at the pair
    (i, j) is [i = a] S_jb - S_ai [j = b]."""
    p, a, b = np.unravel_index(np.asarray(rows, dtype=int)[:, None], parts.shape)
    i, j = np.array(pairs).T
    return (i == a) * parts[p, j, b] - parts[p, a, i] * (j == b)


def _commutator(parts: np.ndarray, pairs, v) -> np.ndarray:
    """C v, C every row of _s_constraint_rows in order, as V S - S V per
    part of S with v on the pairs of V: each nonzero x at (i, j) adds
    x S[j, :] to row i and takes x S[:, i] from column j.  Exact on ints."""
    out = np.zeros_like(parts)
    for (i, j), x in zip(pairs, v):
        if x:
            out[:, i, :] += x * parts[:, j, :]
            out[:, :, j] -= x * parts[:, :, i]
    return out.reshape(-1)


def _commutant(md: ModularData):
    """Rational basis of {M : MS = SM, MT = TM} in reduced echelon
    form over the T-allowed positions: (pairs, basis vectors as Fraction
    lists, pivot variable indices).

    Float64 elimination picks independent S-constraint rows from a
    float64 copy of S; only those are built on the fixed-point S
    (md.fixed) for the fixed-point Gauss-Jordan, and each basis entry x
    is rationalized from the exact Fraction(x, 2^bits).  Each vector,
    scaled to integers v, is certified against every row C: C v =
    V S - S V at the fixed-point S is exact, and each coefficient of C is
    off by at most 2^-bits, so |C v| + 2^-bits |v|_1 <= tolerance proves
    the row.  Failed rows join the chosen ones, and the solve reruns.
    """
    pairs = t_allowed_pairs(md)
    S, dps = md.fixed[0], md.precision
    parts, one = np.array([S.re] if S.im is None else [S.re, S.im]), 1 << S.bits
    floats = _s_constraint_rows((parts / one).astype(float), pairs, range(parts.size))
    chosen = set(independent_rows(floats))
    tol = math.floor(exact_tolerance(dps) * one)
    while True:
        rows = _s_constraint_rows(parts, pairs, sorted(chosen))
        reduced, pivots = rref_rows(nullspace(rows, len(pairs), dps), dps)
        exact = [[rationalize(Fraction(x, one), dps) for x in vec] for vec in reduced]
        failed = set()
        for vec in exact:
            scale = math.lcm(*(x.denominator for x in vec))
            v = [int(x * scale) for x in vec]
            failed.update(np.flatnonzero(abs(_commutator(parts, pairs, v)) + sum(map(abs, v)) > tol))
        if not failed:
            return pairs, exact, pivots
        if failed <= chosen:
            raise RationalizationFailure(
                "rationalized commutant basis does not commute with S")
        chosen |= failed


def perron_row(md: ModularData) -> int:
    """Index of the minimal-weight sector.

    Its S-row is the Perron-Frobenius eigenvector of the fusion
    matrices, so ratios against it bound modular invariant entries.
    For unitary models this is the vacuum.
    """
    return min(range(md.n), key=lambda i: (md.h[i], i))


def _floors(num, den, eps: Fraction) -> np.ndarray:
    """floor(num/den + eps) entrywise, on Python ints."""
    q = eps.denominator
    return (num * q + eps.numerator * den) // (den * q)


def entry_bounds(md: ModularData) -> tuple:
    """Finite integer bound for each entry of a physical invariant.

    With a positive vacuum row the classical bound Z_ij <= d_i d_j in
    the quantum dimensions applies.  Non-unitary minimal models have a
    signed vacuum row; there the positive S-column of the
    minimal-weight sector e gives Z_ij <= 1/(S_ie S_je), using that
    Galois symmetry forces Z_ee = Z_00 = 1 for this family.

    Each bound is floor(x + tolerance(precision)), with x = d_i d_j =
    S_0i S_0j / S_00^2 or x = 4^bits / (s_ie s_je), on the ints s of the
    fixed-point S (md.fixed).  Every s lies within one unit of S 2^bits,
    so x lies between the quotients formed from s - 1 and s + 1; a bound
    is certified when both ends give the same floor, and an entry whose
    bracket straddles an integer raises CheckFailure.
    """
    S = md.fixed[0]
    eps = exact_tolerance(md.precision)
    # an entry of one unit or less is not certified positive
    row = S.re[0]
    if all(row > 1):
        lo = _floors(np.multiply.outer(row - 1, row - 1), (row[0] + 1) ** 2, eps)
        hi = _floors(np.multiply.outer(row + 1, row + 1), (row[0] - 1) ** 2, eps)
    elif md.family != "minimal":
        raise ValueError("no entry bound available: need a positive vacuum row "
                         "or a built-in minimal model")
    else:
        col = S.re[:, perron_row(md)]
        if not all(col > 1):
            raise ValueError("minimal-weight S-column is not positive")
        one = 1 << 2 * S.bits
        lo = _floors(one, np.multiply.outer(col + 1, col + 1), eps)
        hi = _floors(one, np.multiply.outer(col - 1, col - 1), eps)
    straddled = np.argwhere(lo != hi)
    if straddled.size:
        i, j = straddled[0]
        raise CheckFailure("entry bound (%d, %d) lies between %d and %d at precision %d"
                           % (i, j, lo[i, j], hi[i, j], md.precision))
    return tuple(tuple(int(x) for x in r) for r in lo)


SU2_COXETER_TAGS = {
    10: ("E6", (0, 3, 4, 6, 7, 10)),
    16: ("E7", (0, 4, 6, 8, 10, 12, 16)),
    28: ("E8", (0, 6, 10, 12, 16, 18, 22, 28)),
}


def ade_tag(md: ModularData, exponents: tuple) -> str:
    """Dynkin name whose Coxeter exponents match Exp(Z), else
    "untagged".  Only level-k data carries such names."""
    if md.family != "su2":
        return "untagged"
    (k,) = md.params
    if exponents == tuple(range(k + 1)):
        return "A%d" % (k + 1)
    if k % 2 == 0 and k >= 4:
        d_exps = tuple(sorted(list(range(0, k + 1, 2)) + [k // 2]))
        if exponents == d_exps:
            return "D%d" % (k // 2 + 2)
    if k in SU2_COXETER_TAGS:
        name, exps = SU2_COXETER_TAGS[k]
        if exponents == exps:
            return name
    return "untagged"


def _search(pairs, basis, pivots, bounds_by_var, vacuum_var, node_budget):
    """Depth-first integer search over the commutant lattice.

    Coordinates are the pivot-entry values.  Every matrix entry is an
    exact rational affine function of them, held on ints as D times its
    value, D the common denominator of the basis.  Intervals from the
    remaining coordinate boxes prune infeasible prefixes; a leaf keeps
    only entries that D divides.
    """
    d = len(basis)
    if d == 0:
        return []
    n_vars = len(pairs)
    D = math.lcm(*(x.denominator for vec in basis for x in vec))
    cols = [[int(vec[v] * D) for vec in basis] for v in range(n_vars)]
    ubounds = [bounds_by_var[pivots[i]] for i in range(d)]
    # the scaled entry of v must end in [floors[v], tops[v]]
    floors = [D if v == vacuum_var else 0 for v in range(n_vars)]
    tops = [D if v == vacuum_var else D * bounds_by_var[v] for v in range(n_vars)]

    # suffix interval of the contribution of coordinates >= depth
    lo = [[0] * n_vars for _ in range(d + 1)]
    hi = [[0] * n_vars for _ in range(d + 1)]
    for i in range(d - 1, -1, -1):
        for v in range(n_vars):
            c = cols[v][i] * ubounds[i]
            lo[i][v] = lo[i + 1][v] + min(0, c)
            hi[i][v] = hi[i + 1][v] + max(0, c)

    solutions = []
    partial = [0] * n_vars
    nodes = 0

    def feasible(depth):
        l, h = lo[depth], hi[depth]
        return all(floors[v] <= partial[v] + h[v] and partial[v] + l[v] <= tops[v]
                   for v in range(n_vars))

    def descend(depth):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                "lattice search exceeded %d nodes" % node_budget
            )
        if depth == d:
            # feasible(d) already put every entry in its range
            if not any(x % D for x in partial):
                solutions.append(tuple(x // D for x in partial))
            return
        for x in range(ubounds[depth] + 1):
            if x:
                for v in range(n_vars):
                    if cols[v][depth]:
                        partial[v] += cols[v][depth]
            if feasible(depth + 1):
                descend(depth + 1)
        for v in range(n_vars):
            if cols[v][depth]:
                partial[v] -= ubounds[depth] * cols[v][depth]

    if feasible(0):
        descend(0)
    return solutions


def enumerate_physical(md: ModularData, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """All physical modular invariants, in lexicographic order of the
    flattened matrix.  Raises SearchBudgetExceeded past node_budget."""
    pairs, basis, pivots = _commutant(md)
    bounds = entry_bounds(md)
    bounds_by_var = [bounds[i][j] for (i, j) in pairs]
    vacuum_var = pairs.index((0, 0))
    vecs = _search(pairs, basis, pivots, bounds_by_var, vacuum_var, node_budget)
    invs = (_invariant(md, _matrix(md.n, pairs, vec)) for vec in vecs)
    return tuple(sorted(invs, key=lambda inv: inv.flat()))


def diagonal_invariant(md: ModularData) -> ModularInvariant:
    diagonal = [(i, i) for i in range(md.n)]
    return _invariant(md, _matrix(md.n, diagonal, [1] * md.n))


INVARIANT_DOCUMENT_FORMAT = "bcft-invariant/1"


def invariant_document(inv: ModularInvariant) -> dict:
    return {
        "format": INVARIANT_DOCUMENT_FORMAT,
        "tag": inv.tag,
        "exponents": list(inv.exponents),
        "Z": [list(row) for row in inv.Z],
    }
