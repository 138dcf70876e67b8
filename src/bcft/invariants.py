"""Exhaustive classification of physical modular invariant matrices.

A physical invariant is a non-negative integer matrix Z with Z_00 = 1
commuting with both modular generators.  T-commutation is decided
exactly from the conformal weights; S-commutation cuts out a rational
subspace.  Float64 elimination picks independent S-constraint rows, a
working-precision nullspace of those rows is rationalized, and an exact
fixed-point check against every row certifies the basis.  Physical
matrices are the lattice points of that subspace inside the Perron box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, workdps

from .errors import (
    DocumentFormatError,
    RationalizationFailure,
    SearchBudgetExceeded,
)
from .hp import (GUARD_DIGITS, Fixed, fixed_bits, independent_rows, nullspace,
                 rationalize, rref_rows, to_fraction, tolerance)
from .modular_data import ModularData, quantum_dims, vacuum_row_real

DEFAULT_NODE_BUDGET = 10**9


@dataclass(frozen=True)
class ModularInvariant:
    Z: tuple
    exponents: tuple
    tag: str

    @property
    def n(self) -> int:
        return len(self.Z)

    @property
    def size(self) -> int:
        """Total diagonal multiplicity (the boundary count of a
        matching nimrep)."""
        return sum(self.Z[i][i] for i in range(len(self.Z)))

    def flat(self) -> tuple:
        return tuple(x for row in self.Z for x in row)


def exponents_of(Z) -> tuple:
    """Diagonal labels with multiplicity, sorted."""
    out = []
    for i, row in enumerate(Z):
        out.extend([i] * row[i])
    return tuple(out)


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
    h_i = h_j mod 1; this is decided exactly on the rational weights.
    """
    pairs = []
    for i in range(md.n):
        for j in range(md.n):
            if (md.h[i] - md.h[j]).denominator == 1:
                pairs.append((i, j))
    return tuple(pairs)


def _s_parts(md: ModularData) -> np.ndarray:
    """The real part of S and, if S is complex, its imaginary part: a
    (1 or 2, n, n) array of mpf, one constraint row per entry."""
    parts = [[[f(x) for x in row] for row in md.S] for f in (mp.re, mp.im)]
    return np.array(parts if any(map(any, parts[1])) else parts[:1], dtype=object)


def _s_constraint_rows(parts: np.ndarray, pairs, rows) -> np.ndarray:
    """The given rows of the linear system (ZS - SZ)_ab = 0 over the
    allowed entries: row a*n + b is the real part of equation (a, b),
    row n^2 + a*n + b its imaginary part.  parts is _s_parts, or it cast
    to float64 or fixed-point integers."""
    n = parts.shape[1]
    part, ab = np.divmod(np.asarray(rows, dtype=int), n * n)
    p, a, b = part[:, None], ab[:, None] // n, ab[:, None] % n
    i, j = np.array(pairs).T
    one = np.identity(n, dtype=int)
    return one[a, i] * parts[p, j, b] - parts[p, a, i] * one[j, b]


def _commutant(md: ModularData):
    """Rational basis of {M : MS = SM, MT = TM} in reduced echelon
    form over the T-allowed positions.

    Float64 elimination picks independent S-constraint rows, and only
    those are eliminated at working precision.  The rationalized basis
    is then certified against every row: with each vector scaled to
    integers v and the rows C taken at S rounded to fixed_bits, |C v|
    is exact, and each coefficient of C is off by at most 2^-bits, so
    |C v| + 2^-bits |v|_1 <= tolerance proves the row.  Rows that fail
    join the chosen ones and the solve reruns.

    Returns (pairs, basis vectors as Fraction lists, pivot variable
    indices).
    """
    pairs = t_allowed_pairs(md)
    dps, bits = md.precision, fixed_bits(md.precision)
    parts = _s_parts(md)
    every_row = range(parts.size)
    floats = _s_constraint_rows(parts.astype(float), pairs, every_row)
    chosen = set(independent_rows(floats))
    fixed = _s_constraint_rows(Fixed.of(parts, bits).re, pairs, every_row)
    tol = math.floor(to_fraction(tolerance(dps)) * (1 << bits))
    with workdps(dps + GUARD_DIGITS):
        while True:
            rows = _s_constraint_rows(parts, pairs, sorted(chosen))
            reduced, pivots = rref_rows(nullspace(rows, len(pairs), dps), dps)
            exact = [[rationalize(x, dps) for x in vec] for vec in reduced]
            failed = set()
            for vec in exact:
                scale = math.lcm(*(x.denominator for x in vec))
                v = np.array([int(x * scale) for x in vec], dtype=object)
                failed.update(np.flatnonzero(abs(fixed.dot(v)) + abs(v).sum() > tol))
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


def entry_bounds(md: ModularData) -> tuple:
    """Finite integer bound for each entry of a physical invariant.

    With a positive vacuum row the classical bound Z_ij <= d_i d_j in
    the quantum dimensions applies.  Non-unitary minimal models have a
    signed vacuum row; there the positive S-column of the
    minimal-weight sector e gives Z_ij <= 1/(S_ie S_je), using that
    Galois symmetry forces Z_ee = Z_00 = 1 for this family.
    """
    dps = md.precision
    with workdps(dps + GUARD_DIGITS):
        eps = tolerance(dps)
        if all(x > 0 for x in vacuum_row_real(md)):
            d = [mp.re(x) for x in quantum_dims(md)]
            return tuple(
                tuple(int(mp.floor(d[i] * d[j] + eps)) for j in range(md.n))
                for i in range(md.n)
            )
        if md.family != "minimal":
            raise ValueError(
                "no entry bound available: need a positive vacuum row "
                "or a built-in minimal model"
            )
        e = perron_row(md)
        col = [mp.re(md.S[lam][e]) for lam in range(md.n)]
        if any(x <= 0 for x in col):
            raise ValueError("minimal-weight S-column is not positive")
        return tuple(
            tuple(int(mp.floor(1 / (col[i] * col[j]) + eps)) for j in range(md.n))
            for i in range(md.n)
        )


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


def invariant_residuals(md: ModularData, Z) -> dict:
    """Residuals of the defining properties of a candidate Z.

    t_commutation is exact (0.0 or inf), the rest are numeric.
    """
    n = md.n
    dps = md.precision
    ok_t = all(
        Z[i][j] == 0 or (md.h[i] - md.h[j]).denominator == 1
        for i in range(n)
        for j in range(n)
    )
    with workdps(dps + GUARD_DIGITS):
        worst = mpf(0)
        for a in range(n):
            for b in range(n):
                zs = mp.fsum(Z[a][j] * md.S[j][b] for j in range(n))
                sz = mp.fsum(md.S[a][i] * Z[i][b] for i in range(n))
                worst = max(worst, abs(zs - sz))
        bounds = entry_bounds(md)
        perron_ok = all(
            Z[i][j] <= bounds[i][j] for i in range(n) for j in range(n)
        )
        weight = mp.fsum(
            Z[i][j] * mp.re(md.S[0][i]) * mp.re(md.S[0][j])
            for i in range(n)
            for j in range(n)
        )
    return {
        "vacuum": Z[0][0] == 1,
        "nonnegative": all(x >= 0 for row in Z for x in row),
        "integer": all(isinstance(x, int) or x.denominator == 1 for row in Z for x in row),
        "t_commutation": 0.0 if ok_t else float("inf"),
        "s_commutation": worst,
        "perron_bound": perron_ok,
        "vacuum_coupling": weight,
    }


def _search(pairs, basis, pivots, bounds_by_var, vacuum_var, node_budget):
    """Depth-first integer search over the commutant lattice.

    Coordinates are the pivot-entry values.  Every matrix entry is an
    exact rational affine function of them; intervals from the
    remaining coordinate boxes prune infeasible prefixes.
    """
    d = len(basis)
    if d == 0:
        return []
    n_vars = len(pairs)
    cols = [[vec[v] for vec in basis] for v in range(n_vars)]
    ubounds = [bounds_by_var[pivots[i]] for i in range(d)]

    # suffix interval of the contribution of coordinates >= depth
    lo = [[Fraction(0)] * n_vars for _ in range(d + 1)]
    hi = [[Fraction(0)] * n_vars for _ in range(d + 1)]
    for i in range(d - 1, -1, -1):
        for v in range(n_vars):
            c = basis[i][v] * ubounds[i]
            lo[i][v] = lo[i + 1][v] + min(Fraction(0), c)
            hi[i][v] = hi[i + 1][v] + max(Fraction(0), c)

    solutions = []
    partial = [Fraction(0)] * n_vars
    nodes = 0

    def feasible(depth):
        for v in range(n_vars):
            val, l, h = partial[v], lo[depth][v], hi[depth][v]
            top = Fraction(1) if v == vacuum_var else Fraction(bounds_by_var[v])
            if val + h < 0 or val + l > top:
                return False
            if v == vacuum_var and val + h < 1:
                return False
        return True

    def descend(depth):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                "lattice search exceeded %d nodes" % node_budget
            )
        if depth == d:
            vec = []
            for v in range(n_vars):
                x = partial[v]
                if x.denominator != 1 or x < 0:
                    return
                vec.append(int(x))
            if vec[vacuum_var] != 1:
                return
            if any(x > bounds_by_var[v] for v, x in enumerate(vec)):
                return
            solutions.append(tuple(vec))
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


def enumerate_physical(
    md: ModularData, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple:
    """All physical modular invariants, in lexicographic order of the
    flattened matrix.  Raises SearchBudgetExceeded past node_budget."""
    pairs, basis, pivots = _commutant(md)
    bounds = entry_bounds(md)
    bounds_by_var = [bounds[i][j] for (i, j) in pairs]
    vacuum_var = pairs.index((0, 0))
    vecs = _search(pairs, basis, pivots, bounds_by_var, vacuum_var, node_budget)
    invs = (_invariant(md, _matrix(md.n, pairs, vec)) for vec in vecs)
    return tuple(sorted(invs, key=lambda inv: inv.flat()))


def enumerate_bruteforce(
    md: ModularData, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple:
    """Independent oracle: entrywise search over the Perron box.

    Assigns every T-allowed entry directly (never touching the
    commutant basis) and prunes with float intervals on the
    S-commutation equations; exact verification happens on the full
    candidates only.
    """
    pairs = t_allowed_pairs(md)
    n_vars = len(pairs)
    dps = md.precision
    bounds = entry_bounds(md)
    ub = np.array([bounds[i][j] for (i, j) in pairs], dtype=np.int64)
    vacuum_var = pairs.index((0, 0))

    parts = _s_parts(md)
    rows = _s_constraint_rows(parts.astype(float), pairs, range(parts.size))
    keep = np.abs(rows).max(axis=1) > 1e-30
    rows = rows[keep]
    margin = 1e-9

    # suffix interval of each constraint over unassigned variables
    contrib = rows * ub[None, :]
    lo_suf = np.zeros((n_vars + 1, rows.shape[0]))
    hi_suf = np.zeros((n_vars + 1, rows.shape[0]))
    for v in range(n_vars - 1, -1, -1):
        c = contrib[:, v]
        lo_suf[v] = lo_suf[v + 1] + np.minimum(0.0, c)
        hi_suf[v] = hi_suf[v + 1] + np.maximum(0.0, c)

    solutions = []
    partial = np.zeros(rows.shape[0])
    assignment = [0] * n_vars
    nodes = 0

    def descend(v, partial):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                "entrywise search exceeded %d nodes" % node_budget
            )
        if v == n_vars:
            solutions.append(tuple(assignment))
            return
        lo_v, hi_v = (1, 1) if v == vacuum_var else (0, int(ub[v]))
        col = rows[:, v]
        for x in range(lo_v, hi_v + 1):
            p = partial + x * col
            if np.all(p + lo_suf[v + 1] <= margin) and np.all(
                p + hi_suf[v + 1] >= -margin
            ):
                assignment[v] = x
                descend(v + 1, p)
        assignment[v] = 0

    descend(0, partial)

    out = []
    tol = tolerance(dps)
    for vec in solutions:
        Z = _matrix(md.n, pairs, vec)
        if invariant_residuals(md, Z)["s_commutation"] <= tol:
            out.append(_invariant(md, Z))
    out.sort(key=lambda inv: inv.flat())
    return tuple(out)


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


def invariant_from_document(doc: dict) -> ModularInvariant:
    if doc.get("format") != INVARIANT_DOCUMENT_FORMAT:
        raise DocumentFormatError(
            "expected a %s document" % INVARIANT_DOCUMENT_FORMAT
        )
    return ModularInvariant(
        Z=tuple(tuple(int(x) for x in row) for row in doc["Z"]),
        exponents=tuple(int(x) for x in doc["exponents"]),
        tag=str(doc["tag"]),
    )
