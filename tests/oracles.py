"""Reference implementations that the tests check the package against.

Each one is the earlier, independent algorithm for a step the package
now runs another way, kept only here:

- rref_rows and nullspace: Gauss-Jordan on mpf at working precision
  (the package eliminates fixed-point Python ints);
- search: the commutant lattice walk on Fractions (the package scales
  the basis by its common denominator and walks on ints);
- entry_bounds: the Perron bound of each invariant entry as an mpf floor
  at guard precision (the package brackets it on the fixed-point ints);
- enumerate_bruteforce and invariant_residuals: an entrywise search over
  the Perron box that never touches the commutant basis, and the
  defining properties of a candidate invariant;
- s_constraint_rows: every S-constraint row as one dense matrix of
  fixed-point ints (the package builds only the rows it chooses, and
  certifies a basis vector by V S - S V from its nonzero entries);
- t_allowed_pairs_bruteforce: the T-allowed pairs by n^2 comparisons of
  the weight classes (the package groups the sectors by class);
- certify_norm: the characteristic-polynomial certificate of a nimrep
  generator's top eigenvalue (the package checks that the grown family
  closes);
- canonical_bruteforce: the canonical form of any small graph as the
  minimum over all relabelings (the package canonicalizes trees only);
- canonical_recursive: a tree's canonical form from nested-tuple
  encodings, built and rebuilt by recursion (the package codes each
  vertex as a flat list of ints during its leaf peel and rebuilds from
  an explicit stack);
- connected_by_squaring: connectivity as the closure of m boolean
  squarings, O(m^4) (the package walks breadth-first from one node);
- qseries_mul and qseries_div: q-series product and quotient over every
  index pair (the package visits only the nonzero terms of the left
  factor and of the divisor);
- s_matrix: the builders' S as mpf tuples, one mp.sinpi per unreduced
  argument (the package multiplies fixed-point ints from a reduced
  table of sines);
- mpf_s and fixed_of: a model's S as exact mpf, and mpf/mpc values
  rounded to fixed point (the package reads S only as its fixed-point
  ints, and rounds nothing back from mpf);
- psi_columns: the psi-matrix from each spectral projector summed entry
  by entry in mpf with mp.fsum (the package contracts the fixed-point S
  with the whole family at once and normalises by integer square roots).

It also holds the graph builders the tests draw generators from (the
package builds every table graph as a spider), the series helpers only
the tests read (euler_product, truncated), and with_s, a model with its
S replaced.
"""

import dataclasses
import functools
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
from mpmath import mp, mpf, workdps, workprec

from bcft.characters import QSeries, eta_series
from bcft.errors import SearchBudgetExceeded, SeriesDivisionError
from bcft.hp import GUARD_DIGITS, Fixed, fixed_bits, from_fixed, to_fixed, tolerance
from bcft.invariants import (
    DEFAULT_NODE_BUDGET,
    _invariant,
    _matrix,
    perron_row,
    t_allowed_pairs,
)
from bcft.modular_data import ModularData, minimal_sector_table, quantum_dims
from intpoly import charpoly, divmod_poly, psi, roots_above


def nullspace(rows, n_vars: int, dps: int):
    """Kernel basis of a real linear system at working precision.

    rows: iterable of coefficient sequences (mpf) over n_vars unknowns.
    Returns one basis vector per free column, with a unit entry there:
    reduced echelon form over the free variables, canonical for the subspace.
    """
    with workdps(dps + GUARD_DIGITS):
        a, pivots = rref_rows([r for r in rows if any(x != 0 for x in r)], dps)
        basis = []
        for fc in (c for c in range(n_vars) if c not in pivots):
            v = [mpf(0)] * n_vars
            v[fc] = mpf(1)
            for r, pc in enumerate(pivots):
                v[pc] = -a[r][fc]
            basis.append(v)
        return basis


def rref_rows(vectors, dps: int):
    """Reduced row echelon form of a list of row vectors (Gauss-Jordan
    with partial pivoting; entries below tolerance(dps) count as zero).

    Returns (nonzero rows, pivot_columns).
    """
    with workdps(dps + GUARD_DIGITS):
        thresh = tolerance(dps)
        a = [list(map(mpf, v)) for v in vectors]
        n_vars = len(a[0]) if a else 0
        pivots = []
        row = 0
        for col in range(n_vars):
            best, best_val = None, thresh
            for r in range(row, len(a)):
                v = abs(a[r][col])
                if v > best_val:
                    best, best_val = r, v
            if best is None:
                continue
            a[row], a[best] = a[best], a[row]
            pv = a[row][col]
            a[row] = [x / pv for x in a[row]]
            for r in range(len(a)):
                if r != row and abs(a[r][col]) > 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[row])]
            pivots.append(col)
            row += 1
            if row == len(a):
                break
        return a[:row], pivots


def entry_bounds(md: ModularData) -> tuple:
    """Finite integer bound for each entry of a physical invariant:
    floor(d_i d_j + eps) with a positive vacuum row, else
    floor(1/(S_ie S_je) + eps) over the positive S-column of the
    minimal-weight sector e of a minimal model, eps = tolerance(dps)."""
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
            raise ValueError("no entry bound available")
        e = perron_row(md)
        col = [mp.re(x[e]) for x in mpf_s(md)]
        if any(x <= 0 for x in col):
            raise ValueError("minimal-weight S-column is not positive")
        return tuple(
            tuple(int(mp.floor(1 / (col[i] * col[j]) + eps)) for j in range(md.n))
            for i in range(md.n)
        )


def search(pairs, basis, pivots, bounds_by_var, vacuum_var, node_budget):
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
    S = mpf_s(md)
    with workdps(dps + GUARD_DIGITS):
        worst = mpf(0)
        for a in range(n):
            for b in range(n):
                zs = mp.fsum(Z[a][j] * S[j][b] for j in range(n))
                sz = mp.fsum(S[a][i] * Z[i][b] for i in range(n))
                worst = max(worst, abs(zs - sz))
        bounds = entry_bounds(md)
        perron_ok = all(
            Z[i][j] <= bounds[i][j] for i in range(n) for j in range(n)
        )
        weight = mp.fsum(
            Z[i][j] * mp.re(S[0][i]) * mp.re(S[0][j])
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


def s_constraint_rows(md: ModularData, pairs) -> np.ndarray:
    """Every row of the linear system (ZS - SZ)_ab = 0 over the allowed
    entries, as one dense matrix on the fixed-point S (md.fixed): Python
    ints at scale 2^fixed_bits(precision).  Row a*n + b is the real part
    of equation (a, b); for complex S, row n^2 + a*n + b is its imaginary
    part."""
    S, n = md.fixed[0], md.n
    parts = np.array([S.re] if S.im is None else [S.re, S.im])
    part, ab = np.divmod(np.arange(parts.size), n * n)
    p, a, b = part[:, None], ab[:, None] // n, ab[:, None] % n
    i, j = np.array(pairs).T
    one = np.identity(n, dtype=int)
    return one[a, i] * parts[p, j, b] - parts[p, a, i] * one[j, b]


def t_allowed_pairs_bruteforce(md: ModularData) -> tuple:
    """The T-allowed positions by n^2 comparisons of the classes h mod 1."""
    cls = [h % 1 for h in md.h]
    return tuple((i, j) for i in range(md.n) for j in range(md.n) if cls[i] == cls[j])


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

    rows = (s_constraint_rows(md, pairs) / (1 << md.fixed[0].bits)).astype(float)
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


def path_graph(m: int) -> tuple:
    """A_m: the path on m nodes, node i joined to i - 1 and i + 1."""
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


def canonical_bruteforce(G) -> tuple:
    """Canonical adjacency matrix of any graph: the lexicographic minimum
    over all relabelings; the size must be at most 9."""
    a = np.array(G, dtype=object)
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


def canonical_recursive(G) -> tuple:
    """Canonical adjacency matrix of a loop-marked tree: the rooted-tree
    encoding (mark, sorted child encodings) at the tree center as nested
    tuples, rebuilt in preorder, both by recursion.  Raises ValueError for
    a non-tree, and RecursionError on a tree of radius near 500."""
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


def connected_by_squaring(a: np.ndarray) -> np.ndarray:
    """Whether the graph of each non-negative m x m matrix in a (one, or a
    stack of them) is connected: m squarings of the boolean reachability
    matrix reach every path."""
    m = a.shape[-1]
    reach = np.eye(m, dtype=bool) | (a > 0)
    for _ in range(m):
        reach = reach | (reach @ reach)
    return reach.all(axis=(-2, -1))


def certify_norm(c: np.ndarray, k: int) -> bool:
    """Exact check that the top eigenvalue of c is t = 2cos(pi/h), h = k + 2.

    t is the largest root of psi = psi_(2h), so psi | charpoly(c) puts t in
    the spectrum, and the rest must lie below it: q, the characteristic
    polynomial with every psi factor divided out, may have no root above
    L = 2 - (22/7)^2/h^2 < t (cos x > 1 - x^2/2).  L is not an integer, so
    not a root of the monic q.  Graphs of norm below 2 have the eigenvalues
    2cos(pi m/h') (Smith 1970); with h' = h, those of q have m >= 2 and lie
    at or below 2cos(2 pi/h) <= L, so no such graph is refused.
    """
    h = k + 2
    root = psi(2 * h)
    q, divisions = charpoly(c), 0
    while True:
        quot, r = divmod_poly(q, root)
        if r:
            break
        q, divisions = quot, divisions + 1
    return divisions > 0 and roots_above(q, 2 - Fraction(22, 7) ** 2 / h**2) == 0


def qseries_mul(self: QSeries, other: QSeries) -> QSeries:
    g = math.lcm(self.grid, other.grid)
    a, b = self.regrid(g), other.regrid(g)
    la, lb = len(a.coeffs), len(b.coeffs)
    length = min(la, lb)
    out = [0] * length
    for i, ci in enumerate(a.coeffs):
        if ci == 0 or i >= length:
            continue
        for j in range(min(lb, length - i)):
            cj = b.coeffs[j]
            if cj:
                out[i + j] += ci * cj
    return QSeries(a.offset + b.offset, g, tuple(out))


def qseries_div(self: QSeries, other: QSeries) -> QSeries:
    g = math.lcm(self.grid, other.grid)
    a, b = self.regrid(g), other.regrid(g)
    if not b.coeffs or b.coeffs[0] not in (1, -1):
        raise SeriesDivisionError("divisor must have unit leading coefficient")
    length = min(len(a.coeffs), len(b.coeffs))
    lead = b.coeffs[0]
    out = [0] * length
    for j in range(length):
        acc = a.coeffs[j]
        for i in range(j):
            bi = b.coeffs[j - i]
            if bi and out[i]:
                acc -= out[i] * bi
        out[j] = acc * lead
    return QSeries(a.offset - b.offset, g, tuple(out))


def _sinpi_over(den: int):
    """num -> sin(pi num/den) at the current precision, one mp.sinpi per
    distinct integer num; the argument is not reduced mod 2."""
    return functools.lru_cache(maxsize=None)(lambda num: mp.sinpi(mpf(num) / den))


def s_matrix(family: str, params: tuple, precision: int) -> tuple:
    """S of build_su2 (params (k,)) or build_minimal (params (p, p')) as
    mpf tuples at precision + GUARD_DIGITS digits, in the builders' sector
    order."""
    with workdps(precision + GUARD_DIGITS):
        if family == "su2":
            (k,) = params
            N = k + 2
            norm, sin = mp.sqrt(mpf(2) / N), _sinpi_over(N)
            return tuple(tuple(norm * sin((a + 1) * (b + 1)) for b in range(k + 1))
                         for a in range(k + 1))
        p, pp = params
        table = minimal_sector_table(p, pp)
        norm = 2 * mp.sqrt(mpf(2) / (p * pp))
        sin_r, sin_s = _sinpi_over(pp), _sinpi_over(p)
        return tuple(
            tuple(norm * (-1 if (1 + s * rho + r * sigma) % 2 else 1)
                  * sin_r(p * r * rho) * sin_s(pp * s * sigma)
                  for (rho, sigma), _ in table)
            for (r, s), _ in table)


def mpf_s(md: ModularData) -> tuple:
    """S as exact mpf, x / 2^B, at any working precision; an entry with an
    imaginary part is an mpc."""
    bits, (re, im) = fixed_bits(md.precision), md.S_fixed
    return tuple(tuple(from_fixed(x, bits, y) for x, y in zip(rx, ry))
                 for rx, ry in zip(re, im or [[0] * md.n] * md.n))


def fixed_of(values, bits: int) -> Fixed:
    """Each entry of a nested sequence of mpf/mpc, rounded to 2^-bits."""
    vals = np.array(values, dtype=object)
    re = np.frompyfunc(lambda v: to_fixed(mp.mpmathify(v).real, bits), 1, 1)(vals)
    im = np.frompyfunc(lambda v: to_fixed(mp.mpmathify(v).imag, bits), 1, 1)(vals)
    return Fixed(re, im if im.any() else None, bits)


def psi_columns(nr, exps, md: ModularData) -> list:
    """Column lambda of psi for each exponent: column b of P_lambda =
    S_0 lambda sum_rho conj(S_rho lambda) n^rho at its largest diagonal
    entry, over sqrt(P_bb), its first entry above tolerance made real
    positive; mpf/mpc at dps + GUARD_DIGITS."""
    S, dps, m = mpf_s(md), md.precision, nr.size
    nmats = nr.nmats.tolist()
    with workdps(dps + GUARD_DIGITS):
        tol, cols = tolerance(dps), []
        for lam in exps:
            coef = [S[0][lam] * mp.conj(S[rho][lam]) for rho in range(md.n)]

            def entry(a, b):
                return mp.fsum(c * mat[a][b] for c, mat in zip(coef, nmats) if mat[a][b])

            diag = [mp.re(entry(a, a)) for a in range(m)]
            b = max(range(m), key=diag.__getitem__)
            norm = mp.sqrt(diag[b])
            col = [entry(a, b) / norm for a in range(m)]
            lead = next((x for x in col if abs(x) > tol), max(col, key=abs))
            cols.append([x * (abs(lead) / lead) for x in col])
        return cols


def vacuum_row_real(md: ModularData) -> list:
    """The real parts of the mpf vacuum row S_0."""
    return [mp.mpmathify(x).real for x in mpf_s(md)[0]]


def t_row(md: ModularData) -> list:
    """exp(2 pi i (h - c/24)) 2^B of every sector as an mpc at 2B bits,
    B = fixed_bits(precision), from the mpf of h - c/24 reduced mod 1."""
    bits = fixed_bits(md.precision)
    with workprec(2 * bits):
        return [mp.expjpi(2 * mpf(x.numerator) / x.denominator) * (1 << bits)
                for x in ((h - md.c / 24) % 1 for h in md.h)]


def with_s(md: ModularData, rows) -> ModularData:
    """md with its S replaced by the mpf/mpc rows, rounded to the model's
    fixed point; nothing is validated."""
    F = fixed_of(rows, fixed_bits(md.precision))
    parts = (None if part is None else tuple(map(tuple, part.tolist())) for part in (F.re, F.im))
    return dataclasses.replace(md, S_fixed=tuple(parts))


def euler_product(order: int) -> QSeries:
    """prod_{n>=1} (1 - q^n): eta without its q^(1/24)."""
    return QSeries(Fraction(0), 1, eta_series(order).coeffs)


def truncated(series: QSeries, length: int) -> QSeries:
    """series known through its first length terms only."""
    return QSeries(series.offset, series.grid, series.coeffs[:length])
