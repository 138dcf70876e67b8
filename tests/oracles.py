"""Reference implementations that the tests check the package against.

Each one is the earlier, independent algorithm for a step the package
now runs another way, kept only here:

- rref_rows and nullspace: Gauss-Jordan on mpf at working precision
  (the package eliminates fixed-point Python ints);
- search: the commutant lattice walk on Fractions (the package scales
  the basis by its common denominator and walks on ints).
"""

from fractions import Fraction

from mpmath import mpf, workdps

from bcft.errors import SearchBudgetExceeded
from bcft.hp import GUARD_DIGITS, tolerance


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
