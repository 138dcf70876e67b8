"""High-precision numeric helpers built on mpmath.

Precision is given in decimal digits everywhere.  Matrices are plain
tuples of tuples of mpf/mpc so domain objects stay hashable and
immutable; mpmath matrix objects are only created transiently.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf, mpc, workdps

from .errors import RationalizationFailure

GUARD_DIGITS = 10


def mpf_from_fraction(x: Fraction, dps: int):
    with workdps(dps + GUARD_DIGITS):
        return mpf(x.numerator) / x.denominator


def phase_from_fraction(x: Fraction, dps: int):
    """exp(2 pi i x) for exact rational x."""
    with workdps(dps + GUARD_DIGITS):
        return mp.expjpi(2 * mpf_from_fraction(x, dps))


def to_fraction(x) -> Fraction:
    """Exact rational value of an mpf."""
    sign, man, exp, _ = mp.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man, 1) * Fraction(2) ** exp
    return -v if sign else v


def rationalize(x, max_denominator: int = 10**6, tol=Fraction(1, 10**20)) -> Fraction:
    """Nearest small-denominator rational, or RationalizationFailure.

    The fit must reproduce x within tol (an exact rational bound).
    """
    exact = to_fraction(x)
    fit = exact.limit_denominator(max_denominator)
    if abs(fit - exact) > tol:
        raise RationalizationFailure(
            "no rational with denominator <= %d within %s of %s"
            % (max_denominator, tol, mp.nstr(mp.mpf(x), 25))
        )
    return fit


def num_str(x, dps: int) -> str:
    """Deterministic decimal rendering at the given precision."""
    with workdps(dps + GUARD_DIGITS):
        v = mp.mpf(x) if (isinstance(x, (int, float)) or getattr(x, "imag", 0) == 0) else mp.mpc(x)
        if isinstance(v, mpc) or (hasattr(v, "imag") and v.imag != 0):
            return "%s%s%si" % (
                mp.nstr(v.real, dps, strip_zeros=False),
                "+" if v.imag >= 0 else "-",
                mp.nstr(abs(v.imag), dps, strip_zeros=False),
            )
        return mp.nstr(v, dps, strip_zeros=False)


def parse_number(s: str, dps: int):
    """Inverse of num_str; also accepts exact 'p/q' rationals."""
    s = s.strip()
    with workdps(dps + GUARD_DIGITS):
        if "/" in s:
            f = Fraction(s)
            return mpf(f.numerator) / f.denominator
        if s.endswith("i"):
            body = s[:-1]
            for k in range(1, len(body)):
                if body[k] in "+-" and body[k - 1] not in "eE":
                    return mpc(mp.mpf(body[:k]), mp.mpf(body[k:]))
            return mpc(0, mp.mpf(body))
        return mp.mpf(s)


def tolerance(dps: int):
    """The precision-tied threshold 10^-(dps//2), computed at guard
    precision: residuals below it count as zero at dps digits."""
    with workdps(dps + GUARD_DIGITS):
        return mpf(10) ** (-(dps // 2))


# ---------------------------------------------------------------------------
# small dense linear algebra on tuple matrices


def matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    return tuple(tuple(mp.fdot(a[i], bt[j]) for j in range(p)) for i in range(n))


def conj_transpose(a):
    return tuple(tuple(mp.conj(a[j][i]) for j in range(len(a))) for i in range(len(a[0])))


def max_abs_diff(a, b):
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


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


def eig_symmetric(rows, dps: int):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real
    symmetric matrix given as nested sequences."""
    with workdps(dps + GUARD_DIGITS):
        n = len(rows)
        a = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                a[i, j] = mpf(rows[i][j])
        e, q = mp.eigsy(a)
        vals = [e[i] for i in range(n)]
        vecs = [[q[i, j] for i in range(n)] for j in range(n)]
        order = sorted(range(n), key=lambda i: vals[i])
        return [vals[i] for i in order], [vecs[i] for i in order]


def eig_general(rows, dps: int):
    """Eigenvalues of a general square matrix (complex list)."""
    with workdps(dps + GUARD_DIGITS):
        n = len(rows)
        a = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                a[i, j] = mp.mpmathify(rows[i][j])
        e = mp.eig(a, left=False, right=False)
        return list(e)


def kahan_sum(terms):
    """Compensated summation of an iterable of mpf/mpc terms."""
    s = mpf(0)
    c = mpf(0)
    for t in terms:
        y = t - c
        u = s + y
        c = (u - s) - y
        s = u
    return s
