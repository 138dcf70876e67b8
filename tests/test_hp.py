"""Fixed-point Gauss-Jordan elimination, the precision-tied tolerance,
fixed-point products and decimal rendering."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import from_man_exp

from bcft.errors import RationalizationFailure
from bcft.hp import (
    Fixed,
    exact_tolerance,
    fixed_bits,
    from_fixed,
    num_str,
    nullspace,
    parse_fixed,
    rationalize,
    rref_rows,
    to_fixed,
    to_fraction,
    tolerance,
)
from oracles import fixed_of

DPS = 30
BITS = fixed_bits(DPS)
ONE = 1 << BITS


def _fixed(rows):
    """Rows of mpf (or ints) as Python ints scaled by 2^BITS."""
    return [[to_fixed(mpf(x), BITS) for x in r] for r in rows]


def test_tolerance_is_half_the_digits_at_guard_precision():
    with workdps(60):
        assert tolerance(50) == mpf(10) ** -25
    with workdps(17):
        assert tolerance(7) == mpf(10) ** -3


@pytest.mark.parametrize("dps", [1, 7, 30, 50, 301])
def test_exact_tolerance_is_the_exact_value_of_the_mpf(dps):
    eps = exact_tolerance(dps)
    assert type(eps) is Fraction and eps == to_fraction(tolerance(dps))
    # every bit of the mpf, read back at a precision wide enough for the
    # fraction, and so within the guard precision of the decimal value
    with workdps(3 * dps + 50):
        assert mpf(eps.numerator) / eps.denominator == tolerance(dps)
    assert abs(eps * 10 ** max(1, dps // 2) - 1) < Fraction(1, 10 ** (dps + 9))


def test_exact_tolerance_keeps_the_133_bits_of_tolerance_30():
    # outside a workdps the context has 53 bits; the mantissa is not re-rounded
    assert exact_tolerance(30) == Fraction(6129982163463555433433388108601236734475, 2**182)


def test_rationalize_accepts_a_fit_within_the_precision_tolerance():
    with workdps(60):
        x = mpf(1) / 3 + mpf("1e-19")
        assert rationalize(to_fraction(x), 8) == Fraction(1, 3)
        with pytest.raises(RationalizationFailure, match="within 1.0e-25 of"):
            rationalize(to_fraction(x), 50)


def test_rank_deficient_kernel_annihilates_rows():
    # rank 2 in 4 unknowns; irrational entries so nothing is exact
    with workdps(DPS + 10):
        r2 = mp.sqrt(2)
        rows = _fixed([[1, r2, 3, 0], [2, 2 * r2, 6, 0], [0, 1, +mp.pi, 1]])
    _, pivots = rref_rows(rows, DPS)
    free = [c for c in range(4) if c not in pivots]
    basis = nullspace(rows, 4, DPS)
    assert pivots == [0, 1]
    assert len(basis) == len(free) == 2
    for fc, v in zip(free, basis):
        assert v[fc] == ONE
        assert all(v[c] == 0 for c in free if c != fc)
        for r in rows:
            residual = Fraction(sum(a * x for a, x in zip(r, v)), ONE * ONE)
            assert abs(residual) < to_fraction(tolerance(DPS))


def test_all_zero_rows_give_the_identity_basis():
    basis = nullspace([[0, 0, 0], [0, 0, 0]], 3, DPS)
    assert basis == [[ONE, 0, 0], [0, ONE, 0], [0, 0, ONE]]
    assert nullspace([], 2, DPS) == [[ONE, 0], [0, ONE]]


def test_full_rank_system_has_empty_kernel():
    with workdps(DPS + 10):
        rows = _fixed([[2, 1, 0], [1, 3, 1], [0, 1, +mp.e]])
    assert nullspace(rows, 3, DPS) == []


@pytest.mark.parametrize(
    "vectors, pivots, reduced",
    [
        ([[0, 1, 2], [0, 2, 5]], [1, 2], [[0, 1, 0], [0, 0, 1]]),
        ([[1, 2, 3], [2, 4, 6]], [0], [[1, 2, 3]]),
        ([[0, 0, 4], [3, 0, 0]], [0, 2], [[1, 0, 0], [0, 0, 1]]),
        ([], [], []),
    ],
)
def test_rref_rows_pivot_columns(vectors, pivots, reduced):
    rows, got = rref_rows(_fixed(vectors), DPS)
    assert got == pivots
    assert rows == _fixed(reduced)


def test_entries_below_tolerance_count_as_zero():
    with workdps(DPS + 10):
        tiny = to_fixed(mpf(10) ** -(DPS // 2 + 5), BITS)
    assert 0 < tiny < to_fraction(tolerance(DPS)) * ONE
    _, pivots = rref_rows([[tiny, ONE], [0, 0]], DPS)
    assert pivots == [1]
    assert nullspace([[tiny, ONE]], 2, DPS) == [[ONE, -tiny]]


def test_to_fixed_rounds_exactly_from_the_mantissa():
    assert to_fixed(mpf(0.75), 1) == 2
    assert to_fixed(mpf(-0.75), 1) == -2
    assert to_fixed(mpf(0.7), 1) == 1
    assert to_fixed(mpf(3), 4) == 48
    with workdps(60):
        third = mpf(1) / 3
        assert abs(to_fixed(third, 200) - third * 2**200) <= mpf(1) / 2
    # a shift of 10^12 bits (125 GB) would be built for these; both are 0 at once
    assert to_fixed(mp.ldexp(1, -10**12), 208) == 0
    assert to_fixed(-mp.ldexp(3, -10**12), 208) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**70), st.integers(-8, 8), st.booleans(), st.sampled_from([1, 10, 208]))
def test_to_fixed_rounds_exactly_on_both_sides_of_the_zero_cut(man, past, negative, bits):
    """round(x 2^bits), halves away from zero, where the right shift is
    man.bit_length() - past bits: the cut to 0 applies from past < -1."""
    exp = -bits - man.bit_length() + past
    x = mp.make_mpf(from_man_exp(-man if negative else man, exp))
    want = math.floor(Fraction(man) * Fraction(2) ** (exp + bits) + Fraction(1, 2))
    assert to_fixed(x, bits) == (-want if negative else want)


def test_fixed_complex_product_matches_mpmath():
    bits = fixed_bits(DPS)
    with workdps(DPS + 10):
        a = [[mpc(1, 2) / 3, mp.sqrt(2)], [mp.pi, mpc(-1, mp.e)]]
        b = [[mp.sqrt(3), mpc(0, 1) / 7], [mpc(2, -1), mp.ln(2)]]
        prod = fixed_of(a, bits).dot(fixed_of(b, bits)).rescale(bits)
        want = mp.matrix(a) * mp.matrix(b)
        for i in range(2):
            for j in range(2):
                got = mpc(prod.re[i, j], prod.im[i, j]) / mpf(2) ** bits
                assert abs(got - want[i, j]) < mpf(2) ** (-bits + 4)
        real = fixed_of([[mp.sqrt(2), 1]], bits)
        assert real.im is None
        assert (real - real).max_abs() == 0


@st.composite
def _symmetric_ints(draw):
    """A real symmetric n x n matrix of ints up to 2^(BITS+2), n in 1..12."""
    n = draw(st.integers(1, 12))
    upper = iter(draw(st.lists(st.integers(-4 * ONE, 4 * ONE),
                               min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(upper)
    return rows


@settings(max_examples=60, deadline=None)
@given(_symmetric_ints(), st.booleans(), st.data())
def test_gram_is_one_exact_triangle_of_the_rounded_product(rows, complex_w, data):
    n = len(rows)
    S = Fixed.exact(rows, None, BITS)
    G = S.gram()
    assert G.bits == 2 * BITS and G.im is None
    assert G.re.tolist() == S.dot(S).re.tolist()
    weights = st.lists(st.integers(-4 * ONE, 4 * ONE), min_size=n, max_size=n)
    parts = [data.draw(weights) for _ in range(1 + complex_w)]
    w = Fixed.exact(*parts + [None] * (2 - len(parts)), BITS)
    G = S.gram(w)
    assert G.bits == 2 * BITS and (G.im is None) == (not complex_w)
    # entry (i, j) = sum_k A_ik floor(w_k A_jk / 2^BITS) for i <= j, mirrored
    for p, got in zip(parts, (G.re, G.im)):
        assert got.tolist() == [[sum(rows[min(i, j)][k] * (p[k] * rows[max(i, j)][k] // ONE)
                                     for k in range(n)) for j in range(n)] for i in range(n)]
    # on and above the diagonal, the general product with the weighted
    # factor floored first, as validate formed S T S before
    row = Fixed.exact([parts[0]], [parts[1]] if complex_w else None, BITS)
    D = S.dot((S * row.T).rescale(BITS))
    for got, want in [(G.re, D.re), (G.im, D.im)][:1 + complex_w]:
        assert all(got[i, j] == want[i, j] for i in range(n) for j in range(i, n))


def test_num_str_renders_a_zero_imaginary_part_as_real():
    with workdps(60):
        x = mp.sqrt(2)
        assert num_str(mpc(x, 0), 20) == num_str(x, 20) == "1.4142135623730950488"
        assert num_str(complex(0.5, 0), 5) == "0.50000"
        assert num_str(mpc(x, -x), 5) == "1.4142-1.4142i"


def _num_str_through_nstr(x, dps: int) -> str:
    """The rendering num_str reproduces: each part made an mpf or mpc inside
    workdps(dps + GUARD_DIGITS), then printed by mp.nstr."""
    with workdps(dps + 10):
        v = mp.mpmathify(x)
        if v.imag == 0:
            return mp.nstr(mp.mpf(v.real), dps, strip_zeros=False)
        v = mp.mpc(v)
        return "%s%s%si" % (
            mp.nstr(v.real, dps, strip_zeros=False),
            "+" if v.imag >= 0 else "-",
            mp.nstr(abs(v.imag), dps, strip_zeros=False),
        )


def _num_str_inputs(dps: int) -> list:
    with workdps(dps + 10):  # the working precision
        working = [+mp.pi, -mp.sqrt(2), mpf(2) / 3, mpf("1e-70"), mpf(0)]
    with workdps(3 * (dps + 10)):  # carried at three times the digits: rounded twice
        wide = [+mp.pi, -mp.e / 7, mpf(1) / 3, mpf(10) ** 40 / 7, mpf("-1e-70") / 3]
        complexes = [mpc(mp.pi, 0), mpc(-mp.e, mp.pi / 3), mpc(1, -mpf(1) / 3), mpc(0, -mp.pi),
                     mpc(mpf(1) / 7, mpf("1e-70"))]
    return working + wide + complexes + [
        0, 7, -12345678901234567890123, 10**80, 0.1, -2.5e-300, 1e-70, 1.5,
        complex(0.5, 0), complex(0.1, -0.2)]


@pytest.mark.parametrize("dps", [1, 5, 15, 50])
def test_num_str_renders_as_nstr_did_inside_workdps(dps):
    for x in _num_str_inputs(dps):
        with workdps(7):  # num_str sets no context, so the caller's is not read
            got = num_str(x, dps)
        assert got == _num_str_through_nstr(x, dps), (x, dps)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
              st.integers(-2**400, 2**400), st.integers(-800, 200)),
    st.floats(), st.complex_numbers(), st.integers(-10**90, 10**90)),
    st.integers(1, 60))
def test_num_str_renders_any_part_as_nstr_did(x, dps):
    assert num_str(x, dps) == _num_str_through_nstr(x, dps)


def test_parse_fixed_rounds_the_exact_value_of_the_text():
    assert parse_fixed("0.75", 1) == (2, 0)
    assert parse_fixed(" -0.7 ", 1) == (-1, 0)
    assert parse_fixed("1e-3", 20) == (round(Fraction(1, 1000) * 2**20), 0)
    assert parse_fixed("1/3", 200) == (round(Fraction(1, 3) * 2**200), 0)
    assert parse_fixed("0.5-0.25i", 4) == (8, -4)
    assert parse_fixed("-2i", 2) == (0, -8)
    assert parse_fixed("1.5e-2+2.5E-1i", 3) == (0, 2)
    assert parse_fixed("0.2E+1", 3) == parse_fixed("2", 3) == (16, 0)
    with workdps(60):
        text = num_str(mpf(1) / 3, 50)
    # every decimal of the text counts, at any number of bits
    assert parse_fixed(text, 400) == (round(Fraction(text) * 2**400), 0)
    for bad in ("x", "nan", "inf", "1/0", "i", "1+"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_fixed(bad, 10)


def test_parse_fixed_refuses_a_part_above_two_before_building_its_power_of_ten():
    """No entry of a unitary S exceeds 1 in modulus.  The first three
    would each take seconds if 10^(10^7) were built first."""
    for text in ("1e10000000", "-1e10000000", "0+1e10000000i", "2.0000001", "-3", "1-2.5i",
                 "0.21e1"):
        with pytest.raises(ValueError, match="above 2 in modulus"):
            parse_fixed(text, 10)


def test_parse_fixed_reads_a_part_below_half_a_unit_as_zero():
    bits = fixed_bits(50)
    assert parse_fixed("1e-10000000", bits) == (0, 0)
    assert parse_fixed("-1e-10000000-1e-10000000i", bits) == (0, 0)
    assert parse_fixed("0e10000000", bits) == (0, 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "-", "+"]), st.integers(0, 999),
       st.text("0123456789", min_size=1, max_size=6), st.integers(-80, 8),
       st.sampled_from([1, 10, 64, 200]))
def test_parse_fixed_weighs_the_exponent_exactly(sign, whole, decimals, exponent, bits):
    """The exponent test decides only what the exact value would."""
    text = "%s%d.%se%d" % (sign, whole, decimals, exponent)
    value = Fraction(text)
    if abs(value) > 2:
        with pytest.raises(ValueError):
            parse_fixed(text, bits)
    else:
        assert parse_fixed(text, bits) == (round(value * 2**bits), 0)


def test_num_str_of_from_fixed_inverts_parse_fixed():
    for text in ("0.12345678901234567890", "-0.5000000000+0.2500000000i"):
        x, y = parse_fixed(text, fixed_bits(20))
        assert num_str(from_fixed(x, fixed_bits(20), y), 20 if "i" not in text else 10) == text
