"""Exact q-series: frozen heads, product identities, S-transform."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps
from mpmath.libmp import dps_to_prec

import oracles
from bcft.characters import (
    QSeries,
    _Evaluated,
    _s_residual,
    characters_for,
    eta_series,
    linear_combination,
    qseries_one,
    s_transform_residual,
    theta_prime_series,
    truncation_tail,
)
from bcft.errors import CheckFailure, SeriesDivisionError
from bcft.hp import GUARD_DIGITS, fixed_bits, from_fixed
from bcft.modular_data import load_model, model_to_document
from conftest import all_coprime_pairs, minimal, su2

# ---------------------------------------------------------------------------
# frozen leading coefficients (checked against the product formulas below)


def char_su2(k, a, order):
    """Sector a of the level-k table, as the program builds it."""
    md = su2(k)
    return characters_for(md, order)[md.sector_named(str(a))]


def char_minimal(p, pp, r, s, order):
    """Kac label (r, s) of the (p, p') table, as the program builds it."""
    md = minimal(p, pp)
    return characters_for(md, order)[md.sector_named("%d,%d" % (r, s))]


FROZEN_HEADS = [
    # (series, offset, first ten coefficients)
    (lambda: char_minimal(4, 3, 1, 1, 60), Fraction(-1, 48), (1, 0, 1, 1, 2, 2, 3, 3, 5, 5)),
    (lambda: char_minimal(4, 3, 1, 2, 60), Fraction(1, 24), (1, 1, 1, 2, 2, 3, 4, 5, 6, 8)),
    (lambda: char_minimal(4, 3, 1, 3, 60), Fraction(23, 48), (1, 1, 1, 1, 2, 2, 3, 4, 5, 6)),
    (lambda: char_su2(1, 0, 60), Fraction(-1, 24), (1, 3, 4, 7, 13, 19, 29, 43, 62, 90)),
    (lambda: char_su2(1, 1, 60), Fraction(5, 24), (2, 2, 6, 8, 14, 20, 34, 46, 70, 96)),
    (lambda: char_su2(2, 1, 60), Fraction(1, 8), (2, 6, 12, 26, 48, 84, 146, 240, 384, 604)),
    (lambda: char_minimal(5, 2, 1, 1, 60), Fraction(11, 60), (1, 0, 1, 1, 1, 1, 2, 2, 3, 3)),
    (lambda: char_minimal(5, 2, 1, 2, 60), Fraction(-1, 60), (1, 1, 1, 1, 2, 2, 3, 3, 4, 5)),
]


@pytest.mark.parametrize("case", FROZEN_HEADS, ids=range(len(FROZEN_HEADS)))
def test_frozen_character_heads(case):
    build, offset, head = case
    chi = build()
    assert chi.offset == offset
    assert chi.grid == 1
    assert chi.coeffs[: len(head)] == head


def test_su2_leading_coefficient_is_ground_multiplet_dimension():
    for k, a in [(1, 0), (1, 1), (3, 2), (8, 5), (10, 10)]:
        expo, lead = char_su2(k, a, 40).leading()
        assert lead == a + 1
        assert expo == Fraction(a * (a + 2), 4 * (k + 2)) - Fraction(
            3 * k, 24 * (k + 2)
        )


@pytest.mark.parametrize("md, field, shift, sector", [
    (su2(3), "h", (0, 0, 1, 0), "2"),
    (minimal(4, 3), "c", 24, "1,1"),
], ids=["su2-h", "minimal-c"])
def test_a_character_off_the_models_own_weight_raises(md, field, shift, sector):
    """Each leading term is checked against the model's own h - c/24, with
    an exception that python -O keeps: a weight moved by 1 fails at its
    sector, and c moved by 24, which moves every weight, at the vacuum."""
    moved = md.c + shift if field == "c" else tuple(x + y for x, y in zip(md.h, shift))
    with pytest.raises(CheckFailure, match=r"^character of sector %s leads with .* at h - c/24$"
                       % sector):
        characters_for(dataclasses.replace(md, **{field: moved}))


# ---------------------------------------------------------------------------
# product-formula oracles

ORDER = 100


def geometric_restricted(order: int, keep) -> QSeries:
    """prod over n >= 1 with keep(n) of 1/(1 - q^n)."""
    one = qseries_one(order)
    out = one
    for n in range(1, order + 1):
        if not keep(n):
            continue
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[n] = -1
        out = out / QSeries(Fraction(0), 1, tuple(factor))
    return out


def test_ising_sigma_is_distinct_parts_product():
    # chi_sigma = q^(1/24) prod (1 + q^n)
    chi = char_minimal(4, 3, 1, 2, ORDER)
    prod = QSeries(Fraction(1, 24), 1, (1,) + (0,) * ORDER)
    for n in range(1, ORDER + 1):
        factor = [0] * (ORDER + 1)
        factor[0] = 1
        factor[n] = 1
        prod = prod * QSeries(Fraction(0), 1, tuple(factor))
    assert prod.offset == chi.offset
    assert prod.coeffs[: ORDER - 5] == chi.coeffs[: ORDER - 5]


def test_ising_free_fermion_sum_is_half_integer_product():
    # chi_0 + chi_eps = q^(-1/48) prod (1 + q^(n - 1/2))
    total = linear_combination(((1, char_minimal(4, 3, 1, 1, ORDER)),
                                (1, char_minimal(4, 3, 1, 3, ORDER))))
    L = 2 * ORDER - 10
    prod = QSeries(Fraction(-1, 48), 2, (1,) + (0,) * L)
    for n in range(1, ORDER + 1):
        j = 2 * n - 1
        if j > L:
            break
        factor = [0] * (L + 1)
        factor[0] = 1
        factor[j] = 1
        prod = prod * QSeries(Fraction(0), 2, tuple(factor))
    assert total.offset == prod.offset and total.grid == prod.grid == 2
    m = min(len(total.coeffs), len(prod.coeffs)) - 4
    assert total.coeffs[:m] == prod.coeffs[:m]


def test_lee_yang_rogers_ramanujan_products():
    # vacuum: prod 1/(1-q^n) over n = +-2 mod 5; other: n = +-1 mod 5
    vac = char_minimal(5, 2, 1, 1, ORDER)
    oth = char_minimal(5, 2, 1, 2, ORDER)
    p23 = geometric_restricted(ORDER, lambda n: n % 5 in (2, 3))
    p14 = geometric_restricted(ORDER, lambda n: n % 5 in (1, 4))
    assert vac.coeffs[: ORDER - 5] == p23.coeffs[: ORDER - 5]
    assert oth.coeffs[: ORDER - 5] == p14.coeffs[: ORDER - 5]


def test_eta_cube_identity():
    # sum (1+4n) q^((1+4n)^2/8) = eta^3, exactly, through order 200
    theta = theta_prime_series(1, 2, 200)
    eta = eta_series(200)
    cube = eta * eta * eta
    assert cube == theta


def test_large_level_vacuum_counts_three_colored_partitions():
    # chi_0 at level k matches prod (1-q^n)^(-3) through order k and
    # first deviates at order k+1
    e = oracles.euler_product(40)
    p3 = qseries_one(40) / (e * e * e)
    for k in [6, 10]:
        chi = char_su2(k, 0, 40)
        assert chi.coeffs[: k + 1] == p3.coeffs[: k + 1]
        assert chi.coeffs[k + 1] != p3.coeffs[k + 1]


# ---------------------------------------------------------------------------
# characters against the direct quotient numerator / denominator


def lattice_series(offset: Fraction, terms, order: int) -> QSeries:
    """sum of c q^e over (e, c) in terms, on the integer grid above offset."""
    coeffs = [0] * (order + 1)
    for expo, c in terms:
        j = expo - offset
        assert j.denominator == 1
        if 0 <= j <= order:
            coeffs[int(j)] += c
    return QSeries(offset, 1, tuple(coeffs))


def lattice(order: int):
    """Every n whose term can fall below order: each exponent above the
    n = 0 term grows like n^2."""
    reach = math.isqrt(order) + 2
    return range(-reach, reach + 1)


def su2_quotient(k: int, a: int, order: int) -> QSeries:
    """Weyl-Kac: theta'_{a+1,k+2} / theta'_{1,2}, where theta'_{m,N} is
    sum_n (m + 2Nn) q^((m + 2Nn)^2 / 4N)."""

    def theta(m, N):
        terms = [(Fraction((m + 2 * N * n) ** 2, 4 * N), m + 2 * N * n) for n in lattice(order)]
        return lattice_series(Fraction(m * m, 4 * N), terms, order)

    return theta(a + 1, k + 2) / theta(1, 2)


def minimal_quotient(p: int, pp: int, r: int, s: int, order: int) -> QSeries:
    """Rocha-Caridi: sum_n [q^((2pp'n + A)^2/4pp') - q^((2pp'n + B)^2/4pp')]
    over eta = sum_n (-1)^n q^((6n - 1)^2 / 24)."""
    A, B, P = p * r - pp * s, p * r + pp * s, 4 * p * pp
    ns = lattice(order)
    num = lattice_series(
        Fraction(A * A, P),
        [(Fraction((2 * p * pp * n + A) ** 2, P), 1) for n in ns]
        + [(Fraction((2 * p * pp * n + B) ** 2, P), -1) for n in ns],
        order,
    )
    eta = lattice_series(
        Fraction(1, 24), [(Fraction((6 * n - 1) ** 2, 24), -1 if n % 2 else 1) for n in ns], order
    )
    quotient = num / eta
    assert all(type(c) is int for c in eta.coeffs + quotient.coeffs)
    return quotient


def quotient_table(md, order: int) -> tuple:
    if md.family == "su2":
        return tuple(su2_quotient(md.params[0], a, order) for a in range(md.n))
    return tuple(minimal_quotient(*md.params, *map(int, sec.name.split(",")), order)
                 for sec in md.sectors)


MODELS = [("su2", (k,)) for k in range(1, 31)] + [("minimal", pq) for pq in all_coprime_pairs(12)]


def _model(family, params):
    return su2(*params) if family == "su2" else minimal(*params)


@pytest.mark.parametrize("order", [0, 1, 30])
def test_characters_equal_the_direct_quotient(order):
    for family, params in MODELS:
        md = _model(family, params)
        assert characters_for(md, order) == quotient_table(md, order), (family, params)


@pytest.mark.parametrize("order", [0, 1, 100])
def test_every_character_coefficient_is_an_int(order):
    """Tuple equality does not tell 1.0 from 1; documents and the exact
    series arithmetic need Python ints."""
    series = [eta_series(order), oracles.euler_product(order)]
    series += [theta_prime_series(m, 5, order) for m in range(1, 10)]
    for family, params in MODELS:
        series += characters_for(_model(family, params), order)
    for f in series:
        assert all(type(c) is int for c in f.coeffs), f


@pytest.mark.parametrize("family, params", [("su2", (10,)), ("su2", (28,)), ("minimal", (5, 4))])
def test_characters_equal_the_direct_quotient_at_order_400(family, params):
    md = _model(family, params)
    chis = characters_for(md, 400)
    assert chis == quotient_table(md, 400)


@pytest.mark.parametrize("family, params", [("su2", (10,)), ("minimal", (7, 6))])
def test_one_series_division_per_character_table(family, params, monkeypatch):
    calls = []
    divide = QSeries.__truediv__

    def counting(self, other):
        calls.append(other.offset)
        return divide(self, other)

    monkeypatch.setattr(QSeries, "__truediv__", counting)
    md = _model(family, params)
    assert len(characters_for(md, 60)) == md.n > 1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# series arithmetic


def test_division_requires_unit_leading_coefficient():
    for lead in (2, 0):
        divisor = QSeries(Fraction(0), 1, (lead, 1, 1))
        for divide in (QSeries.__truediv__, oracles.qseries_div):
            with pytest.raises(SeriesDivisionError):
                divide(qseries_one(2), divisor)


def test_add_regrids_to_common_refinement():
    a = QSeries(Fraction(-1, 48), 1, (1, 2, 3))
    b = QSeries(Fraction(23, 48), 1, (5, 7, 11))
    s = linear_combination(((1, a), (1, b)))
    assert s.grid == 2
    assert s.offset == Fraction(-1, 48)
    # b sits half a step up: index shift 1 on the doubled grid
    assert s.coeffs == (1, 5, 2, 7, 3)


def test_evaluate_against_q_pochhammer():
    eta = eta_series(300)
    with workdps(60):
        q = mpf("0.3")
        want = q ** (mpf(1) / 24) * mp.qp(q)
        assert abs(eta.evaluate(q, 50) - want) < mpf("1e-45")


def _evaluation_cases():
    ising = characters_for(minimal(4, 3), 400)
    half_step = linear_combination(((1, ising[0]), (-2, ising[2])))
    assert half_step.grid == 2
    return (
        [("su2_k10_%d" % a, chi) for a, chi in enumerate(characters_for(su2(10), 400))]
        + [("minimal_5_4_%d" % r, chi) for r, chi in enumerate(characters_for(minimal(5, 4), 400))]
        + [("eta", eta_series(400)), ("grid_2", half_step)]
    )


EVALUATION_CASES = _evaluation_cases()


@pytest.mark.parametrize("case", EVALUATION_CASES, ids=[c[0] for c in EVALUATION_CASES])
def test_evaluate_against_a_150_digit_fsum(case):
    """The fixed-point Horner pass stays within 10^-(dps+5) relative of a
    150-digit sum of the terms, at q and q~ on both sides of beta = 2 pi,
    at beta = 0.5 (q above 1/2, so no term is cut; q~ ~ 1e-34) and at
    beta = 40 (q ~ 4e-18; q~ ~ 0.37, so the cut keeps most terms)."""
    series, dps = case[1], 50
    for beta in (0.9 * 2 * mp.pi, 2 * mp.pi, 1.1 * 2 * mp.pi, mpf("0.5"), mpf(40)):
        for nome in ("q", "q~"):
            with workdps(dps + 10):
                q = mp.exp(-beta) if nome == "q" else mp.exp(-4 * mp.pi ** 2 / beta)
                got = series.evaluate(q, dps)
            with workdps(150):
                step = q ** (mpf(1) / series.grid)
                powers = [q ** (mpf(series.offset.numerator) / series.offset.denominator)]
                for _ in series.coeffs[1:]:
                    powers.append(powers[-1] * step)
                want = mp.fsum(c * x for c, x in zip(series.coeffs, powers))
                assert abs(got - want) < abs(want) * mpf(10) ** -(dps + 5), (beta, nome)


small_series = st.builds(
    QSeries,
    st.just(Fraction(0)),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(small_series, st.floats(0, 1, exclude_min=True, exclude_max=True),
       st.sampled_from([5, 20, 50]))
def test_evaluate_stays_within_its_error_bound(series, q, dps):
    """|evaluate - sum| at most the docstring's bound: 2^-B sum_j x^j <=
    2^-B / (1 - x) for the floors, (2^-(B+1) + 2^-(P-1)) max |f'| for x,
    2^-(B+40) for the cut, and 2^-(P-1) |f| for the last multiply (P:
    working bits)."""
    bits, prec = fixed_bits(dps), dps_to_prec(dps + GUARD_DIGITS)
    with workdps(dps + GUARD_DIGITS):
        got = series.evaluate(mpf(q), dps)
    with workdps(150):
        x = mpf(q) ** (mpf(1) / series.grid)
        dx = mp.ldexp(1, -bits - 1) + mp.ldexp(1, 1 - prec)
        c = series.coeffs
        want = mp.fsum(cj * x ** j for j, cj in enumerate(c))
        slope = mp.fsum(j * abs(cj) * (x + dx) ** (j - 1) for j, cj in enumerate(c) if j)
        floors = mp.ldexp(mp.fsum((x + dx) ** j for j in range(len(c))), -bits)
        bound = (floors + dx * slope + mp.ldexp(1, -bits - 40)
                 + abs(want) * mp.ldexp(1, 1 - prec))
        assert abs(got - want) <= bound, (series, q, dps)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_multiplication_matches_brute_convolution(f, g):
    import math

    prod = f * g
    grid = math.lcm(f.grid, g.grid)
    fa, ga = f.regrid(grid), g.regrid(grid)
    length = min(len(fa.coeffs), len(ga.coeffs))
    brute = [
        sum(fa.coeffs[i] * ga.coeffs[j - i] for i in range(j + 1) if i < len(fa.coeffs) and j - i < len(ga.coeffs))
        for j in range(length)
    ]
    assert prod.grid == grid
    assert prod.offset == f.offset + g.offset
    assert list(prod.coeffs) == brute


unit_lead_series = st.builds(
    lambda lead, grid, rest: QSeries(Fraction(0), grid, (lead,) + tuple(rest)),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7),
)


@settings(max_examples=60, deadline=None)
@given(small_series, unit_lead_series)
def test_multiply_then_divide_round_trips(f, g):
    prod = f * g
    back = prod / g
    m = len(back.coeffs)
    assert back.coeffs == f.regrid(back.grid).coeffs[:m]


def _coefficients(lead=None):
    """0-60 signed coefficients, dense or with at most six nonzero terms;
    the first drawn from the strategy `lead` when one is given."""
    dense = st.lists(st.integers(-10**6, 10**6), max_size=60)
    sparse = st.builds(
        lambda n, hits: [hits.get(j, 0) for j in range(n)],
        st.integers(0, 60),
        st.dictionaries(st.integers(0, 59), st.integers(-9, 9).filter(bool), max_size=6),
    )
    coeffs = st.one_of(dense, sparse)
    if lead is not None:
        coeffs = st.builds(lambda c, rest: [c] + rest[:59], lead, coeffs)
    return coeffs.map(tuple)


def _any_series(lead=None):
    return st.builds(
        QSeries,
        st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 24])),
        st.integers(min_value=1, max_value=3),
        _coefficients(lead),
    )


def _exact_equal(got: QSeries, want: QSeries):
    assert got == want
    assert all(type(c) is int for c in got.coeffs)


@settings(max_examples=300, deadline=None)
@given(_any_series(), _any_series())
def test_product_matches_the_every_pair_oracle(f, g):
    _exact_equal(f * g, oracles.qseries_mul(f, g))


@settings(max_examples=300, deadline=None)
@given(_any_series(), _any_series(st.sampled_from([1, -1])))
def test_quotient_matches_the_every_pair_oracle(f, g):
    _exact_equal(f / g, oracles.qseries_div(f, g))


def _aligned(a: QSeries, b: QSeries):
    g = math.lcm(a.grid, b.grid)
    diff = b.offset - a.offset
    g = math.lcm(g, diff.denominator)
    a, b = a.regrid(g), b.regrid(g)
    if diff >= 0:
        off = a.offset
        shift_a, shift_b = 0, int(diff * g)
    else:
        off = b.offset
        shift_a, shift_b = int(-diff * g), 0
    return g, off, a, shift_a, b, shift_b


def _add(a: QSeries, b: QSeries) -> QSeries:
    """a + b as QSeries formed it, two series at a time, before the
    one-pass linear combination: the oracle below."""
    g, off, a, sa, b, sb = _aligned(a, b)
    upto = min(a.known_through(), b.known_through())
    length = int((upto - off) * g) + 1
    out = [0] * length
    for j, cj in enumerate(a.coeffs):
        if sa + j < length:
            out[sa + j] += cj
    for j, cj in enumerate(b.coeffs):
        if sb + j < length:
            out[sb + j] += cj
    return QSeries(off, g, tuple(out))


# at least one coefficient: an empty series is known through no exponent,
# and re-gridding one moved that bound in the pairwise sum
offset_series = st.builds(
    QSeries,
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 8, 24, 48])),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=10).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), offset_series), min_size=1, max_size=4))
def test_linear_combination_matches_pairwise_sums(terms):
    scaled = [QSeries(f.offset, f.grid, tuple(m * c for c in f.coeffs)) for m, f in terms]
    want = scaled[0]
    for term in scaled[1:]:
        want = _add(want, term)
    assert linear_combination(terms) == want


# ---------------------------------------------------------------------------
# S-transform residual


def test_s_transform_tiny_at_default_point():
    res = s_transform_residual(minimal(4, 3), 200)
    assert res < 1e-8


def test_s_transform_domain_checks():
    md = su2(1)
    with pytest.raises(ValueError):
        s_transform_residual(md, 100)
    with pytest.raises(ValueError):
        s_transform_residual(md, 200, beta=0)
    for beta in (-2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            s_transform_residual(md, 200, beta=beta)
    with pytest.raises(TypeError):  # the model sets the precision
        s_transform_residual(md, 200, None, 50)


def test_s_transform_warns_when_truncation_dominates():
    res = s_transform_residual(su2(1), 200, beta=0.5)
    assert res > 1e-8  # the honest bound, not a fake small residual


def test_characters_need_a_builder_family():
    doc = model_to_document(minimal(5, 4))
    del doc["builder"]
    anonymous = load_model(doc)
    with pytest.raises(ValueError):
        characters_for(anonymous, 40)


@pytest.mark.parametrize("model, beta", [(lambda: minimal(4, 3), None),
                                         (lambda: minimal(5, 2), 3), (lambda: su2(10), 5)],
                         ids=["ising", "lee_yang_beta3", "su2_k10_beta5"])
def test_s_residual_lies_within_its_rounding_bound(model, beta):
    """_s_residual against max |S chi(q) - chi(q~)| over the fixed-point S
    and the characters as evaluate returns them, before their rounding to
    2^-B, at 150 digits: within (sqrt(n) + 3) / 2 units."""
    md, order = model(), 200
    chis = characters_for(md, order)
    with workdps(md.precision + GUARD_DIGITS):
        ev = _Evaluated(chis, order, beta, md.precision)
        got = _s_residual(md, ev)
        b = mpf(beta) if beta is not None else 2 * mp.pi
        chi_q, chi_qt = ([chi.evaluate(x, md.precision) for chi in chis]
                         for x in (mp.exp(-b), mp.exp(-4 * mp.pi ** 2 / b)))
    S = oracles.mpf_s(md)
    with workdps(150):
        exact = max(abs(mp.fsum(S[lam][mu] * chi_q[mu] for mu in range(md.n)) - chi_qt[lam])
                    for lam in range(md.n))
        unit = from_fixed(1, fixed_bits(md.precision))
        assert max(ev.tail_q, ev.tail_qt) < unit
        assert abs(got - exact) <= (mp.sqrt(md.n) + 3) / 2 * unit


def test_truncation_tail_bounds_actual_remainder():
    chi = char_su2(2, 0, 400)
    with workdps(60):
        q = mp.exp(-2 * mp.pi)
        full = chi.evaluate(q, 50)
        cut = oracles.truncated(chi, 201).evaluate(q, 50)
        bound = truncation_tail(200, q, chi.offset, 50)
        assert abs(full - cut) <= bound
        assert truncation_tail(300, q, chi.offset, 50) < bound


# (family, params, first j checked): su2 k=100 leads its top sector with
# c_0 = k + 1 = 101, above the envelope at j = 0, which no tail reads
ENVELOPE_MODELS = [("su2", (k,), 0) for k in (1, 2, 10, 28, 60)] + [
    ("minimal", pq, 0) for pq in ((4, 3), (5, 4), (12, 11), (7, 2))] + [("su2", (100,), 1)]


def test_every_coefficient_lies_inside_the_tail_envelope():
    """truncation_tail assumes |c_j| <= 100 (j+1)^4 exp(pi sqrt(6 j)) for
    every coefficient j >= 1 of a built-in character; check it through
    order 400, from j = 0 where the envelope holds there too.  The ratios
    are taken at 40 digits, whose rounding the 10^-20 margin covers many
    times over, so each comparison decides as an exact one would."""
    order = 400
    with workdps(40):
        envelope = [100 * mpf(j + 1) ** 4 * mp.exp(mp.pi * mp.sqrt(6 * j))
                    for j in range(order + 1)]
        for family, params, first in ENVELOPE_MODELS:
            md = su2(*params) if family == "su2" else minimal(*params)
            worst = max(abs(c) / envelope[j] for chi in characters_for(md, order)
                        for j, c in enumerate(chi.coeffs) if j >= first)
            assert worst < 1 - mpf(10) ** -20, (family, params, worst)


def test_truncation_tail_rejects_bad_nome():
    with pytest.raises(ValueError):
        truncation_tail(100, 1.5, Fraction(0), 50)
    with pytest.raises(ValueError):
        truncation_tail(100, 0, Fraction(0), 50)
