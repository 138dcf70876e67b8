"""Modular data: builders, structural validation, documents."""

import dataclasses
import functools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps, workprec

import bcft.modular_data
from bcft.errors import (
    BadKacLabels,
    DocumentFormatError,
    ModelValidationError,
    ModularRelationViolation,
    TrivialLevelError,
    VacuumPlacementError,
    VacuumRowError,
)
from bcft.fusion import verlinde
from bcft.hp import Fixed, fixed_bits, num_str, parse_fixed, to_fixed
from bcft.modular_data import (
    ModularData,
    SectorLabel,
    build_minimal,
    build_su2,
    global_index,
    load_model,
    model_name,
    model_to_document,
    quantum_dims,
    validate,
)
from conftest import all_coprime_pairs, minimal, su2, su3_level1_document
from oracles import mpf_s, s_matrix, t_row, vacuum_row_real


def test_su2_level1_exact_data():
    md = su2(1)
    assert md.n == 2
    assert md.c == Fraction(3, 3)
    assert md.h == (Fraction(0), Fraction(1, 4))
    S = mpf_s(md)
    with workdps(60):
        root = mp.mpf(1) / mp.sqrt(2)
        assert abs(S[0][0] - root) < 1e-55
        assert abs(S[0][1] - root) < 1e-55
        assert abs(S[1][1] + root) < 1e-55


def test_ising_sectors_weights_and_s_row():
    md = minimal(4, 3)
    assert [s.name for s in md.sectors] == ["1,1", "1,2", "1,3"]
    assert md.h == (Fraction(0), Fraction(1, 16), Fraction(1, 2))
    assert md.c == Fraction(1, 2)
    with workdps(60):
        row = vacuum_row_real(md)
        assert abs(row[0] - mp.mpf("0.5")) < 1e-55
        assert abs(row[1] - 1 / mp.sqrt(2)) < 1e-55
        assert abs(row[2] - mp.mpf("0.5")) < 1e-55


def test_t_matrix_phase_ising():
    md = minimal(4, 3)
    bits = fixed_bits(md.precision)
    with workprec(2 * bits):
        # T_sigma = exp(2 pi i (1/16 - (1/2)/24)) = exp(pi i / 12), times 2^B
        want = mp.expjpi(mp.mpf(1) / 12) * (1 << bits)
        assert abs(md.T.re[0, 1] - want.real) <= 0.51
        assert abs(md.T.im[0, 1] - want.imag) <= 0.51


def _t_units_off(md) -> float:
    """The largest distance of a part of md.T from t_row(md), in units of 2^-B."""
    T = md.T
    im = [0] * md.n if T.im is None else T.im[0]
    with workprec(2 * T.bits):
        return max(max(abs(x - w.real), abs(y - w.imag)) for x, y, w in zip(T.re[0], im, t_row(md)))


def _sweep_models():
    return [su2(k) for k in range(1, 21)] + [minimal(*pq) for pq in all_coprime_pairs(10)]


def test_t_row_lies_within_half_a_unit_of_the_exact_phase():
    # the 42 sweep models and the complex-S su(3) level 1: a read-only row of
    # shape (1, n) of Python ints, each part within 0.51 units of 2^-B
    models = _sweep_models() + [load_model(su3_level1_document())]
    assert len(models) == 43
    for md in models:
        T = md.T
        assert T.bits == fixed_bits(md.precision) and T.re.shape == (1, md.n)
        parts = [part for part in (T.re, T.im) if part is not None]
        assert all(type(x) is int for part in parts for x in part[0])
        assert not any(part.flags.writeable for part in parts)
        assert _t_units_off(md) <= 0.51, (model_name(md), _t_units_off(md))


def _timed_t(md) -> float:
    """Best of five evaluations of T on fresh instances, in seconds."""
    times = []
    for _ in range(5):
        fresh = dataclasses.replace(md)
        start = time.perf_counter()
        fresh.T
        times.append(time.perf_counter() - start)
    return min(times)


def test_t_row_of_a_4000_digit_denominator_takes_no_longer_than_a_small_one():
    # h_sigma of Ising moved by 1/q, q of 4,000 digits: the row is built
    # straight from (c, h), nothing is validated; the argument costs one
    # big-int division, so no step grows with the size of q
    ising = minimal(4, 3)
    q = 10 ** 3999 + 7
    md = dataclasses.replace(ising, h=(ising.h[0], ising.h[1] + Fraction(1, q), ising.h[2]))
    assert len(str(md.h[1].denominator)) >= 4000
    assert _t_units_off(md) <= 0.51
    assert md.T.im is not None
    assert _timed_t(md) < 10 * _timed_t(ising) + 0.005


def test_an_all_real_t_row_has_no_imaginary_part():
    # one sector at c = 24: T = exp(-2 pi i) = 1, and (ST)^3 = C holds
    md = load_model({"format": "bcft-model/1", "name": "c24", "c": "24",
                     "sectors": [{"name": "1", "h": "0"}], "S": [["1"]]})
    assert md.T.im is None and md.T.re.tolist() == [[1 << fixed_bits(md.precision)]]
    assert _t_units_off(md) == 0
    # c = 12 with h = (0, 1/2): T = (-1, 1), built without validation
    half = dataclasses.replace(_unvalidated([[1, 0], [0, 1]]), c=Fraction(12),
                               h=(Fraction(0), Fraction(1, 2)))
    one = 1 << fixed_bits(half.precision)
    assert half.T.im is None and half.T.re.tolist() == [[-one, one]]


def test_validation_residuals_are_tiny():
    su3 = load_model(su3_level1_document())  # complex S, C != 1
    for md in [su2(1), su2(5), su2(12), minimal(4, 3), minimal(6, 5), su3]:
        rep = validate(md)
        assert rep["symmetry"] < 1e-50
        assert rep["unitarity"] < 1e-50
        assert rep["modular_relation"] < 1e-50


def _count_products(monkeypatch):
    """The (kind, left factor, weight) of every exact product from now on:
    a triangle (Fixed.gram) or a general Fixed.dot."""
    products = []
    gram, dot = Fixed.gram, Fixed.dot
    monkeypatch.setattr(Fixed, "gram",
                        lambda self, w=None: products.append(("gram", self, w)) or gram(self, w))
    monkeypatch.setattr(Fixed, "dot",
                        lambda self, other: products.append(("dot", self, other)) or dot(self, other))
    return products


def test_build_forms_s_squared_once(monkeypatch):
    made = []
    monkeypatch.setattr(bcft.modular_data, "from_fixed", lambda *args: made.append(args))
    products = _count_products(monkeypatch)
    md = build_su2(7)
    # the builder writes S as ints and T is ints from (c, h): no mpf of S
    # is made, so nothing rounds S again
    assert made == []
    assert all(type(x) is int for x in md.T.re[0])
    assert not hasattr(md, "S")
    assert all(type(x) is int for row in md.S_fixed[0] for x in row) and md.S_fixed[1] is None
    S = md.fixed[0]
    assert products.count(("gram", S, None)) == 1
    md.fixed, md.conj, md.T, md.unitarity_defect
    validate(md)
    # a second validate makes no mpf of S either, and S^2 is not formed again
    assert made == []
    assert products.count(("gram", S, None)) == 1
    assert not hasattr(md, "S")


def test_build_makes_two_exact_products(monkeypatch):
    products = _count_products(monkeypatch)
    md = build_su2(7)
    # S^2 in md.fixed, then S (T S) for the modular relation, each one
    # triangle; a real symmetric S reuses S^2 as S S^dagger
    assert [(kind, w is None) for kind, _, w in products] == [("gram", True), ("gram", False)]
    assert md.real_symmetric


def test_every_sweep_model_forms_s_squared_as_the_general_product_would():
    # su2 k <= 20 and minimal p <= 10: S is real and exactly symmetric, also
    # read back from its explicit-S document, and the triangle gives S^2
    # bit for bit as Fixed.dot
    models = _sweep_models()
    assert len(models) == 42
    for md in models:
        S, _, S2 = md.fixed
        assert md.real_symmetric and S2.im is None
        assert (S2.re == S.dot(S).rescale(S.bits).re).all()
        if md.is_unitary_family():
            doc = model_to_document(md)
            del doc["builder"]
            assert load_model(doc).real_symmetric


def _explicit_ising():
    doc = model_to_document(minimal(4, 3))
    del doc["builder"]
    return doc


def _with_h1(doc, h):
    doc["sectors"][1]["h"] = h
    return doc


def _off_symmetric_ising():
    """The explicit Ising document with S_12 one unit of 2^-B above S_21,
    written as an exact fraction: symmetric only within tolerance."""
    doc, bits = _explicit_ising(), fixed_bits(50)
    x, _ = parse_fixed(doc["S"][2][1], bits)
    doc["S"][1][2] = "%d/%d" % (x + 1, 1 << bits)
    return doc


@pytest.mark.parametrize("doc", [su3_level1_document(), _off_symmetric_ising()],
                         ids=["su3-complex-s", "ising-off-symmetric"])
def test_a_complex_or_nearly_symmetric_s_takes_the_general_product(doc, monkeypatch):
    products = _count_products(monkeypatch)
    md = load_model(doc)
    assert not md.real_symmetric
    assert md.S_fixed[1] is not None or md.S_fixed[0][1][2] - md.S_fixed[0][2][1] == 1
    # S^2, S S^dagger and S (T S), none of them a triangle
    assert [kind for kind, _, _ in products] == ["dot"] * 3
    assert validate(md)["symmetry"] < 1e-50


@pytest.mark.parametrize(
    "doc",
    [_with_h1(_explicit_ising(), "1/8"), dict(_explicit_ising(), c="7/10"),
     _with_h1(su3_level1_document(), "2/3"), _with_h1(_off_symmetric_ising(), "1/8")],
    ids=["ising-h-sigma", "ising-c", "su3-complex-s", "ising-off-symmetric"],
)
def test_validate_refuses_a_broken_modular_relation(doc):
    # S is untouched (or one unit off symmetry), so symmetry, unitarity and
    # S^2 = C all pass; only T, through c or one h, breaks (ST)^3 = C
    with pytest.raises(ModularRelationViolation, match=r"max \|S T S - T\^-1 S T\^-1\| = "):
        load_model(doc)


def test_replace_derives_fresh_model_data():
    md = load_model(su3_level1_document())
    assert md.conj == (0, 2, 1)
    md.fixed, md.T  # the fixed arrays are cached too
    ising = minimal(4, 3)
    moved = dataclasses.replace(md, S_fixed=ising.S_fixed)
    fields = [f.name for f in dataclasses.fields(md)]
    # replace starts a fresh cache: nothing but the fields until first use
    assert sorted(vars(moved)) == sorted(fields)
    assert moved.conj == (0, 1, 2)
    assert (moved.fixed[0].re == ising.fixed[0].re).all() and moved.fixed[0].im is None
    assert (moved.fixed[1].re == ising.fixed[1].re).all()
    assert (moved.fixed[2].re == ising.fixed[2].re).all()
    assert not _same_fixed(moved.fixed[0], md.fixed[0])
    assert _same_fixed(moved.T, md.T)
    shifted = dataclasses.replace(md, c=ising.c, h=ising.h)
    assert _same_fixed(shifted.T, ising.T) and not _same_fixed(shifted.T, md.T)
    assert shifted.conj == md.conj
    # the caches are no fields: equality and hash cover the seven fields alone
    assert fields == ["sectors", "c", "h", "S_fixed", "precision", "family", "params"]
    back = dataclasses.replace(moved, S_fixed=md.S_fixed)
    assert back == md and hash(back) == hash(md)
    assert sorted(vars(back)) == sorted(fields)
    assert _same_fixed(back.fixed[0], md.fixed[0]) and back.conj == md.conj


def _same_fixed(F, G) -> bool:
    """Equal Fixed arrays: both parts through np.array_equal."""
    return all(np.array_equal(a, b) for a, b in ((F.re, G.re), (F.im, G.im)))


def test_fixed_point_arrays_are_read_only():
    su3 = load_model(su3_level1_document())
    for F in su2(3).fixed + (su2(3).T,) + su3.fixed + (su3.T,):
        for part in (F.re, F.im):
            if part is not None:
                with pytest.raises(ValueError):
                    part[0] = 0


def _unvalidated(rows, precision=50):
    """ModularData with S = rows (rationals) rounded to 2^-B and no
    validation; every h is 0."""
    n, bits = len(rows), fixed_bits(precision)
    S = tuple(tuple(round(Fraction(x) * (1 << bits)) for x in row) for row in rows)
    return ModularData(tuple(SectorLabel(i, str(i)) for i in range(n)), Fraction(0),
                       (Fraction(0),) * n, (S, None), precision)


def test_conj_refuses_an_s_squared_that_is_no_permutation():
    md = _unvalidated([[1, 1, 1]] * 3)  # S^2 = 3 everywhere
    with pytest.raises(ModularRelationViolation, match=r"^S\^2 is not a permutation matrix$"):
        md.conj


def test_conj_refuses_a_non_involutive_permutation():
    # S = P^2 - 2J/3, P the 3-cycle and J all ones: the square root of P with
    # eigenvalue -1 on the constant vector, S^2 = P (P itself has a zero vacuum
    # entry, which W = 1/S_0 divides by)
    third = Fraction(1, 3)
    md = _unvalidated([[-2 * third, -2 * third, third], [third, -2 * third, -2 * third],
                       [-2 * third, third, -2 * third]])
    assert md.fixed[2].re.tolist() == [[x << md.fixed[2].bits for x in row]
                                       for row in ([0, 1, 0], [0, 0, 1], [1, 0, 0])]
    with pytest.raises(ModularRelationViolation, match=r"^S\^2 is not an involutive permutation$"):
        md.conj


@pytest.mark.parametrize("prop", ["conj", "unitarity_defect"])
def test_a_zero_vacuum_entry_of_an_unvalidated_model_is_a_vacuum_row_error(prop):
    # S the 3-cycle P: S_00 = 0, which W = 1/S_0k would divide by
    md = _unvalidated([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(VacuumRowError, match=r"^S_\{0 0\} = 0 has no reciprocal$"):
        getattr(md, prop)


def test_self_conjugate_families():
    assert su2(7).conj == tuple(range(8))
    assert minimal(5, 4).conj == tuple(range(6))


def test_sector_order_vacuum_first_then_weight():
    md = minimal(5, 4)
    assert md.h[0] == 0
    rest = list(md.h[1:])
    assert rest == sorted(rest)


def test_builder_argument_errors():
    with pytest.raises(TrivialLevelError):
        build_su2(0)
    with pytest.raises(TrivialLevelError):
        build_su2(-3)
    with pytest.raises(BadKacLabels):
        build_minimal(6, 4)  # gcd 2
    with pytest.raises(BadKacLabels):
        build_minimal(3, 3)  # p' = p
    with pytest.raises(BadKacLabels):
        build_minimal(2, 1)  # p' < 2


def test_lee_yang_is_non_unitary_with_signed_vacuum_row():
    md = minimal(5, 2)
    assert md.h == (Fraction(0), Fraction(-1, 5))
    assert md.c == Fraction(-22, 5)
    assert not md.is_unitary_family()
    row = vacuum_row_real(md)
    assert any(x < 0 for x in row)
    # the structural relations still hold even though positivity fails
    rep = validate(md)
    assert rep["unitarity"] < 1e-50
    # the same data without the non-unitary minimal family must be positive
    with pytest.raises(VacuumRowError):
        validate(dataclasses.replace(md, family=None, params=()))


def test_quantum_dims_and_global_index():
    md = minimal(4, 3)
    with workdps(60):
        d = quantum_dims(md)
        assert abs(d[0] - 1) < 1e-50
        assert abs(d[1] - mp.sqrt(2)) < 1e-50
        assert abs(d[2] - 1) < 1e-50
        assert abs(global_index(md) - 4) < 1e-50
        # mu = 1 / S_00^2 for any model
        for other in [su2(6), minimal(5, 4)]:
            mu = global_index(other)
            assert abs(mu - 1 / vacuum_row_real(other)[0] ** 2) < 1e-45


def test_model_names():
    assert model_name(su2(10)) == "su2_k10"
    assert model_name(minimal(4, 3)) == "minimal_4_3"


def test_document_round_trip_via_builder():
    md = su2(6)
    doc = model_to_document(md)
    assert doc["format"] == "bcft-model/1"
    assert load_model(doc) == md


def test_document_explicit_s_reproduces_model():
    md = minimal(5, 4)
    doc = model_to_document(md)
    del doc["builder"]
    loaded = load_model(doc)
    assert loaded.family is None
    assert loaded.h == md.h
    assert loaded.c == md.c
    with workdps(60):
        assert max(abs(x - y) for ra, rb in zip(mpf_s(loaded), mpf_s(md))
                   for x, y in zip(ra, rb)) < 1e-45


def test_document_explicit_s_requires_positive_vacuum_row():
    doc = model_to_document(minimal(5, 2))
    del doc["builder"]
    with pytest.raises(VacuumRowError):
        load_model(doc)


def test_a_zero_vacuum_entry_is_refused_as_a_vacuum_row_error():
    # W = 1/S_0k divides by the vacuum row, so validate checks it first
    doc = model_to_document(minimal(4, 3))
    del doc["builder"]
    for zero in ("0", "0.0", "-0", "1e-70"):
        doc["S"][0][1] = doc["S"][1][0] = zero
        with pytest.raises(VacuumRowError, match=r"\|S_\{0 1\}\| = .* is below the tolerance"):
            load_model(doc)


def test_document_error_paths():
    good = model_to_document(minimal(4, 3))
    del good["builder"]

    with pytest.raises(DocumentFormatError):
        load_model([])
    with pytest.raises(DocumentFormatError):
        load_model(dict(good, format="bcft-model/99"))
    missing = dict(good)
    del missing["S"]
    with pytest.raises(DocumentFormatError):
        load_model(missing)

    shuffled = dict(good)
    shuffled["sectors"] = [good["sectors"][1]] + [good["sectors"][0]] + [good["sectors"][2]]
    with pytest.raises(VacuumPlacementError):
        load_model(shuffled)

    # a corrupted S trips whichever structural check sees it first;
    # all of them are ModelValidationError subtypes
    lopsided = dict(good)
    rows = [list(r) for r in good["S"]]
    rows[0][1] = rows[0][2]
    lopsided["S"] = rows
    with pytest.raises(ModelValidationError):
        load_model(lopsided)

    scaled = dict(good)
    scaled["S"] = [[x + "e1" for x in row] for row in good["S"]]
    with pytest.raises(ModelValidationError):
        load_model(scaled)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_every_level_validates(k):
    md = su2(k)
    assert md.n == k + 1
    assert md.h[0] == 0
    assert all(md.h[a] == Fraction(a * (a + 2), 4 * (k + 2)) for a in range(k + 1))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(4, 3), (5, 4), (6, 5), (7, 6), (5, 3), (7, 2), (8, 3)]))
def test_minimal_sector_count(labels):
    p, pp = labels
    md = minimal(p, pp)
    assert md.n == (p - 1) * (pp - 1) // 2
    assert md.h[0] == 0


ORACLE_MODELS = ([("su2", (k,)) for k in range(1, 31)]
                 + [("minimal", pair) for pair in all_coprime_pairs(13)])


@functools.lru_cache(maxsize=None)
def _oracle_150(family, params):
    return s_matrix(family, params, 150)


@pytest.mark.parametrize("precision", [20, 50, 100])
def test_written_s_matches_the_mpf_oracle_and_lies_within_one_unit(precision):
    """The builders' S against the mpf formula they replaced (one mp.sinpi
    per unreduced argument): every printed string is the oracle's, and
    every fixed-point entry lies within 2^-B of the oracle at 150 digits."""
    bits = fixed_bits(precision)
    for family, params in ORACLE_MODELS:
        md = (build_su2 if family == "su2" else build_minimal)(*params, precision)
        want = [[num_str(x, precision) for x in row] for row in s_matrix(family, params, precision)]
        assert model_to_document(md)["S"] == want, (family, params)
        with workdps(160):
            exact = _oracle_150(family, params)
            assert md.S_fixed[1] is None
            worst = max(abs(x - mp.ldexp(e, bits)) for row, erow in zip(md.S_fixed[0], exact)
                        for x, e in zip(row, erow))
            assert worst <= 1, (family, params, worst)


@pytest.mark.parametrize(
    "model", [lambda: su2(10), lambda: minimal(5, 4), lambda: load_model(su3_level1_document())],
    ids=["su2_k10", "minimal_5_4", "su3_k1"])
def test_a_written_model_reads_back_to_the_same_ints_and_fusion(model):
    """A document carries precision digits of S, and its ints about
    precision + 12: each int read back lies within one unit of the last
    digit printed of the one written, and prints back to the same string."""
    md = model()
    doc = model_to_document(md)
    doc.pop("builder", None)
    back = load_model(doc)
    assert back.family is None and back.precision == md.precision
    assert model_to_document(back)["S"] == doc["S"]
    assert np.array_equal(verlinde(back).N, verlinde(md).N)
    bits = fixed_bits(md.precision)
    with workdps(md.precision + 30):
        for part, back_part in zip(md.S_fixed, back.S_fixed):
            assert (part is None) == (back_part is None)
            for x, y in zip(sum(part or (), ()), sum(back_part or (), ())):
                last = mp.floor(mp.log10(mp.ldexp(abs(x), -bits))) - md.precision + 1 if x else 0
                assert abs(x - y) <= (mp.ldexp(mp.mpf(10) ** last, bits) if x else 0)


def test_the_mpf_view_is_exact_at_any_working_precision():
    # built outside any workdps, complex entries too: x / 2^B exactly, and
    # model_to_document prints those values whatever the working precision
    for md in (build_su2(5), load_model(su3_level1_document())):
        bits, (re, im) = fixed_bits(md.precision), md.S_fixed
        im = im or [[0] * md.n] * md.n
        view = mpf_s(md)
        for view_row, re_row, im_row in zip(view, re, im):
            for v, x, y in zip(view_row, re_row, im_row):
                v = mp.mpmathify(v)
                assert (to_fixed(v.real, bits), to_fixed(v.imag, bits)) == (x, y)
        printed = [[num_str(v, md.precision) for v in row] for row in view]
        assert model_to_document(md)["S"] == printed
        for dps in (5, 200):
            with workdps(dps):
                assert model_to_document(md)["S"] == printed
