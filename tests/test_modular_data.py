"""Modular data: builders, structural validation, documents."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

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
from oracles import s_matrix, vacuum_row_real


def test_su2_level1_exact_data():
    md = su2(1)
    assert md.n == 2
    assert md.c == Fraction(3, 3)
    assert md.h == (Fraction(0), Fraction(1, 4))
    with workdps(60):
        root = mp.mpf(1) / mp.sqrt(2)
        assert abs(md.S[0][0] - root) < 1e-55
        assert abs(md.S[0][1] - root) < 1e-55
        assert abs(md.S[1][1] + root) < 1e-55


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
    with workdps(60):
        # T_sigma = exp(2 pi i (1/16 - (1/2)/24)) = exp(pi i / 12)
        want = mp.expjpi(mp.mpf(1) / 12)
        assert abs(md.T[1] - want) < 1e-55


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
    rounded = []
    of = Fixed.of.__func__
    monkeypatch.setattr(
        Fixed, "of", classmethod(lambda cls, values, bits: rounded.append(values) or of(cls, values, bits)))
    products = _count_products(monkeypatch)
    md = build_su2(7)
    # the builder writes S as ints: S is rounded zero times, T once, and
    # the mpf view of S is never built
    assert len(rounded) == 1 and rounded[0][0] is md.T
    assert "S" not in vars(md)
    assert all(type(x) is int for row in md.S_fixed[0] for x in row) and md.S_fixed[1] is None
    S = md.fixed[0]
    assert products.count(("gram", S, None)) == 1
    md.fixed, md.conj, md.T, md.unitarity_defect
    validate(md)
    # only T is rounded again by a second validate, and S^2 is not formed again
    assert len(rounded) == 2
    assert products.count(("gram", S, None)) == 1
    assert "S" not in vars(md)


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
    models = [su2(k) for k in range(1, 21)] + [minimal(*pq) for pq in all_coprime_pairs(10)]
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
    md.S  # the mpf view is cached too
    ising = minimal(4, 3)
    moved = dataclasses.replace(md, S_fixed=ising.S_fixed)
    fields = [f.name for f in dataclasses.fields(md)]
    # replace starts a fresh cache: nothing but the fields until first use
    assert sorted(vars(moved)) == sorted(fields)
    assert moved.conj == (0, 1, 2)
    assert (moved.fixed[0].re == ising.fixed[0].re).all() and moved.fixed[0].im is None
    assert (moved.fixed[1].re == ising.fixed[1].re).all()
    assert (moved.fixed[2].re == ising.fixed[2].re).all()
    assert moved.S == ising.S != md.S
    assert moved.T == md.T
    shifted = dataclasses.replace(md, c=ising.c, h=ising.h)
    assert shifted.T == ising.T != md.T
    assert shifted.conj == md.conj
    # the caches are no fields: equality and hash cover the seven fields alone
    assert fields == ["sectors", "c", "h", "S_fixed", "precision", "family", "params"]
    back = dataclasses.replace(moved, S_fixed=md.S_fixed)
    assert back == md and hash(back) == hash(md)
    assert sorted(vars(back)) == sorted(fields)
    assert back.S == md.S and back.conj == md.conj


def test_fixed_point_arrays_are_read_only():
    for F in su2(3).fixed + load_model(su3_level1_document()).fixed:
        for part in (F.re, F.im):
            if part is not None:
                with pytest.raises(ValueError):
                    part[0] = 0


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
        assert max(abs(x - y) for ra, rb in zip(loaded.S, md.S) for x, y in zip(ra, rb)) < 1e-45


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
    # built outside any workdps, complex entries too: x / 2^B exactly
    for md in (build_su2(5), load_model(su3_level1_document())):
        bits, (re, im) = fixed_bits(md.precision), md.S_fixed
        im = im or [[0] * md.n] * md.n
        for view_row, re_row, im_row in zip(md.S, re, im):
            for v, x, y in zip(view_row, re_row, im_row):
                v = mp.mpmathify(v)
                assert (to_fixed(v.real, bits), to_fixed(v.imag, bits)) == (x, y)
