"""Modular invariant classification: counts, tags, oracle equivalence.

The level-2 count here is 1: the simple-current invariant coincides
with the diagonal one at that level (D3 = A3), so the classification
sees a single matrix.  Acceptance criterion 3 in tests/test_acceptance.py
counts the same way.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcft.invariants
import oracles
from bcft.errors import CheckFailure, SearchBudgetExceeded
from bcft.invariants import (
    ModularInvariant,
    _commutant,
    _search,
    ade_tag,
    diagonal_invariant,
    entry_bounds,
    enumerate_physical,
    exponents_of,
    t_allowed_pairs,
)
from bcft.modular_data import load_model
from conftest import all_coprime_pairs, minimal, su2, su3_level1_document
from oracles import enumerate_bruteforce, invariant_residuals

TRUE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 2,
    9: 1, 10: 3, 11: 1, 12: 2, 13: 1, 14: 2, 15: 1, 16: 3,
}

TAGS = {
    4: {"A5", "D4"},
    6: {"A7", "D5"},
    8: {"A9", "D6"},
    10: {"A11", "D7", "E6"},
    12: {"A13", "D8"},
    14: {"A15", "D9"},
    16: {"A17", "D10", "E7"},
}


@pytest.mark.parametrize("k", sorted(TRUE_COUNTS))
def test_su2_counts_and_tags(k):
    invs = enumerate_physical(su2(k))
    assert len(invs) == TRUE_COUNTS[k]
    tags = {z.tag for z in invs}
    if k in TAGS:
        assert tags == TAGS[k]
    else:
        assert tags == {"A%d" % (k + 1)}


def test_exceptional_exponents():
    e6 = [z for z in enumerate_physical(su2(10)) if z.tag == "E6"]
    assert len(e6) == 1
    assert e6[0].exponents == (0, 3, 4, 6, 7, 10)
    e7 = [z for z in enumerate_physical(su2(16)) if z.tag == "E7"]
    assert e7[0].exponents == (0, 4, 6, 8, 10, 12, 16)


def test_d_series_structure():
    d4 = [z for z in enumerate_physical(su2(4)) if z.tag == "D4"][0]
    # level 4: exponent 2 appears twice
    assert d4.exponents == (0, 2, 2, 4)
    assert d4.Z[0][0] == 1 and d4.Z[0][4] == 1
    d5 = [z for z in enumerate_physical(su2(6)) if z.tag == "D5"][0]
    # level 6: a permutation invariant with simple diagonal
    assert d5.exponents == (0, 2, 3, 4, 6)
    assert all(sum(row) == 1 for row in d5.Z)


def test_all_found_invariants_satisfy_definition():
    for k in range(1, 13):
        md = su2(k)
        for z in enumerate_physical(md):
            rep = invariant_residuals(md, z.Z)
            assert rep["vacuum"] and rep["nonnegative"] and rep["integer"]
            assert rep["t_commutation"] == 0.0
            assert rep["s_commutation"] < 1e-25
            assert rep["perron_bound"]
            assert rep["vacuum_coupling"] > 0


def test_vacuum_coupling_positive_for_minimal_models():
    for labels in [(4, 3), (5, 4), (6, 5), (5, 2), (7, 2)]:
        md = minimal(*labels)
        for z in enumerate_physical(md):
            rep = invariant_residuals(md, z.Z)
            assert rep["s_commutation"] < 1e-25
            assert rep["vacuum_coupling"] > 0


def test_results_sorted_and_deduplicated():
    invs = enumerate_physical(su2(10))
    flats = [z.flat() for z in invs]
    assert flats == sorted(flats)
    assert len(set(flats)) == len(flats)


@pytest.mark.parametrize("k", range(1, 9))
def test_bruteforce_oracle_matches_lattice_search(k):
    md = su2(k)
    a = [z.Z for z in enumerate_physical(md)]
    b = [z.Z for z in enumerate_bruteforce(md)]
    assert a == b


def test_bruteforce_oracle_matches_on_minimal_models():
    for labels in [(4, 3), (5, 4), (5, 2)]:
        md = minimal(*labels)
        assert [z.Z for z in enumerate_physical(md)] == [
            z.Z for z in enumerate_bruteforce(md)
        ]


def test_ising_t_filter_is_diagonal_only():
    assert t_allowed_pairs(minimal(4, 3)) == ((0, 0), (1, 1), (2, 2))


T_PAIR_MODELS = ([("su2", (k,)) for k in range(1, 29)]
                 + [("minimal", labels) for labels in all_coprime_pairs(10)] + [("su3", (1,))])


@pytest.mark.parametrize("family, params", T_PAIR_MODELS,
                         ids=["%s-%s" % (f, ",".join(map(str, p))) for f, p in T_PAIR_MODELS])
def test_t_allowed_pairs_equal_the_comparison_oracle(family, params):
    """Grouping the sectors by h mod 1 gives the pairs of the n^2
    comparisons, in the same order; su(3) level 1 is a loaded explicit-S
    document, whose two sectors of weight 1/3 share a class."""
    md = (load_model(su3_level1_document()) if family == "su3"
          else {"su2": su2, "minimal": minimal}[family](*params))
    assert t_allowed_pairs(md) == oracles.t_allowed_pairs_bruteforce(md)


def test_ising_has_only_the_diagonal_invariant():
    invs = enumerate_physical(minimal(4, 3))
    assert len(invs) == 1
    assert invs[0].Z == diagonal_invariant(minimal(4, 3)).Z


def test_minimal_6_5_has_one_exceptional_partner():
    invs = enumerate_physical(minimal(6, 5))
    assert len(invs) == 2
    diags = sorted(tuple(z.Z[i][i] for i in range(len(z.Z))) for z in invs)
    assert diags == [
        (1, 0, 2, 0, 1, 0, 2, 1, 0, 1),
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    ]


def test_lee_yang_is_diagonal_only():
    invs = enumerate_physical(minimal(5, 2))
    assert len(invs) == 1
    assert invs[0].Z == ((1, 0), (0, 1))


def test_entry_bounds_unitary_vs_non_unitary():
    # unitary: bounded by products of quantum dimensions
    b = entry_bounds(minimal(4, 3))
    assert b[0][0] == 1 and b[1][1] == 2
    # non-unitary minimal: bounded through the least-weight column
    b = entry_bounds(minimal(5, 2))
    assert all(x >= 1 for row in b for x in row)


def test_entry_bounds_equal_the_mpf_floors():
    """The bracketed fixed-point bounds against the guard-precision mpf
    floors, on every model of the classify benchmark and on level 28."""
    models = [su2(k) for k in list(range(1, 21)) + [28]]
    models += [minimal(p, pp) for p, pp in all_coprime_pairs(9)]
    for md in models:
        assert entry_bounds(md) == oracles.entry_bounds(md), (md.family, md.params)


def test_entry_bounds_refuse_a_bracket_that_straddles_an_integer(monkeypatch):
    # with no tolerance the exact product d_0 d_0 = 1 lies inside its
    # bracket, whose ends floor to 0 and 1
    monkeypatch.setattr(bcft.invariants, "exact_tolerance", lambda dps: Fraction(0))
    with pytest.raises(CheckFailure, match=r"entry bound \(0, 0\) lies between 0 and 1"):
        entry_bounds(su2(4))


def test_node_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(bcft.invariants, "DEFAULT_NODE_BUDGET", 3)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_physical(su2(10))


@pytest.mark.parametrize(
    "md", [su2(10), su2(16), su2(28), minimal(6, 5), minimal(9, 8)],
    ids=["su2-10", "su2-16", "su2-28", "minimal-6,5", "minimal-9,8"],
)
def test_int_walk_matches_the_fraction_walk(md):
    pairs, basis, pivots = _commutant(md)
    bounds = entry_bounds(md)
    args = (pairs, basis, pivots, [bounds[i][j] for i, j in pairs],
            pairs.index((0, 0)), 10**6)
    assert _search(*args) == oracles.search(*args)


def test_int_walk_scales_by_the_basis_denominator():
    """No built-in model has a basis denominator above 1, so this basis
    is built by hand, with denominators 2 and 3 (D = 6).  Its entries
    are x0, x1, (x0 + x1)/2, (x0 + 2 x1)/3 and (x1 - x0)/2 over the
    vacuum x0 = 1 and 0 <= x1 <= 3.  x1 = 3 gives a point inside every
    bound whose fourth entry 7/3 is not an integer, so the walk must
    drop it; only x1 = 1 is a lattice point."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    basis = [[1, 0, half, third, -half], [0, 1, half, 2 * third, half]]
    basis = [[Fraction(x) for x in vec] for vec in basis]
    bounds = [1, 3, 3, 3, 1]
    point = [basis[0][v] + 3 * basis[1][v] for v in range(5)]
    assert point == [1, 3, 2, Fraction(7, 3), 1]
    assert all(0 <= x <= b for x, b in zip(point, bounds))
    args = (((0, 0), (0, 1), (1, 0), (1, 1), (2, 2)), basis, [0, 1], bounds, 0, 10**6)
    assert _search(*args) == oracles.search(*args) == [(1, 1, 1, 1, 0)]


def test_tags_only_name_level_k_data():
    assert ade_tag(minimal(4, 3), (0, 1, 2)) == "untagged"
    assert ade_tag(su2(10), (0, 1, 2)) == "untagged"
    assert ade_tag(su2(10), tuple(range(11))) == "A11"
    # T3 is the row of 3 nodes at level 5 (h = 7), but a tadpole tags nothing
    assert bcft.invariants.coxeter_row(3, 7).name == "T3"
    assert ade_tag(su2(5), (0, 2, 4)) == "untagged"


def test_exponents_of_reads_diagonal_multiplicity():
    Z = ((1, 0, 0), (0, 2, 0), (0, 0, 0))
    assert exponents_of(Z) == (0, 1, 1)


def test_size_counts_boundaries():
    z = ModularInvariant(((1, 0), (0, 3)), (0, 1, 1, 1), "untagged")
    assert z.size == 4
    assert len(z.Z) == 2


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_diagonal_always_found(k):
    md = su2(k)
    diag = diagonal_invariant(md).Z
    assert any(z.Z == diag for z in enumerate_physical(md))
