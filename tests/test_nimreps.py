"""Nimreps: generation, verification, enumeration completeness, psi.

The enumeration reads its generator candidates off an integer table of
the A-D-E-T graphs by Coxeter number.  Three checks certify that this
loses nothing: every unlabeled tree on up to 12 nodes, bare or with one
loop, and every connected loop-marked graph on up to five nodes, has
its norm certified by the characteristic polynomial at exactly the
Coxeter numbers the table lists it at; and up to 30 nodes, every spider
the table leaves out contains an affine E graph.  Any entry >= 2 already
forces spectral radius >= 2 through a 1x1 or 2x2 principal submatrix,
so 0/1 matrices cover every possible generator.
"""

import functools
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from bcft.errors import (
    CheckFailure,
    DegenerateExponents,
    DocumentFormatError,
    NegativityFailure,
    SizeMismatch,
    SpectralRadiusTooLarge,
)
import bcft.hp
from bcft.fusion import verlinde, verlinde_inputs
from bcft.hp import to_fraction, tolerance
from bcft.invariants import ModularInvariant, diagonal_invariant, enumerate_physical
from bcft.modular_data import load_model
from bcft.nimreps import (
    Nimrep,
    _check_generator,
    _closes,
    _coxeter_candidates,
    _exponent_traces,
    _spider,
    canonical_generator,
    enumerate_su2_nimreps,
    generate_from_generator,
    nimrep_document,
    nimrep_from_document,
    path_graph,
    psi_matrix,
    regular_nimrep,
    spectrum_match,
    verify,
)
from conftest import all_coprime_pairs, fusion_minimal, fusion_su2, minimal, su2, su3_level1_document
from intpoly import charpoly, mul, psi, rem
from oracles import (canonical_bruteforce, certify_norm, connected_by_squaring, d_graph, e6_graph,
                     e7_graph, e8_graph, tadpole_graph, with_s)

# ---------------------------------------------------------------------------
# generation and verification


def test_path_generator_reproduces_regular_nimrep():
    k = 4
    nr = generate_from_generator(path_graph(k + 1), su2(k))
    assert np.array_equal(nr.nmats, regular_nimrep(fusion_su2(k)).nmats)
    assert verify(nr, fusion_su2(k)).ok


def test_regular_nimreps_verify_exactly():
    for fr in [fusion_su2(k) for k in range(1, 9)] + [
        fusion_minimal(4, 3),
        fusion_minimal(5, 4),
        fusion_minimal(5, 2),
    ]:
        assert verify(regular_nimrep(fr), fr).ok


def test_d4_nimrep_matrices():
    md = su2(4)
    (nr,) = enumerate_su2_nimreps(md, 4)
    assert verify(nr, fusion_su2(4)).ok
    assert nr.nmats[2].tolist() == [[2, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]


def _past_the_norm_gate(monkeypatch, k: int):
    """From now on the generator norm that generate_from_generator computes
    is the level-k norm, as if float64 had missed by the whole difference."""
    norm = np.array([2 * math.cos(math.pi / (k + 2))])
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: norm)


def test_wrong_level_path_fails_negativity(monkeypatch):
    # A3 has the norm 2cos(pi/4) of level 2, so level 4 refuses it before
    # growing; past that gate, its family turns negative at step 4
    with pytest.raises(CheckFailure, match=r"norm 1\.414213562373 is not the level-4 norm"):
        generate_from_generator(path_graph(3), su2(4))
    _past_the_norm_gate(monkeypatch, 4)
    with pytest.raises(NegativityFailure) as exc:
        generate_from_generator(path_graph(3), su2(4))
    assert exc.value.index == 4


def test_e6_at_wrong_level_grows_but_fails_verification(monkeypatch):
    # E6 has the norm of level 10: level 9 refuses it before growing; past
    # that gate, it grows a non-negative family there that is no nimrep
    md = su2(9)
    with pytest.raises(CheckFailure, match="not the level-9 norm"):
        generate_from_generator(e6_graph(), md)
    _past_the_norm_gate(monkeypatch, 9)
    nr = generate_from_generator(e6_graph(), md)
    assert not verify(nr, fusion_su2(9)).ok


def test_a_generator_of_another_norm_is_refused_before_it_grows():
    # 2,000 nodes would take about 100 s of products at level 10
    with pytest.raises(CheckFailure) as exc:
        generate_from_generator(path_graph(2000), su2(10))
    assert str(exc.value) == ("generator norm %.12f is not the level-10 norm 2cos(pi/12) = %.12f"
                              % (2 * math.cos(math.pi / 2001), 2 * math.cos(math.pi / 12)))


def test_every_table_graph_of_the_level_passes_the_norm_gate():
    grown = 0
    for k in range(1, 31):
        for m in range(1, 31):
            for c in _coxeter_candidates(m, k + 2):
                assert verify(generate_from_generator(c, su2(k)), fusion_su2(k)).ok, (k, c)
                grown += 1
    assert grown == 61


def test_cycle_generator_has_radius_two():
    c4 = ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0))
    with pytest.raises(SpectralRadiusTooLarge):
        generate_from_generator(c4, su2(6))


def test_generator_input_validation():
    with pytest.raises(ValueError):
        generate_from_generator(((0, 1), (1, 0), (0, 0)), su2(2))  # not square
    with pytest.raises(ValueError):
        generate_from_generator(((0, 1), (0, 0)), su2(2))  # not symmetric
    with pytest.raises(ValueError):
        generate_from_generator(((0, -1), (-1, 0)), su2(2))  # negative
    with pytest.raises(ValueError):
        generate_from_generator(
            ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), su2(2)
        )  # disconnected


def _every_symmetric_01(m: int):
    positions = [(i, j) for i in range(m) for j in range(i, m)]
    for bits in itertools.product((0, 1), repeat=len(positions)):
        rows = [[0] * m for _ in range(m)]
        for (i, j), b in zip(positions, bits):
            rows[i][j] = rows[j][i] = b
        yield rows


def _random_symmetric_01(rng, m: int):
    rows = [[0] * m for _ in range(m)]
    density = rng.random()
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = int(rng.random() < density)
    return rows


def _refused_as_disconnected(rows) -> bool:
    try:
        _check_generator(rows)
    except ValueError as exc:
        assert str(exc) == "generator must be connected"
        return True
    return False


def test_connectivity_walk_refuses_what_boolean_squaring_refuses():
    rng = random.Random(31)
    groups = [list(_every_symmetric_01(m)) for m in range(1, 6)]
    groups += [[_random_symmetric_01(rng, m) for _ in range(40)] for m in range(6, 13)]
    split = []
    while len(split) < 100:  # two connected components, shuffled together
        a, b = (_random_symmetric_01(rng, rng.randint(1, 6)) for _ in range(2))
        if connected_by_squaring(np.array(a)) and connected_by_squaring(np.array(b)):
            both = _block_diagonal(a, b)
            perm = rng.sample(range(len(both)), len(both))
            split.append(both[np.ix_(perm, perm)].tolist())
    groups += [[rows] for rows in split]  # one group per size
    groups.append([_block_diagonal(path_graph(3), tadpole_graph(4)).tolist()])
    refused = Counter()
    for group in groups:
        for rows, connected in zip(group, connected_by_squaring(np.array(group))):
            assert _refused_as_disconnected(rows) == (not connected), rows
            refused[not connected] += 1
    assert refused[True] > 100 and refused[False] > 100


@pytest.mark.parametrize("G, k", [
    ([[0, 1.5], [1.5, 0]], 2),
    ([[True]], 1),
    ([[0, 1, 0], [1, 0, 1.0], [0, 1.0, 0]], 2),
    (np.array(path_graph(3), dtype=float), 2),
    (np.array([[True]]), 1),
    ([["0"]], 1),
    ([[0, 1], [1]], 2),
], ids=["float", "bool", "float-path", "float-array", "bool-array", "str", "ragged"])
def test_generator_entries_must_be_integers(G, k):
    # truncating would grow the families of [[0, 1], [1, 0]], [[1]] and the path
    with pytest.raises(ValueError, match="expected a square integer adjacency matrix"):
        generate_from_generator(G, su2(k))


def test_integer_arrays_grow_like_their_rows():
    rows = path_graph(3)
    want = generate_from_generator(rows, su2(2))
    for dtype in (np.int64, np.uint8):
        got = generate_from_generator(np.array(rows, dtype=dtype), su2(2))
        assert got.labels == want.labels and np.array_equal(got.nmats, want.nmats)


def test_verify_flags_broken_unit():
    fr = fusion_su2(2)
    nr = regular_nimrep(fr)
    bad = nr.nmats[[0, 0, 2]]
    rep = verify(Nimrep(nr.labels, nr.nmats[[1, 1, 2]]), fr)
    assert not rep.ok
    assert any(v[0] == "unit" for v in rep.violations)
    rep = verify(Nimrep(nr.labels, bad), fr)
    assert not rep.ok


def _product_violations_by_pair(candidate, fr):
    """The product check one (sigma, rho) pair at a time, as a reference."""
    mats = [np.array(mat, dtype=np.int64) for mat in candidate.nmats]
    N = fr.N
    return [
        ("product", sigma, rho)
        for sigma in range(fr.n)
        for rho in range(fr.n)
        if not np.array_equal(
            mats[sigma] @ mats[rho],
            sum(int(N[sigma][rho][tau]) * mats[tau] for tau in range(fr.n)),
        )
    ]


@pytest.mark.parametrize("k, sigma, a, b", [(4, 1, 0, 1), (4, 3, 2, 2), (6, 2, 4, 3)])
def test_verify_product_violations_match_the_pairwise_check(k, sigma, a, b):
    fr = fusion_su2(k)
    mats = regular_nimrep(fr).nmats.copy()
    mats[sigma, a, b] += 1
    broken = Nimrep(tuple(range(fr.n)), mats)
    got = [v for v in verify(broken, fr).violations if v[0] == "product"]
    assert got and got == _product_violations_by_pair(broken, fr)


# ---------------------------------------------------------------------------
# enumeration: counts at invariant sizes, plus the tadpole exceptions


def test_enumeration_counts_at_invariant_sizes():
    for k in range(1, 9):
        md = su2(k)
        for z in enumerate_physical(md):
            nrs = enumerate_su2_nimreps(md, z.size)
            matching = [nr for nr in nrs if spectrum_match(nr, z, md).ok]
            assert len(matching) == 1, (k, z.tag)


def test_tadpole_exists_at_size_without_invariant():
    # 2 cos(pi/7) is the top eigenvalue of the 3-node tadpole: level 5
    md = su2(5)
    nrs = enumerate_su2_nimreps(md, 3)
    assert len(nrs) == 1
    assert verify(nrs[0], fusion_su2(5)).ok
    assert canonical_generator(nrs[0].nmats[1]) == canonical_generator(
        tadpole_graph(3)
    )
    # every invariant at level 5 has a different size
    assert all(z.size != 3 for z in enumerate_physical(md))
    with pytest.raises(SizeMismatch):
        spectrum_match(nrs[0], enumerate_physical(md)[0], md)


def test_one_boundary_nimrep_at_level_one():
    md = su2(1)
    nrs = enumerate_su2_nimreps(md, 1)
    assert len(nrs) == 1
    assert nrs[0].nmats.tolist() == [[[1]], [[1]]]
    assert verify(nrs[0], fusion_su2(1)).ok


def test_enumeration_size_bounds():
    with pytest.raises(ValueError):
        enumerate_su2_nimreps(su2(2), 0)
    with pytest.raises(ValueError):
        enumerate_su2_nimreps(su2(2), 31)
    with pytest.raises(ValueError):
        enumerate_su2_nimreps(minimal(4, 3), 3)


# ---------------------------------------------------------------------------
# completeness oracles for the candidate family


# Coxeter numbers up to 31 hold every table graph on up to 12 nodes
COXETER = range(2, 32)


@functools.lru_cache(maxsize=None)
def unlabeled_trees(m: int) -> frozenset:
    """The trees on m nodes up to relabeling, as canonical_generator forms.

    Every tree on m >= 2 nodes is a tree on m - 1 with one leaf added, and
    canonical_generator returns a relabeling of its input, so two trees
    that differ never share a form."""
    if m == 1:
        return frozenset({((0,),)})
    out = set()
    for tree in unlabeled_trees(m - 1):
        for v in range(m - 1):
            rows = [list(row) + [0] for row in tree] + [[0] * m]
            rows[v][m - 1] = rows[m - 1][v] = 1
            out.add(canonical_generator(rows))
    return frozenset(out)


def _certified(graphs) -> dict:
    """h -> the canonical forms of the graphs (all of one size) whose norm
    certify_norm certifies as 2cos(pi/h), for every h in COXETER.

    Only graphs of float norm below 2 - 1e-3 reach certify_norm: the rest
    have norm above 2cos(pi/31) = 2 - 0.0103, which no h here gives, and
    eigvalsh is off by far less than 1e-3 on matrices this small."""
    graphs = list(graphs)
    tops = np.linalg.eigvalsh(np.stack(graphs).astype(np.float64))[:, -1]
    small = {canonical_generator(g) for g, top in zip(graphs, tops) if top < 2 - 1e-3}
    out = {h: set() for h in COXETER}
    for g in small:
        p = charpoly(g)
        for h in COXETER:
            # psi_(2h) | charpoly(g) is the first condition of certify_norm
            if not rem(p, psi(2 * h)) and certify_norm(np.array(g), h - 2):
                out[h].add(g)
    return out


def _table(m: int) -> dict:
    return {h: {canonical_generator(c) for c in _coxeter_candidates(m, h)} for h in COXETER}


def _with_one_loop(rows):
    """rows bare, then with a loop at each node in turn, as int64 arrays."""
    bare = np.array(rows, dtype=np.int64)
    yield bare
    for v in range(len(bare)):
        marked = bare.copy()
        marked[v, v] = 1
        yield marked


@pytest.mark.parametrize("m", range(2, 13))
def test_candidate_trees_cover_all_trees_below_radius_two(m):
    # the unlabeled tree counts, OEIS A000055
    assert len(unlabeled_trees(m)) == (1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)[m - 2]
    graphs = [g for tree in unlabeled_trees(m) for g in _with_one_loop(tree)]
    assert _certified(graphs) == _table(m)


@pytest.mark.parametrize("m", range(1, 6))
def test_candidates_cover_all_connected_marked_graphs(m):
    """Exhaustive sweep: connected 0/1 graphs with optional unit loops."""
    graphs = [np.array(rows, dtype=np.int64) for rows in _every_symmetric_01(m)]
    connected = connected_by_squaring(np.stack(graphs))
    assert _certified(g for g, ok in zip(graphs, connected) if ok) == _table(m)


# the affine E graphs with their null vectors of 2 - A (the marks)
AFFINE_E = {
    (2, 2, 2): (3, 2, 1, 2, 1, 2, 1),
    (3, 3, 1): (4, 3, 2, 1, 3, 2, 1, 2),
    (5, 2, 1): (6, 5, 4, 3, 2, 1, 4, 2, 3),
}


def test_affine_e_graphs_have_radius_exactly_two():
    # a positive eigenvector is the Perron vector; float eigvalsh reads
    # 2.0000000000000004, 1.9999999999999996 and 1.9999999999999998 on
    # them, on both sides of 2, so only the integer check is exact
    for legs, marks in AFFINE_E.items():
        v = np.array(marks, dtype=object)
        assert _spider(legs).astype(object).dot(v).tolist() == (2 * v).tolist()


def test_candidate_spiders_are_those_without_an_affine_e_subgraph():
    """Up to 30 nodes, a spider T(a, b, c) is among the table's graphs of
    its size exactly when its legs dominate those of no affine E graph, so
    every spider left out has radius at least 2 by monotonicity; every
    spider kept has float radius below 2 - 1e-3.  With the path they are
    all the loop-free graphs of the table, and the tadpole is its one
    graph with a loop."""
    for m in range(1, 31):
        # h = 61 is the largest Coxeter number on 30 nodes, the tadpole's
        table = {canonical_generator(c) for h in range(2, 62) for c in _coxeter_candidates(m, h)}
        kept = {canonical_generator(path_graph(m))}
        spiders = [(a, b, m - 1 - a - b) for a in range(1, m) for b in range(1, a + 1)
                   if 1 <= m - 1 - a - b <= b]
        for legs in spiders:
            g = _spider(legs)
            covers = any(all(x >= y for x, y in zip(legs, e)) for e in AFFINE_E)
            assert (canonical_generator(g) not in table) == covers, legs
            if not covers:
                assert np.linalg.eigvalsh(g.astype(np.float64))[-1] < 2 - 1e-3, legs
                kept.add(canonical_generator(g))
        assert table == kept | {canonical_generator(tadpole_graph(m))}


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_known_graphs_are_fixed_points_up_to_relabeling():
    for g in [path_graph(6), d_graph(5), e6_graph(), e7_graph(), e8_graph(), tadpole_graph(4)]:
        canon = canonical_generator(g)
        assert canonical_generator(canon) == canon


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [path_graph(7), d_graph(6), e6_graph(), e8_graph(), tadpole_graph(5)]
    ),
    st.randoms(use_true_random=False),
)
def test_canonical_form_is_permutation_invariant(g, rng):
    a = np.array(g, dtype=np.int64)
    m = a.shape[0]
    perm = list(range(m))
    rng.shuffle(perm)
    p = np.zeros((m, m), dtype=np.int64)
    for i, j in enumerate(perm):
        p[i, j] = 1
    shuffled = p @ a @ p.T
    assert canonical_generator(shuffled) == canonical_generator(a)


C3 = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_canonical_form_handles_small_cycles_and_rejects_big_ones():
    # the package canonicalizes trees only; the oracle handles small cycles
    assert canonical_bruteforce(C3) == C3
    c10 = tuple(
        tuple(1 if abs(i - j) in (1, 9) else 0 for j in range(10)) for i in range(10)
    )
    with pytest.raises(ValueError):
        canonical_generator(c10)


def test_canonical_form_refuses_every_non_tree():
    # a triangle beside a lone node has m - 1 edges, like a tree
    c3_and_node = ((0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0))
    for g in (C3, c3_and_node, ((0, 0), (0, 0))):
        with pytest.raises(ValueError, match="loop-marked tree"):
            canonical_generator(g)


# ---------------------------------------------------------------------------
# spectra and boundary-state matrices


def test_spectrum_match_accepts_the_right_invariant_only():
    md = su2(10)
    invs = {z.tag: z for z in enumerate_physical(md)}
    (e6,) = enumerate_su2_nimreps(md, 6)
    assert spectrum_match(e6, invs["E6"], md).ok
    with pytest.raises(SizeMismatch):
        spectrum_match(e6, invs["A11"], md)


def _block_diagonal(a, b) -> np.ndarray:
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    out = np.zeros((len(a) + len(b),) * 2, dtype=np.int64)
    out[: len(a), : len(a)] = a
    out[len(a):, len(a):] = b
    return out


def _grow(G, k: int) -> Nimrep:
    """n^0..n^k by n^(a+1) = n^a G - n^(a-1) on Python ints, with none of
    the checks of generate_from_generator."""
    G = np.array(G, dtype=object)
    mats = [np.identity(len(G), dtype=object), G]
    while len(mats) <= k:
        mats.append(mats[-1].dot(G) - mats[-2])
    return Nimrep(tuple(range(len(G))), mats)


def test_e6_family_closes_at_level_ten():
    assert _closes(generate_from_generator(e6_graph(), su2(10)))
    assert _closes(_grow(e6_graph(), 10))


def test_closure_refuses_a_root_above_the_target():
    # E6 carries 2cos(pi/12), so psi_24 divides the characteristic
    # polynomial, but the A12 block has the larger root 2cos(pi/13)
    c = _block_diagonal(e6_graph(), path_graph(12))
    assert rem(charpoly(c), psi(24)) == []
    assert not _closes(_grow(c, 10))


def test_closure_refuses_a_top_root_within_the_float_filter():
    # the 2x2 block has top eigenvalue 2cos(pi/12) + 1.05e-10: a float test
    # of width 1e-9 would take it for the norm of level 10; closure does not
    near = [[-12519, 35395], [35395, -100055]]
    target = 2 * np.cos(np.pi / 12)
    for c in (np.array(near), _block_diagonal(e6_graph(), near)):
        top = np.linalg.eigvalsh(c.astype(np.float64))[-1]
        assert 0 < abs(top - target) < 1e-9
        assert not _closes(_grow(c, 10))


def test_closure_alone_admits_a_family_that_turns_negative(monkeypatch):
    # A2 has the eigenvalues 2cos(pi j/6), j = 2, 4, so n^5 = 0 at level 4;
    # its top eigenvalue 1 = 2cos(2 pi/6) is not the norm of the level, and
    # n^3 = U_3(G/2) is negative on its Perron vector; level 4 refuses it
    # by its norm before growing, and past that gate at step 3
    assert _closes(_grow(path_graph(2), 4))
    with pytest.raises(CheckFailure, match="not the level-4 norm"):
        generate_from_generator(path_graph(2), su2(4))
    _past_the_norm_gate(monkeypatch, 4)
    with pytest.raises(NegativityFailure) as exc:
        generate_from_generator(path_graph(2), su2(4))
    assert exc.value.index == 3


def test_closure_certifies_what_the_characteristic_polynomial_certifies():
    # every table graph on up to 12 nodes at every level up to 20: certified
    # exactly at its own Coxeter number, where generate_from_generator grows
    # the same family; elsewhere the family turns negative (a smaller norm)
    # or fails to close (a larger one), and generate_from_generator refuses
    # the generator by its norm
    verdicts = Counter()
    for k in range(1, 21):
        for m in range(1, 13):
            for h in COXETER:
                for c in _coxeter_candidates(m, h):
                    nr = _grow(c, k)
                    grows = nr.nmats.min() >= 0
                    certified = grows and certify_norm(c, k)
                    assert certified == (grows and _closes(nr)) == (h == k + 2), (k, h, c)
                    verdicts[not grows, certified] += 1
                    if h == k + 2:
                        assert np.array_equal(generate_from_generator(c, su2(k)).nmats, nr.nmats)
                    else:
                        with pytest.raises(CheckFailure):
                            generate_from_generator(c, su2(k))
    assert verdicts[False, True] > 20 and verdicts[True, False] > 100 and verdicts[False, False] > 100


def test_spectrum_match_refuses_wrong_and_non_galois_closed_exponents():
    md = su2(10)
    (e6,) = enumerate_su2_nimreps(md, 6)
    # j = lambda + 1 = 1, 3, 5, 7, 9, 11: Galois-closed, not E6's
    wrong = ModularInvariant((), (0, 2, 4, 6, 8, 10), "wrong")
    # E6 has j = 1, 5, 7, 11 once each; here j = 1 twice and 5 never: the
    # same count per class, but no integer matrix has this spectrum
    not_closed = ModularInvariant((), (0, 0, 3, 6, 7, 10), "not-closed")
    # the traces differ from the sums of S_rho lambda / S_0 lambda at these sectors
    for z, sectors in ((wrong, (2, 6, 8, 10)), (not_closed, tuple(range(1, 10)))):
        rep = spectrum_match(e6, z, md)
        assert not rep.ok and rep.mismatches == sectors


def test_spectrum_match_on_minimal_and_complex_models():
    # minimal(3, 2) has one sector, minimal(7, 5) 12 (an mpmath eigensolve
    # did not converge there); su(3)_1 has the complex ratios omega, omega^2
    models = [minimal(5, 2), minimal(3, 2), minimal(7, 5), load_model(su3_level1_document())]
    for md in models:
        nr = regular_nimrep(verlinde(md))
        assert spectrum_match(nr, diagonal_invariant(md), md).ok
    md = minimal(5, 4)
    z = diagonal_invariant(md)
    exps = list(z.exponents)
    exps[-1] = exps[-2]
    wrong = ModularInvariant((), tuple(exps), "wrong")
    rep = spectrum_match(regular_nimrep(fusion_minimal(5, 4)), wrong, md)
    assert not rep.ok and rep.mismatches
    # S_11 off by 1e-20 moves the sector-1 trace sum far less than 1, and
    # far more than tolerance(50) = 1e-25
    rows = [list(row) for row in md.S]
    with workdps(60):
        rows[1][1] += mp.mpf(10) ** -20
    bad = with_s(md, rows)
    assert spectrum_match(regular_nimrep(fusion_minimal(5, 4)), z, bad).mismatches == (1,)


# the characteristic-polynomial comparison spectrum_match used before it
# compared traces, kept as the oracle for its verdicts


def _su2_exponent_polynomial(k: int, exps) -> list | None:
    """prod over the exponents lambda of (x - 2cos(pi j/h)), j = lambda + 1,
    h = k + 2, or None when the multiset is not Galois-closed: the roots of
    psi_(2h/g), g = gcd(j, 2h), are the 2cos(pi j'/h) with gcd(j', 2h) = g."""
    n = 2 * (k + 2)
    mult = Counter(lam + 1 for lam in exps)
    out = [1]
    for g in sorted({math.gcd(j, n) for j in mult}):
        counts = {mult[j] for j in range(1, k + 2) if math.gcd(j, n) == g}
        if len(counts) != 1:
            return None
        for _ in range(counts.pop()):
            out = mul(out, psi(n // g))
    return out


def _elementary(re, im) -> tuple:
    """e_0..e_m of the values re_j + i im_j, as lists of real and imaginary parts."""
    e_re, e_im = [1] + [0] * len(re), [0] * (len(re) + 1)
    for x, y in zip(re, im):
        for i in range(len(re), 0, -1):
            e_re[i] += x * e_re[i - 1] - y * e_im[i - 1]
            e_im[i] += x * e_im[i - 1] + y * e_re[i - 1]
    return e_re, e_im


def _charpoly_match(nr, Z, md) -> bool:
    """Level-k data: the generator's characteristic polynomial equals the
    exact product of _su2_exponent_polynomial.  Other models: for every rho,
    each coefficient of prod over lambda of (x - S_rho lambda / S_0 lambda),
    in fixed point with its error bound err_i = e_i(b + delta) - e_i(b),
    lies within tolerance(precision) - err_i of the one of charpoly(n^rho)."""
    exps = Z.exponents
    if md.family == "su2":
        return charpoly(nr.nmats[1]) == _su2_exponent_polynomial(md.params[0], exps)
    tol = to_fraction(tolerance(md.precision))
    S, W, _ = verlinde_inputs(md)
    m = len(exps)
    delta = math.ceil(S.bound() + W.bound()) + 2
    for rho in range(md.n):
        R = (S[rho][list(exps)] * W[list(exps)]).rescale(S.bits)
        re, im = R.re.tolist(), [0] * m if R.im is None else R.im.tolist()
        b = [math.isqrt(x * x + y * y) + 1 + delta for x, y in zip(re, im)]
        lo, hi = (_elementary(v, [0] * m)[0] for v in (b, [x + delta for x in b]))
        e_re, e_im = _elementary(re, im)
        want = charpoly(nr.nmats[rho])
        for i in range(1, m + 1):
            scale = 1 << S.bits * i
            slack = tol * scale - (hi[i] - lo[i])
            diff = (-1) ** i * e_re[i] - want[i] * scale
            if slack < 0 or diff * diff + e_im[i] * e_im[i] > slack * slack:
                return False
    return True


def _oracle_cases():
    for k in range(1, 21):
        md = su2(k)
        for z in enumerate_physical(md):
            for nr in enumerate_su2_nimreps(md, z.size):
                yield nr, z, md
    (e6,) = enumerate_su2_nimreps(su2(10), 6)
    for exps in ((0, 2, 4, 6, 8, 10), (0, 0, 3, 6, 7, 10)):
        yield e6, ModularInvariant((), exps, "wrong"), su2(10)
    for p, pp in all_coprime_pairs(9):
        md = minimal(p, pp)
        yield regular_nimrep(fusion_minimal(p, pp)), diagonal_invariant(md), md
    exps = list(diagonal_invariant(minimal(5, 4)).exponents)
    exps[-1] = exps[-2]
    yield regular_nimrep(fusion_minimal(5, 4)), ModularInvariant((), tuple(exps), "wrong"), minimal(5, 4)
    rows = [list(row) for row in minimal(5, 4).S]
    with workdps(60):
        rows[1][1] += mp.mpf(10) ** -20
    md = with_s(minimal(5, 4), rows)
    yield regular_nimrep(fusion_minimal(5, 4)), diagonal_invariant(md), md
    md = load_model(su3_level1_document())
    yield regular_nimrep(verlinde(md)), diagonal_invariant(md), md


def test_trace_verdicts_equal_the_charpoly_verdicts():
    verdicts = Counter()
    for nr, z, md in _oracle_cases():
        ok = spectrum_match(nr, z, md).ok
        assert ok == _charpoly_match(nr, z, md), (md.family, md.params, z.tag)
        verdicts[ok] += 1
    assert verdicts[True] > 40 and verdicts[False] == 4


@pytest.mark.parametrize(
    "model",
    [lambda: minimal(7, 5), lambda: minimal(5, 2), lambda: load_model(su3_level1_document())],
    ids=["minimal_7_5", "minimal_5_2", "su3_k1"],
)
def test_exponent_traces_lie_within_their_error_bound(model):
    # against the sums over the working S (the fixed-point S itself) and its
    # 1/S_0, at 150 digits
    md = model()
    exps = diagonal_invariant(md).exponents
    bits, re, im, err = _exponent_traces(md, exps)
    with workdps(150):
        inv0 = [1 / x for x in md.S[0]]
        unit = mp.mpf(2) ** bits
        worst = err / unit
        for rho in range(md.n):
            exact = mp.fsum(md.S[rho][lam] * inv0[lam] for lam in exps)
            assert abs(mp.mpc(int(re[rho]), int(im[rho])) / unit - exact) <= worst
        assert 0 < worst < 1e-50


def test_enumeration_and_matching_run_no_eigensolve(monkeypatch):
    def refuse(*args):
        raise AssertionError("eigensolve called")

    monkeypatch.setattr(bcft.hp, "eig_symmetric", refuse)
    monkeypatch.setattr(mp, "eigsy", refuse)
    md = su2(10)
    for z in enumerate_physical(md):
        matched = [nr for nr in enumerate_su2_nimreps(md, z.size) if spectrum_match(nr, z, md).ok]
        assert len(matched) == 1
        if len(set(z.exponents)) == z.size:
            assert psi_matrix(matched[0], z, md).cardy_residual < 1e-12
    md = minimal(5, 4)
    psi = psi_matrix(regular_nimrep(fusion_minimal(5, 4)), diagonal_invariant(md), md)
    assert psi.cardy_residual < 1e-12


def test_regular_psi_equals_s_matrix():
    # su(3)_1 has the complex ratios omega, omega^2
    for md in (minimal(4, 3), load_model(su3_level1_document())):
        nr = regular_nimrep(verlinde(md))
        psi = psi_matrix(nr, diagonal_invariant(md), md)
        assert psi.cardy_residual < 1e-12
        with workdps(60):
            worst = max(
                abs(psi.psi[a][i] - md.S[a][i])
                for a in range(3)
                for i in range(3)
            )
            assert worst < 1e-40


def test_e6_psi_top_row():
    md = su2(10)
    invs = {z.tag: z for z in enumerate_physical(md)}
    (nr,) = enumerate_su2_nimreps(md, 6)
    psi = psi_matrix(nr, invs["E6"], md)
    assert psi.exponents == (0, 3, 4, 6, 7, 10)
    assert psi.cardy_residual < 1e-12
    row = [float(x) for x in psi.psi[0]]
    expected = [0.627963, 0.0, 0.325058, 0.325058, 0.0, 0.627963]
    assert max(abs(a - b) for a, b in zip(row, expected)) < 1e-6


def test_degenerate_exponents_are_refused():
    md = su2(4)
    d4 = [z for z in enumerate_physical(md) if z.tag == "D4"][0]
    (nr,) = enumerate_su2_nimreps(md, 4)
    with pytest.raises(DegenerateExponents):
        psi_matrix(nr, d4, md)


def test_psi_size_mismatch():
    md = su2(10)
    invs = {z.tag: z for z in enumerate_physical(md)}
    nr = regular_nimrep(fusion_su2(10))
    with pytest.raises(SizeMismatch):
        psi_matrix(nr, invs["E6"], md)


def test_tensors_and_families_are_read_only_arrays():
    # the rings and models of conftest are shared by every test
    fr = fusion_su2(4)
    big = nimrep_from_document({"format": "bcft-nimrep/1", "labels": [0],
                                "nmats": [[[1]], [[2**63 + 1]]]})
    made = {
        "verlinde": fr.N,
        "regular_nimrep": regular_nimrep(fr).nmats,
        "generate_from_generator": generate_from_generator(path_graph(5), su2(4)).nmats,
        "enumerate_su2_nimreps": enumerate_su2_nimreps(su2(4), 4)[0].nmats,
        "nimrep_from_document": nimrep_from_document(nimrep_document(regular_nimrep(fr))).nmats,
        "nimrep_from_document past int64": big.nmats,
    }
    assert big.nmats.dtype == object and fr.N.dtype == np.int64
    for name, array in made.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 7


def test_document_round_trip_and_format_check():
    (nr,) = enumerate_su2_nimreps(su2(10), 6)
    back = nimrep_from_document(nimrep_document(nr))
    assert back.labels == nr.labels and np.array_equal(back.nmats, nr.nmats)
    with pytest.raises(DocumentFormatError):
        nimrep_from_document({"format": "bcft-nimrep/2", "labels": [], "nmats": []})
