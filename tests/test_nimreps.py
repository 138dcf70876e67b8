"""Nimreps: generation, verification, enumeration completeness, psi.

The enumeration restricts generator candidates to paths and one-center
spiders (with at most one unit loop).  Two oracles certify that this
loses nothing: a Prufer-sequence sweep over ALL labeled trees, and an
exhaustive sweep over ALL connected loop-marked graphs on up to five
nodes.  Any entry >= 2 already forces spectral radius >= 2 through a
2x2 principal submatrix, so 0/1 matrices cover every possible
generator.
"""

import dataclasses
import heapq
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from bcft.errors import (
    DegenerateExponents,
    DocumentFormatError,
    NegativityFailure,
    SizeMismatch,
    SpectralRadiusTooLarge,
)
import bcft.hp
from bcft.fusion import verlinde, verlinde_inputs
from bcft.hp import GUARD_DIGITS, to_fraction, tolerance
from bcft.intpoly import charpoly, mul, psi, rem
from bcft.invariants import ModularInvariant, diagonal_invariant, enumerate_physical
from bcft.modular_data import load_model
from bcft.nimreps import (
    _candidate_trees,
    _certify_norm,
    _exponent_traces,
    canonical_generator,
    d_graph,
    e6_graph,
    e7_graph,
    e8_graph,
    enumerate_su2_nimreps,
    generate_from_generator,
    nimrep_document,
    nimrep_from_document,
    path_graph,
    psi_matrix,
    regular_nimrep,
    spectrum_match,
    tadpole_graph,
    verify,
)
from conftest import all_coprime_pairs, fusion_minimal, fusion_su2, minimal, su2, su3_level1_document

# ---------------------------------------------------------------------------
# generation and verification


def test_path_generator_reproduces_regular_nimrep():
    k = 4
    nr = generate_from_generator(path_graph(k + 1), su2(k))
    assert nr.nmats == regular_nimrep(fusion_su2(k)).nmats
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
    assert nr.nmats[2] == ((2, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))


def test_wrong_level_path_fails_negativity():
    with pytest.raises(NegativityFailure) as exc:
        generate_from_generator(path_graph(3), su2(4))
    assert exc.value.index == 4


def test_e6_at_wrong_level_grows_but_fails_verification():
    md = su2(9)
    nr = generate_from_generator(e6_graph(), md)
    assert not verify(nr, fusion_su2(9)).ok


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


def test_verify_flags_broken_unit():
    fr = fusion_su2(2)
    nr = regular_nimrep(fr)
    bad = nr.nmats[:1] * 2 + nr.nmats[2:]
    from bcft.nimreps import Nimrep

    rep = verify(Nimrep(nr.labels, (nr.nmats[1], nr.nmats[1], nr.nmats[2])), fr)
    assert not rep.ok
    assert any(v[0] == "unit" for v in rep.violations)
    rep = verify(Nimrep(nr.labels, bad), fr)
    assert not rep.ok


def _product_violations_by_pair(candidate, fr):
    """The product check one (sigma, rho) pair at a time, as a reference."""
    mats = [np.array(mat, dtype=np.int64) for mat in candidate.nmats]
    N = fr.as_array()
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
    from bcft.nimreps import Nimrep

    fr = fusion_su2(k)
    mats = [np.array(mat, dtype=np.int64) for mat in regular_nimrep(fr).nmats]
    mats[sigma][a, b] += 1
    broken = Nimrep(tuple(range(fr.n)), tuple(tuple(map(tuple, m.tolist())) for m in mats))
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
    assert canonical_generator(nrs[0].generator()) == canonical_generator(
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
    assert nrs[0].nmats == (((1,),), ((1,),))
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


def labeled_trees(m: int):
    """All labeled trees on m nodes, decoded from Prufer sequences."""
    if m == 1:
        yield np.zeros((1, 1), dtype=np.int64)
        return
    if m == 2:
        a = np.zeros((2, 2), dtype=np.int64)
        a[0, 1] = a[1, 0] = 1
        yield a
        return
    for seq in itertools.product(range(m), repeat=m - 2):
        deg = [1] * m
        for v in seq:
            deg[v] += 1
        heap = [u for u in range(m) if deg[u] == 1]
        heapq.heapify(heap)
        a = np.zeros((m, m), dtype=np.int64)
        for v in seq:
            leaf = heapq.heappop(heap)
            a[leaf, v] = a[v, leaf] = 1
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(heap, v)
        u, w = heapq.heappop(heap), heapq.heappop(heap)
        a[u, w] = a[w, u] = 1
        yield a


def _small_norm_canonicals(mats) -> set:
    mats = list(mats)
    if not mats:
        return set()
    stack = np.stack([m.astype(np.float64) for m in mats])
    tops = np.linalg.eigvalsh(stack)[:, -1]
    return {
        canonical_generator(m)
        for m, top in zip(mats, tops)
        if top < 2 - 1e-12
    }


@pytest.mark.parametrize("m", range(2, 9))
def test_candidate_trees_cover_all_trees_below_radius_two(m):
    everything = _small_norm_canonicals(labeled_trees(m))
    restricted = _small_norm_canonicals(
        np.array(t, dtype=np.int64) for t in _candidate_trees(m)
    )
    assert everything == restricted


@pytest.mark.parametrize("m", range(1, 6))
def test_candidates_cover_all_connected_marked_graphs(m):
    """Exhaustive sweep: connected 0/1 graphs with optional unit loops."""
    positions = [(i, j) for i in range(m) for j in range(i, m)]

    def connected(a):
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in range(m):
                if u not in seen and (a[v, u] or (u == v and a[v, v])):
                    if u != v:
                        seen.add(u)
                        frontier.append(u)
        return len(seen) == m

    graphs = []
    for bits in itertools.product((0, 1), repeat=len(positions)):
        a = np.zeros((m, m), dtype=np.int64)
        for (i, j), b in zip(positions, bits):
            a[i, j] = a[j, i] = b
        if connected(a):
            graphs.append(a)

    candidates = []
    for t in _candidate_trees(m):
        base = np.array(t, dtype=np.int64)
        candidates.append(base)
        for v in range(m):
            b = base.copy()
            b[v, v] = 1
            candidates.append(b)

    assert _small_norm_canonicals(graphs) == _small_norm_canonicals(candidates)


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


def test_canonical_form_handles_small_cycles_and_rejects_big_ones():
    c3 = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert canonical_generator(c3) == c3
    c10 = tuple(
        tuple(1 if abs(i - j) in (1, 9) else 0 for j in range(10)) for i in range(10)
    )
    with pytest.raises(ValueError):
        canonical_generator(c10)


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


def test_certify_norm_refuses_a_root_above_the_target():
    # E6 carries 2cos(pi/12), so psi_24 divides the characteristic
    # polynomial, but the A12 block has the larger root 2cos(pi/13)
    c = _block_diagonal(e6_graph(), path_graph(12))
    assert rem(charpoly(c), psi(24)) == []
    assert _certify_norm(np.array(e6_graph()), 10)
    assert not _certify_norm(c, 10)


def test_certify_norm_refuses_a_top_root_within_the_float_filter():
    # the 2x2 block has top eigenvalue 2cos(pi/12) + 1.05e-10, inside the
    # 1e-9 float filter of enumerate_su2_nimreps
    near = [[-12519, 35395], [35395, -100055]]
    target = 2 * np.cos(np.pi / 12)
    for c in (np.array(near), _block_diagonal(e6_graph(), near)):
        top = np.linalg.eigvalsh(c.astype(np.float64))[-1]
        assert 0 < abs(top - target) < 1e-9
        assert not _certify_norm(c, 10)


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
    bad = dataclasses.replace(md, S=tuple(map(tuple, rows)))
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
    md = dataclasses.replace(minimal(5, 4), S=tuple(map(tuple, rows)))
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
    # against the sums over the working-precision S and 1/S_0 at 150 digits
    md = model()
    exps = diagonal_invariant(md).exponents
    with workdps(md.precision + GUARD_DIGITS):
        inv0 = [1 / x for x in md.S[0]]
    bits, re, im, err = _exponent_traces(md, exps)
    with workdps(150):
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


def test_document_round_trip_and_format_check():
    (nr,) = enumerate_su2_nimreps(su2(10), 6)
    assert nimrep_from_document(nimrep_document(nr)) == nr
    with pytest.raises(DocumentFormatError):
        nimrep_from_document({"format": "bcft-nimrep/2", "labels": [], "nmats": []})
