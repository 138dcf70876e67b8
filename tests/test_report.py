"""Annulus spectra, heat-kernel consistency, and index chains."""

import json

import pytest
from mpmath import mp, workdps

import bcft.characters
import bcft.modular_data
import bcft.nimreps
import bcft.report
from bcft.characters import (QSeries, _Evaluated, characters_for, linear_combination,
                             s_transform_residual)
from bcft.cli import main as cli_main
from bcft.fusion import verlinde
from bcft.hp import GUARD_DIGITS, Fixed, from_fixed, num_str
from bcft.invariants import diagonal_invariant, enumerate_physical
from bcft.modular_data import build_su2
from bcft.nimreps import enumerate_su2_nimreps, psi_matrix, regular_nimrep, spectrum_match
from bcft.report import (
    _heat_kernel_residuals,
    annulus,
    annulus_document,
    full_report,
    heat_kernel_check,
    heat_kernel_residuals,
    index_document,
    index_report,
    normalize_theta,
)
from conftest import count_table_builds, fusion_minimal, fusion_su2, minimal, su2

ISING = lambda: minimal(4, 3)  # noqa: E731


# ---------------------------------------------------------------------------
# annulus coefficients


def test_annulus_multiplicities_follow_fusion_for_regular_boundaries():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    spin_spin = annulus(md, nr, 1, 1, order=100)
    assert spin_spin.multiplicities == (1, 0, 1)
    assert spin_spin.vacuum_present
    vac_spin = annulus(md, nr, 0, 1, order=100)
    assert vac_spin.multiplicities == (0, 1, 0)
    assert not vac_spin.vacuum_present
    eps_eps = annulus(md, nr, 2, 2, order=100)
    assert eps_eps.multiplicities == (1, 0, 0)
    assert eps_eps.vacuum_present


def test_annulus_series_is_the_sum_of_the_selected_characters():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    chis = characters_for(md, 100)
    both = linear_combination(((1, chis[0]), (1, chis[2])))
    assert annulus(md, nr, 1, 1, order=100).Z_ab == both
    assert annulus(md, nr, 0, 1, order=100).Z_ab == chis[1]


def test_annulus_rejects_unknown_labels(monkeypatch):
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    builds = count_table_builds(monkeypatch)
    with pytest.raises(ValueError, match=r"unknown boundary label in \(0, 7\)"):
        annulus(md, nr, 0, 7)
    # the heat-kernel lookup checks its labels before it builds anything
    with pytest.raises(ValueError, match=r"unknown boundary label in \(0, 7\)"):
        heat_kernel_check(md, nr, diagonal_invariant(md), 0, 7)
    assert builds == []


def test_annulus_document_shape():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    doc = annulus_document(md, annulus(md, nr, 2, 2, order=60))
    assert doc["pair"] == [2, 2]
    assert doc["multiplicities"] == [1, 0, 0]
    assert doc["offset"] == "-1/48"
    assert doc["vacuum_present"] is True
    assert len(doc["coeffs"]) >= 60


def test_vacuum_multiplicity_is_one_exactly_on_the_diagonal():
    cases = [
        (su2(k), regular_nimrep(fusion_su2(k))) for k in range(1, 6)
    ]
    cases.append((ISING(), regular_nimrep(fusion_minimal(4, 3))))
    cases.append((minimal(5, 2), regular_nimrep(fusion_minimal(5, 2))))
    md10 = su2(10)
    cases.append((md10, enumerate_su2_nimreps(md10, 6)[0]))
    for md, nr in cases:
        for a in nr.labels:
            for b in nr.labels:
                spectrum = annulus(md, nr, a, b, order=20)
                assert spectrum.multiplicities[0] == (1 if a == b else 0)
                assert spectrum.vacuum_present == (a == b)


# ---------------------------------------------------------------------------
# heat-kernel channel comparison


def test_heat_kernel_ising_pair():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    res = heat_kernel_check(md, nr, diagonal_invariant(md), 1, 1)
    assert res < 1e-8


def test_heat_kernel_e6_pairs():
    md = su2(10)
    (e6,) = [z for z in enumerate_physical(md) if z.tag == "E6"]
    (nr,) = enumerate_su2_nimreps(md, 6)
    for pair in [(0, 0), (2, 3), (5, 1)]:
        res = heat_kernel_check(md, nr, e6, *pair)
        assert res < 1e-8


def test_psi_and_both_channel_checks_make_no_mpf_sum(monkeypatch):
    """psi and both checks contract the fixed-point S: no mp.fsum runs, and
    neither the mpf view of S nor the rounding of mpf values back to Fixed
    is left in the package."""
    assert not hasattr(bcft.modular_data.ModularData, "S")
    assert not hasattr(Fixed, "of")

    def refuse(*args, **kwargs):
        raise AssertionError("mp.fsum called")

    monkeypatch.setattr(mp, "fsum", refuse)
    e6_model = su2(10)
    (e6,) = [z for z in enumerate_physical(e6_model) if z.tag == "E6"]
    (e6_nimrep,) = enumerate_su2_nimreps(e6_model, 6)
    ising = ISING()
    cases = [(e6_model, e6, e6_nimrep),
             (ising, diagonal_invariant(ising), regular_nimrep(fusion_minimal(4, 3)))]
    for md, Z, nr in cases:
        assert psi_matrix(nr, Z, md).cardy_residual < 1e-12
        residuals = heat_kernel_residuals(md, nr, Z)
        assert len(residuals) == nr.size ** 2 and max(residuals.values()) < 1e-8
        assert s_transform_residual(md) < 1e-8


def test_heat_kernel_residuals_lie_within_their_rounding_bound():
    """Each residual against |closed - open| summed exactly at 150 digits
    over psi, W and the characters rounded to 2^-B: within sqrt(e) + 2
    units, e the number of exponents."""
    e6_model = su2(10)
    (e6,) = [z for z in enumerate_physical(e6_model) if z.tag == "E6"]
    (e6_nimrep,) = enumerate_su2_nimreps(e6_model, 6)
    ising = ISING()
    cases = [(e6_model, e6, e6_nimrep, None),
             (ising, diagonal_invariant(ising), regular_nimrep(fusion_minimal(4, 3)), 3)]
    for md, Z, nr, beta in cases:
        psi = psi_matrix(nr, Z, md)
        with workdps(md.precision + GUARD_DIGITS):
            ev = _Evaluated(characters_for(md, 200), 200, beta, md.precision)
            got = _heat_kernel_residuals(md, nr, psi, ev)
        _, W, _ = md.fixed
        P, bits, lams = psi.psi, psi.psi.bits, list(psi.exponents)

        def value(F, *index):
            return from_fixed(int(F.re[index]), bits, 0 if F.im is None else int(F.im[index]))

        with workdps(150):
            chi_q = [from_fixed(int(x), bits) for x in ev.chi_q.re]
            weights = [from_fixed(int(ev.chi_qt.re[lam]), bits) * value(W, lam) for lam in lams]
            unit = from_fixed(1, bits)
            assert max(ev.tail_q, ev.tail_qt) < unit
            for ai, a in enumerate(nr.labels):
                for bi, b in enumerate(nr.labels):
                    closed = mp.fsum(value(P, ai, i) * mp.conj(value(P, bi, i)) * weights[i]
                                     for i in range(len(lams)))
                    opened = mp.fsum(int(nr.nmats[rho, ai, bi]) * chi_q[rho]
                                     for rho in range(md.n))
                    assert abs(got[a, b] - abs(closed - opened)) <= (
                        mp.sqrt(len(lams)) + 2) * unit, (a, b)


def test_heat_kernel_beta_must_be_positive():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    for beta in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            heat_kernel_check(md, nr, diagonal_invariant(md), 0, 0, beta=beta)


def test_heat_kernel_warns_when_truncation_dominates():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    res = heat_kernel_check(md, nr, diagonal_invariant(md), 1, 1, beta=0.5, order=400)
    assert res > 1e-8  # the reported value is the tail bound, not the raw gap


def test_full_report_statuses_are_the_channel_verdicts():
    """Each channel status reads "ok" exactly when its residual is below
    the tolerance: at beta = 0.5 the truncation tail fails both checks."""
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    Z = diagonal_invariant(md)
    for beta, status in ((None, "ok"), (0.5, bcft.report.FAILED)):
        doc = full_report(md, Z, nr, 400, beta)
        for channel in ("heat_kernel", "s_transform"):
            assert doc[channel]["status"] == status
            below = float(doc[channel]["max_residual"]) < float(doc[channel]["tolerance"])
            assert below == (status == "ok")


# ---------------------------------------------------------------------------
# index chains


def test_index_chain_for_free_fermion_extension():
    md = ISING()
    rep = index_report(md, (1, 0, 1))
    with workdps(60):
        assert abs(rep.d_pi - 2) < 1e-12
        assert abs(rep.mu - 4) < 1e-12
        assert abs(rep.two_interval - 16) < 1e-12
        assert abs(rep.c8_index - 4) < 1e-12


def test_index_chain_level_one():
    md = su2(1)
    rep = index_report(md, (1, 1))
    with workdps(60):
        assert abs(rep.d_pi - 2) < 1e-12
        assert abs(rep.mu - 2) < 1e-12
        assert abs(rep.two_interval - 8) < 1e-12
        assert abs(rep.c8_index - 2) < 1e-12


def test_two_interval_index_is_dpi_squared_times_mu():
    md = su2(3)
    rep = index_report(md, (1, 0, 0, 1))
    with workdps(60):
        assert abs(rep.two_interval - rep.d_pi**2 * rep.mu) < mp.mpf("1e-40")
        assert rep.c8_index == rep.mu


def test_theta_normalization_and_errors():
    md = ISING()
    assert normalize_theta(md, {"1,1": 1, "1,3": 1}) == (1, 0, 1)
    assert normalize_theta(md, {0: 2}) == (2, 0, 0)
    assert normalize_theta(md, [1, 1, 0]) == (1, 1, 0)
    with pytest.raises(ValueError):
        normalize_theta(md, [1, 0])  # wrong length
    with pytest.raises(ValueError, match="theta item 'sigma:1': no sector is named 'sigma'"):
        normalize_theta(md, {"sigma": 1})  # unknown name
    with pytest.raises(ValueError):
        normalize_theta(md, {0: 1, 7: 1})  # index past the last sector
    with pytest.raises(ValueError):
        index_report(md, (0, 1, 0))  # vacuum missing
    with pytest.raises(ValueError):
        index_report(md, (1, -1, 0))  # negative multiplicity


@pytest.mark.parametrize("index", [3, 7, -1])
def test_theta_index_outside_sector_range_is_rejected(index):
    """A negative index must not wrap onto the last sector."""
    with pytest.raises(ValueError, match="outside 0..2"):
        index_report(ISING(), {0: 1, index: 1})


def test_index_document_strings():
    md = ISING()
    doc = index_document(md, index_report(md, (1, 0, 1)))
    assert doc["format"] == "bcft-index/1"
    assert doc["theta"] == [1, 0, 1]
    assert float(doc["d_pi"]) == pytest.approx(2.0, abs=1e-12)
    assert float(doc["two_interval"]) == pytest.approx(16.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the bundled report


def test_full_report_ising_diagonal():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    doc = full_report(md, diagonal_invariant(md), nr, order=400)
    assert doc["format"] == "bcft-report/1"
    assert doc["vacuum_rule"] == {"ok": True}
    assert doc["psi"]["status"] == "ok"
    assert float(doc["psi"]["cardy_residual"]) < 1e-12
    assert doc["heat_kernel"]["status"] == "ok"
    assert float(doc["heat_kernel"]["max_residual"]) < 1e-8
    assert doc["s_transform"]["status"] == "ok"
    assert float(doc["s_transform"]["max_residual"]) < 1e-8
    assert doc["index"]["theta"] == [1, 0, 0]
    assert len(doc["annulus"]) == 9


@pytest.mark.parametrize("model", ["su2_10", "minimal_4_3", "minimal_5_4"])
def test_every_coefficient_is_a_python_int_and_the_report_is_json(model):
    """Products and combinations sum on object arrays; what they hand back
    are the Python ints themselves, so every document stays JSON."""
    family, *params = model.split("_")
    if family == "su2":
        md = su2(10)
        Z = next(z for z in enumerate_physical(md) if z.tag == "E6")
        nr = next(n for n in enumerate_su2_nimreps(md, Z.size) if spectrum_match(n, Z, md).ok)
    else:
        md = minimal(*map(int, params))
        Z, nr = diagonal_invariant(md), regular_nimrep(verlinde(md))
    chis = characters_for(md, 400)
    assert all(type(c) is int for chi in chis for c in chi.coeffs)
    combined = linear_combination([(m + 1, chi) for m, chi in enumerate(chis)])
    assert all(type(c) is int for c in combined.coeffs)
    doc = full_report(md, Z, nr, order=400)
    assert all(type(c) is int for pair in doc["annulus"] for c in pair["coeffs"])
    assert json.loads(json.dumps(doc)) == doc


def test_full_report_degenerate_exponents_are_reported_not_fatal():
    md = su2(4)
    (d4,) = [z for z in enumerate_physical(md) if z.tag == "D4"]
    (nr,) = enumerate_su2_nimreps(md, 4)
    doc = full_report(md, d4, nr, order=200)
    assert doc["psi"]["status"] == "degenerate-exponents"
    assert doc["heat_kernel"] == {"status": "skipped-degenerate-exponents"}
    assert doc["vacuum_rule"] == {"ok": True}
    assert doc["index"]["theta"] == [1, 0, 0, 0, 1]


def test_full_report_clamps_low_series_order():
    md = su2(1)
    nr = regular_nimrep(fusion_su2(1))
    doc = full_report(md, diagonal_invariant(md), nr, order=50)
    assert doc["s_transform"]["status"] == "ok"
    assert float(doc["s_transform"]["max_residual"]) < 1e-8


@pytest.mark.parametrize("order, beta", [(400, None), (50, 2.0)])
def test_full_report_matches_the_per_pair_functions(order, beta):
    md = ISING()
    Z = diagonal_invariant(md)
    nr = regular_nimrep(fusion_minimal(4, 3))
    dps = md.precision
    doc = full_report(md, Z, nr, order=order, beta=beta)
    pairs = [(a, b) for a in nr.labels for b in nr.labels]
    assert doc["annulus"] == [
        annulus_document(md, annulus(md, nr, a, b, order)) for a, b in pairs
    ]
    worst = max(heat_kernel_check(md, nr, Z, a, b, beta, order) for a, b in pairs)
    assert doc["heat_kernel"]["max_residual"] == num_str(worst, dps)
    residuals = heat_kernel_residuals(md, nr, Z, beta, order)
    assert doc["heat_kernel"]["max_residual"] == num_str(max(residuals.values()), dps)
    s_res = s_transform_residual(md, max(order, 200), beta)
    assert doc["s_transform"]["max_residual"] == num_str(s_res, dps)


def test_full_report_combines_each_multiplicity_vector_once(monkeypatch):
    md = su2(10)
    Z = next(z for z in enumerate_physical(md) if z.tag == "E6")
    nr = next(nr for nr in enumerate_su2_nimreps(md, Z.size) if spectrum_match(nr, Z, md).ok)
    combined = []

    def counting(terms):
        combined.append(terms)
        return linear_combination(terms)

    monkeypatch.setattr(bcft.report, "linear_combination", counting)
    doc = full_report(md, Z, nr, order=100)
    assert len(doc["annulus"]) == 36
    assert len(combined) == len({tuple(pair["multiplicities"]) for pair in doc["annulus"]}) == 12
    monkeypatch.undo()
    # pairs sharing a vector share its series; each equals its own annulus()
    assert doc["annulus"] == [
        annulus_document(md, annulus(md, nr, a, b, 100)) for a in nr.labels for b in nr.labels
    ]


def test_e6_pipeline_rounds_s_and_its_vacuum_row_once(monkeypatch):
    md = build_su2(10)
    verlinde(md)
    Z = next(z for z in enumerate_physical(md) if z.tag == "E6")
    nr = next(nr for nr in enumerate_su2_nimreps(md, Z.size) if spectrum_match(nr, Z, md).ok)
    # the builder wrote S as ints, T is ints from (c, h), W = 1/S_0 is
    # divided from S, and psi and every check contract md.fixed: the report
    # rounds nothing of S again, and no mpf of S or psi is rounded back
    assert not hasattr(md, "S") and not hasattr(Fixed, "of")
    assert not any(hasattr(m, "to_fixed") for m in (bcft.nimreps, bcft.report))
    monkeypatch.setattr(bcft.modular_data, "to_fixed", lambda *args: pytest.fail("rounded"))
    # the only values rounded are the characters', each once, and the
    # nome x of each evaluate
    rounded, evaluated = [], []
    to_fixed, evaluate = bcft.characters.to_fixed, QSeries.evaluate
    monkeypatch.setattr(bcft.characters, "to_fixed",
                        lambda x, bits: rounded.append(x) or to_fixed(x, bits))
    monkeypatch.setattr(QSeries, "evaluate",
                        lambda self, q, dps: evaluated.append(q) or evaluate(self, q, dps))
    full_report(md, Z, nr, order=50)
    # tables at orders 50 and 200, each at both nomes
    assert len(evaluated) == 2 * 2 * md.n
    assert len(rounded) == 2 * len(evaluated)


@pytest.mark.parametrize(
    "order, expected", [(400, [400]), (200, [200]), (50, [50, 200])]
)
def test_full_report_builds_each_character_table_once(order, expected, monkeypatch):
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    builds = count_table_builds(monkeypatch)
    full_report(md, diagonal_invariant(md), nr, order=order)
    assert builds == expected


def test_check_heat_kernel_builds_once_with_unchanged_output(monkeypatch, capsys):
    builds = count_table_builds(monkeypatch)
    code = cli_main(
        [
            "check", "heat-kernel", "--model", "su2", "--level", "10",
            "--invariant-tag", "E6", "--format", "structured",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert builds == [400]
    # stdout of the per-pair loop this check ran before; max_residual lies
    # below the working precision and follows the projector psi
    assert out == (
        '{\n "check": "heat-kernel",\n "format": "bcft-check/1",\n'
        ' "invariant_tag": "E6",\n'
        ' "max_residual": "6.8307316135897688269823515590320894984603939820728e-61",\n'
        ' "model": "su2_k10",\n "ok": true,\n "pairs": 36,\n'
        ' "tolerance": "1e-08"\n}\n'
    )
