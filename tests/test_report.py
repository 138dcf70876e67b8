"""Annulus spectra, heat-kernel consistency, and index chains."""

import pytest
from mpmath import mp, workdps

from bcft.characters import characters_for, s_transform_residual
from bcft.cli import main as cli_main
from bcft.errors import ConvergenceWarning
from bcft.hp import num_str
from bcft.invariants import diagonal_invariant, enumerate_physical
from bcft.nimreps import enumerate_su2_nimreps, regular_nimrep
from bcft.report import (
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
    assert annulus(md, nr, 1, 1, order=100).Z_ab == chis[0] + chis[2]
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


def test_heat_kernel_beta_must_be_positive():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    for beta in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            heat_kernel_check(md, nr, diagonal_invariant(md), 0, 0, beta=beta)


def test_heat_kernel_warns_when_truncation_dominates():
    md = ISING()
    nr = regular_nimrep(fusion_minimal(4, 3))
    with pytest.warns(ConvergenceWarning):
        res = heat_kernel_check(
            md, nr, diagonal_invariant(md), 1, 1, beta=0.5, order=400
        )
    assert res > 1e-8  # the reported value is the tail bound, not the raw gap


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
    with pytest.raises(KeyError):
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
        ' "max_residual": "1.2446030555722283414288128107560248481180504337442e-60",\n'
        ' "model": "su2_k10",\n "ok": true,\n "pairs": 36,\n'
        ' "tolerance": "1e-08"\n}\n'
    )
