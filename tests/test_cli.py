"""End-to-end command-line behavior: documents, exit codes, cache."""

import contextlib
import functools
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bcft.errors
import bcft.fusion
import bcft.invariants
import bcft.nimreps
from bcft import cli, persistence
from bcft.cli import main as cli_main
from bcft.fusion import verlinde
from bcft.modular_data import load_model, model_to_document
from bcft.nimreps import enumerate_su2_nimreps, nimrep_document, regular_nimrep
from bcft.persistence import canonical_json
from conftest import minimal, su2
from oracles import e6_graph


def run(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--format", "structured"], capsys)
    return code, (json.loads(out) if out else None), err


# ---------------------------------------------------------------------------
# happy paths


def test_models_lists_families(capsys):
    code, doc, _ = run_json(["models"], capsys)
    assert code == 0
    assert doc["format"] == "bcft-model-list/1"
    assert {f["family"] for f in doc["families"]} == {"su2", "minimal", "custom"}


def test_invariant_listing_level_ten(capsys):
    code, doc, err = run_json(
        ["invariants", "--model", "su2", "--level", "10"], capsys
    )
    assert code == 0
    assert doc["count"] == 3
    assert {z["tag"] for z in doc["invariants"]} == {"A11", "D7", "E6"}
    assert "resolved configuration:" in err
    # invariants sums no q-series, so it takes neither --beta nor --order
    assert "  beta: " not in err and "  order: " not in err
    code, _, err = run_json(["check", "s-transform", "--model", "su2", "--level", "1"], capsys)
    assert code == 0
    assert "\n  beta: 2*pi\n" in err and "\n  order: 400\n" in err


def test_fusion_text_output(capsys):
    code, out, err = run(["fusion", "--model", "minimal", "--p", "4", "--pp", "3"], capsys)
    assert code == 0
    assert "format: bcft-fusion/1" in out
    assert "tensor:" in out


def test_characters_structured(capsys):
    code, doc, _ = run_json(
        ["characters", "--model", "su2", "--level", "1", "--order", "20"], capsys
    )
    assert code == 0
    assert [c["sector"] for c in doc["characters"]] == ["0", "1"]
    assert doc["characters"][0]["series"]["coeffs"][0] == 1
    assert doc["characters"][1]["series"]["coeffs"][0] == 2


def test_annulus_pair(capsys):
    code, doc, _ = run_json(
        [
            "annulus", "--model", "minimal", "--p", "4", "--pp", "3",
            "--nimrep", "regular", "--pair", "1,1", "--order", "60",
        ],
        capsys,
    )
    assert code == 0
    assert doc["multiplicities"] == [1, 0, 1]
    assert doc["offset"] == "-1/48"
    assert doc["vacuum_present"] is True


def test_indices_accept_names_and_indices(capsys):
    code1, by_name, _ = run_json(
        [
            "indices", "--model", "minimal", "--p", "4", "--pp", "3",
            "--theta", "1,1:1;1,3:1",
        ],
        capsys,
    )
    code2, by_index, _ = run_json(
        [
            "indices", "--model", "minimal", "--p", "4", "--pp", "3",
            "--theta", "0:1,2:1",
        ],
        capsys,
    )
    assert code1 == code2 == 0
    assert by_name == by_index
    assert float(by_name["d_pi"]) == pytest.approx(2.0, abs=1e-12)
    assert float(by_name["c8_index"]) == pytest.approx(4.0, abs=1e-12)


def test_check_s_transform_passes_at_default_tolerance(capsys):
    code, doc, _ = run_json(
        ["check", "s-transform", "--model", "minimal", "--p", "4", "--pp", "3"],
        capsys,
    )
    assert code == 0
    assert doc["ok"] is True
    assert float(doc["residual"]) < 1e-8


def test_check_heat_kernel_e6(capsys):
    code, doc, _ = run_json(
        [
            "check", "heat-kernel", "--model", "su2", "--level", "10",
            "--invariant-tag", "E6",
        ],
        capsys,
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["pairs"] == 36
    assert float(doc["max_residual"]) < 1e-8


def test_nimrep_enumerate_generate_verify_chain(capsys, tmp_path):
    code, doc, _ = run_json(
        ["nimreps", "enumerate", "--model", "su2", "--level", "10", "--size", "6"],
        capsys,
    )
    assert code == 0
    assert doc["count"] == 1
    assert len(doc["nimreps"][0]["labels"]) == 6

    gen = tmp_path / "e6.json"
    gen.write_text(json.dumps([list(r) for r in e6_graph()]))
    code, nrdoc, _ = run_json(
        [
            "nimreps", "generate", "--model", "su2", "--level", "10",
            "--generator-file", str(gen),
        ],
        capsys,
    )
    assert code == 0
    assert nrdoc["format"] == "bcft-nimrep/1"

    nrfile = tmp_path / "nr.json"
    nrfile.write_text(json.dumps(nrdoc))
    code, vdoc, _ = run_json(
        [
            "nimreps", "verify", "--model", "su2", "--level", "10",
            "--nimrep-file", str(nrfile),
        ],
        capsys,
    )
    assert code == 0
    assert vdoc == {"format": "bcft-verify/1", "ok": True, "violations": []}


def test_report_with_degenerate_exponents_still_succeeds(capsys):
    code, doc, _ = run_json(
        [
            "report", "--model", "su2", "--level", "4",
            "--invariant-tag", "D4", "--order", "200",
        ],
        capsys,
    )
    assert code == 0
    assert doc["psi"]["status"] == "degenerate-exponents"
    assert doc["heat_kernel"]["status"] == "skipped-degenerate-exponents"
    assert doc["vacuum_rule"] == {"ok": True}


def test_out_file_keeps_stdout_empty(capsys, tmp_path):
    out = tmp_path / "fusion.json"
    code, stdout, _ = run(
        [
            "fusion", "--model", "su2", "--level", "2",
            "--format", "structured", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["format"] == "bcft-fusion/1"


def test_model_file_round_trip(capsys, tmp_path):
    model = tmp_path / "model.json"
    code, _, _ = run(
        [
            "models", "--model", "su2", "--level", "2",
            "--format", "structured", "--out", str(model),
        ],
        capsys,
    )
    assert code == 0
    code, from_file, _ = run_json(["fusion", "--model-file", str(model)], capsys)
    code2, direct, _ = run_json(["fusion", "--model", "su2", "--level", "2"], capsys)
    assert code == code2 == 0
    assert from_file["tensor"] == direct["tensor"]


def test_model_file_checks_render_at_the_document_precision(capsys, tmp_path):
    """A model document's own precision, not --precision, sets the digits
    of every command run on it."""
    model = tmp_path / "model.json"
    code, _, _ = run(
        [
            "models", "--model", "su2", "--level", "2", "--precision", "20",
            "--format", "structured", "--out", str(model),
        ],
        capsys,
    )
    assert code == 0
    cases = [
        (["indices", "--theta", "0:1"], "d_pi"),
        (["check", "s-transform"], "residual"),
        (["check", "heat-kernel"], "max_residual"),
    ]
    for argv, field in cases:
        code, doc, _ = run_json(
            argv + ["--model-file", str(model), "--precision", "60"], capsys
        )
        assert code == 0
        mantissa = doc[field].split("e")[0]
        assert len(mantissa.replace(".", "")) == 20, (argv, doc[field])


def test_model_file_with_zero_imaginary_parts(capsys, tmp_path):
    # S entries written as complex numbers with a zero imaginary part
    plain = tmp_path / "plain.json"
    code, _, _ = run(
        ["models", "--model", "su2", "--level", "3", "--format", "structured",
         "--out", str(plain)],
        capsys,
    )
    assert code == 0
    doc = json.loads(plain.read_text())
    del doc["builder"]
    plain.write_text(json.dumps(doc))
    doc["S"] = [[x + "+0.0i" for x in row] for row in doc["S"]]
    complex_file = tmp_path / "complex.json"
    complex_file.write_text(json.dumps(doc))
    for fmt in ("structured", "text"):
        code, out, err = run(["models", "--model-file", str(complex_file), "--format", fmt], capsys)
        assert code == 0, err
        assert "Traceback" not in err
        code, want, _ = run(["models", "--model-file", str(plain), "--format", fmt], capsys)
        assert code == 0
        assert out == want


# ---------------------------------------------------------------------------
# exit codes


def test_validation_errors_exit_one(capsys, tmp_path):
    cases = [
        ["fusion"],  # no model selected
        ["fusion", "--model", "su2"],  # missing --level
        ["models", "--model", "su2", "--level", "0"],  # trivial level
        ["models", "--model", "minimal", "--p", "4", "--pp", "4"],  # bad labels
        ["no-such-command"],
        ["annulus", "--model", "su2", "--level", "2"],  # missing required --pair
        ["fusion", "--model-file", str(tmp_path / "absent.json")],
        ["indices", "--model", "minimal", "--p", "4", "--pp", "3",
         "--theta", "sigma:1"],  # unknown sector name
        ["report", "--model", "su2", "--level", "4", "--invariant-tag", "E6"],
        ["fusion", "--model", "su2", "--level", "3", "--format", "xml"],
    ]
    for argv in cases:
        code, _, _ = run(argv, capsys)
        assert code == 1, argv


@pytest.mark.parametrize("data", [b"garbage", b"", b"\xff\xfe"],
                         ids=["garbage", "empty", "not-utf-8"])
def test_a_model_file_that_is_not_json_exits_one_naming_it(data, capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_bytes(data)
    for cache in ([], ["--cache", str(tmp_path / "cache")]):
        code, out, err = run(["fusion", "--model-file", str(model)] + cache, capsys)
        assert (code, out) == (1, "")
        assert "error: --model-file %s: " % model in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["indices", "--model", "minimal", "--p", "4", "--pp", "3",
          "--theta", "0:1,7:1"], "sector index 7 is outside 0..2"),
        (["indices", "--model", "minimal", "--p", "4", "--pp", "3",
          "--theta", "0:1,-1:1"], "sector index -1 is outside 0..2"),
        (["characters", "--model", "su2", "--level", "2", "--order", "-1"],
         "argument --order"),
        (["models", "--model", "su2", "--level", "2", "--precision", "0"],
         "argument --precision"),
        (["models", "--model", "su2", "--level", "2", "--precision", "-5"],
         "argument --precision"),
        (["check", "s-transform", "--model", "su2", "--level", "2", "--beta", "nan"],
         "argument --beta"),
        (["report", "--model", "su2", "--level", "2", "--beta", "nan"],
         "argument --beta"),
        (["check", "heat-kernel", "--model", "su2", "--level", "2", "--beta", "inf"],
         "argument --beta"),
        (["indices", "--model", "su2", "--level", "2", "--theta", "1,1:1;1,3:1"],
         "error: theta item '1,1:1': no sector is named '1,1'"),
        *(([*check, "--model", "su2", "--level", "2", "--tol", tol], "argument --tol")
          for check in (["check", "s-transform"], ["check", "heat-kernel"])
          for tol in ("nan", "inf", "0", "-1")),
        (["models", "--model", "su2", "--level", "28", "--precision", "1"],
         "|S_{0 0}| = 0.027 is below the tolerance 0.1 at precision 1"),
        *(([*command, "--model", "su2", "--level", "2", "--beta", beta], "argument --beta")
          for command in (["check", "s-transform"], ["check", "heat-kernel"], ["report"])
          for beta in ("0", "-2")),
        *(([*command, "--model", "su2", "--level", "2", "--beta", beta],
           "the usable range of --beta is ")
          for command in (["check", "s-transform"], ["report"])
          for beta in ("1e300", "1e-300")),
    ],
)
def test_out_of_range_input_exits_one_without_traceback(argv, message, capsys):
    for fmt in ("text", "structured"):
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert code == 1
        assert out == ""
        assert message in err
        assert "Traceback" not in err


GENERATE = ["nimreps", "generate", "--model", "su2", "--level", "10"]
ANNULUS = ["annulus", "--model", "minimal", "--p", "4", "--pp", "3", "--pair", "0,0"]
VERIFY = ["nimreps", "verify", "--model", "su2", "--level", "2"]
NOT_A_MATRIX = "square integer adjacency matrix"
UNCACHED_COMMANDS = (GENERATE[:2], VERIFY[:2])  # they store nothing and take no --cache


def _caches(argv, cache_dir):
    """The cache options to run argv with: none, and one where the command takes it."""
    return [[]] + ([] if argv[:2] in UNCACHED_COMMANDS else [["--cache", str(cache_dir)]])
NOT_A_NIMREP = "expected a bcft-nimrep/1 document"
NOT_JSON = "Expecting value: line 1 column 1 (char 0)"
MISSING, DIRECTORY, NESTED = "<missing>", "<directory>", "<nested>"  # content placeholders
# each flag that names an input file, with the message of a JSON list there
FILE_FLAGS = [(["fusion"], "--model-file", "model document must be a mapping"),
              (GENERATE, "--generator-file", NOT_A_MATRIX),
              (ANNULUS, "--nimrep", NOT_A_NIMREP),
              (VERIFY, "--nimrep-file", NOT_A_NIMREP)]
REPEATED_LABELS = json.dumps(
    nimrep_document(regular_nimrep(verlinde(su2(2)))) | {"labels": [0, 0, 2]})
NIMREP_2 = json.dumps(
    nimrep_document(regular_nimrep(verlinde(su2(2)))) | {"format": "bcft-nimrep/2"})


@pytest.mark.parametrize(
    "argv, flag, content, message",
    [
        (GENERATE, "--generator-file",
         json.dumps({"format": "bcft-nimrep/1", "labels": [0, 1]}), NOT_A_MATRIX),
        (GENERATE, "--generator-file", json.dumps([[0, "a"], ["a", 0]]), NOT_A_MATRIX),
        (GENERATE, "--generator-file", json.dumps([[0, 1.5], [1.5, 0]]), NOT_A_MATRIX),
        (GENERATE, "--generator-file", json.dumps([[0, 1], [1]]), NOT_A_MATRIX),
        (GENERATE, "--generator-file", "not json", NOT_JSON),
        (ANNULUS, "--nimrep", json.dumps([[0, 1], [1, 0]]), NOT_A_NIMREP),
        # a missing field is named, as a malformed one is
        (ANNULUS, "--nimrep", json.dumps({"format": "bcft-nimrep/1"}),
         "field 'labels': expected integers"),
        (ANNULUS, "--nimrep", "not json", NOT_JSON),
        (VERIFY, "--nimrep-file", json.dumps([[0, 1], [1, 0]]), NOT_A_NIMREP),
        # [[1]] is the level-1 generator; true must not read as 1
        (GENERATE[:-1] + ["1"], "--generator-file", json.dumps([[True]]), NOT_A_MATRIX),
        # every flag: a file that cannot be read, or is not UTF-8 JSON
        *((argv, flag, content, message) for argv, flag, listed in FILE_FLAGS
          for content, message in [(MISSING, "No such file or directory"),
                                   (DIRECTORY, "Is a directory"),
                                   (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
                                   ("{not json", "Expecting property name"),
                                   ("[1, 2]", listed),
                                   (NESTED, "maximum recursion depth exceeded")]),
        # a model document fails its header, or its builder, with and without a cache hit
        (["fusion"], "--model-file", json.dumps({"precision": "x"}),
         "field 'precision' must be an integer, not 'x'"),
        (["fusion"], "--model-file",
         json.dumps({"builder": {"family": "minimal", "params": [5, 5]}}), "need 2 <= p' < p"),
        # a repeated label would leave a boundary that no pair can reach
        (ANNULUS, "--nimrep", REPEATED_LABELS, "field 'labels': a label is repeated"),
        (VERIFY, "--nimrep-file", REPEATED_LABELS, "field 'labels': a label is repeated"),
        # the nimrep file is read and decoded before the model is built
        (VERIFY[:-1] + ["0"], "--nimrep-file", "[1, 2]", NOT_A_NIMREP),
        # a document of another format or version
        (["fusion"], "--model-file",
         json.dumps({"format": "bcft-model/2", "builder": {"family": "su2", "params": [2]}}),
         "unsupported document format 'bcft-model/2'"),
        (ANNULUS, "--nimrep", NIMREP_2, NOT_A_NIMREP),
        (VERIFY, "--nimrep-file", NIMREP_2, NOT_A_NIMREP),
    ],
)
def test_malformed_input_file_names_the_flag_and_file(
    argv, flag, content, message, capsys, tmp_path
):
    path = tmp_path / "input.json"
    if content == DIRECTORY:
        path.mkdir()
    elif content == NESTED:  # deeper than the JSON decoder recurses
        path.write_text("[" * 10**5 + "]" * 10**5)
    elif content != MISSING:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    for cache in _caches(argv, tmp_path / "cache"):
        for fmt in ("text", "structured"):
            code, out, err = run(argv + [flag, str(path), "--format", fmt] + cache, capsys)
            assert code == 1
            assert out == ""
            assert "error: %s %s: " % (flag, path) in err
            assert message in err
            assert "Traceback" not in err


def _bool_and_float_entries(doc):
    # int() would read both back as the 1 they replace
    n1 = doc["nmats"][1]
    a, b = next((a, b) for a in range(3) for b in range(a + 1, 3) if n1[a][b] == 1)
    n1[a][b], n1[b][a] = 1.9, True
    return "nmats"


def _string_labels(doc):
    doc["labels"] = "abc"
    return "labels"


def _format_only(doc):
    for field in ("labels", "nmats"):
        del doc[field]
    return "labels"


def _no_nmats(doc):
    del doc["nmats"]
    return "nmats"


@pytest.mark.parametrize(
    "argv, flag",
    [(VERIFY, "--nimrep-file"), (["annulus", "--model", "su2", "--level", "2", "--pair", "0,1"],
                                 "--nimrep")],
    ids=["verify", "annulus"],
)
@pytest.mark.parametrize("tamper", [_bool_and_float_entries, _string_labels, _format_only,
                                    _no_nmats])
def test_nimrep_documents_hold_only_json_integers(argv, flag, tamper, capsys, tmp_path):
    code, doc, _ = run_json(
        ["nimreps", "enumerate", "--model", "su2", "--level", "2", "--size", "3"], capsys
    )
    assert code == 0
    (nrdoc,) = doc["nimreps"]
    field = tamper(nrdoc)
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps(nrdoc))
    for fmt in ("text", "structured"):
        code, out, err = run(argv + [flag, str(path), "--format", fmt], capsys)
        assert code == 1
        assert out == ""
        # the decoder's message names the field
        assert "%s %s: field %r: expected integers" % (flag, path, field) in err
        assert "Traceback" not in err


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
A3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
FLIP3 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


@pytest.mark.parametrize(
    "nmats, violation",
    [
        ([IDENTITY3, A3], "('sector_count', 2, 3)"),
        ([IDENTITY3, A3, [[0, 0, 1], [0, -1, 0], [1, 0, 0]]], "('negative_entry', 2)"),
        ([IDENTITY3, [[0, 1, 0], [1, 0, 1], [0, 1]], FLIP3], "('shape', (3,), (3, 3))"),
    ],
    ids=["two-sectors", "negative-entry", "ragged"],
)
def test_annulus_nimrep_file_must_be_a_nimrep_of_the_model(nmats, violation, capsys, tmp_path):
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps({"format": "bcft-nimrep/1", "labels": [0, 1, 2], "nmats": nmats}))
    argv = ["annulus", "--model", "su2", "--level", "2", "--pair", "0,1", "--nimrep", str(path)]
    for fmt in ("text", "structured"):
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert "check failed: --nimrep %s is not a nimrep of the model" % path in err
        assert violation in err
        assert "Traceback" not in err


@pytest.mark.parametrize("x", [2**62, 2**63 + 1, 10**400], ids=["2^62", "past-int64", "past-float64"])
def test_generator_entries_past_int64_are_refused_by_their_norm(x, capsys, tmp_path):
    path = tmp_path / "generator.json"
    path.write_text(json.dumps([[0, x], [x, 0]]))
    for fmt in ("text", "structured"):
        code, out, err = run(GENERATE[:-1] + ["2", "--generator-file", str(path),
                                              "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert re.search(r"check failed: generator norm \S+ admits no level", err)
        assert "Traceback" not in err


def test_generated_family_must_be_a_nimrep_of_the_model(capsys, tmp_path):
    # the level-1 tadpole has the norm 1 = 2cos(pi/3), not the level-2 norm,
    # so `nimreps generate` refuses it before growing anything; the family it
    # would grow at level 2 is non-negative, but its products break the
    # fusion rules, and `nimreps verify` refuses it
    path = tmp_path / "generator.json"
    path.write_text(json.dumps([[1]]))
    argv = GENERATE[:-1] + ["2", "--generator-file", str(path)]
    for fmt in ("text", "structured"):
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert ("check failed: generator norm 1.000000000000 is not the level-2 norm"
                " 2cos(pi/4) = 1.414213562373") in err
        assert "Traceback" not in err
    grown = tmp_path / "grown.json"  # n^2 = n^1 n^1 - n^0
    grown.write_text(json.dumps({"format": "bcft-nimrep/1", "labels": [0],
                                 "nmats": [[[1]], [[1]], [[0]]]}))
    code, doc, err = run_json(VERIFY + ["--nimrep-file", str(grown)], capsys)
    assert code == 2
    assert ["product", "1", "2"] in doc["violations"]
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["missing", "directory"])
def test_unwritable_out_path_exits_one(out, capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "x.json" if out == "missing" else tmp_path
    for fmt in ("text", "structured"):
        code, stdout, err = run(["fusion", "--model", "su2", "--level", "2",
                                 "--format", fmt, "--out", str(path)], capsys)
        assert code == 1
        assert stdout == ""
        assert "error: " in err
        assert "Traceback" not in err


@pytest.mark.parametrize("x", [2**63 - 1, 2**63 + 1], ids=["int64-max", "past-int64"])
def test_nimrep_entries_past_int64_are_checked_exactly(x, capsys, tmp_path):
    # n^1 n^1 = n^0 at level 1; in int64, (2^63 - 1)^2 wraps to 1 mod 2^64
    # and 2^63 + 1 does not convert at all
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps({"format": "bcft-nimrep/1", "labels": [0],
                                "nmats": [[[1]], [[x]]]}))
    code, doc, err = run_json(VERIFY[:-1] + ["1", "--nimrep-file", str(path)], capsys)
    assert code == 2
    assert doc == {"format": "bcft-verify/1", "ok": False, "violations": [["product", "1", "1"]]}
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["indices", "--model", "minimal", "--p", "4", "--pp", "3", "--theta", "0:x"],
         "--theta item '0:x'"),
        (["annulus", "--model", "minimal", "--p", "4", "--pp", "3", "--pair", "1,x"],
         "--pair must look like \"1,2\", got '1,x'"),
        (["annulus", "--model", "minimal", "--p", "4", "--pp", "3", "--pair", "1,2,3"],
         "--pair must look like \"1,2\", got '1,2,3'"),
    ],
)
def test_malformed_flag_value_names_the_flag_and_item(argv, message, capsys):
    for fmt in ("text", "structured"):
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert code == 1
        assert out == ""
        assert message in err
        assert "Traceback" not in err

def _error_classes():
    return sorted(
        (obj for obj in vars(bcft.errors).values()
         if isinstance(obj, type) and issubclass(obj, bcft.errors.BcftError)),
        key=lambda cls: cls.__name__,
    )


def _instance(cls):
    """An instance built from placeholder values for the required
    arguments of cls (classes such as IntegralityFailure take data)."""
    required = [
        p for p in list(inspect.signature(cls.__init__).parameters.values())[1:]
        if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
    ]
    return cls(*[0] * len(required)) if required else cls("raised on purpose")


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_domain_error_maps_to_its_exit_code(cls, capsys, monkeypatch):
    exc = _instance(cls)

    def handler(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, ("models", None), handler)
    code, out, err = run(["models"], capsys)
    validation = (bcft.errors.ModelValidationError, bcft.errors.MigrationError)
    assert code == (1 if issubclass(cls, validation) else 2)
    assert out == ""
    assert "Traceback" not in err


def test_a_stray_key_error_escapes_main(capsys, monkeypatch):
    """A KeyError is a program fault: it must fail loudly, not exit 1 as
    bad input would."""

    def handler(args):
        raise KeyError("raised on purpose")

    monkeypatch.setitem(cli._HANDLERS, ("models", None), handler)
    with pytest.raises(KeyError, match="raised on purpose"):
        cli_main(["models"])


def test_check_failures_exit_two(capsys, tmp_path):
    gen = tmp_path / "a3.json"
    gen.write_text(json.dumps([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    code, out, err = run(
        [
            "nimreps", "generate", "--model", "su2", "--level", "4",
            "--generator-file", str(gen),
        ],
        capsys,
    )
    assert code == 2
    assert "check failed" in err

    code, doc, _ = run_json(
        [
            "check", "s-transform", "--model", "minimal", "--p", "4", "--pp", "3",
            "--tol", "1e-80",
        ],
        capsys,
    )
    assert code == 2
    assert doc["ok"] is False

    bad = tmp_path / "bad-nimrep.json"
    code, nrdoc, _ = run_json(
        ["nimreps", "enumerate", "--model", "su2", "--level", "2", "--size", "3"],
        capsys,
    )
    tampered = nrdoc["nimreps"][0]
    tampered["nmats"][2][0][0] = 5
    bad.write_text(json.dumps(tampered))
    code, vdoc, _ = run_json(
        [
            "nimreps", "verify", "--model", "su2", "--level", "2",
            "--nimrep-file", str(bad),
        ],
        capsys,
    )
    assert code == 2
    assert vdoc["ok"] is False
    assert vdoc["violations"]


# ---------------------------------------------------------------------------
# cache behavior


def test_cached_runs_are_byte_identical(capsys, tmp_path):
    cache = tmp_path / "cache"
    outs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        code, _, _ = run(
            [
                "invariants", "--model", "su2", "--level", "8",
                "--format", "structured", "--cache", str(cache),
                "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        outs.append(path.read_bytes())
    fresh = tmp_path / "fresh.json"
    code, _, _ = run(
        [
            "invariants", "--model", "su2", "--level", "8",
            "--format", "structured", "--out", str(fresh),
        ],
        capsys,
    )
    assert code == 0
    assert outs[0] == outs[1] == fresh.read_bytes()

    files = [p for p in cache.rglob("*.json")]
    assert len(files) == 1
    assert len(files[0].parent.name) == 2
    assert files[0].stem.startswith(files[0].parent.name)


def test_cache_key_tracks_order(capsys, tmp_path):
    cache = tmp_path / "cache"
    for order in ("20", "30"):
        code, _, _ = run(
            [
                "characters", "--model", "su2", "--level", "1",
                "--order", order, "--cache", str(cache),
            ],
            capsys,
        )
        assert code == 0
    assert len(list(cache.rglob("*.json"))) == 2


def test_annulus_cache_follows_the_nimrep_file_content(capsys, tmp_path):
    md = su2(10)
    (e6,) = enumerate_su2_nimreps(md, 6)
    nimrep_file = tmp_path / "nr.json"
    argv = ["annulus", "--model", "su2", "--level", "10", "--nimrep", str(nimrep_file),
            "--pair", "0,0", "--order", "30", "--format", "structured"]
    cached = argv + ["--cache", str(tmp_path / "cache")]
    outs = []
    for nr in (e6, regular_nimrep(verlinde(md))):
        nimrep_file.write_text(json.dumps(nimrep_document(nr)))
        code, out, _ = run(cached, capsys)
        assert code == 0
        assert run(argv, capsys)[:2] == (0, out)
        outs.append(out)
    assert outs[0] != outs[1]


def test_warm_report_skips_the_invariant_and_nimrep_search(capsys, tmp_path, monkeypatch):
    argv = ["report", "--model", "su2", "--level", "10", "--invariant-tag", "E6",
            "--order", "30", "--format", "structured", "--cache", str(tmp_path / "cache")]
    code, cold, _ = run(argv, capsys)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit ran the search")

    # the handlers import these from their defining modules when they run
    for module, name in ((bcft.fusion, "verlinde"), (bcft.invariants, "enumerate_physical"),
                         (bcft.nimreps, "enumerate_su2_nimreps"),
                         (bcft.nimreps, "spectrum_match")):
        monkeypatch.setattr(module, name, refuse)
    assert run(argv, capsys)[:2] == (0, cold)


def _count_reads(monkeypatch, path):
    """List that records each Path.read_bytes/read_text call on path."""
    reads = []
    for name in ("read_bytes", "read_text"):

        def counted(self, *args, _name=name, _original=getattr(Path, name), **kwargs):
            if self == path:
                reads.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, counted)
    return reads


def test_each_input_file_is_read_once_per_run(capsys, tmp_path, monkeypatch):
    model_file = tmp_path / "model.json"
    assert run(["models", "--model", "su2", "--level", "2", "--format", "structured",
                "--out", str(model_file)], capsys)[0] == 0
    nimrep_file = tmp_path / "nr.json"
    nimrep_file.write_text(json.dumps(nimrep_document(regular_nimrep(verlinde(su2(2))))))
    generator_file = tmp_path / "a3.json"
    generator_file.write_text(json.dumps(A3))
    for path, argv in (
        (model_file, ["models", "--model-file", str(model_file)]),
        (nimrep_file, ["annulus", "--model", "su2", "--level", "2", "--nimrep",
                       str(nimrep_file), "--pair", "0,0", "--order", "10"]),
        (nimrep_file, VERIFY + ["--nimrep-file", str(nimrep_file)]),
        (generator_file, ["nimreps", "generate", "--model", "su2", "--level", "2",
                          "--generator-file", str(generator_file)]),
    ):
        reads = _count_reads(monkeypatch, path)
        for _ in ("cold", "warm"):
            reads.clear()
            assert run(argv + _caches(argv, tmp_path / "cache")[-1], capsys)[0] == 0
            assert len(reads) == 1, reads
        monkeypatch.undo()


def test_unknown_invariant_tag_exits_one_with_a_warm_cache(capsys, tmp_path):
    argv = ["report", "--model", "su2", "--level", "10", "--order", "30",
            "--cache", str(tmp_path / "cache")]
    assert run(argv + ["--invariant-tag", "E6"], capsys)[0] == 0
    code, out, err = run(argv + ["--invariant-tag", "E7"], capsys)
    assert (code, out) == (1, "")
    assert "no physical invariant tagged 'E7'" in err


def test_a_cache_file_that_is_not_json_exits_one_naming_it(capsys, tmp_path):
    argv = ["fusion", "--model", "su2", "--level", "2", "--cache", str(tmp_path / "cache")]
    assert run(argv, capsys)[0] == 0
    (entry,) = (tmp_path / "cache").rglob("*.json")
    entry.write_text("garbage")
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert "cache file %s is not a JSON document" % entry in err
    assert "Traceback" not in err


def _child_env():
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def _run_in_child_without(argv, modules):
    """Run cli.main(argv) in a fresh interpreter; fail if it exits nonzero
    or leaves any of modules in sys.modules."""
    script = (
        "import sys\n"
        "from bcft.cli import main\n"
        "code = main(%r)\n"
        "assert code == 0 and not {m for m in %r if m in sys.modules}, code\n"
        % (argv, modules)
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-500:]


def test_nimrep_enumeration_imports_no_sympy():
    _run_in_child_without(
        ["nimreps", "enumerate", "--model", "su2", "--level", "10", "--size", "6"], ("sympy",)
    )


def test_invariants_import_neither_scipy_nor_sympy():
    _run_in_child_without(["invariants", "--model", "su2", "--level", "10"], ("scipy", "sympy"))


def _imported(stderr: bytes) -> set:
    """Names of the modules a `python -X importtime` process imported."""
    return {line.rpartition("|")[2].strip() for line in stderr.decode().splitlines()
            if line.startswith("import time:")}


M43 = ["--model", "minimal", "--p", "4", "--pp", "3"]
CACHED_COMMANDS = {
    "models": ["models", "--model", "su2", "--level", "2"],
    "models-file": ["models", "--model-file", "@model"],
    "fusion": ["fusion"] + M43,
    "invariants": ["invariants", "--model", "su2", "--level", "10"],
    "nimreps-enumerate": ["nimreps", "enumerate", "--model", "su2", "--level", "10",
                          "--size", "6"],
    "characters": ["characters", "--model", "su2", "--level", "2", "--order", "30"],
    "annulus": ["annulus"] + M43 + ["--nimrep", "regular", "--pair", "1,1", "--order", "30"],
    "annulus-file": ["annulus", "--model", "su2", "--level", "2", "--nimrep", "@nimrep",
                     "--pair", "0,0", "--order", "30"],
    "indices": ["indices"] + M43 + ["--theta", "0:1,2:1"],
    "indices-names": ["indices"] + M43 + ["--theta", "1,1:1;1,3:1"],
    "report": ["report"] + M43 + ["--order", "30"],
}


@pytest.mark.parametrize("argv", list(CACHED_COMMANDS.values()), ids=list(CACHED_COMMANDS))
def test_a_fresh_warm_process_imports_no_numeric_code(argv, tmp_path):
    """A hit in a fresh `python -m bcft.cli` process prints the cold bytes
    with neither numpy nor mpmath imported, nor dataclasses (which pulls in
    inspect, dis, ast and tokenize).  (In-process tests cannot see
    this: the numeric modules are already loaded there.)"""
    inputs = {"@model": tmp_path / "model.json", "@nimrep": tmp_path / "nimrep.json"}
    inputs["@model"].write_text(json.dumps(model_to_document(su2(2, 20))))
    inputs["@nimrep"].write_text(json.dumps(nimrep_document(regular_nimrep(verlinde(su2(2))))))
    cache = tmp_path / "cache"
    argv = [str(inputs.get(x, x)) for x in argv] + ["--format", "structured",
                                                   "--cache", str(cache)]
    runs = [subprocess.run([sys.executable, *flags, "-m", "bcft.cli", *argv],
                           env=_child_env(), capture_output=True, timeout=300)
            for flags in ([], ["-X", "importtime"])]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-500:]
    cold, warm = runs
    assert warm.stdout == cold.stdout
    assert len(list(cache.rglob("*.json"))) == 1
    imported = _imported(warm.stderr)
    assert "bcft.persistence" in imported
    assert not imported & {"numpy", "mpmath", "dataclasses"}


def test_import_bcft_defers_the_numeric_modules():
    script = (
        "import importlib, sys\n"
        "import bcft\n"
        "assert not {'numpy', 'mpmath'} & set(sys.modules), 'numeric stack imported'\n"
        # the benchmark tracer looks the modules up in sys.modules at this point
        "names = ('hp', 'modular_data', 'fusion', 'invariants', 'nimreps', 'characters',"
        " 'report')\n"
        "assert all('bcft.' + name in sys.modules for name in names), 'not registered'\n"
        "from bcft import *\n"
        "for name in bcft.__all__:\n"
        "    obj, home = getattr(bcft, name), 'bcft.' + bcft._SUBMODULE[name]\n"
        "    assert obj is getattr(importlib.import_module(home), name), name\n"
        "    assert getattr(obj, '__module__', home) == home, name\n"
        "    assert globals()[name] is obj, name\n"
        "assert callable(bcft.fusion.fusion_document)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-500:]


@pytest.mark.parametrize("preset", [None, "2"])
def test_the_command_line_asks_for_one_blas_thread_unless_told(preset):
    """OpenBLAS reads the variable when numpy loads, so it is set before."""
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = ("import os, sys\n"
              "import bcft.cli\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.stdout == "%s False\n" % (preset or "1"), proc.stderr[-500:]


def test_invalid_input_exits_one_with_a_warm_cache(capsys, tmp_path):
    """Each refused input has a valid neighbour in the cache; the key-first
    lookup must not serve it."""
    cache = tmp_path / "cache"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_document(su2(2, 20))))
    warm = [["fusion", "--model", "su2", "--level", "2"],
            ["fusion", "--model-file", str(model)],
            ["report"] + M43 + ["--order", "30"]]
    for argv in warm:
        assert run(argv + ["--cache", str(cache)], capsys)[0] == 0
    stored = sorted(cache.rglob("*.json"))
    assert len(stored) == 3
    doc = json.loads(model.read_text())
    doc["precision"] = None
    model.write_text(json.dumps(doc))
    for argv in (["fusion", "--model", "su2", "--level", "0"],
                 ["fusion", "--model", "su2", "--level", "-3"],
                 ["fusion", "--model", "su2"],
                 ["fusion", "--model-file", str(model)],
                 ["report"] + M43 + ["--order", "30", "--beta", "0"]):
        code, out, err = run(argv + ["--cache", str(cache)], capsys)
        assert (code, out) == (1, ""), argv
        assert "Traceback" not in err
    assert sorted(cache.rglob("*.json")) == stored


@pytest.mark.parametrize("argv, key", [
    (["fusion"] + M43, "3ab7b9d4e8147e8de49c8c9121e9966cb0fb06c18c66ab4e2fb934aee3f939a0"),
    (["report", "--model", "su2", "--level", "10", "--invariant-tag", "E6"],
     "77ace84ad3c38149a164d11d65c57fb929785d1351c7adaeaa3f3f22f8e87dcf"),
    (["indices"] + M43 + ["--theta", "0:1,2:1"],
     "7c24522f4c93e3920d219d0d611f11105fe0a7008a6ed9154dfc744593450e38"),
], ids=["fusion", "report", "indices"])
def test_cache_keys_stay_pinned(argv, key, tmp_path, monkeypatch):
    """Keys recorded before the key-first lookup, so existing caches are
    still served.  The lookup is stubbed to hit: only the key is checked."""
    looked_up = []
    monkeypatch.setattr(cli.Cache, "load",
                        lambda self, k: looked_up.append(k) or ("{}\n", {"format": "x"}))
    assert cli_main(argv + ["--cache", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert looked_up == [key]


def test_named_theta_keys_keep_the_item_order(capsys, tmp_path):
    """A name and an index that pick the same sector: the last item wins,
    so the two orders give different documents and different keys."""
    cache = tmp_path / "cache"
    outs = set()
    for theta in ("1,1:3;0:2", "0:2;1,1:3"):
        argv = ["indices"] + M43 + ["--theta", theta, "--format", "structured"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert run(argv + ["--cache", str(cache)], capsys)[:2] == (0, out)
        assert run(argv + ["--cache", str(cache)], capsys)[:2] == (0, out)
        outs.add(out)
    assert len(outs) == 2
    assert len(list(cache.rglob("*.json"))) == 2


@pytest.mark.parametrize("argv", [
    ["models", "--model", "su2", "--level", "2"],
    ["report", "--model", "minimal", "--p", "4", "--pp", "3"],
])
def test_text_output_of_a_cache_hit_matches_a_cold_run(argv, capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = argv + ["--format", "text", "--cache", str(cache)]
    code, cold, _ = run(argv, capsys)
    assert code == 0
    assert len(list(cache.rglob("*.json"))) == 1
    assert run(argv, capsys)[:2] == (0, cold)


def _entry_parts(path):
    """(header, document) of a cache entry."""
    head, _, text = path.read_text().partition("\n")
    return json.loads(head), json.loads(text)


def _write_entry(path, header, doc):
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + canonical_json(doc) + "\n")


def test_cache_entry_of_older_numeric_code_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["fusion", "--model", "minimal", "--p", "4", "--pp", "3",
            "--format", "structured", "--cache", str(cache)]
    code, fresh, _ = run(argv, capsys)
    assert code == 0
    (path,) = cache.rglob("*.json")
    stored = path.read_bytes()
    header, payload = _entry_parts(path)

    # an entry as the mpmath Verlinde sum stored it: no numeric schema
    stale = dict(payload, max_residual="1.5557538194652854e-61")
    _write_entry(path, {k: v for k, v in header.items() if k != "numeric_schema"}, stale)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == fresh
    assert path.read_bytes() == stored

    # the re-stored entry is served: a marked payload comes back unchanged
    _write_entry(path, header, dict(payload, max_residual="1e-99"))
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] == "1e-99"


@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_a_bcft_cache_1_wrapper_is_a_miss_and_is_stored_again(fmt, capsys, tmp_path):
    """Older builds stored one indented JSON wrapper around the payload."""
    cache = tmp_path / "cache"
    argv = ["report"] + M43 + ["--order", "30", "--format", fmt]
    code, fresh, _ = run(argv, capsys)
    assert code == 0
    assert run(argv + ["--cache", str(cache)], capsys)[:2] == (0, fresh)
    (path,) = cache.rglob("*.json")
    stored = path.read_bytes()
    header, payload = _entry_parts(path)
    meta = {"artifact": "0.1.0", "operation": "report",
            "numeric_schema": header["numeric_schema"], "created": "2026-01-01T00:00:00Z"}
    path.write_text(canonical_json({"format": "bcft-cache/1", "key": header["key"],
                                    "meta": meta, "payload": payload}) + "\n")
    assert run(argv + ["--cache", str(cache)], capsys)[:2] == (0, fresh)
    assert path.read_bytes() == stored
    assert run(argv + ["--cache", str(cache)], capsys)[:2] == (0, fresh)


def test_cache_entry_without_payload_names_the_file_and_the_field(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["fusion", "--model", "su2", "--level", "2", "--cache", str(cache)]
    assert run(argv, capsys)[0] == 0
    (path,) = cache.rglob("*.json")
    header, _ = _entry_parts(path)
    path.write_text(json.dumps(header) + "\n[1]\n")
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert ("error: cache file %s: the payload under its header must be a JSON mapping" % path
            in err)
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, code, message", [
    ("format", "bcft-cache/9", 1, "has format 'bcft-cache/9'"),
    ("key", "0" * 64, 1, "records key '%s'" % ("0" * 64)),
    ("numeric_schema", 3, 0, None),
], ids=["format", "key", "schema"])
def test_a_cache_header_of_another_format_key_or_schema(field, value, code, message,
                                                        capsys, tmp_path):
    """Another format or key exits 1 naming the file; another numeric
    schema is a miss that is computed and stored again."""
    cache = tmp_path / "cache"
    argv = ["fusion"] + M43 + ["--format", "structured", "--cache", str(cache)]
    fresh = run(argv, capsys)[1]
    (path,) = cache.rglob("*.json")
    stored = path.read_bytes()
    header, payload = _entry_parts(path)
    _write_entry(path, dict(header, **{field: value}), payload)
    got, out, err = run(argv, capsys)
    assert got == code
    if message is None:
        assert out == fresh
        assert path.read_bytes() == stored
    else:
        assert out == ""
        assert "error: cache file %s %s" % (path, message) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["fusion"] + M43,
    ["report"] + M43 + ["--order", "30"],
], ids=["fusion", "report"])
@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_each_command_renders_its_document_once(argv, fmt, capsys, tmp_path, monkeypatch):
    """canonical_json runs once for the key; a miss runs it once more, for
    the text it stores and, in structured format, prints."""
    calls = []
    render = persistence.canonical_json
    monkeypatch.setattr(persistence, "canonical_json",
                        lambda doc: calls.append(doc.get("operation", "payload")) or render(doc))
    argv = argv + ["--format", fmt, "--cache", str(tmp_path / "cache")]
    code, cold, _ = run(argv, capsys)
    assert code == 0
    assert calls == [argv[0], "payload"]
    calls.clear()
    assert run(argv, capsys)[:2] == (0, cold)
    assert calls == [argv[0]]


def test_cache_key_follows_the_model_document_precision(capsys, tmp_path):
    """A document's precision field overrides --precision, so the flag does
    not split its cache entries; without the field the flag still does."""
    saved = tmp_path / "m20.json"
    assert run(["models", "--model", "su2", "--level", "2", "--precision", "20",
                "--format", "structured", "--out", str(saved)], capsys)[0] == 0
    bare = tmp_path / "bare.json"
    doc = json.loads(saved.read_text())
    del doc["precision"]
    bare.write_text(json.dumps(doc))
    for model, files in ((saved, 1), (bare, 2)):
        cache = tmp_path / ("cache-" + model.stem)
        outs = set()
        for precision in ("20", "60"):
            argv = ["report", "--model-file", str(model), "--precision", precision,
                    "--order", "30", "--format", "structured"]
            code, out, _ = run(argv + ["--cache", str(cache)], capsys)
            assert (code, out) == run(argv, capsys)[:2]
            assert code == 0
            outs.add(out)
        assert len(list(cache.rglob("*.json"))) == files
        assert len(outs) == files


@pytest.mark.parametrize("command", [["check", "heat-kernel"], ["report"]])
def test_one_digit_precision_fixes_boundary_state_phases(command, capsys):
    """At --precision 1 the boundary-state phases are fixed without a
    StopIteration traceback (the tolerance was once 1, which no entry of a
    unit vector exceeds)."""
    argv = command + ["--model", "minimal", "--p", "3", "--pp", "2", "--order", "8",
                      "--precision", "1"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert "minimal_3_2" in out


@pytest.mark.parametrize("level", [1, 2, 3, 4, 10])
def test_one_digit_precision_builds_level_k_models(level, capsys):
    # the one-digit tolerance is 1/10, not 10^0 = 1
    code, doc, err = run_json(["models", "--model", "su2", "--level", str(level),
                               "--precision", "1"], capsys)
    assert code == 0, err
    assert doc["precision"] == 1


@functools.lru_cache(maxsize=None)
def _invariants_document(model, precision):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["invariants", *model, "--precision", str(precision),
                         "--format", "structured"])
    return code, out.getvalue()


@pytest.mark.parametrize("precision", [1, 5, 8])
@pytest.mark.parametrize("model", [("--model", "su2", "--level", "10"),
                                   ("--model", "minimal", "--p", "5", "--pp", "2")],
                         ids=["su2_k10", "minimal_5_2"])
def test_invariants_at_low_precision_equal_the_fifty_digit_document(model, precision):
    """The rationalization bound follows --precision, so the exact
    invariants come out the same at one digit as at fifty."""
    assert _invariants_document(model, precision) == _invariants_document(model, 50)
    assert _invariants_document(model, 50)[0] == 0


@pytest.mark.parametrize("precision", [-20, 0])
def test_model_document_precision_below_one_exits_one(precision, capsys, tmp_path):
    model = tmp_path / "model.json"
    assert run(["models", "--model", "su2", "--level", "2", "--format", "structured",
                "--out", str(model)], capsys)[0] == 0
    doc = json.loads(model.read_text())
    doc["precision"] = precision
    model.write_text(json.dumps(doc))
    code, out, err = run(["fusion", "--model-file", str(model)], capsys)
    assert code == 1
    assert out == ""
    assert "field 'precision' must be at least 1" in err
    assert "Traceback" not in err


def test_a_precision_above_the_limit_exits_one_naming_the_flag_and_limit(capsys, tmp_path):
    # 10^11 digits ran out of memory before the limit was checked
    limit = persistence.MAX_PRECISION
    for cache in ([], ["--cache", str(tmp_path / "cache")]):
        code, out, err = run(["fusion", "--model", "su2", "--level", "2",
                              "--precision", "100000000000"] + cache, capsys)
        assert (code, out) == (1, "")
        assert ("argument --precision: expected an integer >= 1 and <= %d, got '100000000000'"
                % limit in err)
        assert "Traceback" not in err
    assert run(["models", "--model", "su2", "--level", "1", "--precision", str(limit)],
               capsys)[0] == 0


def test_a_model_document_precision_above_the_limit_exits_one_naming_the_field(
        capsys, tmp_path):
    # 10^30 digits overflowed converting the precision to bits
    model = tmp_path / "model.json"
    limit = persistence.MAX_PRECISION
    for precision in (10**30, limit + 1):
        model.write_text(json.dumps({"builder": {"family": "su2", "params": [2]},
                                     "precision": precision}))
        code, out, err = run(["fusion", "--model-file", str(model)], capsys)
        assert (code, out) == (1, "")
        assert ("error: --model-file %s: field 'precision' must be at most %d, not %d"
                % (model, limit, precision) in err)
        assert "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("precision", None, "field 'precision' must be an integer, not None"),
    ("precision", [1], "field 'precision' must be an integer, not [1]"),
    ("precision", 20.7, "field 'precision' must be an integer, not 20.7"),
    ("precision", "20", "field 'precision' must be an integer, not '20'"),
    ("precision", True, "field 'precision' must be an integer, not True"),
    ("builder", 5, "field 'builder' must be a mapping, not 5"),
    ("builder", [], "field 'builder' must be a mapping, not []"),
    ("builder", {"family": "su2", "params": []}, "field 'builder' needs 'params'"),
    ("builder", {"family": "su2", "params": [None]}, "field 'builder' needs 'params'"),
    ("builder", {"family": "su2", "params": [2, 3]}, "field 'builder' needs 'params'"),
    ("builder", {"family": "su2", "params": ["2"]}, "field 'builder' needs 'params'"),
    ("builder", {"family": "minimal", "params": [4]}, "field 'builder' needs 'params'"),
    ("builder", {"family": "su2"}, "field 'builder' needs 'params'"),
    ("builder", {"family": "e8", "params": [1]}, "unknown builder family 'e8'"),
    ("builder", {"family": [], "params": [2]}, "field 'builder.family' must be a string, not []"),
    ("builder", {"family": {}, "params": [2]}, "field 'builder.family' must be a string, not {}"),
    ("builder", {}, "field 'builder.family' must be a string, not None"),
])
def test_malformed_model_document_header_exits_one(field, value, message, capsys, tmp_path):
    model = tmp_path / "model.json"
    assert run(["models", "--model", "su2", "--level", "2", "--format", "structured",
                "--out", str(model)], capsys)[0] == 0
    doc = json.loads(model.read_text())
    doc[field] = value
    model.write_text(json.dumps(doc))
    with pytest.raises(bcft.errors.DocumentFormatError, match=re.escape(message)):
        load_model(doc)
    for cache in ([], ["--cache", str(tmp_path / "cache")]):
        code, out, err = run(["fusion", "--model-file", str(model)] + cache, capsys)
        assert (code, out) == (1, "")
        assert message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("path, value, message", [
    (["sectors"], 5, "field 'sectors' must be a list, not 5"),
    (["sectors"], [5, 6, 7],
     "field 'sectors' entry 0 must be a mapping with 'name' and 'h', not 5"),
    (["sectors", 1], {"h": "1/16"},
     "field 'sectors' entry 1 must be a mapping with 'name' and 'h'"),
    (["sectors", 1, "h"], None, "field 'sectors' entry 1 'h' must be a rational number, not None"),
    (["c"], None, "field 'c' must be a rational number, not None"),
    (["c"], "x", "field 'c' must be a rational number, not 'x'"),
    (["S"], 5, "field 'S' must be 3 x 3"),
    (["S", 1], 5, "field 'S' must be 3 x 3"),
    (["S", 1, 1], None, "field 'S' entries must be decimal strings, not None"),
    (["S", 1, 1], 0.5, "field 'S' entries must be decimal strings, not 0.5"),
    (["S", 1, 1], "1/0", "field 'S' entry '1/0' is not a number"),
], ids=["sectors-int", "sectors-ints", "sector-no-name", "h-null", "c-null", "c-text", "S-int",
        "S-row-int", "S-null", "S-float", "S-zero-denominator"])
def test_malformed_model_document_body_exits_one(path, value, message, capsys, tmp_path):
    model = tmp_path / "model.json"
    doc = model_to_document(minimal(4, 3))
    del doc["builder"]  # an explicit-S document
    *head, last = path
    functools.reduce(lambda node, key: node[key], head, doc)[last] = value
    model.write_text(json.dumps(doc))
    with pytest.raises(bcft.errors.DocumentFormatError, match=re.escape(message)):
        load_model(doc)
    code, out, err = run(["fusion", "--model-file", str(model)], capsys)
    assert (code, out) == (1, "")
    assert message in err
    assert "Traceback" not in err


def test_an_s_entry_above_two_exits_one_as_it_is_read(capsys, tmp_path):
    """No entry of a unitary S exceeds 1 in modulus.  Reading 1e1000000
    exactly, and then checking unitarity on it, took seconds."""
    model = tmp_path / "model.json"
    doc = model_to_document(minimal(4, 3))
    del doc["builder"]
    doc["S"][1][2] = doc["S"][2][1] = "1e1000000"
    model.write_text(json.dumps(doc))
    code, out, err = run(["fusion", "--model-file", str(model)], capsys)
    assert (code, out) == (1, "")
    assert "error: --model-file %s: field 'S' entry '1e1000000'" % model in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["report"], ["check", "heat-kernel"]],
                         ids=["report", "heat-kernel"])
@pytest.mark.parametrize("tag", ["untagged", "E6"])
def test_invariant_tag_on_a_minimal_model_exits_one_before_any_search(command, tag, capsys,
                                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searched the invariants of a model no tag can select")

    monkeypatch.setattr(bcft.invariants, "enumerate_physical", refuse)
    code, out, err = run(command + M43 + ["--invariant-tag", tag, "--order", "30"], capsys)
    assert (code, out) == (1, "")
    assert "error: --invariant-tag requires an su2 model" in err


# ---------------------------------------------------------------------------
# option surface: each subcommand takes only the options it reads

SU2_2 = ["--model", "su2", "--level", "2"]
WITHOUT_ORDER = {
    "models": ["models"],
    "fusion": ["fusion"],
    "invariants": ["invariants"],
    "nimreps-enumerate": ["nimreps", "enumerate", "--size", "3"],
    "nimreps-verify": ["nimreps", "verify", "--nimrep-file", "nr.json"],
    "nimreps-generate": ["nimreps", "generate", "--generator-file", "g.json"],
    "indices": ["indices", "--theta", "0:1"],
}
WITHOUT_BETA = dict(WITHOUT_ORDER, characters=["characters"],
                    annulus=["annulus", "--pair", "0,0"])
REMOVED = [(name, argv, "--order", "30") for name, argv in WITHOUT_ORDER.items()] + [
    (name, argv, "--beta", "3") for name, argv in WITHOUT_BETA.items()]


@pytest.mark.parametrize("argv, flag, value", [case[1:] for case in REMOVED],
                         ids=["%s %s" % (case[0], case[2]) for case in REMOVED])
def test_an_option_the_subcommand_does_not_read_exits_one(argv, flag, value, capsys):
    code, out, err = run(argv + SU2_2 + [flag, value], capsys)
    assert (code, out) == (1, "")
    assert "unrecognized arguments: %s %s" % (flag, value) in err


# one small valid run of every subcommand; @-names are files the test writes
GUARD_ARGVS = {
    "models": ["models"] + SU2_2,
    "fusion": ["fusion"] + SU2_2,
    "invariants": ["invariants"] + SU2_2,
    "nimreps-enumerate": ["nimreps", "enumerate"] + SU2_2 + ["--size", "3"],
    "nimreps-verify": ["nimreps", "verify"] + SU2_2 + ["--nimrep-file", "@nimrep"],
    "nimreps-generate": ["nimreps", "generate"] + SU2_2 + ["--generator-file", "@generator"],
    "characters": ["characters"] + SU2_2 + ["--order", "20"],
    "annulus": ["annulus"] + SU2_2 + ["--pair", "0,1", "--order", "20"],
    "check-s-transform": ["check", "s-transform", "--model", "su2", "--level", "1"],
    "check-heat-kernel": ["check", "heat-kernel"] + SU2_2 + ["--order", "30"],
    "indices": ["indices"] + SU2_2 + ["--theta", "0:1"],
    "report": ["report"] + SU2_2 + ["--order", "30"],
}
# The only options a run may leave unread, each for its reason:
# - the flags of the family not selected: these runs select su2, so --p and --pp
UNSELECTED_FAMILY = {"p", "pp"}
# - --cache on the two check subcommands, which store nothing; the benchmark's
#   cli-cache workload passes it to `check s-transform`, so both keep it
UNCACHED = {"check-s-transform", "check-heat-kernel"}


def _recording(args):
    """(a copy of the parsed args, the set of attribute names read from it)."""
    read = set()

    class Recording(type(args)):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    return Recording(**vars(args)), read


@pytest.mark.parametrize("name", ["nimreps-verify", "nimreps-generate"])
def test_commands_that_store_nothing_take_no_cache(name, capsys, tmp_path):
    code, out, err = run(GUARD_ARGVS[name] + ["--cache", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --cache" in err


@pytest.mark.parametrize("name", list(GUARD_ARGVS))
def test_every_accepted_option_is_read(name, tmp_path):
    files = {"@nimrep": tmp_path / "nimrep.json", "@generator": tmp_path / "generator.json"}
    files["@nimrep"].write_text(json.dumps(nimrep_document(regular_nimrep(verlinde(su2(2))))))
    files["@generator"].write_text(json.dumps(A3))
    argv = [str(files.get(x, x)) for x in GUARD_ARGVS[name]] + ["--out", str(tmp_path / "out")]
    args, read = _recording(cli.build_parser().parse_args(argv))
    doc, code = cli._HANDLERS[(args.command, getattr(args, "subcommand", None))](args)
    cli._emit(args, doc)
    assert code == 0
    accepted = set(vars(args)) - {"command", "subcommand"}
    allowed = UNSELECTED_FAMILY | ({"cache"} if name in UNCACHED else set())
    assert accepted - read == allowed


# ---------------------------------------------------------------------------
# argv fuzzing: every input ends in exit 0, 1 or 2, never a traceback

# values that no flag accepts, plus short arbitrary text
MALFORMED = st.one_of(
    st.sampled_from(["", "x", "-", "--", "0", "-1", "1.5", "nan", "inf", "1e3", "0x3",
                     " 2", "1,", ",", ":", ";", "0:", "a:b", "\u0663", "null"]),
    st.text(max_size=6),
)


def _value(*good):
    """Mostly a good value, now and then a malformed one."""
    return st.integers(0, 9).flatmap(lambda i: st.one_of(*good) if i else MALFORMED)


def _ints(low, high):
    return st.integers(low, high).map(str)


# input files, by placeholder; the test writes them once
FILE_NAMES = ["@model", "@nimrep", "@generator", "@badjson", "@list", "@binary",
              "@missing", "@dir"]
FILES = st.sampled_from(FILE_NAMES)
MODEL = st.one_of(
    st.tuples(st.just("--model"), _value(st.just("su2")), st.just("--level"),
              _value(_ints(-1, 4))),
    st.sampled_from([("3", "2"), ("4", "3"), ("5", "2"), ("5", "3"), ("5", "4"), ("4", "2"),
                     ("3", "3"), ("2", "3"), ("-1", "2")]).map(
        lambda pq: ("--model", "minimal", "--p", pq[0], "--pp", pq[1])),
    st.tuples(st.just("--model-file"), FILES),
    st.tuples(st.sampled_from(["--model", "--level", "--p", "--pp"]), _value(_ints(0, 4))),
)
COMMON = {
    "--precision": _value(st.sampled_from(["1", "3", "8", "20", "50"])),
    "--format": _value(st.sampled_from(["text", "structured"])),
    "--cache": st.just("cache"),
}
# --order is always drawn where it is taken: the default of 400 would slow every run
ORDER = _value(_ints(0, 30))
BETA = _value(st.sampled_from(["1", "3.5", "6.283", "0", "-2", "1e-3", "1e300"]))
TAGS = _value(st.sampled_from(["A3", "A5", "D4", "E6", "X"]))
TOL = _value(st.sampled_from(["1e-8", "0", "-1", "1", "nan", "inf"]))
# per command: (flags always drawn, flags drawn at will)
EXTRA = {
    ("models",): ({}, {}),
    ("fusion",): ({}, {}),
    ("invariants",): ({}, {}),
    ("characters",): ({"--order": ORDER}, {}),
    ("nimreps", "enumerate"): ({"--size": _value(_ints(-1, 6))}, {}),
    ("nimreps", "verify"): ({"--nimrep-file": FILES}, {}),
    ("nimreps", "generate"): ({"--generator-file": FILES}, {}),
    ("annulus",): (
        {"--pair": _value(st.sampled_from(["0,0", "0,1", "1,2", "2,0", "0,9", "-1,0", "0"])),
         "--order": ORDER},
        {"--nimrep": st.one_of(st.just("regular"), FILES)},
    ),
    ("check", "s-transform"): ({"--order": ORDER}, {"--tol": TOL, "--beta": BETA}),
    ("check", "heat-kernel"): ({"--order": ORDER},
                               {"--tol": TOL, "--beta": BETA, "--invariant-tag": TAGS}),
    ("indices",): ({"--theta": _value(st.sampled_from(
        ["0:1", "0:1,2:1", "1,1:1;1,3:1", "0:-1", "0:0", "9:1", "sigma:1", "0:1;"]))}, {}),
    ("report",): ({"--order": ORDER}, {"--beta": BETA, "--invariant-tag": TAGS}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(EXTRA) + [("nimreps",), ("check",)]))
    always, at_will = EXTRA.get(command, ({}, {}))
    at_will = dict(COMMON, **at_will)
    if list(command) in UNCACHED_COMMANDS:
        del at_will["--cache"]
    argv = list(command) + list(draw(MODEL))
    for flag in list(always) + draw(st.lists(st.sampled_from(sorted(at_will)), unique=True)):
        argv += [flag, draw(always[flag] if flag in always else at_will[flag])]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(MALFORMED))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "@model": json.dumps(model_to_document(su2(2, 20))).encode(),
        "@nimrep": json.dumps(nimrep_document(regular_nimrep(verlinde(su2(2))))).encode(),
        "@generator": b"[[0, 1, 0], [1, 0, 1], [0, 1, 0]]",
        "@badjson": b"{not json",
        "@list": b"[1, 2, 3]",
        "@binary": b"\xff\xfe\x00",
    }
    paths = {name: root / name[1:] for name in FILE_NAMES}
    for name, data in contents.items():
        paths[name].write_bytes(data)
    paths["@dir"].mkdir()
    return {name: str(path) for name, path in paths.items()}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_any_argv_exits_zero_one_or_two_without_traceback(argv, fuzz_files, tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)  # --cache and stray paths land here
    argv = [fuzz_files.get(x, x) for x in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), argv
    # a small --order draw may leave a series short of convergence; that is
    # the one warning a run may raise
    assert all(issubclass(w.category, bcft.errors.ConvergenceWarning) for w in caught), \
        (argv, [str(w.message) for w in caught])
    if code != 1 and not any(x.startswith(("-h", "--h")) for x in argv):
        # every --tol value that got through is positive and finite
        tols = [float(argv[i + 1]) for i, x in enumerate(argv) if x == "--tol"]
        assert all(0 < t < math.inf for t in tols), argv
    out = out.getvalue()
    if code == 1:
        assert out == "", argv
    if code == 2:  # a check that ran and failed still prints its verdict
        assert out == "" or "ok: False" in out or '"ok": false' in out, argv
