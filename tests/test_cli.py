"""End-to-end command-line behavior: documents, exit codes, cache."""

import contextlib
import functools
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bcft.errors
from bcft import cli
from bcft.cli import main as cli_main
from bcft.fusion import verlinde
from bcft.modular_data import model_to_document
from bcft.nimreps import e6_graph, enumerate_su2_nimreps, nimrep_document, regular_nimrep
from conftest import su2


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
    assert "beta: 2*pi" in err


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
         "--theta item '1,1:1': no sector is named '1,1'"),
        *(([*check, "--model", "su2", "--level", "2", "--tol", tol], "argument --tol")
          for check in (["check", "s-transform"], ["check", "heat-kernel"])
          for tol in ("nan", "inf", "0", "-1")),
        (["models", "--model", "su2", "--level", "28", "--precision", "1"],
         "|S_{0 0}| = 0.027 is below the tolerance 0.1 at precision 1"),
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
NOT_A_NIMREP = "expected a bcft-nimrep/1 document"


@pytest.mark.parametrize(
    "argv, flag, content, message",
    [
        (GENERATE, "--generator-file",
         json.dumps({"format": "bcft-nimrep/1", "labels": [0, 1]}), NOT_A_MATRIX),
        (GENERATE, "--generator-file", json.dumps([[0, "a"], ["a", 0]]), NOT_A_MATRIX),
        (GENERATE, "--generator-file", json.dumps([[0, 1.5], [1.5, 0]]), NOT_A_MATRIX),
        (GENERATE, "--generator-file", json.dumps([[0, 1], [1]]), NOT_A_MATRIX),
        (GENERATE, "--generator-file", "not json", NOT_A_MATRIX),
        (ANNULUS, "--nimrep", json.dumps([[0, 1], [1, 0]]), NOT_A_NIMREP),
        (ANNULUS, "--nimrep", json.dumps({"format": "bcft-nimrep/1"}), NOT_A_NIMREP),
        (ANNULUS, "--nimrep", "not json", NOT_A_NIMREP),
        (VERIFY, "--nimrep-file", json.dumps([[0, 1], [1, 0]]), NOT_A_NIMREP),
    ],
)
def test_malformed_input_file_names_the_flag_and_file(
    argv, flag, content, message, capsys, tmp_path
):
    path = tmp_path / "input.json"
    path.write_text(content)
    for fmt in ("text", "structured"):
        code, out, err = run(argv + [flag, str(path), "--format", fmt], capsys)
        assert code == 1
        assert out == ""
        assert "%s %s: " % (flag, path) in err
        assert message in err
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

    for name in ("verlinde", "enumerate_physical", "enumerate_su2_nimreps", "spectrum_match"):
        monkeypatch.setattr(cli, name, refuse)
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
    cache = ["--cache", str(tmp_path / "cache")]
    for path, argv in (
        (model_file, ["models", "--model-file", str(model_file)]),
        (nimrep_file, ["annulus", "--model", "su2", "--level", "2", "--nimrep",
                       str(nimrep_file), "--pair", "0,0", "--order", "10"]),
    ):
        reads = _count_reads(monkeypatch, path)
        for _ in ("cold", "warm"):
            reads.clear()
            assert run(argv + cache, capsys)[0] == 0
            assert len(reads) == 1, reads
        monkeypatch.undo()


def test_unknown_invariant_tag_exits_one_with_a_warm_cache(capsys, tmp_path):
    argv = ["report", "--model", "su2", "--level", "10", "--order", "30",
            "--cache", str(tmp_path / "cache")]
    assert run(argv + ["--invariant-tag", "E6"], capsys)[0] == 0
    code, out, err = run(argv + ["--invariant-tag", "E7"], capsys)
    assert (code, out) == (1, "")
    assert "no physical invariant tagged 'E7'" in err


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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-500:]


def test_nimrep_enumeration_imports_no_sympy():
    _run_in_child_without(
        ["nimreps", "enumerate", "--model", "su2", "--level", "10", "--size", "6"], ("sympy",)
    )


def test_invariants_import_neither_scipy_nor_sympy():
    _run_in_child_without(["invariants", "--model", "su2", "--level", "10"], ("scipy", "sympy"))


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


def test_cache_entry_of_older_numeric_code_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["fusion", "--model", "minimal", "--p", "4", "--pp", "3",
            "--format", "structured", "--cache", str(cache)]
    code, fresh, _ = run(argv, capsys)
    assert code == 0
    (path,) = cache.rglob("*.json")
    wrapper = json.loads(path.read_text())

    # an entry as the mpmath Verlinde sum stored it: no numeric schema in meta
    stale = json.loads(json.dumps(wrapper))
    del stale["meta"]["numeric_schema"]
    stale["payload"]["max_residual"] = "1.5557538194652854e-61"
    path.write_text(json.dumps(stale))
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == fresh
    restored = json.loads(path.read_text())
    assert restored["payload"] == wrapper["payload"]
    assert restored["meta"]["numeric_schema"] == wrapper["meta"]["numeric_schema"]

    # the re-stored entry is served: a marked payload comes back unchanged
    marked = json.loads(path.read_text())
    marked["payload"]["max_residual"] = "1e-99"
    path.write_text(json.dumps(marked))
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] == "1e-99"


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
    "--beta": _value(st.sampled_from(["1", "3.5", "6.283", "0", "-2", "1e-3", "1e300"])),
    "--format": _value(st.sampled_from(["text", "structured"])),
    "--cache": st.just("cache"),
}
TAGS = _value(st.sampled_from(["A3", "A5", "D4", "E6", "X"]))
TOL = _value(st.sampled_from(["1e-8", "0", "-1", "1", "nan", "inf"]))
# per command: (required flags, optional flags)
EXTRA = {
    ("models",): ({}, {}),
    ("fusion",): ({}, {}),
    ("invariants",): ({}, {}),
    ("characters",): ({}, {}),
    ("nimreps", "enumerate"): ({"--size": _value(_ints(-1, 6))}, {}),
    ("nimreps", "verify"): ({"--nimrep-file": FILES}, {}),
    ("nimreps", "generate"): ({"--generator-file": FILES}, {}),
    ("annulus",): (
        {"--pair": _value(st.sampled_from(["0,0", "0,1", "1,2", "2,0", "0,9", "-1,0", "0"]))},
        {"--nimrep": st.one_of(st.just("regular"), FILES)},
    ),
    ("check", "s-transform"): ({}, {"--tol": TOL}),
    ("check", "heat-kernel"): ({}, {"--tol": TOL, "--invariant-tag": TAGS}),
    ("indices",): ({"--theta": _value(st.sampled_from(
        ["0:1", "0:1,2:1", "1,1:1;1,3:1", "0:-1", "0:0", "9:1", "sigma:1", "0:1;"]))}, {}),
    ("report",): ({}, {"--invariant-tag": TAGS}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(EXTRA) + [("nimreps",), ("check",)]))
    required, optional = EXTRA.get(command, ({}, {}))
    optional = dict(COMMON, **optional)
    argv = list(command) + list(draw(MODEL)) + ["--order", draw(_value(_ints(0, 30)))]
    for flag in list(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        argv += [flag, draw(required.get(flag) or optional[flag])]
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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), argv
    if code != 1 and not any(x.startswith(("-h", "--h")) for x in argv):
        # every --tol value that got through is positive and finite
        tols = [float(argv[i + 1]) for i, x in enumerate(argv) if x == "--tol"]
        assert all(0 < t < math.inf for t in tols), argv
    out = out.getvalue()
    if code == 1:
        assert out == "", argv
    if code == 2:  # a check that ran and failed still prints its verdict
        assert out == "" or "ok: False" in out or '"ok": false' in out, argv
