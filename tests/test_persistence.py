"""Canonical documents, the content-addressed cache, and exports."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcft.characters import QSeries, eta_series, qseries_document
from bcft.errors import DocumentFormatError, MigrationError
from bcft.fusion import FusionRing, fusion_document, verlinde
from bcft.invariants import ModularInvariant, enumerate_physical, invariant_document
from bcft.modular_data import ModularData, load_model, model_to_document
from bcft.nimreps import (Nimrep, enumerate_su2_nimreps, nimrep_document, nimrep_from_document,
                          regular_nimrep)
from bcft.persistence import (
    CACHE_FORMAT,
    NUMERIC_SCHEMA,
    Cache,
    cache_key,
    canonical_json,
    export,
)
from bcft.report import index_document, index_report
from conftest import fusion_minimal, minimal, su2

# ---------------------------------------------------------------------------
# documents: exact as JSON, and read back where they are read

ENCODE = {ModularData: model_to_document, FusionRing: fusion_document,
          ModularInvariant: invariant_document, Nimrep: nimrep_document,
          QSeries: qseries_document}
# the two kinds a user supplies (--model-file, and --nimrep or --nimrep-file),
# the only documents the library reads back
DECODE = {ModularData: load_model, Nimrep: nimrep_from_document}


def _domain_objects():
    md = su2(10)
    yield minimal(5, 2)
    yield md
    yield fusion_minimal(4, 3)
    yield [z for z in enumerate_physical(md) if z.tag == "E6"][0]
    yield enumerate_su2_nimreps(md, 6)[0]
    yield regular_nimrep(fusion_minimal(4, 3))
    yield eta_series(40)
    yield QSeries(Fraction(-3, 8), 8, (1, 0, -2, 5))


def _same(a, b) -> bool:
    """a == b; nimreps, whose nmats array has no truth value, field by field."""
    if isinstance(a, Nimrep):
        return a.labels == b.labels and np.array_equal(a.nmats, b.nmats)
    return a == b


@pytest.mark.parametrize("obj", list(_domain_objects()), ids=lambda o: type(o).__name__)
def test_round_trip_is_exact(obj):
    """Each document survives its canonical JSON text; a model or nimrep
    document also reads back to the object."""
    doc = ENCODE[type(obj)](obj)
    assert json.loads(canonical_json(doc)) == doc
    if type(obj) in DECODE:
        assert _same(DECODE[type(obj)](doc), obj)
        assert _same(DECODE[type(obj)](json.loads(canonical_json(doc))), obj)


# the exact fields of the documents that hold integers
ENCODED = {
    "fusion": (fusion_document(verlinde(su2(1))), ("n", "conjugation", "tensor", "precision")),
    "invariant": (invariant_document(enumerate_physical(su2(2))[0]), ("Z", "exponents")),
    "qseries": (qseries_document(eta_series(5)), ("grid", "coeffs")),
}
INTEGER_FIELDS = {"%s%s" % (kind, "-" + field if field else ""): (kind, field)
                  for kind, (_, fields) in ENCODED.items() for field in ("",) + fields}


def _leaves(x):
    if isinstance(x, (list, dict)):
        for v in (x.values() if isinstance(x, dict) else x):
            yield from _leaves(v)
    else:
        yield x


@pytest.mark.parametrize("kind, field", list(INTEGER_FIELDS.values()), ids=list(INTEGER_FIELDS))
def test_documents_hold_only_json_integers(kind, field):
    """An exact field is written as JSON integers: a float or a bool
    equal to one would print other bytes (1.0, true) and so change the
    text that the cache stores.  Without a field: every number of the
    document is an integer, as decimals are written as strings."""
    doc, _ = ENCODED[kind]
    allowed = (int,) if field else (int, str)
    assert all(type(v) in allowed for v in _leaves(doc[field] if field else doc))


# one valid document of each kind the library decodes but the model document
DECODED = {
    "nimrep": (nimrep_document(regular_nimrep(verlinde(su2(2)))), nimrep_from_document),
}
DELETE = "<deleted>"
MUTATIONS = {"deleted": DELETE, "null": None, "text": "x", "float": 1.5, "bool": True,
             "list": [], "mapping": {}, "minus-one": -1, "zero": 0, "huge": 10**30}


@pytest.mark.parametrize("kind, field, value", [
    pytest.param(kind, field, value, id="%s-%s-%s" % (kind, field, name))
    for kind, (doc, _) in DECODED.items() for field in sorted(doc) if field != "format"
    for name, value in MUTATIONS.items()
])
def test_a_mutated_field_decodes_or_is_refused_by_name(kind, field, value):
    """Deleting or replacing one top-level field either still decodes or
    raises DocumentFormatError naming the field; no other exception
    leaks.  The format field is kept.

    Model documents are left out: their malformed fields are covered by
    test_malformed_model_document_{header,body}_exits_one in
    test_cli.py, and a huge builder param there still runs without end,
    as no cost ceiling refuses it yet."""
    doc, decode = DECODED[kind]
    doc = json.loads(json.dumps(doc))
    if value == DELETE:
        del doc[field]
    else:
        doc[field] = value
    try:
        decode(doc)
    except DocumentFormatError as exc:
        assert "field %r" % field in str(exc)


# ---------------------------------------------------------------------------
# canonical text and keys


def test_canonical_json_is_key_order_insensitive():
    a = {"b": 1, "a": [1, 2], "c": {"y": 1, "x": 2}}
    b = {"c": {"x": 2, "y": 1}, "a": [1, 2], "b": 1}
    assert canonical_json(a) == canonical_json(b)


def test_cache_key_is_stable_across_builds():
    key = cache_key("fusion", {"model": "su2_2"}, precision=50)
    assert key == "41f3c57cd40ab404d3dd540ab0b1fa1318f5c808d8ea9068877217c984f3fb92"


def test_cache_key_distinguishes_every_field():
    base = cache_key("fusion", {"model": "su2_2"}, precision=50, order=None)
    assert cache_key("invariants", {"model": "su2_2"}, precision=50) != base
    assert cache_key("fusion", {"model": "su2_3"}, precision=50) != base
    assert cache_key("fusion", {"model": "su2_2"}, precision=30) != base
    assert cache_key("fusion", {"model": "su2_2"}, precision=50, order=100) != base
    assert cache_key("fusion", {"model": "su2_2"}, precision=50) == base


# ---------------------------------------------------------------------------
# the cache directory


def _entry(operation, inputs, doc, precision=None):
    """(key, printed text) of a result document, as the command line stores it."""
    return cache_key(operation, inputs, precision), export(doc)


def _header(key, **fields):
    return json.dumps(dict({"format": CACHE_FORMAT, "key": key,
                            "numeric_schema": NUMERIC_SCHEMA}, **fields), sort_keys=True)


def test_cache_store_load_round_trip(tmp_path):
    cache = Cache(tmp_path / "cache")
    md = minimal(4, 3)
    fr = verlinde(md)
    key, text = _entry("fusion", {"model": "minimal_4_3"}, fusion_document(fr), precision=50)
    assert cache.store(key, text) == key
    path = cache.path_for(key)
    assert path.is_file()
    assert path.parent.name == key[:2]
    assert path.name == key + ".json"
    stored, doc = cache.load(key)
    assert stored == text == canonical_json(fusion_document(fr)) + "\n"
    assert doc == fusion_document(fr)


def test_cache_miss_returns_none(tmp_path):
    assert Cache(tmp_path).load("ab" + "0" * 62) is None


def test_cache_entry_is_a_header_line_over_the_printed_text(tmp_path):
    cache = Cache(tmp_path)
    key, text = _entry("fusion", {"model": "su2_1"}, fusion_document(verlinde(su2(1))))
    cache.store(key, text)
    data = cache.path_for(key).read_text()
    assert data == _header(key) + "\n" + text
    assert json.loads(data.partition("\n")[0]) == {
        "format": "bcft-cache/2", "key": key, "numeric_schema": NUMERIC_SCHEMA}


def test_cache_misses_entries_of_other_numeric_code(tmp_path):
    cache = Cache(tmp_path)
    key, text = _entry("fusion", {"model": "su2_1"}, fusion_document(verlinde(su2(1))))
    path = cache.path_for(cache.store(key, text))
    for header in (
        json.dumps({"format": CACHE_FORMAT, "key": key}),
        _header(key, numeric_schema=NUMERIC_SCHEMA - 1),
    ):
        path.write_text(header + "\n" + text)
        assert cache.load(key) is None
    cache.store(key, text)
    assert cache.load(key) == (text, json.loads(text))


def test_a_schema_3_fusion_entry_is_a_miss_and_is_stored_again(tmp_path):
    # schema 3 stored max_residual over every summed triple of the
    # Verlinde sum; schema 4 summed a few planes, over an S rounded from mpf;
    # schema 5 sums them over the S that the builders write in fixed point;
    # schema 6 takes a summed plane's residual over the one triangle it forms;
    # schema 7 moves the residuals of the channel checks, now in fixed point
    assert NUMERIC_SCHEMA == 7
    cache = Cache(tmp_path)
    key, text = _entry("fusion", {"model": "minimal_4_3"},
                       fusion_document(fusion_minimal(4, 3)))
    path = cache.path_for(cache.store(key, text))
    for schema in (3, 4, 5, 6):
        old_payload = dict(json.loads(text), max_residual="1.0e-62")
        path.write_text(_header(key, numeric_schema=schema) + "\n" + canonical_json(old_payload))
        assert cache.load(key) is None
        cache.store(key, text)
        assert cache.load(key) == (text, json.loads(text))
        assert json.loads(path.read_text().partition("\n")[0])["numeric_schema"] == 7


def test_a_bcft_cache_1_wrapper_is_a_miss_and_is_stored_again(tmp_path):
    """Entries of older builds: one indented JSON wrapper around the payload."""
    cache = Cache(tmp_path)
    key, text = _entry("fusion", {"model": "minimal_4_3"},
                       fusion_document(fusion_minimal(4, 3)))
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    meta = {"artifact": "0.1.0", "operation": "fusion", "numeric_schema": NUMERIC_SCHEMA,
            "created": "2026-01-01T00:00:00Z"}
    path.write_text(canonical_json({"format": "bcft-cache/1", "key": key, "meta": meta,
                                    "payload": json.loads(text)}) + "\n")
    assert cache.load(key) is None
    cache.store(key, text)
    assert path.read_text() == _header(key) + "\n" + text
    # an indented mapping of any other format is not an entry
    path.write_text(canonical_json({"format": "bcft-cache/0", "key": key}))
    with pytest.raises(DocumentFormatError, match="cache file %s is not a JSON document"
                       % re.escape(str(path))):
        cache.load(key)


def test_cache_refuses_foreign_versions_and_mismatched_keys(tmp_path):
    cache = Cache(tmp_path)
    key1 = "aa" + "1" * 62
    key2 = "bb" + "2" * 62
    p = cache.path_for(key1)
    p.parent.mkdir(parents=True)
    p.write_text(_header(key1, format="bcft-cache/9") + "\n{}\n")
    with pytest.raises(MigrationError, match="cache file %s has format 'bcft-cache/9'"
                       % re.escape(str(p))):
        cache.load(key1)
    p2 = cache.path_for(key2)
    p2.parent.mkdir(parents=True)
    p2.write_text(_header(key1) + "\n{}\n")
    with pytest.raises(DocumentFormatError, match="records key"):
        cache.load(key2)


def test_cache_refuses_a_wrapper_without_a_payload_mapping(tmp_path):
    cache = Cache(tmp_path)
    key, text = _entry("model", {"level": 2}, model_to_document(su2(2)))
    path = cache.path_for(cache.store(key, text))
    for body in ("[1]\n", "", "garbage", text[:-10]):
        path.write_text(_header(key) + "\n" + body)
        with pytest.raises(DocumentFormatError, match="cache file %s: the payload under its "
                           "header must be a JSON mapping" % re.escape(str(path))):
            cache.load(key)
    # a payload-less entry of other numeric code is still a miss
    path.write_text(_header(key, numeric_schema=None))
    assert cache.load(key) is None


@pytest.mark.parametrize("text", [b"garbage", b"", b'{"format": ', b"\xff\xfe", b"[1]\n{}\n"])
def test_cache_refuses_a_file_that_is_not_json(text, tmp_path):
    cache = Cache(tmp_path)
    key, printed = _entry("model", {"level": 2}, model_to_document(su2(2)))
    path = cache.path_for(cache.store(key, printed))
    path.write_bytes(text)
    with pytest.raises(DocumentFormatError, match="cache file %s is not a JSON document"
                       % re.escape(str(path))):
        cache.load(key)


def test_cache_writes_leave_no_temp_files(tmp_path):
    cache = Cache(tmp_path)
    for k in (1, 2, 3):
        cache.store(*_entry("model", {"level": k}, model_to_document(su2(k))))
    names = [p.name for p in tmp_path.rglob("*") if p.is_file()]
    assert names and all(
        n.endswith(".json") and not n.startswith(".tmp-") for n in names
    )


def test_cache_store_is_idempotent(tmp_path):
    cache = Cache(tmp_path)
    key, text = _entry("model", {"level": 2}, model_to_document(su2(2)))
    cache.store(key, text)
    first = cache.path_for(key).read_bytes()
    cache.store(*_entry("model", {"level": 2}, model_to_document(su2(2))))
    assert cache.path_for(key).read_bytes() == first


# ---------------------------------------------------------------------------
# exports


def test_structured_export_is_deterministic():
    doc = fusion_document(fusion_minimal(5, 2))
    assert export(doc) == export(json.loads(export(doc)))
    assert export(doc).endswith("\n")
    assert json.loads(export(doc))["format"] == "bcft-fusion/1"


def test_text_export_lists_fields():
    md = minimal(4, 3)
    doc = index_document(md, index_report(md, (1, 0, 1)))
    text = export(doc, "text")
    assert "d_pi:" in text
    assert "two_interval:" in text
    with pytest.raises(ValueError):
        export(doc, "yaml")


# ---------------------------------------------------------------------------
# distinct q-series print distinct documents


@st.composite
def qseries_strategy(draw):
    grid = draw(st.sampled_from([1, 2, 24, 48]))
    num = draw(st.integers(min_value=-40, max_value=40))
    coeffs = draw(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6)
    )
    return QSeries(Fraction(num, grid), grid, tuple(coeffs))


@settings(max_examples=120, deadline=None)
@given(qseries_strategy(), qseries_strategy())
def test_document_equality_iff_object_equality(f, g):
    assert (qseries_document(f) == qseries_document(g)) == (f == g)
