"""Deterministic on-disk cache and canonical interchange documents.

Every computed object serializes to a structured document carrying a
mandatory format-version field.  Documents render to canonical text
(sorted keys, exact integers, fractions as "p/q" strings, decimals at
fixed precision) so that identical computations produce byte-identical
artifacts.  The cache keeps one entry per content key in
``<root>/<first two hash chars>/<key>.json``: a header line naming the
cache format, the key and the numeric schema, then the exact text that
``--format structured`` prints.  Writes go through an atomic rename, and
reading a cache format this build does not understand raises
MigrationError instead of silently reinterpreting the data.

This module uses only the standard library and ``bcft.errors``.  It is
also the one home of the numeric defaults and of the model document
header, which the command line reads before any numeric code runs, so
that a cache hit needs nothing else.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import DocumentFormatError, MigrationError

DEFAULT_PRECISION = 50  # decimal digits
# the most digits --precision or a model document may ask for: `fusion --model
# su2 --level 10` takes 3.2 s at 10,000 on a 2-core machine (10^11 ran out of memory)
MAX_PRECISION = 10_000
DEFAULT_ORDER = 400  # q-series terms
CHANNEL_TOL = 1e-8  # default tolerance of the S-transform and heat-kernel checks

MODEL_DOCUMENT_FORMAT = "bcft-model/1"
# number of integer params of each builder family
BUILDER_PARAMS = {"su2": 1, "minimal": 2}

CACHE_FORMAT = "bcft-cache/2"
# Version of the numeric code behind a cached result (2: exact spectrum
# certificates; 3: a --model-file report at the document's own precision;
# 4: a fusion max_residual over the summed Verlinde planes alone; 5: S
# written in fixed point by the builders, which moves residuals below the
# working precision; 6: a summed Verlinde plane's residual over one
# triangle; 7: residuals of the fixed-point channel checks).  Cache.load treats an entry recorded under another value, or
# none, as a miss, so results of older code are recomputed.
NUMERIC_SCHEMA = 7


def model_header(document, precision: int) -> tuple:
    """(precision, builder) of a model document, checked without numeric
    code: the document's "precision" field, an integer from 1 to
    MAX_PRECISION, wins over the precision argument; builder is None or
    (family, params) with the family's number of integer params.  Anything else raises
    DocumentFormatError naming the field."""
    if not isinstance(document, dict):
        raise DocumentFormatError("model document must be a mapping")
    if document.get("format", MODEL_DOCUMENT_FORMAT) != MODEL_DOCUMENT_FORMAT:
        raise DocumentFormatError("unsupported document format %r" % document.get("format"))
    if "precision" in document:
        precision = document["precision"]
        if type(precision) is not int:
            raise DocumentFormatError(
                "field 'precision' must be an integer, not %r" % (precision,))
        if precision < 1:
            raise DocumentFormatError("field 'precision' must be at least 1, not %d" % precision)
        if precision > MAX_PRECISION:
            raise DocumentFormatError(
                "field 'precision' must be at most %d, not %d" % (MAX_PRECISION, precision))
    builder = document.get("builder")
    if builder is None:
        return precision, None
    if not isinstance(builder, dict):
        raise DocumentFormatError("field 'builder' must be a mapping, not %r" % (builder,))
    family, params = builder.get("family"), builder.get("params")
    if type(family) is not str:
        raise DocumentFormatError("field 'builder.family' must be a string, not %r" % (family,))
    if family not in BUILDER_PARAMS:
        raise DocumentFormatError("unknown builder family %r" % (family,))
    if not (isinstance(params, list) and len(params) == BUILDER_PARAMS[family]
            and all(type(x) is int for x in params)):
        raise DocumentFormatError("field 'builder' needs 'params': %d integers for family %r, "
                                  "not %r" % (BUILDER_PARAMS[family], family, params))
    return precision, (family, tuple(params))


def canonical_json(doc) -> str:
    """The one deterministic text rendering used for hashing and files."""
    return json.dumps(
        doc, sort_keys=True, indent=1, separators=(",", ": "), ensure_ascii=False
    )


def cache_key(
    operation: str,
    inputs,
    precision: int | None = None,
    order: int | None = None,
) -> str:
    """Content hash of (operation, canonical inputs, precision, order)."""
    material = {
        "operation": operation,
        "inputs": inputs,
        "precision": precision,
        "order": order,
    }
    return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()


class Cache:
    """Content-addressed store of printed documents under one directory.

    Concurrent reads are safe; each write lands via atomic rename, so a
    reader never sees a torn file.  Two writers racing on the same key
    write identical bytes (keys are content hashes of the inputs and
    results are deterministic), so last-writer-wins is harmless.
    """

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def store(self, key: str, text: str) -> str:
        """Store text, the structured rendering of a document, under key."""
        header = json.dumps({"format": CACHE_FORMAT, "key": key,
                             "numeric_schema": NUMERIC_SCHEMA}, sort_keys=True)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(header + "\n" + text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return key

    def load(self, key: str):
        """(stored text, its document), or None on a miss: no entry, one
        stored by numeric code of another NUMERIC_SCHEMA, or a whole-file
        bcft-cache/1 wrapper of older builds.  A header of another cache
        format raises MigrationError; a header of another key, or a file
        that is not a header line over a JSON mapping, raises
        DocumentFormatError naming the file."""
        path = self.path_for(key)
        try:
            data = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except UnicodeDecodeError:
            data = ""  # refused below, as any other file that is not JSON
        head, _, text = data.partition("\n")
        header = _json_mapping(head)
        if header is None:
            # an older build stored one indented wrapper document: recompute
            if (_json_mapping(data) or {}).get("format") == "bcft-cache/1":
                return None
            raise DocumentFormatError("cache file %s is not a JSON document" % path)
        if header.get("format") != CACHE_FORMAT:
            raise MigrationError("cache file %s has format %r; this build reads %r"
                                 % (path, header.get("format"), CACHE_FORMAT))
        if header.get("key") != key:
            raise DocumentFormatError("cache file %s records key %r" % (path, header.get("key")))
        if header.get("numeric_schema") != NUMERIC_SCHEMA:
            return None
        doc = _json_mapping(text)
        if doc is None:
            raise DocumentFormatError("cache file %s: the payload under its header must be a "
                                      "JSON mapping" % path)
        return text, doc


def _json_mapping(text: str):
    """The mapping that text parses to, or None."""
    try:
        value = json.loads(text)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _text_lines(value, indent: int, out: list):
    pad = "  " * indent
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                out.append("%s%s:" % (pad, k))
                _text_lines(v, indent + 1, out)
            else:
                out.append("%s%s: %s" % (pad, k, v))
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            out.append("%s[%s]" % (pad, ", ".join(str(x) for x in value)))
        else:
            for x in value:
                _text_lines(x, indent, out)
    else:
        out.append("%s%s" % (pad, value))


def export(doc, format: str = "structured") -> str:
    """Render a document for output.

    "structured" is the canonical JSON text; "text" is a plain indented
    listing of the same content.
    """
    if format == "structured":
        return canonical_json(doc) + "\n"
    if format == "text":
        lines: list = []
        _text_lines(doc, 0, lines)
        return "\n".join(lines) + "\n"
    raise ValueError("unknown export format %r" % format)
