"""Command-line front end for every pipeline stage.

Each subcommand delegates to one module operation and emits a single
structured document (``--format structured``) or a plain text listing
(``--format text``).  Every run prints its fully-resolved
configuration, defaults included, to stderr before the results,
so stdout stays machine-readable.

Exit codes: 0 success; 1 validation error (bad flags, malformed input,
rejected model data); 2 check failure (a mathematical consistency
check exceeded its tolerance), kept distinct so CI can assert on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from .characters import (CHANNEL_TOL, DEFAULT_ORDER, characters_for, qseries_document,
                         s_transform_residual)
from .errors import BcftError, CheckFailure, MigrationError, ModelValidationError
from .fusion import fusion_document, verlinde
from .hp import num_str
from .invariants import diagonal_invariant, enumerate_physical, invariant_document
from .modular_data import (
    DEFAULT_PRECISION,
    build_minimal,
    build_su2,
    load_model,
    model_name,
    model_to_document,
)
from .nimreps import (
    NIMREP_DOCUMENT_FORMAT,
    enumerate_su2_nimreps,
    generate_from_generator,
    nimrep_document,
    nimrep_from_document,
    regular_nimrep,
    spectrum_match,
    verify,
)
from .persistence import Cache, cache_key, export, make_entry
from .report import (
    annulus,
    annulus_document,
    full_report,
    heat_kernel_residuals,
    index_document,
    index_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, "%s: error: %s\n" % (self.prog, message))


def _int_at_least(low: int):
    """argparse type: an integer >= low (rejected values exit 1)."""

    def parse(text):
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (low, text))

    return parse


def _finite_float(text):
    """argparse type: a finite float (nan and inf exit 1)."""
    try:
        if math.isfinite(float(text)):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)


def _positive_float(text):
    """argparse type: a positive finite float (nan, inf, 0 and negatives exit 1)."""
    if _finite_float(text) > 0:
        return float(text)
    raise argparse.ArgumentTypeError("expected a positive number, got %r" % text)


def _add_common(p: argparse.ArgumentParser):
    g = p.add_argument_group("model selection")
    g.add_argument("--model", choices=["su2", "minimal"], help="built-in family")
    g.add_argument("--level", type=int, help="su2 level k")
    g.add_argument("--p", type=int, help="minimal-model label p")
    g.add_argument("--pp", type=int, help="minimal-model label p' (2 <= p' < p)")
    g.add_argument("--model-file", help="path to a structured model document")
    n = p.add_argument_group("numeric knobs")
    n.add_argument("--precision", type=_int_at_least(1), default=DEFAULT_PRECISION)
    n.add_argument("--order", type=_int_at_least(0), default=DEFAULT_ORDER)
    n.add_argument(
        "--beta", type=_finite_float, default=None, help="inverse temperature (default 2*pi)"
    )
    o = p.add_argument_group("output")
    o.add_argument("--out", default=None, help="write results to this file")
    o.add_argument("--format", choices=["text", "structured"], default="text")
    o.add_argument("--cache", default=None, metavar="DIR", help="enable the on-disk cache")


def _add_invariant_choice(p: argparse.ArgumentParser):
    g = p.add_argument_group("invariant selection")
    g.add_argument(
        "--invariant-tag",
        help="pick the physical invariant with this tag (built-in families; "
        "default: diagonal invariant with the regular nimrep)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="bcft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("models", help="build and validate modular data")
    _add_common(p)

    p = sub.add_parser("fusion", help="fusion coefficients via the Verlinde sum")
    _add_common(p)

    p = sub.add_parser("invariants", help="enumerate physical modular invariants")
    _add_common(p)

    nim = sub.add_parser("nimreps", help="fusion-graph representations")
    nimsub = nim.add_subparsers(dest="subcommand", required=True, metavar="ACTION")
    p = nimsub.add_parser("enumerate", help="all nimreps of a given boundary count")
    _add_common(p)
    p.add_argument("--size", type=int, required=True, help="number of boundaries")
    p = nimsub.add_parser("verify", help="check a stored nimrep against the fusion ring")
    _add_common(p)
    p.add_argument("--nimrep-file", required=True, help="structured nimrep document")
    p = nimsub.add_parser("generate", help="grow a nimrep from a fusion graph")
    _add_common(p)
    p.add_argument(
        "--generator-file", required=True, help="JSON adjacency matrix of the graph"
    )

    p = sub.add_parser("characters", help="exact q-series of every sector")
    _add_common(p)

    p = sub.add_parser("annulus", help="boundary-pair character content")
    _add_common(p)
    p.add_argument(
        "--nimrep",
        default="regular",
        help='"regular" or a path to a structured nimrep document',
    )
    p.add_argument("--pair", required=True, help="boundary pair, e.g. 1,2")

    chk = sub.add_parser("check", help="channel-duality residual checks")
    chksub = chk.add_subparsers(dest="subcommand", required=True, metavar="CHECK")
    p = chksub.add_parser("s-transform", help="characters against the S matrix")
    _add_common(p)
    p.add_argument("--tol", type=_positive_float, default=CHANNEL_TOL)
    p = chksub.add_parser("heat-kernel", help="open/closed channel agreement")
    _add_common(p)
    _add_invariant_choice(p)
    p.add_argument("--tol", type=_positive_float, default=CHANNEL_TOL)

    p = sub.add_parser("indices", help="index chain of a chiral extension")
    _add_common(p)
    p.add_argument(
        "--theta",
        required=True,
        help='sector content, e.g. "0:1,2:1" (indices) or "1,1:1;1,3:1" (names)',
    )

    p = sub.add_parser("report", help="full document for one (model, invariant, nimrep)")
    _add_common(p)
    _add_invariant_choice(p)

    return parser


# ---------------------------------------------------------------------------
# resolution helpers


def _resolve_model(args):
    """(model, cache-key ingredient) of the selected model.

    A --model-file is read once and keyed by the SHA-256 of the bytes
    that are parsed, so an overwritten file misses.
    """
    if args.model_file:
        data = Path(args.model_file).read_bytes()
        md = load_model(json.loads(data.decode("utf-8")), args.precision)
        return md, {"file_sha256": hashlib.sha256(data).hexdigest()}
    if args.model == "su2":
        if args.level is None:
            raise ValueError("--model su2 needs --level")
        return build_su2(args.level, args.precision), {"family": "su2", "level": args.level}
    if args.model == "minimal":
        if args.p is None or args.pp is None:
            raise ValueError("--model minimal needs --p and --pp")
        md = build_minimal(args.p, args.pp, args.precision)
        return md, {"family": "minimal", "p": args.p, "pp": args.pp}
    raise ValueError("select a model with --model or --model-file")


def _parse_pair(text: str) -> tuple:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError('--pair must look like "1,2", got %r' % text) from None
    return a, b


def _parse_theta(md, text: str) -> dict:
    """Sector multiplicities from "KEY:MULT" items.

    Items are separated by ";" (needed when sector names contain
    commas) or "," when unambiguous; KEY is a sector index or name.
    """
    items = text.split(";") if ";" in text else text.split(",")
    theta = {}
    for item in items:
        key, sep, mult = item.rpartition(":")
        if not sep:
            raise ValueError('--theta items must look like "KEY:MULT"')
        try:
            idx = int(key)
        except ValueError:
            try:
                idx = md.sector_named(key)
            except KeyError:
                raise ValueError(
                    "--theta item %r: no sector is named %r" % (item, key)
                ) from None
        try:
            theta[idx] = int(mult)
        except ValueError:
            raise ValueError(
                "--theta item %r: multiplicity %r is not an integer" % (item, mult)
            ) from None
    return theta


def _read_generator(path: str) -> tuple:
    """Square integer adjacency matrix from a JSON file."""
    try:
        G = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        G = None
    if (
        isinstance(G, list)
        and all(isinstance(row, list) and len(row) == len(G) for row in G)
        and all(isinstance(x, int) for row in G for x in row)
    ):
        return tuple(tuple(row) for row in G)
    raise ValueError(
        "--generator-file %s: expected a square integer adjacency matrix "
        "(a JSON list of rows)" % path
    )


def _resolve_invariant_and_nimrep(args, md):
    tag = args.invariant_tag
    if tag is None:
        return diagonal_invariant(md), regular_nimrep(verlinde(md))
    matches = [z for z in enumerate_physical(md) if z.tag == tag]
    if not matches:
        raise ValueError("no physical invariant tagged %r for this model" % tag)
    Z = matches[0]
    if md.family != "su2":
        raise ValueError("--invariant-tag requires an su2 model")
    for nr in enumerate_su2_nimreps(md, Z.size):
        if spectrum_match(nr, Z, md).ok:
            return Z, nr
    raise CheckFailure("no nimrep matches the spectrum of invariant %s" % tag)


def _read_nimrep(flag: str, path: str):
    """(nimrep, SHA-256 of the bytes it was parsed from) of a structured
    document file."""
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
        if isinstance(doc, dict):
            return nimrep_from_document(doc), hashlib.sha256(data).hexdigest()
    except (KeyError, TypeError, ValueError):
        pass
    raise ValueError(
        "%s %s: expected a %s document" % (flag, path, NIMREP_DOCUMENT_FORMAT)
    )


def _cached(args, md, operation: str, inputs: dict, compute):
    """Run compute() through the cache when --cache is set, keyed on the
    precision md computes at (a model document's own field wins over
    --precision)."""
    if not args.cache:
        return compute()
    cache = Cache(args.cache)
    payload = cache.load(cache_key(operation, inputs, md.precision, args.order))
    if payload is not None:
        return payload
    doc = compute()
    cache.store(make_entry(operation, inputs, doc, md.precision, args.order))
    return doc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (document, exit_code)


def _cmd_models(args):
    if not (args.model or args.model_file):
        return {
            "format": "bcft-model-list/1",
            "families": [
                {"family": "su2", "flags": "--model su2 --level K"},
                {"family": "minimal", "flags": "--model minimal --p P --pp PP"},
                {"family": "custom", "flags": "--model-file PATH"},
            ],
        }, EXIT_OK
    md, key = _resolve_model(args)
    return _cached(args, md, "models", key, lambda: model_to_document(md)), EXIT_OK


def _cmd_fusion(args):
    md, key = _resolve_model(args)
    return _cached(args, md, "fusion", key, lambda: fusion_document(verlinde(md))), EXIT_OK


def _cmd_invariants(args):
    md, key = _resolve_model(args)

    def compute():
        invs = enumerate_physical(md)
        return {
            "format": "bcft-invariant-list/1",
            "model": model_name(md),
            "count": len(invs),
            "invariants": [invariant_document(z) for z in invs],
        }

    return _cached(args, md, "invariants", key, compute), EXIT_OK


def _cmd_nimreps_enumerate(args):
    md, key = _resolve_model(args)

    def compute():
        nrs = enumerate_su2_nimreps(md, args.size)
        return {
            "format": "bcft-nimrep-list/1",
            "model": model_name(md),
            "size": args.size,
            "count": len(nrs),
            "nimreps": [nimrep_document(nr) for nr in nrs],
        }

    return _cached(args, md, "nimreps-enumerate", dict(key, size=args.size), compute), EXIT_OK


def _cmd_nimreps_verify(args):
    md, _ = _resolve_model(args)
    nr, _ = _read_nimrep("--nimrep-file", args.nimrep_file)
    rep = verify(nr, verlinde(md))
    out = {
        "format": "bcft-verify/1",
        "ok": rep.ok,
        "violations": [list(map(str, v)) for v in rep.violations],
    }
    return out, EXIT_OK if rep.ok else EXIT_CHECK


def _cmd_nimreps_generate(args):
    md, _ = _resolve_model(args)
    nr = generate_from_generator(_read_generator(args.generator_file), md)
    return nimrep_document(nr), EXIT_OK


def _cmd_characters(args):
    md, key = _resolve_model(args)

    def compute():
        chis = characters_for(md, args.order)
        return {
            "format": "bcft-characters/1",
            "model": model_name(md),
            "order": args.order,
            "characters": [
                {"sector": sec.name, "series": qseries_document(chi)}
                for sec, chi in zip(md.sectors, chis)
            ],
        }

    return _cached(args, md, "characters", key, compute), EXIT_OK


def _cmd_annulus(args):
    md, key = _resolve_model(args)
    if args.nimrep == "regular":
        nr, nimrep_key = None, "regular"  # built in compute: a hit skips verlinde
    else:
        nr, sha = _read_nimrep("--nimrep", args.nimrep)
        nimrep_key = {"file_sha256": sha}
    a, b = _parse_pair(args.pair)

    def compute():
        spectrum = annulus(md, nr or regular_nimrep(verlinde(md)), a, b, args.order)
        doc = {"format": "bcft-annulus/1", "model": model_name(md)}
        doc.update(annulus_document(md, spectrum))
        return doc

    inputs = dict(key, nimrep=nimrep_key, pair=[a, b])
    return _cached(args, md, "annulus", inputs, compute), EXIT_OK


def _check_document(check, md, field, res, tol, **extra):
    """(bcft-check document, exit code) of a residual held against tol,
    rendered at the model's precision."""
    ok = res < tol
    doc = {
        "format": "bcft-check/1",
        "check": check,
        "model": model_name(md),
        field: num_str(res, md.precision),
        "tolerance": repr(tol),
        "ok": ok,
        **extra,
    }
    return doc, EXIT_OK if ok else EXIT_CHECK


def _cmd_check_s_transform(args):
    md, _ = _resolve_model(args)
    res = s_transform_residual(md, args.order, args.beta, tol=args.tol)
    return _check_document("s-transform", md, "residual", res, args.tol)


def _cmd_check_heat_kernel(args):
    md, _ = _resolve_model(args)
    Z, nr = _resolve_invariant_and_nimrep(args, md)
    residuals = heat_kernel_residuals(md, nr, Z, args.beta, args.order, tol=args.tol)
    return _check_document(
        "heat-kernel", md, "max_residual", max(residuals.values()), args.tol,
        invariant_tag=Z.tag, pairs=len(residuals),
    )


def _cmd_indices(args):
    md, key = _resolve_model(args)
    theta = _parse_theta(md, args.theta)

    def compute():
        rep = index_report(md, theta)
        doc = {"model": model_name(md)}
        doc.update(index_document(md, rep))
        return doc

    inputs = dict(key, theta=sorted([k, v] for k, v in theta.items()))
    return _cached(args, md, "indices", inputs, compute), EXIT_OK


def _cmd_report(args):
    md, key = _resolve_model(args)

    def compute():
        Z, nr = _resolve_invariant_and_nimrep(args, md)
        return full_report(md, Z, nr, args.order, args.beta)

    inputs = dict(
        key,
        invariant_tag=args.invariant_tag,
        beta=repr(args.beta) if args.beta is not None else "2*pi",
    )
    return _cached(args, md, "report", inputs, compute), EXIT_OK


_HANDLERS = {
    ("models", None): _cmd_models,
    ("fusion", None): _cmd_fusion,
    ("invariants", None): _cmd_invariants,
    ("nimreps", "enumerate"): _cmd_nimreps_enumerate,
    ("nimreps", "verify"): _cmd_nimreps_verify,
    ("nimreps", "generate"): _cmd_nimreps_generate,
    ("characters", None): _cmd_characters,
    ("annulus", None): _cmd_annulus,
    ("check", "s-transform"): _cmd_check_s_transform,
    ("check", "heat-kernel"): _cmd_check_heat_kernel,
    ("indices", None): _cmd_indices,
    ("report", None): _cmd_report,
}


# ---------------------------------------------------------------------------
# output


def _print_config(args):
    """Fully-resolved configuration, defaults included, on stderr."""
    command = " ".join(
        x for x in [args.command, getattr(args, "subcommand", None)] if x
    )
    lines = ["resolved configuration:", "  command: %s" % command]
    skip = {"command", "subcommand"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        val = getattr(args, key)
        if key == "beta":
            val = "2*pi" if val is None else repr(val)
        elif key == "cache":
            val = val if val else "disabled"
        elif key == "out":
            val = val if val else "stdout"
        elif val is None:
            val = "-"
        lines.append("  %s: %s" % (key.replace("_", "-"), val))
    sys.stderr.write("\n".join(lines) + "\n")


def _emit(args, doc):
    text = export(doc, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _print_config(args)

    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
    try:
        doc, code = handler(args)
    except (ModelValidationError, MigrationError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_VALIDATION
    except BcftError as exc:
        sys.stderr.write("check failed: %s\n" % exc)
        return EXIT_CHECK
    _emit(args, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
