"""Command-line front end for every pipeline stage.

Each subcommand delegates to one module operation and emits a single
structured document (``--format structured``) or a plain text listing
(``--format text``).  Every run prints its fully-resolved
configuration, defaults included, to stderr before the results,
so stdout stays machine-readable.

Exit codes: 0 success; 1 validation error (bad flags, malformed input,
rejected model data); 2 check failure (a mathematical consistency
check exceeded its tolerance), kept distinct so CI can assert on it.

With --cache, a command's key comes from its arguments and the bytes of
its input files alone, so a cache hit builds no model and imports no
numeric code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

# one BLAS thread: a command's matrices are small, and a second OpenBLAS
# thread only spins; set before numpy loads, and a value already set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import BcftError, CheckFailure, MigrationError
from .persistence import (CHANNEL_TOL, DEFAULT_ORDER, DEFAULT_PRECISION, MAX_PRECISION, Cache,
                          cache_key, export, model_header)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, "%s: error: %s\n" % (self.prog, message))


def _int_at_least(low: int, high: float = math.inf):
    """argparse type: an integer >= low, and <= high if given (rejected
    values exit 1)."""

    def parse(text):
        try:
            if low <= int(text) <= high:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected an integer >= %d%s, got %r" % (
            low, "" if high == math.inf else " and <= %d" % high, text))

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


def _add_common(p: argparse.ArgumentParser, cache: bool = True):
    g = p.add_argument_group("model selection")
    g.add_argument("--model", choices=["su2", "minimal"], help="built-in family")
    g.add_argument("--level", type=int, help="su2 level k")
    g.add_argument("--p", type=int, help="minimal-model label p")
    g.add_argument("--pp", type=int, help="minimal-model label p' (2 <= p' < p)")
    g.add_argument("--model-file", help="path to a structured model document")
    n = p.add_argument_group("numeric knobs")
    n.add_argument("--precision", type=_int_at_least(1, MAX_PRECISION), default=DEFAULT_PRECISION)
    o = p.add_argument_group("output")
    o.add_argument("--out", default=None, help="write results to this file")
    o.add_argument("--format", choices=["text", "structured"], default="text")
    if cache:
        o.add_argument("--cache", default=None, metavar="DIR", help="enable the on-disk cache")


def _add_series(p: argparse.ArgumentParser, beta: bool = False):
    """--order where q-series are built; --beta where they are also evaluated."""
    n = p.add_argument_group("q-series")
    n.add_argument("--order", type=_int_at_least(0), default=DEFAULT_ORDER)
    if beta:
        n.add_argument("--beta", type=_positive_float, help="inverse temperature (default 2*pi)")


def _add_invariant_choice(p: argparse.ArgumentParser):
    g = p.add_argument_group("invariant selection")
    g.add_argument(
        "--invariant-tag",
        help="pick the physical invariant with this tag (su2 models; "
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
    _add_common(p, cache=False)
    p.add_argument("--nimrep-file", required=True, help="structured nimrep document")
    p = nimsub.add_parser("generate", help="grow a nimrep from a fusion graph")
    _add_common(p, cache=False)
    p.add_argument(
        "--generator-file", required=True, help="JSON adjacency matrix of the graph"
    )

    p = sub.add_parser("characters", help="exact q-series of every sector")
    _add_common(p)
    _add_series(p)

    p = sub.add_parser("annulus", help="boundary-pair character content")
    _add_common(p)
    _add_series(p)
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
    _add_series(p, beta=True)
    p.add_argument("--tol", type=_positive_float, default=CHANNEL_TOL)
    p = chksub.add_parser("heat-kernel", help="open/closed channel agreement")
    _add_common(p)
    _add_series(p, beta=True)
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
    _add_series(p, beta=True)
    _add_invariant_choice(p)

    return parser


# ---------------------------------------------------------------------------
# resolution helpers


def _resolve_model(args):
    """(cache-key ingredient, precision, build) of the selected model.

    The key and the precision come from args and the bytes of a
    --model-file alone (see _read_input), so an overwritten file misses.
    build() makes and validates the model; numeric code is imported
    there and not before.
    """
    flag = path = None  # no file: an error of the model flags stays bare
    if args.model_file:
        flag, path = "--model-file", args.model_file
        doc, key = _read_input(flag, path)
    elif args.model == "su2":
        if args.level is None:
            raise ValueError("--model su2 needs --level")
        doc = {"builder": {"family": "su2", "params": [args.level]}}
        key = {"family": "su2", "level": args.level}
    elif args.model == "minimal":
        if args.p is None or args.pp is None:
            raise ValueError("--model minimal needs --p and --pp")
        doc = {"builder": {"family": "minimal", "params": [args.p, args.pp]}}
        key = {"family": "minimal", "p": args.p, "pp": args.pp}
    else:
        raise ValueError("select a model with --model or --model-file")
    precision, _ = _decoded(flag, path, model_header, doc, args.precision)

    def build():
        from .modular_data import load_model

        return _decoded(flag, path, load_model, doc, precision)

    return key, precision, build


def _build_model(args):
    return _resolve_model(args)[2]()


def _read_input(flag: str, path: str) -> tuple:
    """(JSON value, cache-key ingredient) of the input file that flag
    names, read once: the key is the SHA-256 of the bytes decoded here.
    A file that cannot be read, or is not UTF-8 JSON, raises ValueError
    naming the flag and the file."""
    try:
        data = Path(path).read_bytes()
        return json.loads(data.decode("utf-8")), {"file_sha256": hashlib.sha256(data).hexdigest()}
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON
        reason = getattr(exc, "strerror", None) or exc  # an OSError's own text repeats the path
        raise ValueError("%s %s: %s" % (flag, path, reason)) from None


def _decoded(flag, path, decode, *args):
    """decode(*args), with "FLAG PATH: " before the message of any ValueError
    it raises (every DocumentFormatError and ModelValidationError); None: no file."""
    try:
        return decode(*args)
    except ValueError as exc:
        if flag is None:
            raise
        raise ValueError("%s %s: %s" % (flag, path, exc)) from None


def _parse_pair(text: str) -> tuple:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError('--pair must look like "1,2", got %r' % text) from None
    return a, b


def _parse_theta(text: str) -> dict:
    """Sector multiplicities from "KEY:MULT" items, KEY an int index or a
    sector name (resolved by normalize_theta once the model is built).

    Items are separated by ";" (needed when sector names contain
    commas) or "," when unambiguous.  A repeated KEY keeps its last
    multiplicity and moves to the end, so resolving the keys in order
    lets the last item for each sector win.
    """
    items = text.split(";") if ";" in text else text.split(",")
    theta = {}
    for item in items:
        key, sep, mult = item.rpartition(":")
        if not sep:
            raise ValueError('--theta items must look like "KEY:MULT"')
        try:
            key = int(key)
        except ValueError:
            pass
        try:
            mult = int(mult)
        except ValueError:
            raise ValueError(
                "--theta item %r: multiplicity %r is not an integer" % (item, mult)
            ) from None
        theta.pop(key, None)
        theta[key] = mult
    return theta


def _resolve_invariant_and_nimrep(args, md):
    from .fusion import verlinde
    from .invariants import diagonal_invariant, enumerate_physical
    from .nimreps import enumerate_su2_nimreps, regular_nimrep, spectrum_match

    tag = args.invariant_tag
    if tag is None:
        return diagonal_invariant(md), regular_nimrep(verlinde(md))
    if md.family != "su2":
        raise ValueError("--invariant-tag requires an su2 model")
    matches = [z for z in enumerate_physical(md) if z.tag == tag]
    if not matches:
        raise ValueError("no physical invariant tagged %r for this model" % tag)
    Z = matches[0]
    for nr in enumerate_su2_nimreps(md, Z.size):
        if spectrum_match(nr, Z, md).ok:
            return Z, nr
    raise CheckFailure("no nimrep matches the spectrum of invariant %s" % tag)


def _cached(args, operation: str, inputs: dict, compute):
    """compute(md) for the selected model as a document, or through the
    cache when --cache is set as the text --format structured prints of
    it.  The key is complete before any build, so a hit builds no model
    and imports no numeric code; a miss renders the document once, then
    stores and prints that text."""
    model_key, precision, build = _resolve_model(args)
    if not args.cache:
        return compute(build())
    inputs = dict(model_key, **inputs)
    # a subcommand without --order keys DEFAULT_ORDER, as every key stored so far did
    order = getattr(args, "order", DEFAULT_ORDER)
    cache = Cache(args.cache)
    key = cache_key(operation, inputs, precision, order)
    hit = cache.load(key)
    if hit is None:
        doc = compute(build())
        hit = export(doc), doc
        cache.store(key, hit[0])
    text, doc = hit
    return text if args.format == "structured" else doc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (document or its structured text,
# exit_code); numeric code is imported where it is used


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

    def compute(md):
        from .modular_data import model_to_document

        return model_to_document(md)

    return _cached(args, "models", {}, compute), EXIT_OK


def _cmd_fusion(args):
    def compute(md):
        from .fusion import fusion_document, verlinde

        return fusion_document(verlinde(md))

    return _cached(args, "fusion", {}, compute), EXIT_OK


def _cmd_invariants(args):
    def compute(md):
        from .invariants import enumerate_physical, invariant_document
        from .modular_data import model_name

        invs = enumerate_physical(md)
        return {
            "format": "bcft-invariant-list/1",
            "model": model_name(md),
            "count": len(invs),
            "invariants": [invariant_document(z) for z in invs],
        }

    return _cached(args, "invariants", {}, compute), EXIT_OK


def _cmd_nimreps_enumerate(args):
    def compute(md):
        from .modular_data import model_name
        from .nimreps import enumerate_su2_nimreps, nimrep_document

        nrs = enumerate_su2_nimreps(md, args.size)
        return {
            "format": "bcft-nimrep-list/1",
            "model": model_name(md),
            "size": args.size,
            "count": len(nrs),
            "nimreps": [nimrep_document(nr) for nr in nrs],
        }

    return _cached(args, "nimreps-enumerate", {"size": args.size}, compute), EXIT_OK


def _cmd_nimreps_verify(args):
    from .fusion import verlinde
    from .nimreps import nimrep_from_document, verify

    flag, path = "--nimrep-file", args.nimrep_file
    nr = _decoded(flag, path, nimrep_from_document, _read_input(flag, path)[0])
    rep = verify(nr, verlinde(_build_model(args)))
    out = {
        "format": "bcft-verify/1",
        "ok": rep.ok,
        "violations": [list(map(str, v)) for v in rep.violations],
    }
    return out, EXIT_OK if rep.ok else EXIT_CHECK


def _cmd_nimreps_generate(args):
    from .fusion import verlinde
    from .nimreps import generate_from_generator, nimrep_document, verify

    flag, path = "--generator-file", args.generator_file
    generator, md = _read_input(flag, path)[0], _build_model(args)  # the file first
    nr = _decoded(flag, path, generate_from_generator, generator, md)
    violations = verify(nr, verlinde(md)).violations
    if violations:
        raise CheckFailure("the family grown from --generator-file %s is not a nimrep"
                           " of the model: %s" % (path, list(violations)))
    return nimrep_document(nr), EXIT_OK


def _cmd_characters(args):
    def compute(md):
        from .characters import characters_for, qseries_document
        from .modular_data import model_name

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

    return _cached(args, "characters", {}, compute), EXIT_OK


def _cmd_annulus(args):
    regular = args.nimrep == "regular"  # built in compute: a hit skips verlinde
    nrdoc, nimrep_key = (None, "regular") if regular else _read_input("--nimrep", args.nimrep)
    a, b = _parse_pair(args.pair)

    def compute(md):
        from .fusion import verlinde
        from .modular_data import model_name
        from .nimreps import nimrep_from_document, regular_nimrep, verify
        from .report import annulus, annulus_document

        fr = verlinde(md)
        nr = (regular_nimrep(fr) if regular
              else _decoded("--nimrep", args.nimrep, nimrep_from_document, nrdoc))
        violations = not regular and verify(nr, fr).violations
        if violations:
            raise CheckFailure("--nimrep %s is not a nimrep of the model: %s"
                               % (args.nimrep, list(violations)))
        spectrum = annulus(md, nr, a, b, args.order)
        doc = {"format": "bcft-annulus/1", "model": model_name(md)}
        doc.update(annulus_document(md, spectrum))
        return doc

    inputs = {"nimrep": nimrep_key, "pair": [a, b]}
    return _cached(args, "annulus", inputs, compute), EXIT_OK


def _check_document(check, md, field, res, tol, **extra):
    """(bcft-check document, exit code) of a residual held against tol,
    rendered at the model's precision."""
    from .hp import num_str
    from .modular_data import model_name

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
    from .characters import s_transform_residual

    md = _build_model(args)
    res = s_transform_residual(md, args.order, args.beta, tol=args.tol)
    return _check_document("s-transform", md, "residual", res, args.tol)


def _cmd_check_heat_kernel(args):
    from .report import heat_kernel_residuals

    md = _build_model(args)
    Z, nr = _resolve_invariant_and_nimrep(args, md)
    residuals = heat_kernel_residuals(md, nr, Z, args.beta, args.order, tol=args.tol)
    return _check_document(
        "heat-kernel", md, "max_residual", max(residuals.values()), args.tol,
        invariant_tag=Z.tag, pairs=len(residuals),
    )


def _cmd_indices(args):
    theta = _parse_theta(args.theta)

    def compute(md):
        from .modular_data import model_name
        from .report import index_document, index_report

        rep = index_report(md, theta)
        doc = {"model": model_name(md)}
        doc.update(index_document(md, rep))
        return doc

    # sector names resolve in order (see _parse_theta), so only a theta of
    # indices alone is keyed in sorted order
    keyed = [[k, v] for k, v in theta.items()]
    if all(isinstance(k, int) for k in theta):
        keyed.sort()
    return _cached(args, "indices", {"theta": keyed}, compute), EXIT_OK


def _cmd_report(args):
    def compute(md):
        from .report import full_report

        Z, nr = _resolve_invariant_and_nimrep(args, md)
        return full_report(md, Z, nr, args.order, args.beta)

    inputs = dict(
        invariant_tag=args.invariant_tag,
        beta=repr(args.beta) if args.beta is not None else "2*pi",
    )
    return _cached(args, "report", inputs, compute), EXIT_OK


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


def _emit(args, out):
    text = out if isinstance(out, str) else export(out, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _print_config(args)

    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
    try:
        out, code = handler(args)
        _emit(args, out)
    except (MigrationError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_VALIDATION
    except BcftError as exc:
        sys.stderr.write("check failed: %s\n" % exc)
        return EXIT_CHECK
    return code


if __name__ == "__main__":
    sys.exit(main())
