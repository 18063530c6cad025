"""Command-line front end.

Subcommands build the named complexes, verify the lifting conditions, and
compute homotopy monoids and invertibly connected components.  All output is
deterministic JSON (see :mod:`complicial.documents`); exit codes are 0 for
success, 1 for input or validation errors, 2 for mathematical failures
(verification failed, no filler), and 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from . import adapters, documents, homotopy, lifting, standard
from .errors import ComplicialError, NoFiller, NotKan, NotQuasiCategory
from .strat import StratifiedSSet, gproduct, min_strat

MATH_ERRORS = (NoFiller, NotQuasiCategory, NotKan)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # mathematical failures here, so route usage errors to exit 1.
    def error(self, message):  # noqa: D102
        raise _UsageError(message)


def _integer(text: str) -> int:
    """The integer written ``-?[0-9]+`` in ASCII: ``int`` alone would also
    read underscores, surrounding spaces and other scripts' digits."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int reads
            pass
    raise argparse.ArgumentTypeError(f"invalid integer {text!r}")


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def _out_path(text: str) -> str:
    """An argparse type: the path ``--out`` names, which must not be empty:
    an empty path is no file, and not a way to ask for stdout either."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file, not be empty")
    return text


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    return Path(path).read_text(encoding="utf-8")


def _load_json(path: str, parse=json.loads):
    """``parse`` of the text of a file (or stdin for ``-``), read as UTF-8:
    by default, the JSON value in it."""
    try:
        return parse(_read_text(path))
    except (UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not UTF-8, or nesting too deep for the parser
        raise _UsageError(f"invalid input: {exc}") from None


@contextmanager
def _acyclic():
    """Cycle collection off for work that makes no reference cycle, so
    that no collection pass walks the objects it makes, only to find
    nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_complex(path: str) -> StratifiedSSet:
    """The complex in a file, read one top-level field at a time: see
    :func:`documents.text_to_complex`."""
    # a parsed document holds no reference cycle
    with _acyclic():
        try:
            return _load_json(path, documents.text_to_complex)
        except (KeyError, IndexError, TypeError) as exc:
            raise _UsageError(f"malformed complex document: {exc!r}") \
                from exc


def _emit(args, pieces: Iterable[str]) -> None:
    """Write a document, given in pieces, to ``--out`` or to stdout."""
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _load_algebra(path: str, kind: str) -> dict:
    """The JSON object of a ``kind`` file (monoid or category)."""
    raw = _load_json(path)
    if type(raw) is not dict:
        raise _UsageError(f"malformed algebra input: {kind} file must hold "
                          "a JSON object")
    return raw


def _field(raw: dict, key: str, kind: str):
    """``raw[key]``, a field the ``kind`` file must have."""
    if key not in raw:
        raise _UsageError(f'malformed algebra input: {kind} file has no '
                          f'"{key}"')
    return raw[key]


def _list(raw, key: str, kind: str) -> list:
    """:func:`_field`, which must be a JSON list: a string there would be
    read one character at a time."""
    value = _field(raw, key, kind)
    if type(value) is not list:
        raise _UsageError(f"malformed algebra input: {key} must be a list")
    return value


def _position(names: list, value, where: str, kind: str) -> int:
    """The position of ``value``, the ``kind`` named at ``where``."""
    if value not in names:
        raise _UsageError(f"malformed algebra input: {where}: {value!r} is "
                          f"not {kind}")
    return names.index(value)


def _load_category(args) -> adapters.FiniteCategory:
    try:
        if args.monoid:
            raw = _load_algebra(args.monoid, "monoid")
            if "perm_generators" in raw:
                generators = _list(raw, "perm_generators", "monoid")
                # a string is read as its characters, which
                # from_permutations reports as entries that are not ints
                if not all(type(g) in (list, str) for g in generators):
                    raise _UsageError("malformed algebra input: each of "
                                      "perm_generators must be a list")
                return adapters.from_permutations(
                    generators, raw.get("bound", 10000))
            return adapters.monoid_category(
                _list(raw, "elements", "monoid"), _field(raw, "unit", "monoid"),
                _list(raw, "table", "monoid"))
        if args.category:
            raw = _load_algebra(args.category, "category")
            objects = _list(raw, "objects", "category")
            morphisms = _list(raw, "morphisms", "category")
            if not all(type(m) is dict and {"name", "src", "tgt"} <= m.keys()
                       for m in morphisms):
                raise _UsageError("malformed algebra input: each of morphisms "
                                  "must be an object with name, src and tgt")
            names = [m["name"] for m in morphisms]
            # the other fields are read by name, so names are checked first
            adapters._require_strings(objects + names)
            src, tgt = ([_position(objects, m[end], f"{end} of {m['name']!r}",
                                   "an object") for m in morphisms]
                        for end in ("src", "tgt"))
            given = _field(raw, "identities", "category")
            if type(given) is not dict:
                raise _UsageError("malformed algebra input: identities must "
                                  "map each object to a morphism name")
            identities = [_position(names, given.get(o),
                                    f"identity of object {o!r}", "a morphism")
                          for o in objects]
            composition = _field(raw, "composition", "category")
            if not isinstance(composition, dict):
                raise _UsageError("malformed algebra input: composition "
                                  "must map 'f|g' to a morphism name")
            comp = {}
            for pair, result in composition.items():
                if pair.count("|") != 1:
                    raise _UsageError(f"malformed algebra input: composition "
                                      f"key {pair!r} is not of the form 'f|g'")
                f, g, h = (_position(names, v, f"composition {pair!r}",
                                     "a morphism")
                           for v in (*pair.split("|"), result))
                comp[f, g] = h
            return adapters.make_category(
                objects, names, src, tgt, identities, comp
            )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise _UsageError(f"malformed algebra input: {exc!r}") from exc
    raise _UsageError("nerve needs --monoid or --category")


def _int_params(params: list[str], how_many: int, name: str) -> list[int]:
    if len(params) != how_many:
        raise _UsageError(f"{name} takes {how_many} numeric parameter(s)")
    try:
        return [_integer(p) for p in params]
    except argparse.ArgumentTypeError:
        raise _UsageError(f"{name} parameters must be integers") from None


def _check_build_flags(args) -> None:
    """Reject flags the named builder would ignore or could not honour."""
    name = args.name
    if args.cap is not None and name in ("th0", "qcat-e", "product"):
        raise _UsageError(f"{name} takes no --cap: it keeps its input's cap")
    given = [flag for flag, value in (("--monoid", args.monoid),
                                      ("--category", args.category))
             if value is not None]
    if given and name != "nerve":
        raise _UsageError(f"{given[0]} is for nerve only, not {name}")
    if len(given) == 2:
        raise _UsageError("nerve takes --monoid or --category, not both")


def cmd_build(args) -> int:
    _check_build_flags(args)
    name = args.name
    params = args.params
    cap = args.cap
    if name == "delta":
        (n,) = _int_params(params, 1, name)
        x = standard.delta(n, cap if cap is not None else n)
    elif name == "delta-t":
        (n,) = _int_params(params, 1, name)
        x = standard.delta_t(n, cap if cap is not None else n)
    elif name == "boundary":
        (n,) = _int_params(params, 1, name)
        x = standard.boundary(n, cap if cap is not None else max(n - 1, 0))
    elif name in ("comp-delta", "comp-horn", "horn-prime", "delta-prime",
                  "delta-dprime"):
        k, n = _int_params(params, 2, name)
        d = cap if cap is not None else n
        builder = {
            "comp-delta": standard.complicial_delta,
            "horn-prime": standard.horn_prime,
            "delta-prime": standard.delta_prime,
            "delta-dprime": standard.delta_dprime,
        }
        if name == "comp-horn":
            x, _ = standard.complicial_horn(k, n, d)
        else:
            x = builder[name](k, n, d)
    elif name == "nerve":
        if cap is None:
            raise _UsageError("nerve needs --cap")
        if params:
            raise _UsageError("nerve takes no positional parameters")
        x = min_strat(adapters.nerve(_load_category(args), cap))
    elif name == "th0":
        if len(params) != 1:
            raise _UsageError("th0 takes one input path (or -)")
        x = adapters.th0(_load_complex(params[0]).underlying)
    elif name == "qcat-e":
        if len(params) != 1:
            raise _UsageError("qcat-e takes one input path (or -)")
        x = adapters.quasicat_e(_load_complex(params[0]).underlying)
    elif name == "product":
        if len(params) != 2:
            raise _UsageError("product takes two input paths")
        x = gproduct(_load_complex(params[0]), _load_complex(params[1]))
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown builder {name}")
    _emit(args, documents.complex_pieces(x, name=args.name))
    return 0


def cmd_verify(args) -> int:
    x = _load_complex(args.complex)
    bound = args.max_dim if args.max_dim is not None else x.cap
    report = lifting.verify_weak_complicial(x, bound)
    # the rows' failures stay index columns, written by template
    _emit(args, documents.verify_pieces(
        {
            "complex_sha256": documents.complex_digest(x),
            "max_dim": bound,
        },
        report, args.limit,
    ))
    return 0 if report.passed else 2


def _resolve_vertex(x: StratifiedSSet, spec: str):
    u = x.underlying
    for v in u.simplices(0):
        if v.label == spec:
            return v
    try:
        index = _integer(spec)
    except argparse.ArgumentTypeError:
        raise _UsageError(f"no vertex labeled {spec!r}") from None
    if not 0 <= index < u.counts[0]:
        raise _UsageError(f"vertex index {index} out of range")
    return u.id_at(0, index)


def cmd_tau(args) -> int:
    x = _load_complex(args.complex)
    vertex = _resolve_vertex(x, args.vertex)
    # the table and its audit from one filler lookup, written by template;
    # of what they make, only json's encoder holds a reference cycle
    with _acyclic():
        table, audit = homotopy._tau(x, vertex, args.n,
                                     args.audit_well_defined)
        _emit(args, documents.table_pieces(
            {
                "complex_sha256": documents.complex_digest(x),
                "n": args.n,
                "vertex": documents.id_str(vertex),
                "audit_well_defined": bool(args.audit_well_defined),
            },
            table, audit,
        ))
    if audit is not None and not audit.all_consistent:
        return 2
    return 0


def cmd_tau0(args) -> int:
    x = _load_complex(args.complex)
    result = homotopy.tau0(x)
    doc = documents.result_doc(
        "tau0",
        {"complex_sha256": documents.complex_digest(x)},
        documents.tau0_payload(result),
    )
    _emit(args, documents.dump_pieces(doc))
    return 0


# The parser is built on the first call to main and kept for the rest of
# the process: building it costs more than parsing with it, and a caller
# that never calls main never builds it.  main finds the handler by the
# subcommand's name when it is called, so the kept parser holds no
# function, and a cmd_* rebound later (as a tracer does) is the one called.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="complicial", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a named complex")
    b.add_argument("name", choices=[
        "delta", "delta-t", "comp-delta", "comp-horn", "horn-prime",
        "delta-prime", "delta-dprime", "boundary", "nerve", "th0",
        "qcat-e", "product",
    ])
    b.add_argument("params", nargs="*",
                   help="numeric parameters, or input paths for "
                        "th0/qcat-e/product ('-' reads stdin)")
    b.add_argument("--cap", type=_integer, default=None)
    b.add_argument("--monoid", help="monoid JSON file (for nerve)")
    b.add_argument("--category", help="category JSON file (for nerve)")
    b.add_argument("--out", type=_out_path,
                   help="write the document here instead of stdout")

    v = sub.add_parser("verify", help="check the weak complicial conditions")
    v.add_argument("complex", help="complex JSON path ('-' reads stdin)")
    v.add_argument("--max-dim", type=_integer, default=None)
    v.add_argument("--limit", type=_at_least(0), default=None,
                   help="serialize at most this many witnesses per row")
    v.add_argument("--out", type=_out_path)

    t = sub.add_parser("tau", help="compute a homotopy monoid table")
    t.add_argument("complex")
    t.add_argument("--n", type=_integer, required=True)
    t.add_argument("--vertex", default="0")
    t.add_argument("--audit-well-defined", action="store_true")
    t.add_argument("--out", type=_out_path)

    t0 = sub.add_parser("tau0", help="invertibly connected components")
    t0.add_argument("complex")
    t0.add_argument("--out", type=_out_path)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return globals()[f"cmd_{args.command}"](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MATH_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ComplicialError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
