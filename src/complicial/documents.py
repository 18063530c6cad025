"""JSON documents for complexes and results.

Documents are plain dicts with a fixed key order and an explicit format
version, serialized with a stable two-space indentation, so identical inputs
and flags always produce byte-identical artifacts.  Simplex ids are strings
of the form ``"dim:index"``.

Every document is laid out as ``json.dumps(doc, indent=2,
ensure_ascii=False)`` plus a final newline.  A complex is rendered by
:func:`complex_text` straight from its face and degeneracy columns, thin
indexes and label strings, instead of going through ``json``'s pure-Python
indenting encoder.  Every id list (the simplices, each face and degeneracy
table, the thin list and the label keys) is one C-level ``str.join`` over
the digit strings of its indexes, which come from one list per call; the
quotes, the ``n:`` prefix, the indentation and the row brackets are in the
separators.  So no ``"n:i"`` string, no per-row string and no
:class:`SimplexId` is made.  :func:`complex_digest` feeds the same pieces to
sha256 without joining them, and :func:`complex_to_doc` is their parse, so
one function decides what a complex document holds.  Results are written
by :func:`dumps`, which is ``json`` itself, or streamed by
:func:`dump_pieces`, a batch of ``json``'s chunks at a time, with the same
bytes.  A ``tau`` document is streamed by :func:`table_pieces`, again with
the same bytes: its three arrays that grow with the square of the number
of classes (the table rows, the filler rows and the audit cells) are
written by template, straight from the table's indexes and the audit's
columns, and spliced into ``json``'s text for the rest of the document.
Only those two shapes have templates; ``json`` writes everything else.

Reading a complex builds one table of id strings per call, checks the
``simplices`` lists against it, and reads every other id (in the face and
degeneracy tables, the thin list and the label keys) by one lookup in a
dict made from it.  So every id must be spelled exactly as in
``simplices``, in the dimension its place requires; ``"1:03"`` or
``" 1:3"`` is no id.  Each table is checked once, here, and becomes
columns, which ``core._sset`` trusts: it checks only the simplicial
identities.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import is_not, sub
from typing import Any, Iterable, Iterator

from . import __version__
from .core import SimplexId, _sset
from .errors import DanglingReference, InvalidInput, ThinVertex
from .homotopy import AuditReport, MonoidTable, Tau0Result
from .lifting import VerificationReport
from .strat import StratifiedSSet, _stratify

FORMAT_VERSION = 1


def id_str(s: SimplexId) -> str:
    return f"{s.dim}:{s.index}"


_encode_str = json.encoder.encode_basestring


def dumps(doc: Any) -> str:
    """The document as ``json.dumps(doc, indent=2, ensure_ascii=False)``
    followed by a newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# json's chunks per piece of dump_pieces: a few hundred kB of text
_CHUNKS_PER_PIECE = 1 << 14


def dump_pieces(doc: Any) -> Iterator[str]:
    """The text of :func:`dumps` in pieces, each a batch of the chunks
    ``json``'s encoder yields, so a writer never holds the whole text, nor
    the list of every chunk that ``json.dumps`` joins at the end."""
    chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(doc)
    while batch := list(islice(chunks, _CHUNKS_PER_PIECE)):
        yield "".join(batch)
    yield "\n"


def _id_table(cap: int, counts) -> list[list[str]]:
    """``table[n][i] == "n:i"`` for every simplex."""
    return [list(map(f"{n}:".__add__, map(str, range(counts[n]))))
            for n in range(cap + 1)]


def _ids(digits: Iterable[str], n: int, inner: str) -> str:
    """The ids ``"n:i"`` of the given digit strings of ``i`` as JSON list
    items, each on a line opened by ``inner``, with no brackets: one join,
    whose separator holds the quotes, the ``n:`` prefix and the
    indentation.  Empty when no digit string is given."""
    body = f'",{inner}"{n}:'.join(digits)
    return f'"{n}:{body}"' if body else ""


def _block(items: list, depth: int, brackets: str = "[]") -> list:
    """The pieces of one list (or, with ``"{}"``, one dict) nested ``depth``
    levels deep, as ``json.dumps(..., indent=2)`` lays it out, of items
    given as lists of pieces, which stay pieces: a document is joined once,
    at the end, instead of copying each level into the next."""
    if not items:
        return [brackets]
    inner = "\n" + "  " * (depth + 1)
    pieces = [brackets[0] + inner]
    for item in items:
        pieces += item
        pieces.append("," + inner)
    pieces[-1] = inner[:-2] + brackets[1]
    return pieces


def _interleaved(parts: list) -> str:
    """One join of the items of ``parts`` taken in turn, until a part runs
    out, less the very last item (a separator, as the last part always
    is)."""
    flat = list(chain.from_iterable(zip(*parts)))
    if flat:
        flat.pop()
    return "".join(flat)


def _grid(columns: list[Iterable[str]], before: str, after: str
          ) -> list[str]:
    """The pieces of a list of rows, two levels deep, given as columns of
    entry texts, each written between ``before`` and ``after``: a face or
    degeneracy table of a complex document (entries are ids), and the
    ``table`` and ``fillers`` of a tau document.  The rows are one join
    over the entries, interleaved with a separator inside a row and one,
    closing it and opening the next, between rows.  Every column must have
    at least one entry."""
    if not columns:
        return ["[]"]
    within = f'{after},\n        {before}'
    between = f'{after}\n      ],\n      [\n        {before}'
    parts = [repeat(within)] * (2 * len(columns))
    parts[::2] = columns
    parts[-1] = repeat(between)
    return [f'[\n      [\n        {before}', _interleaved(parts),
            f'{after}\n      ]\n    ]']


def _table(columns: tuple, digits: list[str], n: int) -> list[str]:
    """The pieces of an index table given as columns, one row per simplex,
    each entry written as the id of dimension ``n`` it indexes."""
    if not columns[0]:
        return ["[]"]
    return _grid([map(digits.__getitem__, column) for column in columns],
                 f'"{n}:', '"')


def _labels(column: tuple, digits: list[str], n: int) -> str:
    """The given labels of the n-simplices as the items ``"n:i": label`` of
    the ``labels`` dict, one join over the digit strings and the encoded
    labels; empty when no n-simplex has a label."""
    given = list(map(is_not, column, repeat(None)))
    body = _interleaved([compress(digits, given), repeat('": '),
                         map(_encode_str, compress(column, given)),
                         repeat(f',\n    "{n}:')])
    return f'"{n}:{body}' if body else ""


def _complex_pieces(x: StratifiedSSet, name: str | None) -> list[str]:
    """The canonical document of a complex as pieces of text, made from its
    columns, thin indexes and label strings (see :func:`complex_text`)."""
    if name is not None and not isinstance(name, str):
        raise InvalidInput("a complex's name must be a string")
    u = x.underlying
    cap = u.dim_cap
    digits = list(map(str, range(max(u.counts))))
    lists = [_ids(digits[:count], n, "\n      ")
             for n, count in enumerate(u.counts)]
    thin = [_ids(map(digits.__getitem__, sorted(indexes)), n, "\n    ")
            for n, indexes in enumerate(x.thin_indexes())]
    labels = [_labels(column, digits, n)
              for n, column in enumerate(map(u.label_column, range(cap + 1)))
              if column is not None]
    fields = [
        [f'"format_version": {FORMAT_VERSION}'],
        ['"kind": "complex"'],
        [f'"dim_cap": {cap}'],
        ['"simplices": ', *_block(
            [["[\n      ", ids, "\n    ]"] if ids else ["[]"]
             for ids in lists], 1)],
        ['"faces": ', *_block([_table(u.face_columns[n], digits, n - 1)
                               for n in range(1, cap + 1)], 1)],
        ['"degeneracies": ', *_block(
            [_table(u.degeneracy_columns[n], digits, n + 1)
             for n in range(cap)], 1)],
        ['"thin": ', *_block([[ids] for ids in thin if ids], 1)],
    ]
    labels = [[items] for items in labels if items]
    if labels:
        fields.append(['"labels": ', *_block(labels, 1, "{}")])
    if name is not None:
        fields.append(['"metadata": ',
                       '{\n    "name": ' + _encode_str(name) + '\n  }'])
    return _block(fields, 0, "{}") + ["\n"]


def complex_text(x: StratifiedSSet, name: str | None = None) -> str:
    """The canonical document of a complex as text, written straight from
    its columns, thin indexes and stored label strings: each id list is one
    ``str.join`` over the digit strings of its indexes, with the quotes, the
    ``n:`` prefix, the indentation and the row brackets in the separators.
    Its bytes are those :func:`dumps` writes for the document, and
    :func:`complex_to_doc` is their parse."""
    return "".join(_complex_pieces(x, name))


def complex_to_doc(x: StratifiedSSet, name: str | None = None) -> dict:
    return json.loads(complex_text(x, name))


def _looked_up(texts: list, lookup: dict[str, int], lo: int, hi: int
               ) -> list[int] | None:
    """The positions of ``texts`` less ``lo``, or None unless every one is
    found in ``lookup`` at a position in lo..hi-1."""
    try:
        found = list(map(lookup.get, texts, repeat(-1)))
    except TypeError:  # an unhashable entry
        return None
    if found and not (lo <= min(found) and max(found) < hi):
        return None
    return list(map(sub, found, repeat(lo))) if lo else found


def _first_miss(texts: list, lookup: dict[str, int], lo: int, hi: int
                ) -> int:
    """The place in ``texts`` of the first that :func:`_looked_up` misses."""
    return next(k for k, text in enumerate(texts) if not (
        isinstance(text, str) and lo <= lookup.get(text, -1) < hi))


def _parse_table(raw, n: int, count: int, what: str, entry_dim: int,
                 lookup: dict[str, int], starts: list[int]) -> list[list[int]]:
    """The dimension-``n`` face or degeneracy table, a list of ``count``
    rows of n + 1 ids of dimension ``entry_dim``, as columns of indexes.
    The row count is checked first, as ``core.build_sset`` checks it; then
    shapes and ids are checked over the whole table at once, and only a
    table that fails is walked, to name its first bad row or entry."""
    width = n + 1
    if type(raw) is not list:
        raise InvalidInput(f"{what} table at dim {n} must be a list of rows")
    if len(raw) != count:
        raise InvalidInput(f"{what} table at dim {n} is not index-complete")
    if not (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {width}):
        i, row = next((i, row) for i, row in enumerate(raw)
                      if type(row) is not list or len(row) != width)
        raise InvalidInput(f"{what} row {n}:{i} must " + (
            f"have {width} entries" if type(row) is list
            else f"be a list of {width} ids"))
    lo, hi = starts[entry_dim], starts[entry_dim + 1]
    flat = list(chain.from_iterable(raw))
    nums = _looked_up(flat, lookup, lo, hi)
    if nums is None:
        k = _first_miss(flat, lookup, lo, hi)
        text = flat[k]
        entry = f"{what} entry {n}:{k // width} -> {text!r}"
        if isinstance(text, str) and text in lookup:
            raise InvalidInput(f"{entry} must have dimension {entry_dim}")
        raise DanglingReference(f"{entry} is not a simplex of the complex")
    return [nums[j::width] for j in range(width)]


def _thin_given(thin_ids, lookup: dict[str, int], starts: list[int]
                ) -> list[list[int]]:
    """Per dimension, the indexes of the thin ids, ascending; dimension
    ``n`` starts at position ``starts[n]`` of ``lookup``."""
    if not isinstance(thin_ids, list):
        raise InvalidInput("thin must be a list of simplex ids")
    flat = _looked_up(thin_ids, lookup, 0, starts[-1])
    if flat is None:
        text = thin_ids[_first_miss(thin_ids, lookup, 0, starts[-1])]
        raise InvalidInput(f"thin id {text!r} is not a simplex of the complex")
    flat.sort()
    bounds = list(map(bisect_left, repeat(flat), starts))
    return [list(map(sub, flat[lo:hi], repeat(start)))
            for lo, hi, start in zip(bounds, bounds[1:], starts)]


def _field(doc: dict, key: str):
    """``doc[key]``, a field every complex document has."""
    if key not in doc:
        raise InvalidInput(f'complex document has no "{key}"')
    return doc[key]


def doc_to_complex(doc: dict) -> StratifiedSSet:
    if not isinstance(doc, dict) or doc.get("kind") != "complex":
        raise InvalidInput("document is not a complex")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidInput(f"unsupported format_version {version!r}")
    cap = _field(doc, "dim_cap")
    if type(cap) is not int or cap < 0:
        raise InvalidInput(f"dim_cap must be a natural number, not {cap!r}")
    per_dim = _field(doc, "simplices")
    if type(per_dim) is not list or len(per_dim) != cap + 1 or \
            not all(type(ids) is list for ids in per_dim):
        raise InvalidInput("simplices must list dimensions 0..dim_cap")
    counts = [len(ids) for ids in per_dim]
    # the one id-string table of this call: it checks the simplex lists,
    # and its lookup reads the tables, the thin list and the label keys
    ids = _id_table(cap, counts)
    for n, (given, canonical) in enumerate(zip(per_dim, ids)):
        if given != canonical:
            raise InvalidInput(f"simplex ids at dimension {n} are not canonical")
    # each id string to its simplex's position, dimension after dimension
    lookup = dict(zip(chain.from_iterable(ids), count()))
    starts = [0, *accumulate(counts)]
    face_tables = _field(doc, "faces")
    if type(face_tables) is not list or len(face_tables) != cap:
        raise InvalidInput("faces must list dimensions 1..dim_cap")
    degeneracy_tables = _field(doc, "degeneracies")
    if type(degeneracy_tables) is not list or len(degeneracy_tables) != cap:
        raise InvalidInput("degeneracies must list dimensions 0..dim_cap-1")
    faces = [_parse_table(face_tables[n - 1], n, counts[n], "face", n - 1,
                          lookup, starts) for n in range(1, cap + 1)]
    degeneracies = [_parse_table(degeneracy_tables[n], n, counts[n],
                                 "degeneracy", n + 1, lookup, starts)
                    for n in range(cap)]
    label_map = doc.get("labels", {})
    if not isinstance(label_map, dict) or not all(
        map(isinstance, label_map.values(), repeat(str))
    ):
        raise InvalidInput("labels must map simplex ids to strings")
    labels = None
    if label_map:
        if not all(map(lookup.__contains__, label_map)):
            key = next(k for k in label_map if k not in lookup)
            raise InvalidInput(
                f"label key {key!r} is not a simplex of the complex")
        labels = [tuple(map(label_map.get, per_n))
                  for per_n in ids].__getitem__
    u = _sset(cap, counts, [()] + faces, degeneracies + [()], None, labels)
    thin = _thin_given(doc.get("thin", []), lookup, starts)
    if thin[0]:  # every thin id is a simplex, so only a vertex is refused
        raise ThinVertex(f"vertex {u.id_at(0, thin[0][0])!r} cannot be thin")
    return _stratify(u, thin)


def complex_digest(x: StratifiedSSet) -> str:
    """The sha256 of the complex's unnamed document, fed piece by piece
    rather than as the whole text."""
    digest = hashlib.sha256()
    for piece in _complex_pieces(x, None):
        digest.update(piece.encode())
    return digest.hexdigest()


def result_doc(kind: str, inputs: dict, payload: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "tool": {"name": "complicial", "version": __version__},
        "inputs": inputs,
        "payload": payload,
    }


def verify_payload(report: VerificationReport,
                   witness_limit: int | None = None) -> dict:
    rows = []
    for row in report.rows:
        witnesses = []
        shown = row.failures if witness_limit is None \
            else row.failures[:witness_limit]
        for failure in shown:
            detail: dict[str, Any] = {}
            for key, value in failure.detail.items():
                if isinstance(value, SimplexId):
                    detail[key] = id_str(value)
                elif isinstance(value, dict):
                    detail[key] = {str(k): id_str(v) for k, v in value.items()}
                else:
                    detail[key] = value
            witnesses.append(detail)
        rows.append({
            "family": row.family,
            "k": row.k,
            "n": row.n,
            "instances": row.instances,
            "failures": len(row.failures),
            "witnesses": witnesses,
        })
    return {
        "checked_dims": report.checked_dims,
        "passed": report.passed,
        "rows": rows,
    }


def _payload(table: MonoidTable, audit: AuditReport | None, rows: Any,
             fillers: Any, cells: Any) -> dict:
    """The payload of a tau document, with the given values for its
    table rows, its filler rows and, with an audit, its audit cells."""
    n = table.n
    payload: dict[str, Any] = {
        "n": n,
        "vertex": id_str(table.base),
        "elements": [id_str(e) for e in table.elements],
        "classes": [[id_str(e) for e in cl] for cl in table.classes],
        "unit": table.unit,
        "table": rows,
        "associative": table.associative,
        "commutative_observed": table.commutative,
        "is_group": table.is_group,
        "inverses": {str(i): j for i, j in sorted(table.inverses.items())},
        "relation": {
            "reflexive": table.relation_reflexive,
            "symmetric": table.relation_symmetric,
            "transitive": table.relation_transitive,
            "closure_needed": table.closure_needed,
        },
        "fillers": fillers,
        "witnesses": {
            f"{n}:{p}|{n}:{q}": [f"{n + 1}:{t}" for t in tops]
            for (p, q), tops in sorted(table._witnesses.items())
        },
    }
    if audit is not None:
        payload["audit"] = {
            "all_consistent": audit.all_consistent,
            "min_fillers_per_cell": audit.min_fillers,
            "cells": cells,
        }
    return payload


def table_payload(table: MonoidTable, audit: AuditReport | None = None) -> dict:
    top = f"{table.n + 1}:"
    ids = list(map(top.__add__, map(str, table._fillers)))
    return _payload(
        table, audit, list(map(list, table.table)),
        list(map(list, zip(*[iter(ids)] * len(table.classes)))),
        None if audit is None else [
            {
                "row": cell.row,
                "col": cell.col,
                "pairs_tested": cell.pairs_tested,
                "fillers_tested": cell.fillers_tested,
                "consistent": cell.consistent,
            }
            for cell in audit.cells
        ])


# where json writes a placeholder in a tau document, the template text of
# the table rows, the filler rows and the audit cells goes; no id, digest
# or version string of the document holds a NUL
_SPLICED = tuple(f"\x00{what}" for what in ("table", "fillers", "cells"))

# the fields of an audit cell, as json lays them out three levels deep
_CELL_FIELDS = ("row", "col", "pairs_tested", "fillers_tested", "consistent")
_CELLS_PER_PIECE = 1 << 13


def _grid_pieces(table: MonoidTable) -> Iterator[list[str]]:
    """The texts of the table rows, then of the filler rows."""
    yield _grid([map(str, column) for column in zip(*table.table)], "", "")
    size, flat = len(table.classes), table._fillers
    yield _grid([map(str, flat[j::size]) for j in range(size)],
                f'"{table.n + 1}:', '"')


def _cell_pieces(audit: AuditReport) -> Iterator[str]:
    """The text of the audit cells, a batch of cells at a time: one join
    over the columns of the cells' fields, interleaved with separators
    that hold the keys, the indentation and the braces."""
    total, size = len(audit.consistent), audit.size
    if not total:
        yield "[]"
        return
    digits = list(map(str, range(size)))
    columns = [
        chain.from_iterable(map(repeat, digits, repeat(size))),
        chain.from_iterable(repeat(digits, size)),
        map(str, audit.pairs_tested),
        map(str, audit.fillers_tested),
        map(("false", "true").__getitem__, audit.consistent),
    ]
    keys = [f'"{key}": ' for key in _CELL_FIELDS]
    opening = "{\n          " + keys[0]
    between = "\n        },\n        " + opening
    separators = [repeat(",\n          " + key) for key in keys[1:]]
    cells = zip(*chain.from_iterable(zip(columns,
                                         separators + [repeat(between)])))
    text = "[\n        " + opening
    for _ in range(_CELLS_PER_PIECE, total, _CELLS_PER_PIECE):
        yield text + "".join(chain.from_iterable(
            islice(cells, _CELLS_PER_PIECE)))
        text = ""
    # the last cell closes the list instead of opening another cell
    text += "".join(chain.from_iterable(cells))
    yield text[:-len(between)] + "\n        }\n      ]"


def table_pieces(inputs: dict, table: MonoidTable,
                 audit: AuditReport | None = None) -> Iterator[str]:
    """The text of ``dumps(result_doc("tau", inputs, table_payload(table,
    audit)))`` in pieces.  ``json`` writes the document with placeholders
    for the table rows, the filler rows and the audit cells, which are
    written by template from the table's indexes and the audit's columns,
    as :func:`complex_text` writes a complex, and spliced in; the cells go
    a batch at a time, so the whole text is never held at once."""
    rest = json.dumps(result_doc("tau", inputs,
                                 _payload(table, audit, *_SPLICED)),
                      indent=2, ensure_ascii=False) + "\n"
    templates = chain(_grid_pieces(table), [] if audit is None else
                      [_cell_pieces(audit)])
    for mark, pieces in zip(_SPLICED, templates):
        head, rest = rest.split(_encode_str(mark))
        yield head
        yield from pieces
    yield rest


def tau0_payload(result: Tau0Result) -> dict:
    return {
        "classes": [[id_str(v) for v in cl] for cl in result.classes],
        "relation": {
            "symmetric": result.raw_symmetric,
            "transitive": result.raw_transitive,
            "closure_needed": result.closure_needed,
        },
    }
