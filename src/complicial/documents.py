"""JSON documents for complexes and results.

Documents are plain dicts with a fixed key order and an explicit format
version, serialized with a stable two-space indentation, so identical inputs
and flags always produce byte-identical artifacts.  Simplex ids are strings
of the form ``"dim:index"``.

Every document is laid out as ``json.dumps(doc, indent=2,
ensure_ascii=False)`` plus a final newline.  A complex is rendered by
:func:`complex_pieces` straight from its face and degeneracy columns, thin
indexes and label strings, instead of going through ``json``'s pure-Python
indenting encoder.  Every id list (the simplices, each face and degeneracy
table, the thin list and the label keys) is one C-level ``str.join`` over
the digit strings of its indexes, which come from one list per call; the
quotes, the ``n:`` prefix, the indentation and the row brackets are in the
separators.  So no ``"n:i"`` string, no per-row string and no
:class:`SimplexId` is made.  The CLI writes the pieces one after another
and :func:`complex_digest` feeds them to sha256, so at its peak a write
holds the complex and its pieces, about one copy of the text, and never
the joined text; :func:`complex_text` is their join and
:func:`complex_to_doc` its parse, so one function decides what a complex
document holds.  Results are written by :func:`dumps`, which is ``json``
itself, or streamed by :func:`dump_pieces`, a batch of ``json``'s chunks
at a time, with the same bytes.  A ``tau`` document is streamed by
:func:`table_pieces`, again with the same bytes: its three arrays that
grow with the square of the number of classes (the table rows, the filler
rows and the audit cells) are written by template, straight from the
table's indexes and the audit's columns, and spliced into ``json``'s text
for the rest of the document.
The second template writer, :func:`verify_pieces`, streams a ``verify``
document the same way: its rows, which all have one shape, and their
failure witnesses are written from the index columns each row keeps, so
no failure object and no simplex id is made.  Only those shapes have
templates; ``json`` writes everything else.

Reading a complex refuses, first, one that no builder could make (past
``core.MAX_SIMPLICES`` or ``core.MAX_CAP``), and then goes one dimension
at a time.  Each ``simplices`` list is checked by one join, against the
join of its canonical ids, and becomes a dict from the id strings ``json``
parsed to their indexes.  A face or degeneracy table is read by one lookup
per entry in the dict of the dimension its place requires, and the thin
list and the label keys by one pass over each dimension's ids.  So every
id must be spelled exactly as in ``simplices``; ``"1:03"`` or ``" 1:3"``
is no id.  Only a part that fails is walked again, to name its first bad
entry.  Each table is checked once, here, and becomes columns, which
``core._sset`` trusts: it checks only the simplicial identities.

A read drops what it makes once it is used, and never changes the
document.  The digit strings of the canonical ids live only in their
check, each table is read a column at a time straight into the tuple the
complex keeps, and the id dicts go once the tables are read: the thin
list and the label keys are matched against the document's own id
lists, and only a read that fails there makes the id sets again.  So
above the parsed document a read holds at most the id dicts and the
columns.  The CLI reads text with :func:`text_to_complex`, one top-level
field at a time, as the reader asks for it.  So beside the text a read in
the canonical order holds the ``simplices`` lists, the id dicts and the
two tables' trees until each is columns, never the whole parsed document.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, compress, count, islice, repeat
from operator import is_not, itemgetter
from typing import Any, Iterable, Iterator

from . import __version__
from .core import SimplexId, _require_buildable, _sset
from .errors import DanglingReference, InvalidInput, ThinVertex
from .homotopy import AuditReport, MonoidTable, Tau0Result
from .lifting import VerificationReport, VerificationRow
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


def complex_pieces(x: StratifiedSSet, name: str | None = None) -> list[str]:
    """The canonical document of a complex as pieces of text, written
    straight from its columns, thin indexes and stored label strings: each
    id list is one ``str.join`` over the digit strings of its indexes, with
    the quotes, the ``n:`` prefix, the indentation and the row brackets in
    the separators.  Their join is :func:`complex_text`; a writer writes
    them one after another instead, so the whole text is never held."""
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
    """The canonical document of a complex as text, the join of
    :func:`complex_pieces`.  Its bytes are those :func:`dumps` writes for
    the document, and :func:`complex_to_doc` is their parse."""
    return "".join(complex_pieces(x, name))


def complex_to_doc(x: StratifiedSSet, name: str | None = None) -> dict:
    return json.loads(complex_text(x, name))


def _is_simplex(text, indexes: list) -> bool:
    """Whether ``text`` is the id of a simplex of some dimension, given
    the ids of each dimension as a dict or a set."""
    return isinstance(text, str) and any(text in index for index in indexes)


def _parse_table(raw, n: int, count: int, what: str, entry_dim: int,
                 indexes: list[dict[str, int]]) -> tuple[tuple, ...]:
    """The dimension-``n`` face or degeneracy table, a list of ``count``
    rows of n + 1 ids of dimension ``entry_dim``, as columns of indexes.
    The row count is checked first, as ``core.build_sset`` checks it; then
    the shapes, over the whole table at once, and then every entry is read
    by one lookup in the dict of dimension ``entry_dim``, a column at a
    time, straight into the tuple ``core._sset`` keeps.  Only a table that
    fails is walked, to name its first bad row or entry."""
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
    index = indexes[entry_dim]
    try:
        return tuple(tuple(map(index.__getitem__, map(itemgetter(j), raw)))
                     for j in range(width))
    except (KeyError, TypeError):  # a missing or an unhashable entry
        k, text = next((k, text) for k, text in enumerate(
            chain.from_iterable(raw)) if not _is_simplex(text, [index]))
        entry = f"{what} entry {n}:{k // width} -> {text!r}"
        if _is_simplex(text, indexes):
            raise InvalidInput(f"{entry} must have dimension {entry_dim}")
        raise DanglingReference(f"{entry} is not a simplex of the complex")


def _first_non_simplex(texts: Iterable, per_dim: list[list[str]]):
    """The first of ``texts`` that is no simplex id, to name it in an
    error: a read keeps no set of the ids, so this makes one again."""
    known = [set(ids) for ids in per_dim]
    return next(text for text in texts if not _is_simplex(text, known))


def _thin_given(thin_ids, per_dim: list[list[str]]) -> list[list[int]]:
    """Per dimension, the indexes of the thin ids, ascending: the places in
    that dimension's ``simplices`` list of the ids in the set of thin ids.
    Unless those places add up to the size of the set, some thin id is no
    simplex, and the first such is named."""
    if not isinstance(thin_ids, list):
        raise InvalidInput("thin must be a list of simplex ids")
    try:
        given = set(thin_ids)
    except TypeError:  # an unhashable entry
        given = None
    if given is not None:
        thin = [list(compress(count(), map(given.__contains__, ids)))
                for ids in per_dim]
        if sum(map(len, thin)) == len(given):
            return thin
    text = _first_non_simplex(thin_ids, per_dim)
    raise InvalidInput(f"thin id {text!r} is not a simplex of the complex")


def _require_canonical(per_dim: list[list], most: int) -> None:
    """Raise unless the ids of each dimension n are ``"n:0"``, ``"n:1"``,
    ... in order, where no dimension has more than ``most``: one join per
    dimension, against the join of its canonical ids, whose digit strings
    live only here."""
    digits = list(map(str, range(most)))
    for n, ids in enumerate(per_dim):
        # canonical ids hold no NUL, so equal joins mean equal lists
        try:
            joined = "\x00".join(ids)
        except TypeError:  # an entry that is not a string
            joined = None
        if ids and joined != f"{n}:" + f"\x00{n}:".join(digits[:len(ids)]):
            raise InvalidInput(f"simplex ids at dimension {n} are not canonical")


_MISSING = object()  # a field may hold null, so None cannot mark a gap


def _field(take, key: str):
    """The ``key`` field, which every complex document has."""
    value = take(key, _MISSING)
    if value is _MISSING:
        raise InvalidInput(f'complex document has no "{key}"')
    return value


def doc_to_complex(doc: dict) -> StratifiedSSet:
    if not isinstance(doc, dict):
        raise InvalidInput("document is not a complex")
    return _read(doc.get)


def _read(take) -> StratifiedSSet:
    """The complex of a document whose fields ``take(key, default)`` gives,
    as ``dict.get`` does; each field is taken once."""
    if take("kind", None) != "complex":
        raise InvalidInput("document is not a complex")
    version = take("format_version", None)
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidInput(f"unsupported format_version {version!r}")
    cap = _field(take, "dim_cap")
    if type(cap) is not int or cap < 0:
        raise InvalidInput(f"dim_cap must be a natural number, not {cap!r}")
    per_dim = _field(take, "simplices")
    if type(per_dim) is not list or len(per_dim) != cap + 1 or \
            not all(type(ids) is list for ids in per_dim):
        raise InvalidInput("simplices must list dimensions 0..dim_cap")
    counts = [len(ids) for ids in per_dim]
    _require_buildable("the document", cap, counts)
    _require_canonical(per_dim, max(counts))
    # each id string to its simplex's index, one dict per dimension
    indexes = [dict(zip(ids, count())) for ids in per_dim]
    face_tables = _field(take, "faces")
    if type(face_tables) is not list or len(face_tables) != cap:
        raise InvalidInput("faces must list dimensions 1..dim_cap")
    degeneracy_tables = _field(take, "degeneracies")
    if type(degeneracy_tables) is not list or len(degeneracy_tables) != cap:
        raise InvalidInput("degeneracies must list dimensions 0..dim_cap-1")
    faces = [_parse_table(face_tables[n - 1], n, counts[n], "face", n - 1,
                          indexes) for n in range(1, cap + 1)]
    del face_tables
    degeneracies = [_parse_table(degeneracy_tables[n], n, counts[n],
                                 "degeneracy", n + 1, indexes)
                    for n in range(cap)]
    del degeneracy_tables, indexes  # the largest things the complex drops
    label_map = take("labels", {})
    if not isinstance(label_map, dict) or not all(
        map(isinstance, label_map.values(), repeat(str))
    ):
        raise InvalidInput("labels must map simplex ids to strings")
    labels = None
    if label_map:
        columns = [tuple(map(label_map.get, ids)) for ids in per_dim]
        if sum(len(c) - c.count(None) for c in columns) != len(label_map):
            key = _first_non_simplex(label_map, per_dim)
            raise InvalidInput(
                f"label key {key!r} is not a simplex of the complex")
        labels = columns.__getitem__
    u = _sset(cap, counts, [()] + faces, degeneracies + [()], None, labels)
    thin = _thin_given(take("thin", []), per_dim)
    if thin[0]:  # every thin id is a simplex, so only a vertex is refused
        raise ThinVertex(f"vertex {u.id_at(0, thin[0][0])!r} cannot be thin")
    return _stratify(u, thin)


_skip = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().raw_decode


def _past(text: str, at: int, marks: str) -> int:
    """Where ``text`` goes on past one of ``marks``, which it must have at
    ``at``, after whitespace."""
    at = _skip(text, at).end()
    if not text.startswith(tuple(marks), at):
        raise ValueError(f"expected one of {marks!r} at {at}")
    return at + 1


def _object_fields(text: str) -> Iterator[tuple[str, Any]]:
    """The keys and values of the JSON object that is all of ``text``, a
    value at a time, each parsed by ``json``'s own scanner; between them
    only braces, colons, commas and whitespace are matched.  Raises on an
    empty object, a repeated key and any text ``json.loads`` refuses."""
    seen = set()
    at = _past(text, 0, "{")
    while text[at - 1] != "}":
        key, at = json.decoder.scanstring(text, _past(text, at, '"'))
        if key in seen:  # json.loads keeps the last value
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
        value, at = _scan(text, _skip(text, _past(text, at, ":")).end())
        yield key, value
        del value  # the reader holds it now, and drops it once used
        at = _past(text, at, ",}")
    if _skip(text, at).end() != len(text):
        raise ValueError(f"extra data at {at}")


def text_to_complex(text: str) -> StratifiedSSet:
    """``doc_to_complex(json.loads(text))``, but parsing one top-level
    field at a time as the reader takes it; a field passed on the way is
    kept until taken.  A text this refuses is read that first way, so it
    gives the same complex or raises the same error."""
    try:
        fields, held = _object_fields(text), {}

        def take(key: str, default):
            while key not in held:  # past the end, the default is next
                name, value = next(fields, (key, default))
                held[name] = value
            return held.pop(key)

        x = _read(take)
        held.update(fields)  # the rest must be JSON, with no repeated key
        return x
    except Exception:  # noqa: BLE001 - read again, as json.loads reads it
        pass
    return doc_to_complex(json.loads(text))


def complex_digest(x: StratifiedSSet) -> str:
    """The sha256 of the complex's unnamed document, fed piece by piece
    rather than as the whole text."""
    digest = hashlib.sha256()
    for piece in complex_pieces(x):
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


def _spliced(doc: dict, templates: Iterable[tuple[str, Iterable[str]]]
             ) -> Iterator[str]:
    """The text of ``dumps(doc)`` in pieces, where ``doc`` holds each mark
    of ``templates`` as a string value: ``json`` writes the document, and
    the mark's pieces go where it wrote the mark."""
    rest = dumps(doc)
    for mark, pieces in templates:
        head, rest = rest.split(_encode_str(mark))
        yield head
        yield from pieces
    yield rest


def table_pieces(inputs: dict, table: MonoidTable,
                 audit: AuditReport | None = None) -> Iterator[str]:
    """The text of ``dumps(result_doc("tau", inputs, table_payload(table,
    audit)))`` in pieces.  ``json`` writes the document with placeholders
    for the table rows, the filler rows and the audit cells, which are
    written by template from the table's indexes and the audit's columns,
    as :func:`complex_text` writes a complex, and spliced in; the cells go
    a batch at a time, so the whole text is never held at once."""
    templates = chain(_grid_pieces(table), [] if audit is None else
                      [_cell_pieces(audit)])
    yield from _spliced(
        result_doc("tau", inputs, _payload(table, audit, *_SPLICED)),
        zip(_SPLICED, templates))


# where json writes a placeholder in a verify document, the template text
# of its rows goes
_ROWS = "\x00rows"


def _witness_text(row: VerificationRow, limit: int | None) -> str:
    """The ``witnesses`` list of a verify row, its first ``limit`` failures
    (None: all), written from the row's index columns: one join of the
    columns' digit strings, interleaved with separators that hold the
    keys, the ``n:`` prefixes, the indentation and the braces."""
    columns = [column[:limit] for column in row.columns]
    if not columns[0]:
        return "[]"
    n, k = row.n, row.k
    if row.family == 1:
        keys = [f'"{j}": "{n - 1}:' for j in range(n + 1) if j != k]
        opening = '{\n            "faces": {\n              ' + keys[0]
        closing = '"\n            }\n          }'
        separators = [f'",\n              {key}' for key in keys[1:]]
    else:
        opening = f'{{\n            "simplex": "{n}:'
        closing = f'",\n            "missing_thin_face": {k}\n          }}'
        separators = []
    # each column's entries, then the separator after them
    separators.append(f"{closing},\n          {opening}")
    parts = list(chain.from_iterable(
        (map(str, column), repeat(sep))
        for column, sep in zip(columns, separators)))
    return f"[\n          {opening}{_interleaved(parts)}{closing}\n        ]"


def _row_pieces(report: VerificationReport, limit: int | None
                ) -> Iterator[str]:
    """The text of the ``rows`` of a verify document, two pieces a row:
    its fields, then its witnesses (:func:`_witness_text`)."""
    if not report.rows:
        yield "[]"
        return
    opening = "[\n      "
    for row in report.rows:
        yield (f'{opening}{{\n        "family": {row.family},\n'
               f'        "k": {row.k},\n        "n": {row.n},\n'
               f'        "instances": {row.instances},\n'
               f'        "failures": {row.failed},\n        "witnesses": ')
        yield _witness_text(row, limit)
        opening = "\n      },\n      "
    yield "\n      }\n    ]"


def verify_pieces(inputs: dict, report: VerificationReport,
                  limit: int | None = None) -> Iterator[str]:
    """The text of ``dumps(result_doc("verify", inputs,
    verify_payload(report, limit)))`` in pieces.  ``json`` writes the
    document with one placeholder for the rows, which all have the same
    shape and are written by template from each row's index columns, with
    no :class:`~.lifting.FailedInstance` and no :class:`SimplexId` made."""
    payload = {"checked_dims": report.checked_dims,
               "passed": report.passed, "rows": _ROWS}
    yield from _spliced(result_doc("verify", inputs, payload),
                        [(_ROWS, _row_pieces(report, limit))])


def tau0_payload(result: Tau0Result) -> dict:
    return {
        "classes": [[id_str(v) for v in cl] for cl in result.classes],
        "relation": {
            "symmetric": result.raw_symmetric,
            "transitive": result.raw_transitive,
            "closure_needed": result.closure_needed,
        },
    }
