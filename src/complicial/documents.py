"""JSON documents for complexes and results.

Documents are plain dicts with a fixed key order and an explicit format
version, serialized with a stable two-space indentation, so identical inputs
and flags always produce byte-identical artifacts.  Simplex ids are strings
of the form ``"dim:index"``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from . import __version__
from .core import SimplexId, build_sset
from .errors import InvalidInput
from .homotopy import AuditReport, MonoidTable, Tau0Result
from .lifting import VerificationReport
from .strat import StratifiedSSet, make_stratified

FORMAT_VERSION = 1


def id_str(s: SimplexId) -> str:
    return f"{s.dim}:{s.index}"


def parse_id(text: str) -> tuple[int, int]:
    if not isinstance(text, str):
        raise InvalidInput(f"malformed simplex id {text!r}: not a string")
    try:
        dim, index = text.split(":")
        return int(dim), int(index)
    except ValueError as exc:
        raise InvalidInput(f"malformed simplex id {text!r}") from exc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def complex_to_doc(x: StratifiedSSet, name: str | None = None) -> dict:
    u = x.underlying
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "complex",
        "dim_cap": u.dim_cap,
        "simplices": [
            [id_str(s) for s in u.simplices(n)] for n in range(u.dim_cap + 1)
        ],
        "faces": [
            [[f"{n - 1}:{e}" for e in row] for row in u.faces[n]]
            for n in range(1, u.dim_cap + 1)
        ],
        "degeneracies": [
            [[f"{n + 1}:{e}" for e in row] for row in u.degeneracies[n]]
            for n in range(u.dim_cap)
        ],
        "thin": [id_str(s) for s in sorted(x.thin)],
    }
    labels = {
        id_str(s): s.label
        for n in range(u.dim_cap + 1)
        for s in u.simplices(n)
        if s.label is not None
    }
    if labels:
        doc["labels"] = labels
    if name is not None:
        doc["metadata"] = {"name": name}
    return doc


def _parse_rows(raw, table_dim: int, entry_dim: int) -> list[list[int]]:
    rows = []
    for row in raw:
        entries = []
        for text in row:
            dim, index = parse_id(text)
            if dim != entry_dim:
                raise InvalidInput(
                    f"entry {text!r} in the dimension-{table_dim} table "
                    f"must have dimension {entry_dim}"
                )
            entries.append(index)
        rows.append(entries)
    return rows


def doc_to_complex(doc: dict) -> StratifiedSSet:
    if not isinstance(doc, dict) or doc.get("kind") != "complex":
        raise InvalidInput("document is not a complex")
    if doc.get("format_version") != FORMAT_VERSION:
        raise InvalidInput("unsupported format_version")
    cap = doc["dim_cap"]
    per_dim = doc["simplices"]
    if len(per_dim) != cap + 1:
        raise InvalidInput("simplices must list dimensions 0..dim_cap")
    counts = [len(ids) for ids in per_dim]
    for n, ids in enumerate(per_dim):
        if ids != [f"{n}:{i}" for i in range(counts[n])]:
            raise InvalidInput(f"simplex ids at dimension {n} are not canonical")
    faces = [[]] + [
        _parse_rows(doc["faces"][n - 1], n, n - 1) for n in range(1, cap + 1)
    ]
    degens = [
        _parse_rows(doc["degeneracies"][n], n, n + 1) for n in range(cap)
    ] + [[]]
    label_map = doc.get("labels", {})
    if not isinstance(label_map, dict) or not all(
        isinstance(v, str) for v in label_map.values()
    ):
        raise InvalidInput("labels must map simplex ids to strings")
    labels = None
    if label_map:
        labels = [
            [label_map.get(f"{n}:{i}") for i in range(counts[n])]
            for n in range(cap + 1)
        ]
    u = build_sset(cap, counts, faces, degens, labels=labels)
    thin_ids = doc.get("thin", [])
    if not isinstance(thin_ids, list):
        raise InvalidInput("thin must be a list of simplex ids")
    thin = []
    for text in thin_ids:
        dim, index = parse_id(text)
        if not (0 <= dim <= cap and 0 <= index < counts[dim]):
            raise InvalidInput(f"thin id {text!r} does not exist")
        thin.append(u.id_at(dim, index))
    return make_stratified(u, thin)


def complex_digest(x: StratifiedSSet) -> str:
    return hashlib.sha256(dumps(complex_to_doc(x)).encode()).hexdigest()


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


def table_payload(table: MonoidTable, audit: AuditReport | None = None) -> dict:
    payload: dict[str, Any] = {
        "n": table.n,
        "vertex": id_str(table.base),
        "elements": [id_str(e) for e in table.elements],
        "classes": [[id_str(e) for e in cl] for cl in table.classes],
        "unit": table.unit,
        "table": [list(row) for row in table.table],
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
        "fillers": [[id_str(f) for f in row] for row in table.fillers],
        "witnesses": {
            f"{id_str(p)}|{id_str(q)}": [id_str(t) for t in tops]
            for (p, q), tops in sorted(table.witnesses.items())
        },
    }
    if audit is not None:
        payload["audit"] = {
            "all_consistent": audit.all_consistent,
            "min_fillers_per_cell": audit.min_fillers,
            "cells": [
                {
                    "row": cell.row,
                    "col": cell.col,
                    "pairs_tested": cell.pairs_tested,
                    "fillers_tested": cell.fillers_tested,
                    "consistent": cell.consistent,
                }
                for cell in audit.cells
            ],
        }
    return payload


def tau0_payload(result: Tau0Result) -> dict:
    return {
        "classes": [[id_str(v) for v in cl] for cl in result.classes],
        "relation": {
            "symmetric": result.raw_symmetric,
            "transitive": result.raw_transitive,
            "closure_needed": result.closure_needed,
        },
    }
