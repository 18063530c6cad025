"""The package's records: immutable values with the repr, equality,
hashing, ordering, copying and pickling their callers rely on, and an
import of the package that generates no code for them.

Each record is made three ways by :data:`RECORDS`: ``make()`` a record
whose fields all pickle, ``same()`` one equal to it that differs only in
the fields hidden from equality and the repr, and ``other()`` one that
differs in a compared field.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import complicial as C
from complicial import adapters, homotopy, lifting

SRC = Path(C.__file__).resolve().parent.parent


def _category(comp):
    return adapters.FiniteCategory(("o",), ("e", "a"), (0, 0), (0, 0), (0,),
                                   comp)


def _row(underlying=None, instances=4):
    return lifting.VerificationRow(1, 0, 2, instances, ((1, 2), (3, 4)),
                                   underlying)


def _table(unit=0, complex_=None):
    base = C.SimplexId(0, 0)
    e, a = C.SimplexId(1, 0), C.SimplexId(1, 3)
    return homotopy.MonoidTable(
        n=1, base=base, elements=(e, a), classes=((e,), (a,)), unit=unit,
        table=((0, 1), (1, 0)), associative=True, inverses={0: 0, 1: 1},
        is_group=True, commutative=True, relation_reflexive=True,
        relation_symmetric=True, relation_transitive=True,
        _fillers=(5, 6, 7, 8), _witnesses={(0, 0): (2,)}, _complex=complex_)


def _witness(filler=9):
    x = C.SimplexId
    return homotopy.AssociativityWitness(
        filler=x(3, filler), double_face=x(1, 0), theta=x(2, 1), psi=x(2, 2),
        phi=x(2, 3))


# name: (make, same, other, repr of make(), whether it hashes)
RECORDS = {
    "SimplexId": (
        lambda: C.SimplexId(1, 2, "a"), lambda: C.SimplexId(1, 2, "b"),
        lambda: C.SimplexId(1, 3, "a"), "<1:2 a>", True),
    "FiniteCategory": (
        lambda: _category({(0, 0): 0}), lambda: _category({(0, 0): 0}),
        lambda: _category({(0, 0): 1}),
        "FiniteCategory(objects=('o',), morphisms=('e', 'a'), src=(0, 0), "
        "tgt=(0, 0), identities=(0,), comp={(0, 0): 0})", False),
    "FailedInstance": (
        lambda: lifting.FailedInstance(2, 1, 3, {"missing_thin_face": 1}),
        lambda: lifting.FailedInstance(2, 1, 3, {"missing_thin_face": 1}),
        lambda: lifting.FailedInstance(2, 0, 3, {"missing_thin_face": 1}),
        "FailedInstance(family=2, k=1, n=3, detail={'missing_thin_face': 1})",
        False),
    "VerificationRow": (
        _row, lambda: _row(C.delta(1, 1).underlying), lambda: _row(None, 5),
        "VerificationRow(family=1, k=0, n=2, instances=4, "
        "columns=((1, 2), (3, 4)))", True),
    "VerificationReport": (
        lambda: lifting.VerificationReport(2, (_row(),)),
        lambda: lifting.VerificationReport(
            2, (_row(C.delta(1, 1).underlying),)),
        lambda: lifting.VerificationReport(3, (_row(),)),
        "VerificationReport(checked_dims=2, rows=(VerificationRow(family=1, "
        "k=0, n=2, instances=4, columns=((1, 2), (3, 4))),))", True),
    "_Link": (
        lambda: homotopy._Link(4, {(0, 1): 4}, {0: {1}}, {1: {0}}),
        lambda: homotopy._Link(4, {(0, 1): 4}, {0: {1}}, {1: {0}}),
        lambda: homotopy._Link(5, {(0, 1): 4}, {0: {1}}, {1: {0}}),
        "_Link(top=4, least={(0, 1): 4}, forward={0: {1}}, "
        "backward={1: {0}})", False),
    "Tau0Result": (
        lambda: homotopy.Tau0Result(((C.SimplexId(0, 0, "x"),),), True, False),
        lambda: homotopy.Tau0Result(((C.SimplexId(0, 0, "y"),),), True, False),
        lambda: homotopy.Tau0Result(((C.SimplexId(0, 0),),), True, True),
        "Tau0Result(classes=((<0:0 x>,),), raw_symmetric=True, "
        "raw_transitive=False)", True),
    "MonoidTable": (
        _table, lambda: _table(complex_=C.delta(1, 1).underlying),
        lambda: _table(unit=1),
        "MonoidTable(n=1, base=<0:0>, elements=(<1:0>, <1:3>), "
        "classes=((<1:0>,), (<1:3>,)), unit=0, table=((0, 1), (1, 0)), "
        "associative=True, inverses={0: 0, 1: 1}, is_group=True, "
        "commutative=True, relation_reflexive=True, "
        "relation_symmetric=True, relation_transitive=True, "
        "_fillers=(5, 6, 7, 8), _witnesses={(0, 0): (2,)})", False),
    "AuditCell": (
        lambda: homotopy.AuditCell(0, 1, 2, 3, True),
        lambda: homotopy.AuditCell(0, 1, 2, 3, True),
        lambda: homotopy.AuditCell(0, 1, 2, 3, False),
        "AuditCell(row=0, col=1, pairs_tested=2, fillers_tested=3, "
        "consistent=True)", True),
    "AuditReport": (
        lambda: homotopy.AuditReport(1, (1,), (2,), (True,)),
        lambda: homotopy.AuditReport(1, (1,), (2,), (True,)),
        lambda: homotopy.AuditReport(1, (1,), (3,), (True,)),
        "AuditReport(size=1, pairs_tested=(1,), fillers_tested=(2,), "
        "consistent=(True,))", True),
    "AssociativityWitness": (
        _witness, _witness, lambda: _witness(10),
        "AssociativityWitness(filler=<3:9>, double_face=<1:0>, "
        "theta=<2:1>, psi=<2:2>, phi=<2:3>)", True),
}

# one field of each record, and a value for it that changes it
FIELDS = {
    "SimplexId": ("index", 7), "FiniteCategory": ("objects", ("p",)),
    "FailedInstance": ("k", 0), "VerificationRow": ("instances", 9),
    "VerificationReport": ("checked_dims", 5), "_Link": ("top", 1),
    "Tau0Result": ("raw_transitive", True), "MonoidTable": ("unit", 1),
    "AuditCell": ("consistent", False), "AuditReport": ("size", 2),
    "AssociativityWitness": ("psi", C.SimplexId(2, 5)),
}

# the records whose ``same()`` differs from ``make()`` in a hidden field
HIDDEN = {"VerificationRow", "VerificationReport", "MonoidTable"}

records = pytest.mark.parametrize("name", RECORDS)


@records
def test_repr_shows_the_compared_fields(name):
    make, same, _, text, _ = RECORDS[name]
    assert repr(make()) == text
    if name in HIDDEN:
        assert repr(same()) == text


def test_simplex_id_repr_without_a_label():
    assert repr(C.SimplexId(0, 4)) == "<0:4>"
    assert str(C.SimplexId(2, 1, "01")) == "<2:1 01>"


@records
def test_equality_reads_the_compared_fields_only(name):
    make, same, other, _, _ = RECORDS[name]
    record = make()
    assert record == record
    assert record == same() and not record != same()
    assert record != other() and not record == other()
    assert record.__eq__(object()) is NotImplemented
    assert record != (1, 2)


@records
def test_hashing(name):
    make, same, _, _, hashes = RECORDS[name]
    if hashes:
        assert hash(make()) == hash(same())
        assert len({make(), same()}) == 1
    else:  # a dict field
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(make())


def test_simplex_ids_hash_and_sort_by_dimension_then_index():
    ids = [C.SimplexId(1, 0), C.SimplexId(0, 5, "v"), C.SimplexId(1, -1),
           C.SimplexId(0, 2)]
    assert sorted(ids) == [C.SimplexId(0, 2), C.SimplexId(0, 5),
                           C.SimplexId(1, -1), C.SimplexId(1, 0)]
    assert hash(C.SimplexId(3, 4, "x")) == hash((3, 4))
    a, b = C.SimplexId(0, 1), C.SimplexId(0, 1, "w")
    assert a <= b and a >= b and not a < b and not a > b
    assert C.SimplexId(0, 9) < C.SimplexId(1, 0) > C.SimplexId(0, 9)
    with pytest.raises(TypeError):
        C.SimplexId(0, 1) < (0, 2)


@records
def test_fields_can_be_neither_assigned_nor_deleted(name):
    record = RECORDS[name][0]()
    field, value = FIELDS[name]
    with pytest.raises(AttributeError,
                       match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, value)
    with pytest.raises(AttributeError,
                       match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    if name != "SimplexId":  # a record with a __dict__ takes no new names
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'extra'$"):
            record.extra = 1
    assert record == RECORDS[name][0]()


@records
def test_copies_and_pickles_are_equal(name):
    record = RECORDS[name][0]()
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record)
        assert copied == record
        assert repr(copied) == repr(record)


def test_simplex_ids_keep_their_labels_through_copies():
    x = C.SimplexId(2, 7, "012")
    for copied in (copy.copy(x), copy.deepcopy(x),
                   pickle.loads(pickle.dumps(x))):
        assert (copied.dim, copied.index, copied.label) == (2, 7, "012")


@records
def test_replace_makes_a_changed_copy(name):
    make, *_ = RECORDS[name]
    record = make()
    field, value = FIELDS[name]
    assert record._replace() == record
    changed = record._replace(**{field: value})
    assert getattr(changed, field) == value
    assert changed != record and record == make()
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_replace_keeps_the_hidden_fields():
    x = C.delta(1, 1).underlying
    assert _row(x)._replace(instances=1).underlying is x
    assert _table(complex_=x)._replace(unit=1)._complex is x
    assert C.SimplexId(0, 1, "v")._replace(index=2).label == "v"


def test_cached_properties_still_work(th0_z2_3):
    table = C.tau_table(th0_z2_3, th0_z2_3.underlying.id_at(0, 0), 1)
    assert table.fillers is table.fillers
    report = C.verify_weak_complicial(th0_z2_3, 2)
    assert all(row.failures is row.failures for row in report.rows)
    audit = homotopy.AuditReport(1, (1,), (2,), (True,))
    assert audit.cells == (homotopy.AuditCell(0, 0, 1, 2, True),)


def _new_modules(*flags: str) -> set[str]:
    """The modules that ``import complicial.cli`` adds to ``sys.modules``
    in a fresh interpreter run with ``flags``; comparing before and after
    leaves out whatever the interpreter or a site hook loads first."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import complicial.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_importing_the_cli_generates_no_record_code():
    new = _new_modules()
    assert "complicial.cli" in new
    assert not new & {"dataclasses", "inspect"}


def test_importing_the_cli_without_site_imports_no_typing():
    new = _new_modules("-S")
    assert "complicial.cli" in new
    assert not new & {"dataclasses", "inspect", "typing"}
