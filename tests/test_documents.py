import collections
import hashlib
import json
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import documents as D
from complicial import errors, homotopy, lifting
from complicial.cli import main

from . import reference
from .conftest import random_thin, report_rows, z3_bool


def corpus():
    return [
        C.delta_t(2, 2),
        C.complicial_horn(1, 2, 2)[0],
        C.th0(C.nerve(C.cyclic_group(2), 3)),
        C.quasicat_e(C.nerve(C.boolean_monoid(), 3)),
        C.boundary(0, 1),  # the empty complex round-trips too
    ]


def test_structural_roundtrip():
    for x in corpus():
        doc = D.complex_to_doc(x)
        assert D.doc_to_complex(doc) == x


def test_byte_roundtrip():
    for x in corpus():
        text = D.dumps(D.complex_to_doc(x, name="c"))
        again = D.dumps(D.complex_to_doc(D.doc_to_complex(json.loads(text)),
                                         name="c"))
        assert again == text


def test_parse_validates():
    doc = D.complex_to_doc(C.delta(1, 1))
    doc["faces"][0][0] = ["0:0", "0:9"]
    with pytest.raises(errors.DanglingReference):
        D.doc_to_complex(doc)
    doc["faces"][0][0] = ["0:0", "1:0"]
    with pytest.raises(errors.InvalidInput):
        D.doc_to_complex(doc)


def test_parse_rejects_bad_thin():
    doc = D.complex_to_doc(C.delta(1, 1))
    doc["thin"] = ["0:0"]
    with pytest.raises(errors.ThinVertex):
        D.doc_to_complex(doc)
    doc["thin"] = ["7:0"]
    with pytest.raises(errors.InvalidInput):
        D.doc_to_complex(doc)


def test_digest_is_stable():
    x = C.delta_t(1, 2)
    assert D.complex_digest(x) == D.complex_digest(C.delta_t(1, 2))
    assert D.complex_digest(x) != D.complex_digest(C.delta(1, 2))


def test_id_strings():
    s = C.SimplexId(2, 5)
    assert D.id_str(s) == "2:5"
    assert D.id_str(C.SimplexId(0, 10)) == "0:10"


def test_verify_payload_shape(th0_z2_3):
    report = C.verify_weak_complicial(th0_z2_3, 2)
    payload = D.verify_payload(report)
    assert payload["passed"] is True
    assert payload["checked_dims"] == 2
    assert all(set(r) == {"family", "k", "n", "instances", "failures",
                          "witnesses"} for r in payload["rows"])


def test_witness_serialization():
    report = C.verify_weak_complicial(C.delta(2, 2), 2)
    payload = D.verify_payload(report)
    bad = [r for r in payload["rows"] if r["failures"]]
    assert bad[0]["witnesses"][0]["faces"] == {"0": "1:4", "2": "1:1"}
    capped = D.verify_payload(report, witness_limit=0)
    assert all(r["witnesses"] == [] for r in capped["rows"])


def test_table_payload_roundtrips_to_json(th0_z2_3):
    t = C.tau_table(th0_z2_3, th0_z2_3.underlying.id_at(0, 0), 1)
    payload = D.table_payload(t)
    text = D.dumps(D.result_doc("tau", {}, payload))
    parsed = json.loads(text)
    assert parsed["payload"]["table"] == [[0, 1], [1, 0]]
    assert parsed["payload"]["relation"]["closure_needed"] is False


# -- the writer ---------------------------------------------------------------

json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.dictionaries(st.integers() | st.booleans() | st.none()
                          | st.floats(), inner, max_size=3)
    ),
    max_leaves=20,
)
awkward_text = st.text(alphabet=st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "→", " ",
     "\ud800", "😀", "a", ":", ","]))


@given(json_values)
def test_writer_matches_json_indent_2(value):
    assert D.dumps(value) == "".join(D.dump_pieces(value)) == \
        json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_dump_pieces_stream_a_large_document_in_batches():
    doc = {"rows": [[i, str(i)] for i in range(20000)], "end": "é"}
    pieces = list(D.dump_pieces(doc))
    assert len(pieces) > 3
    assert "".join(pieces) == D.dumps(doc)


@given(st.lists(st.lists(awkward_text, max_size=3), max_size=3),
       st.dictionaries(awkward_text, awkward_text, max_size=3))
def test_writer_escapes_like_json(rows, mapping):
    for value in (rows, mapping, {"rows": rows, "m": mapping}, [rows, []]):
        assert D.dumps(value) == json.dumps(value, indent=2,
                                            ensure_ascii=False) + "\n"


def test_writer_matches_json_on_documents(th0_z2_3):
    t = C.tau_table(th0_z2_3, th0_z2_3.underlying.id_at(0, 0), 1)
    docs = [D.complex_to_doc(x, name="c") for x in corpus()]
    docs.append(D.result_doc("tau", {"n": 1}, D.table_payload(t)))
    docs.append(D.verify_payload(C.verify_weak_complicial(C.delta(2, 2), 2)))
    for doc in docs:
        assert D.dumps(doc) == json.dumps(doc, indent=2,
                                          ensure_ascii=False) + "\n"


def test_writer_rejects_what_json_rejects():
    for value in ({"a": {1, 2}}, [[object()]], {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            D.dumps(value)


@st.composite
def tau_results(draw):
    """A drawn table, with or without a drawn audit, and the inputs of its
    document: elements in classes of one or several members, any entries,
    fillers and witnesses (or none), and cells consistent or not."""
    n = draw(st.integers(1, 2))
    index = st.integers(0, 10 ** 6)
    indexes = sorted(draw(st.sets(index, min_size=1, max_size=10)))
    elements = tuple(C.SimplexId(n, i) for i in indexes)
    blocks: dict = {}
    for e in elements:
        blocks.setdefault(draw(st.integers(0, 3)), []).append(e)
    classes = tuple(sorted(map(tuple, blocks.values())))
    size = len(classes)
    entry = st.integers(0, size - 1)
    tops = st.lists(index, max_size=3).map(tuple)
    table = homotopy._finish_table(
        tuple(tuple(draw(entry) for _ in range(size)) for _ in range(size)),
        n=n, base=C.SimplexId(0, draw(st.integers(0, 3))),
        elements=elements, classes=classes, unit=draw(entry),
        relation_reflexive=draw(st.booleans()),
        relation_symmetric=draw(st.booleans()),
        relation_transitive=draw(st.booleans()),
        _fillers=tuple(draw(index) for _ in range(size * size)),
        _witnesses=draw(st.dictionaries(
            st.tuples(st.sampled_from(indexes), st.sampled_from(indexes)),
            tops, max_size=4)),
        _complex=None)
    audit = None
    if draw(st.booleans()):
        pairs = [len(ci) * len(cj) for ci in classes for cj in classes]
        audit = homotopy.AuditReport(
            size, tuple(pairs),
            tuple(draw(st.integers(p, 3 * p)) for p in pairs),
            tuple(draw(st.booleans()) for _ in pairs))
    inputs = {"complex_sha256": "%064x" % draw(st.integers(0, 2 ** 256 - 1)),
              "n": n, "vertex": D.id_str(table.base),
              "audit_well_defined": audit is not None}
    return inputs, table, audit


@settings(max_examples=150, deadline=None)
@given(tau_results(), st.integers(1, 5))
def test_tau_pieces_are_json_of_the_document(drawn, batch):
    # a few cells per piece, so that a document spans several
    inputs, table, audit = drawn
    doc = D.result_doc("tau", inputs, D.table_payload(table, audit))
    with patch.object(D, "_CELLS_PER_PIECE", batch):
        text = "".join(D.table_pieces(inputs, table, audit))
    assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def verify_texts(x, bound, limit):
    """The text ``verify_pieces`` writes for ``verify`` of x, and the text
    ``json`` writes for its ``verify_payload``.  The pieces are written
    first, so before any row's ``failures`` is made."""
    report = C.verify_weak_complicial(x, bound)
    inputs = {"complex_sha256": D.complex_digest(x), "max_dim": bound}
    got = "".join(D.verify_pieces(inputs, report, limit))
    want = "".join(D.dump_pieces(D.result_doc(
        "verify", inputs, D.verify_payload(report, limit))))
    return got, want


def family2_failing():
    # thin: one edge and everything above, so three family-2 rows fail
    u = C.nerve(C.cyclic_group(3), 3)
    return C.make_stratified(u, [u.nondegenerate(1)[0]] + [
        s for n in (2, 3) for s in u.simplices(n)])


@pytest.mark.parametrize("make", [
    lambda: C.delta(2, 2),                         # family 1 fails
    family2_failing,                               # family 2 fails
    lambda: C.th0(C.nerve(C.boolean_monoid(), 3)),  # outer horns fail
    lambda: C.th0(C.nerve(C.cyclic_group(2), 3)),   # passes
    lambda: C.boundary(0, 2),                       # the empty complex
])
@pytest.mark.parametrize("limit", [None, 0, 1, 2, 10 ** 6])
def test_verify_pieces_are_json_of_the_payload(make, limit):
    x = make()
    for bound in range(x.cap + 1):
        got, want = verify_texts(x, bound, limit)
        assert got == want, (bound, limit)


def test_the_verify_corpus_fails_in_both_families():
    # and some row has more failures than limit 2, so the limits cut
    rows = [row for x in (C.delta(2, 2), family2_failing(),
                          C.th0(C.nerve(C.boolean_monoid(), 3)))
            for row in C.verify_weak_complicial(x, x.cap).rows if not row.ok]
    assert {row.family for row in rows} == {1, 2}
    assert max(row.failed for row in rows) > 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_pieces_on_random_stratifications(data):
    category = data.draw(st.sampled_from([
        C.cyclic_group(2), C.cyclic_group(3), C.boolean_monoid(),
        C.arrow_category()]))
    x = random_thin(C.nerve(category, data.draw(st.integers(0, 3))), data)
    bound = data.draw(st.integers(0, x.cap))
    limit = data.draw(st.none() | st.integers(0, 4) | st.just(10 ** 6))
    got, want = verify_texts(x, bound, limit)
    assert got == want


@pytest.mark.parametrize("name", [5, 1.5, ["c"], {"name": "c"}])
def test_complex_text_rejects_a_name_that_is_not_a_string(name):
    with pytest.raises(errors.InvalidInput, match="name must be a string"):
        D.complex_text(C.delta(1, 1), name)


# -- the one id rule ---------------------------------------------------------

def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except errors.ComplicialError as exc:
        return (type(exc).__name__, str(exc))


# The next three tests are named for the parse_id fallback that the id
# lookup replaced; they keep its cases, now held to the one rule.

@pytest.mark.parametrize("entry, before", [
    ("1:x", "malformed simplex id '1:x'"),
    ("01:3", None),          # parse_id read it as 1:3
    (" 1:3", None),          # so it did this: int() strips spaces
    ("1:03", None),
    ("1:2:3", "malformed simplex id '1:2:3'"),
    ("1:", "malformed simplex id '1:'"),
    (":3", "malformed simplex id ':3'"),
    ("1:3,1:4", "malformed simplex id '1:3,1:4'"),
    ("1:-1", None),          # a dangling reference, found by build_sset
    ("1:٣", None),           # a non-ASCII digit, which int() reads as 3
    pytest.param("1:" + "9" * 5000,
                 "malformed simplex id " + repr("1:" + "9" * 5000),
                 id="1:<more digits than int() reads>"),
    (3, "malformed simplex id 3: not a string"),
    (None, "malformed simplex id None: not a string"),
    ("0:1", "entry '0:1' in the dimension-2 table must have dimension 1"),
])
def test_bulk_parse_falls_back_to_parse_id(entry, before):
    """``before`` is what parse_id made of the entry: its message, or None
    where it read an id.  Now an entry that is not an id of ``simplices``
    is a dangling reference, and an id of another dimension is refused;
    each message names the table, the row and the entry."""
    doc = D.complex_to_doc(C.delta(2, 2))
    doc["faces"][1][0][1] = entry
    if entry == "0:1":
        expected = ("InvalidInput",
                    "face entry 2:0 -> '0:1' must have dimension 1")
    else:
        expected = ("DanglingReference",
                    f"face entry 2:0 -> {entry!r} is not a simplex of the "
                    f"complex")
    assert outcome(D.doc_to_complex, doc) == expected


@pytest.mark.parametrize("entry", [
    "9:0", "1:99", "2:1:0", "1:x", 7, None, "0:0", "01:0", "-1:0",
])
def test_bulk_thin_parse_falls_back_to_parse_id(entry):
    doc = D.complex_to_doc(C.delta(2, 2))
    doc["thin"] = ["1:1", entry, "2:0"]
    if entry == "0:0":
        expected = ("ThinVertex", "vertex <0:0 (0,)> cannot be thin")
    else:  # "01:0" too, which parse_id read as 1:0
        expected = ("InvalidInput",
                    f"thin id {entry!r} is not a simplex of the complex")
    assert outcome(D.doc_to_complex, doc) == expected


def test_bulk_parse_keeps_row_shapes():
    doc = D.complex_to_doc(C.delta(2, 2))
    doc["faces"][1][0].append("1:0")   # a row too long
    with pytest.raises(errors.InvalidInput,
                       match=r"^face row 2:0 must have 3 entries$"):
        D.doc_to_complex(doc)
    doc = D.complex_to_doc(C.delta(2, 2))
    doc["faces"][1][0] = "1:0"         # a row that is not a list
    with pytest.raises(errors.InvalidInput,
                       match=r"^face row 2:0 must be a list of 3 ids$"):
        D.doc_to_complex(doc)
    doc["faces"][1] = {"2:0": ["1:0", "1:1", "1:2"]}   # nor is this table
    with pytest.raises(errors.InvalidInput,
                       match=r"^face table at dim 2 must be a list of rows$"):
        D.doc_to_complex(doc)


@pytest.mark.parametrize("table, n", [("faces", 1), ("faces", 2),
                                      ("degeneracies", 0),
                                      ("degeneracies", 1)])
@pytest.mark.parametrize("change", ["pop", "append"])
def test_a_table_with_a_row_too_few_or_too_many_is_not_index_complete(
        table, n, change):
    # as build_sset says it of the same rows, and with no row named, since
    # a missing row is not in the document
    doc = D.complex_to_doc(C.delta(2, 2))
    rows = doc[table][n - 1 if table == "faces" else n]
    if change == "pop":
        rows.pop()
    else:
        rows.append(rows[0])
    what = "face" if table == "faces" else "degeneracy"
    with pytest.raises(errors.InvalidInput,
                       match=f"^{what} table at dim {n} is not "
                             "index-complete$"):
        D.doc_to_complex(doc)


def arabic_indic(digits: str) -> str:
    return "".join(chr(0x660 + int(d)) for d in digits)


@pytest.mark.parametrize("entry", [
    "1:03", "01:3", " 1:3", "+1:3", "1:3_0", "1:0_3", "1:٣", "1:99",
    "0:0", "2:0", 3, ["1:3"],
])
@pytest.mark.parametrize("place", ["face", "degeneracy", "thin"])
def test_every_respelling_is_rejected(capsys, tmp_path, place, entry):
    """The id ``"1:3"`` of Δ_t[2] in a face row, a degeneracy row and the
    thin list, replaced by a respelling of it, a dangling id, an id of
    another dimension, a non-string or an unhashable list: a
    ``ComplicialError`` through the API, and through the CLI exit 1 with
    one ``error:`` line naming the entry."""
    doc = D.complex_to_doc(C.delta_t(2, 2))
    if place == "face":
        rows, n, dim = doc["faces"][1], 2, 1
    elif place == "degeneracy":
        rows, n, dim = doc["degeneracies"][0], 0, 1
    else:
        rows, n, dim = [doc["thin"]], None, None
    i = next(i for i, row in enumerate(rows) if "1:3" in row)
    rows[i][rows[i].index("1:3")] = entry
    if place == "thin" and entry == "0:0":
        expected = ("ThinVertex", "vertex <0:0 (0,)> cannot be thin")
    elif place == "thin" and entry == "2:0":
        expected = ("ok", None)  # an id of a thin 2-simplex is no error
    elif place == "thin":
        expected = ("InvalidInput",
                    f"thin id {entry!r} is not a simplex of the complex")
    elif entry in ("0:0", "2:0"):
        expected = ("InvalidInput", f"{place} entry {n}:{i} -> {entry!r} "
                                    f"must have dimension {dim}")
    else:
        expected = ("DanglingReference", f"{place} entry {n}:{i} -> "
                    f"{entry!r} is not a simplex of the complex")
    kind, got = outcome(D.doc_to_complex, doc)
    assert (kind, None if kind == "ok" else got) == expected
    if kind == "ok":
        return
    path = tmp_path / "respelled.json"
    path.write_text(D.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {kind}: {got}\n"


# -- one id lookup per document ---------------------------------------------------

@pytest.mark.parametrize("labels, key", [
    ({"9:9": "ghost"}, "9:9"),
    ({"1:00": "e"}, "1:00"),          # parse_id would read it as 1:0
    ({"0:0": "a", "3:0": "x", "1:00": "y"}, "3:0"),  # the first bad key
    ({3: "x"}, 3),
])
def test_labels_must_key_simplices(labels, key):
    doc = D.complex_to_doc(C.delta(2, 2))
    doc["labels"] = labels
    message = f"label key {key!r} is not a simplex of the complex"
    assert outcome(D.doc_to_complex, doc) == ("InvalidInput", message)


def test_cli_rejects_a_label_for_no_simplex(capsys, tmp_path):
    doc = D.complex_to_doc(C.delta(2, 2))
    doc["labels"]["9:9"] = "ghost"
    path = tmp_path / "ghost.json"
    path.write_text(D.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: InvalidInput: label key '9:9' is not a simplex of the "
        "complex\n")


lookup_docs = [D.complex_to_doc(x) for x in (
    C.delta(2, 2),
    C.delta_t(2, 3),
    C.complicial_horn(1, 2, 2)[0],
    C.th0(C.nerve(C.cyclic_group(2), 3)),
    C.th0(C.nerve(C.arrow_category(), 2)),
    C.quasicat_e(C.nerve(C.boolean_monoid(), 2)),
)]


@st.composite
def respelled_docs(draw):
    """A document of ``lookup_docs`` with one face or degeneracy entry, thin
    id or label key replaced; the part, the place of the replaced id
    (``(n, i)``, the table's dimension and the row, for a table entry) and
    the replacement."""
    doc = json.loads(json.dumps(draw(st.sampled_from(lookup_docs))))
    counts = [len(per_dim) for per_dim in doc["simplices"]]
    places = [("thin", None)] * bool(doc["thin"]) \
        + [("labels", None)] * bool(doc.get("labels")) \
        + [(part, n) for part in ("faces", "degeneracies")
           for n, table in enumerate(doc[part]) if table]
    part, n = draw(st.sampled_from(places))
    place = None
    if part in ("faces", "degeneracies"):
        rows = doc[part][n]
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        place = (n + 1 if part == "faces" else n, i)
        j = draw(st.integers(0, len(row) - 1))
        old = row[j]
    elif part == "thin":
        j = draw(st.integers(0, len(doc["thin"]) - 1))
        old = doc["thin"][j]
    else:
        old = draw(st.sampled_from(list(doc["labels"])))
    dim, index = old.split(":")
    other = [d for d, c in enumerate(counts) if c and d != int(dim)]
    kinds = ["respelled", "dangling", "non-string"] \
        + ["wrong dimension"] * bool(other) \
        + ["unhashable"] * (part != "labels")
    kind = draw(st.sampled_from(kinds))
    if kind == "wrong dimension":
        d = draw(st.sampled_from(other))
        new = f"{d}:{draw(st.integers(0, counts[d] - 1))}"
    elif kind == "dangling":
        new = draw(st.sampled_from([f"{dim}:{counts[int(dim)]}",
                                    f"{len(counts)}:0", f"{dim}:-1"]))
    elif kind == "respelled":  # each is read as the old id by int()
        new = draw(st.sampled_from([
            f"0{dim}:{index}", f"{dim}:0{index}", f" {dim}:{index}",
            f"+{dim}:{index}", f"{dim}:0_{index}", f"{dim}:{index} ",
            f"{dim}:{arabic_indic(index)}"]))
    elif kind == "non-string":
        new = draw(st.sampled_from([int(index), None, 1.5]))
    else:
        new = [old]
    if part in ("faces", "degeneracies"):
        row[j] = new
    elif part == "thin":
        doc["thin"][j] = new
    else:
        doc["labels"] = {new if k == old else k: v
                         for k, v in doc["labels"].items()}
    return doc, part, place, kind, new


@settings(max_examples=300, deadline=None)
@given(respelled_docs())
def test_the_lookup_and_parse_id_agree(case):
    """Named for the parse_id fallback it once compared the lookup with.
    Every id that is not one of ``simplices``, as its place requires, is
    refused with a message naming it; an id of another dimension in the
    thin list or as a label key is another simplex, read as such."""
    doc, part, place, kind, new = case
    got = outcome(D.doc_to_complex, doc)
    if part in ("faces", "degeneracies"):
        what = "face" if part == "faces" else "degeneracy"
        n, i = place
        if kind == "wrong dimension":
            entry_dim = n - 1 if part == "faces" else n + 1
            assert got == ("InvalidInput", f"{what} entry {n}:{i} -> "
                           f"{new!r} must have dimension {entry_dim}")
        else:
            assert got == ("DanglingReference", f"{what} entry {n}:{i} -> "
                           f"{new!r} is not a simplex of the complex")
    elif kind != "wrong dimension":
        name = "thin id" if part == "thin" else "label key"
        assert got == ("InvalidInput",
                       f"{name} {new!r} is not a simplex of the complex")
    elif part == "thin" and new.startswith("0:"):
        assert got[0] == "ThinVertex"
    elif part == "thin":
        u = got[1].underlying
        by_id = {D.id_str(s): s for s in u.all_simplices()}
        assert got[1] == C.make_stratified(u, map(by_id.get, doc["thin"]))
    else:
        assert got[0] == "ok"
        d, k = map(int, new.split(":"))
        assert got[1].underlying.ids[d][k].label == doc["labels"][new]


# -- ids made only when asked ----------------------------------------------------

@pytest.fixture(scope="module")
def s3_product_text():
    # the product of the pipeline benchmark: th0(N S3) at cap 3, squared
    t = C.th0(C.nerve(C.symmetric_group_3(), 3))
    return D.dumps(D.complex_to_doc(C.gproduct(t, t), name="product"))


def test_moving_tables_makes_no_ids_above_dimension_1(
        monkeypatch, capsys, tmp_path, s3_product_text):
    path = tmp_path / "product.json"
    path.write_text(s3_product_text)
    made = collections.Counter()
    init = C.SimplexId.__init__

    def counting(self, dim, index, label=None):
        made[dim] += 1
        init(self, dim, index, label)

    monkeypatch.setattr(C.SimplexId, "__init__", counting)
    # load, tau0 and the input's digest; load and write the document
    assert main(["tau0", str(path)]) == 0
    capsys.readouterr()
    assert main(["build", "th0", str(path)]) == 0
    assert capsys.readouterr().out == s3_product_text.replace(
        '"name": "product"', '"name": "th0"')  # every simplex was thin
    x = D.doc_to_complex(json.loads(s3_product_text))
    assert D.dumps(D.complex_to_doc(x, name="product")) == s3_product_text
    D.complex_digest(x)
    assert made[0] > 0  # tau0 names its vertices
    assert set(made) <= {0, 1}


def test_cli_verify_stays_in_index_space(monkeypatch, capsys, tmp_path):
    # th0(N Z3xBool) at cap 3 fails 234 outer horns; the CLI writes their
    # witnesses from the rows' index columns
    x = C.th0(C.nerve(z3_bool(), 3))
    path = tmp_path / "th0z3bool.json"
    path.write_text(D.complex_text(x, name="th0"))
    made = collections.Counter()
    init = C.SimplexId.__init__
    failure_init = lifting.FailedInstance.__init__
    reports = []

    def counting(self, dim, index, label=None):
        made[dim] += 1
        init(self, dim, index, label)

    def counting_failures(self, *args):
        made["failure"] += 1
        failure_init(self, *args)

    def kept(*args):
        reports.append(verify(*args))
        return reports[-1]

    verify = lifting.verify_weak_complicial
    monkeypatch.setattr(C.SimplexId, "__init__", counting)
    monkeypatch.setattr(lifting.FailedInstance, "__init__", counting_failures)
    monkeypatch.setattr(lifting, "verify_weak_complicial", kept)
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert set(made) <= {0}
    # afterwards, the failures an API caller reads are the reference's
    (report,) = reports
    assert report_rows(report) == reference.verify_rows(x, 3)
    assert sum(row.failed for row in report.rows) == made["failure"] == 234
    assert all(row.failures is row.failures for row in report.rows)
    assert out == D.dumps(D.result_doc("verify", {
        "complex_sha256": D.complex_digest(x), "max_dim": 3},
        D.verify_payload(report)))


def test_ids_are_made_once_per_dimension(nerve_z3_3):
    u = C.nerve(C.cyclic_group(3), 3)
    assert all(u.ids[n] is u.ids[n] for n in range(u.dim_cap + 1))
    assert u.simplices(2) is u.ids[2]
    assert u.id_at(3, 5) is u.ids[3][5]
    assert u.ids[1:3] == (u.ids[1], u.ids[2])
    assert list(u.ids) == [u.ids[n] for n in range(u.dim_cap + 1)]
    assert [s.index for s in u.ids[3]] == list(range(u.counts[3]))
    assert all(s.dim == 3 for s in u.ids[3])
    assert u == nerve_z3_3


def test_labels_survive_a_round_trip():
    x = C.th0(C.nerve(C.arrow_category(), 3))
    y = D.doc_to_complex(json.loads(D.dumps(D.complex_to_doc(x))))
    assert [s.label for s in y.underlying.all_simplices()] == \
        [s.label for s in x.underlying.all_simplices()]
    assert y.underlying.id_at(2, 3).label == "a|id1"
    # a product labels each pair with str() of its key
    points = C.min_strat(C.build_sset(0, [2], [[]], [[]], keys=[["a", 1]]))
    for p in (C.gproduct(x, C.delta_t(1, 3)), C.gproduct(points, points)):
        u = p.underlying
        assert [s.label for s in u.all_simplices()] == \
            [str(key) for per_dim in u.keys for key in per_dim]
    assert [s.label for s in u.ids[0]] == \
        ["('a', 'a')", "('a', 1)", "(1, 'a')", "(1, 1)"]


def test_thin_ids_read_in_any_order_match_make_stratified():
    x = C.quasicat_e(C.nerve(C.boolean_monoid(), 3))
    doc = D.complex_to_doc(x)
    u = x.underlying
    by_id = {D.id_str(s): s for s in u.all_simplices()}
    for thin in (doc["thin"], doc["thin"][::-1] + doc["thin"][:3]):
        doc["thin"] = thin
        y = D.doc_to_complex(doc)
        assert y == C.make_stratified(u, map(by_id.get, thin)) == x
    doc["thin"] = ["0" + t for t in thin]  # no id, though int() reads one
    with pytest.raises(errors.InvalidInput, match=(
            f"^thin id '0{thin[0]}' is not a simplex of the complex$")):
        D.doc_to_complex(doc)


@pytest.mark.parametrize("vertex", ["0:0", "00:0"])
def test_a_thin_vertex_in_a_document_raises(vertex):
    doc = D.complex_to_doc(C.th0(C.nerve(C.arrow_category(), 2)))
    doc["thin"] = doc["thin"][:2] + [vertex]
    if vertex == "0:0":
        error, message = errors.ThinVertex, "vertex <0:0 0> cannot be thin"
    else:  # not an id, so not read as the vertex 0:0
        error, message = errors.InvalidInput, (
            "thin id '00:0' is not a simplex of the complex")
    with pytest.raises(error, match=f"^{message}$"):
        D.doc_to_complex(doc)


# -- the complex writer -------------------------------------------------------

def old_complex_doc(x, name=None):
    """The complex document as it was built before the column writer: per
    row a list of id strings, labels as a dict."""
    u = x.underlying
    ids = [[f"{n}:{i}" for i in range(c)] for n, c in enumerate(u.counts)]

    def rows(columns, entries):
        return [[entries[i] for i in row] for row in zip(*columns)]

    doc = {
        "format_version": D.FORMAT_VERSION,
        "kind": "complex",
        "dim_cap": u.dim_cap,
        "simplices": ids,
        "faces": [rows(u.face_columns[n], ids[n - 1])
                  for n in range(1, u.dim_cap + 1)],
        "degeneracies": [rows(u.degeneracy_columns[n], ids[n + 1])
                         for n in range(u.dim_cap)],
        "thin": [ids[n][i] for n, thin in enumerate(x.thin_indexes())
                 for i in sorted(thin)],
    }
    labels = {}
    for n in range(u.dim_cap + 1):
        column = u.label_column(n)
        if column is not None:
            labels.update((ids[n][i], label) for i, label in enumerate(column)
                          if label is not None)
    if labels:
        doc["labels"] = labels
    if name is not None:
        doc["metadata"] = {"name": name}
    return doc


def assert_written_as_before(x, name):
    doc = old_complex_doc(x, name)
    text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    assert D.complex_text(x, name) == D.dumps(doc) == text
    assert D.complex_to_doc(x, name) == doc
    unnamed = json.dumps(old_complex_doc(x), indent=2,
                         ensure_ascii=False) + "\n"
    try:
        digest = hashlib.sha256(unnamed.encode()).hexdigest()
    except UnicodeEncodeError:  # a lone surrogate in a label
        with pytest.raises(UnicodeEncodeError):
            D.complex_digest(x)
    else:
        assert D.complex_digest(x) == digest == \
            hashlib.sha256(D.complex_text(x).encode()).hexdigest()


def relabeled(x, labels):
    """``x`` with the same tables and thin simplices and new labels."""
    u = x.underlying
    v = C.build_sset(u.dim_cap, u.counts, list(u.faces), list(u.degeneracies),
                     labels=labels)
    return C.make_stratified(v, [v.id_at(n, i) for n, thin
                                 in enumerate(x.thin_indexes()) for i in thin])


@st.composite
def written_complexes(draw):
    kind = draw(st.sampled_from(["group", "bool", "arrow"]))
    if kind == "group":
        category = C.from_permutations(draw(
            st.lists(st.permutations(range(3)), min_size=1, max_size=2)))
    else:
        category = C.boolean_monoid() if kind == "bool" \
            else C.arrow_category()
    cap = draw(st.integers(0, 4))
    u = C.nerve(category, cap)
    how = draw(st.sampled_from(["min", "some", "th0", "qcat-e", "product"]))
    if how == "min":
        x = C.min_strat(u)
    elif how == "some":  # a few thin simplices, far apart
        picks = draw(st.lists(st.tuples(st.integers(1, max(cap, 1)),
                                        st.integers(0, 10 ** 6)), max_size=6))
        x = C.make_stratified(u, [u.id_at(n, i % u.counts[n])
                                  for n, i in picks if n <= cap])
    elif how == "th0":
        x = C.th0(u)
    elif how == "qcat-e":
        x = C.quasicat_e(u) if cap >= 2 else C.max_strat(u)
    else:
        cap = min(max(cap, 1), 2)
        x = C.gproduct(C.th0(C.nerve(category, cap)), C.delta_t(1, cap))
    counts = x.underlying.counts
    labels = draw(st.sampled_from(["kept", "partial", "awkward"]))
    if labels != "kept":
        text = st.text(max_size=3) if labels == "partial" else awkward_text
        x = relabeled(x, [draw(st.lists(st.none() | text, min_size=c,
                                        max_size=c)) for c in counts])
    return x, draw(st.none() | st.text(max_size=3) | awkward_text)


@settings(max_examples=60, deadline=None)
@given(written_complexes())
def test_complex_text_is_the_document_written_as_before(case):
    assert_written_as_before(*case)


S3_NERVE = C.nerve(C.symmetric_group_3(), 2)
# 4, 16, 64, 256 and 1024 simplices: ids cross 9/10, 99/100 and 999/1000
Z4_NERVE = C.nerve(C.cyclic_group(4), 5)


def thin_runs():
    """Thin simplices in several dimensions, in runs across the digit
    boundaries, with a dimension thin only at its degenerate simplices (a
    degenerate simplex is always thin, so no dimension between two thin
    ones is empty) and the vertices, never thin, before them."""
    picks = {1: [1, 2, 3], 3: [9, 10, 11], 4: [99, 100, 101],
             5: [998, 999, 1000, 1001, 1023]}
    return C.make_stratified(Z4_NERVE, [Z4_NERVE.id_at(n, i) for n, run
                                        in picks.items() for i in run])


def gapped_labels():
    """Labels in dimensions 0, 2 and 5 only, with None between them."""
    x = thin_runs()
    counts = x.underlying.counts
    labels = [[None] * c for c in counts]
    labels[0] = ["v0"]
    labels[2][9:12] = ["nine", "ten", None]
    labels[5][998:1002] = ["a", None, 'q"\\', "é"]
    return relabeled(x, labels)


@pytest.mark.parametrize("x", [
    C.boundary(0, 1),  # the empty complex
    C.delta(0, 0),
    C.gproduct(C.th0(C.nerve(C.cyclic_group(2), 2)), C.delta_t(1, 2)),
    # thin indexes that a frozenset iterates out of order
    C.make_stratified(S3_NERVE, [S3_NERVE.id_at(2, 32)]),
    thin_runs(),
    gapped_labels(),
], ids=["empty", "point", "product", "thin-order", "thin-runs",
        "gapped-labels"])
@pytest.mark.parametrize("name", [None, "c", 'a "q" \\ \n é'])
def test_complex_text_covers_the_edge_cases(x, name):
    assert_written_as_before(x, name)
