import argparse
import gc
import hashlib
import io
import json
import sys
import tracemalloc
from itertools import islice

import pytest

import complicial as C
from complicial import adapters, cli, core, errors, standard
from complicial import documents as D
from complicial.cli import main


@pytest.fixture()
def z2_monoid_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "elements": ["e", "a"], "unit": "e",
        "table": [["e", "a"], ["a", "e"]],
    }))
    return str(path)


@pytest.fixture()
def bool_monoid_file(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "elements": ["0", "1"], "unit": "1",
        "table": [["0", "0"], ["0", "1"]],
    }))
    return str(path)


# the two-object category of the README: 0 < 1, with a as the only arrow
# between distinct objects
README_CATEGORY = {
    "objects": ["0", "1"],
    "morphisms": [{"name": "id0", "src": "0", "tgt": "0"},
                  {"name": "id1", "src": "1", "tgt": "1"},
                  {"name": "a", "src": "0", "tgt": "1"}],
    "identities": {"0": "id0", "1": "id1"},
    "composition": {"id0|id0": "id0", "id1|id1": "id1",
                    "id0|a": "a", "a|id1": "a"},
}


@pytest.fixture()
def category_file(tmp_path):
    path = tmp_path / "category.json"
    path.write_text(json.dumps(README_CATEGORY))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_delta_t(capsys):
    code, out = run(capsys, "build", "delta-t", "1", "--cap", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "complex"
    assert [len(ids) for ids in doc["simplices"]] == [2, 3, 4]
    assert "1:1" in doc["thin"]


def test_build_comp_horn(capsys):
    code, out = run(capsys, "build", "comp-horn", "1", "2", "--cap", "2")
    assert code == 0
    assert [len(i) for i in json.loads(out)["simplices"]] == [3, 5, 7]


def test_build_nerve_th0_tau_pipeline(capsys, tmp_path, z2_monoid_file):
    nerve_path = tmp_path / "n.json"
    code, _ = run(capsys, "build", "nerve", "--monoid", z2_monoid_file,
                  "--cap", "3", "--out", str(nerve_path))
    assert code == 0
    th0_path = tmp_path / "t.json"
    code, _ = run(capsys, "build", "th0", str(nerve_path),
                  "--out", str(th0_path))
    assert code == 0
    code, out = run(capsys, "tau", str(th0_path), "--n", "1", "--vertex", "0")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["is_group"] is True
    assert payload["table"] == [[0, 1], [1, 0]]
    # [a][a] = [e]
    a_class = payload["classes"].index(["1:1"])
    assert payload["table"][a_class][a_class] == payload["unit"]


def test_qcat_e_and_audit(capsys, tmp_path, bool_monoid_file):
    nerve_path = tmp_path / "nb.json"
    run(capsys, "build", "nerve", "--monoid", bool_monoid_file,
        "--cap", "3", "--out", str(nerve_path))
    q_path = tmp_path / "qb.json"
    code, _ = run(capsys, "build", "qcat-e", str(nerve_path),
                  "--out", str(q_path))
    assert code == 0
    code, out = run(capsys, "tau", str(q_path), "--n", "1",
                    "--audit-well-defined")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["is_group"] is False
    zero = payload["classes"].index(["1:0"])
    assert str(zero) not in payload["inverses"]
    assert payload["audit"]["all_consistent"] is True
    assert payload["audit"]["min_fillers_per_cell"] >= 1


def test_verify_exit_codes(capsys, tmp_path):
    mind2 = tmp_path / "mind2.json"
    run(capsys, "build", "delta", "2", "--cap", "2", "--out", str(mind2))
    code, out = run(capsys, "verify", str(mind2), "--max-dim", "2")
    assert code == 2
    payload = json.loads(out)["payload"]
    bad = [r for r in payload["rows"] if r["failures"]]
    assert [(r["family"], r["k"], r["n"]) for r in bad] == [(1, 1, 2)]
    point = tmp_path / "pt.json"
    run(capsys, "build", "delta", "0", "--cap", "3", "--out", str(point))
    code, _ = run(capsys, "verify", str(point), "--max-dim", "3")
    assert code == 0


def test_tau0_subcommand(capsys, tmp_path):
    p = tmp_path / "d1.json"
    run(capsys, "build", "delta", "1", "--cap", "1", "--out", str(p))
    code, out = run(capsys, "tau0", str(p))
    assert code == 0
    assert json.loads(out)["payload"]["classes"] == [["0:0"], ["0:1"]]
    pt = tmp_path / "dt.json"
    run(capsys, "build", "delta-t", "1", "--cap", "1", "--out", str(pt))
    code, out = run(capsys, "tau0", str(pt))
    assert json.loads(out)["payload"]["classes"] == [["0:0", "0:1"]]


def test_product_build(capsys, tmp_path):
    a = tmp_path / "a.json"
    run(capsys, "build", "delta-t", "1", "--cap", "2", "--out", str(a))
    code, out = run(capsys, "build", "product", str(a), str(a))
    assert code == 0
    doc = json.loads(out)
    assert [len(ids) for ids in doc["simplices"]] == [4, 9, 16]


def test_usage_error_exits_1(capsys):
    assert main(["build", "delta"]) == 1
    assert main(["build", "nosuch", "1"]) == 1
    assert main(["tau"]) == 1


def test_missing_file_exits_3(capsys):
    assert main(["verify", "/nonexistent/path.json"]) == 3


def test_invalid_json_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 1


def test_math_failure_exit_2(capsys, tmp_path, z2_monoid_file):
    # tau on a minimally stratified nerve: multiplication horn unfillable
    nerve_path = tmp_path / "n.json"
    run(capsys, "build", "nerve", "--monoid", z2_monoid_file,
        "--cap", "3", "--out", str(nerve_path))
    assert main(["tau", str(nerve_path), "--n", "1"]) == 2


def test_output_bytes_are_run_stable(capsys, tmp_path, z2_monoid_file):
    nerve_path = tmp_path / "n.json"
    run(capsys, "build", "nerve", "--monoid", z2_monoid_file,
        "--cap", "3", "--out", str(nerve_path))
    th0_path = tmp_path / "t.json"
    run(capsys, "build", "th0", str(nerve_path), "--out", str(th0_path))
    _, first = run(capsys, "verify", str(th0_path), "--max-dim", "3")
    _, second = run(capsys, "verify", str(th0_path), "--max-dim", "3")
    assert first == second
    _, t1 = run(capsys, "tau", str(th0_path), "--n", "1")
    _, t2 = run(capsys, "tau", str(th0_path), "--n", "1")
    assert t1 == t2


@pytest.mark.parametrize("argv", [
    ["verify", "--max-dim", "3"], ["tau", "--n", "1", "--audit-well-defined"],
    ["tau0"], ["build", "th0"]])
def test_out_file_and_stdout_hold_the_same_bytes(capsys, tmp_path, argv):
    x = C.th0(C.nerve(C.symmetric_group_3(), 3))
    path = tmp_path / "x.json"
    path.write_text(D.complex_text(x, name="th0"), encoding="utf-8")
    out = tmp_path / "out.json"
    code, shown = run(capsys, *argv, str(path))
    assert run(capsys, *argv, str(path), "--out", str(out)) == (code, "")
    assert out.read_bytes() == shown.encode()
    doc = json.loads(shown)
    written = D.complex_text(x, name="th0") if argv[0] == "build" \
        else D.dumps(doc)
    assert shown == written


@pytest.mark.parametrize("argv", [
    ["build", "th0"], ["verify"], ["tau", "--n", "1"], ["tau0"]])
def test_an_empty_out_exits_1_and_writes_nothing(capsys, tmp_path, argv):
    # an empty path names no file, and is not read as asking for stdout
    path = tmp_path / "x.json"
    path.write_text(D.complex_text(C.delta_t(1, 2)), encoding="utf-8")
    assert main([*argv, str(path), "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: argument --out: must name a file, not be empty\n"


def test_vertex_by_label(capsys, tmp_path, z2_monoid_file):
    nerve_path = tmp_path / "n.json"
    run(capsys, "build", "nerve", "--monoid", z2_monoid_file,
        "--cap", "3", "--out", str(nerve_path))
    th0_path = tmp_path / "t.json"
    run(capsys, "build", "th0", str(nerve_path), "--out", str(th0_path))
    code, out = run(capsys, "tau", str(th0_path), "--n", "1",
                    "--vertex", "*")
    assert code == 0


def test_category_input(capsys, tmp_path):
    cat = tmp_path / "arrow.json"
    cat.write_text(json.dumps({
        "objects": ["0", "1"],
        "morphisms": [
            {"name": "id0", "src": "0", "tgt": "0"},
            {"name": "id1", "src": "1", "tgt": "1"},
            {"name": "a", "src": "0", "tgt": "1"},
        ],
        "identities": {"0": "id0", "1": "id1"},
        "composition": {"id0|id0": "id0", "id1|id1": "id1",
                        "id0|a": "a", "a|id1": "a"},
    }))
    code, out = run(capsys, "build", "nerve", "--category", str(cat),
                    "--cap", "2")
    assert code == 0
    assert [len(i) for i in json.loads(out)["simplices"]] == [2, 3, 4]


def test_perm_generator_input(capsys, tmp_path):
    mon = tmp_path / "s3.json"
    mon.write_text(json.dumps({"perm_generators": [[1, 0, 2], [1, 2, 0]]}))
    code, out = run(capsys, "build", "nerve", "--monoid", str(mon),
                    "--cap", "2")
    assert code == 0
    assert [len(i) for i in json.loads(out)["simplices"]] == [1, 6, 36]


@pytest.mark.parametrize("generators, bound", [
    ([[1, 2, 0]], 2.5),
    ([[1, 2, 0]], True),
    ([[1, 2, 0]], "x"),
    ([[0, 1]], -5),
    ([[0, 1]], 0),
])
def test_perm_generator_bound_must_be_positive_int(capsys, tmp_path,
                                                   generators, bound):
    mon = tmp_path / "perm.json"
    mon.write_text(json.dumps({"perm_generators": generators,
                               "bound": bound}))
    assert main(["build", "nerve", "--monoid", str(mon), "--cap", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidInput: bound must be")
    assert "Traceback" not in captured.err


def two_objects(**changes):
    """The discrete category on objects "0" and "1", with fields changed."""
    return {"objects": ["0", "1"],
            "morphisms": [{"name": "id0", "src": "0", "tgt": "0"},
                          {"name": "id1", "src": "1", "tgt": "1"}],
            "identities": {"0": "id0", "1": "id1"},
            "composition": {"id0|id0": "id0", "id1|id1": "id1"},
            **changes}


@pytest.mark.parametrize("flag, algebra, message", [
    ("--monoid", {"elements": "ea", "unit": "e",
                  "table": [["e", "a"], ["a", "e"]]},
     "malformed algebra input: elements must be a list"),
    ("--monoid", {"perm_generators": "ab"},
     "malformed algebra input: perm_generators must be a list"),
    ("--monoid", {"perm_generators": ["ab"]},
     "InvalidInput: permutation generator ('a', 'b') is not a permutation "
     "of the ints 0..1"),
    ("--monoid", {"perm_generators": [[True, False]]},
     "InvalidInput: permutation generator (True, False) is not a "
     "permutation of the ints 0..1"),
    ("--monoid", {"perm_generators": [[1.0, 0.0]]},
     "InvalidInput: permutation generator (1.0, 0.0) is not a permutation "
     "of the ints 0..1"),
    ("--category", {"objects": "01",
                    "morphisms": [{"name": "id0", "src": "0", "tgt": "0"},
                                  {"name": "id1", "src": "1", "tgt": "1"}],
                    "identities": {"0": "id0", "1": "id1"},
                    "composition": {"id0|id0": "id0", "id1|id1": "id1"}},
     "malformed algebra input: objects must be a list"),
    ("--monoid", {"perm_generators": [5]},
     "malformed algebra input: each of perm_generators must be a list"),
    ("--category", two_objects(morphisms="ab"),
     "malformed algebra input: morphisms must be a list"),
    ("--category", two_objects(morphisms=[{"name": "id0", "src": "0"}]),
     "malformed algebra input: each of morphisms must be an object with "
     "name, src and tgt"),
    ("--category", two_objects(morphisms=["id0", "id1"]),
     "malformed algebra input: each of morphisms must be an object with "
     "name, src and tgt"),
    ("--category", two_objects(morphisms=[
        {"name": "id0", "src": "0", "tgt": "0"},
        {"name": "id1", "src": "2", "tgt": "1"}]),
     "malformed algebra input: src of 'id1': '2' is not an object"),
    ("--category", two_objects(identities=["id0", "id1"]),
     "malformed algebra input: identities must map each object to a "
     "morphism name"),
    ("--category", two_objects(identities={"0": "id0"}),
     "malformed algebra input: identity of object '1': None is not a "
     "morphism"),
    ("--category", two_objects(composition={"id0": "id0"}),
     "malformed algebra input: composition key 'id0' is not of the form "
     "'f|g'"),
    ("--category", two_objects(composition={"id0|id0|id0": "id0"}),
     "malformed algebra input: composition key 'id0|id0|id0' is not of the "
     "form 'f|g'"),
    ("--category", two_objects(composition={"id0|b": "id0"}),
     "malformed algebra input: composition 'id0|b': 'b' is not a morphism"),
    # each required field, and the top level, checked where it is read
    ("--monoid", [1, 2],
     "malformed algebra input: monoid file must hold a JSON object"),
    ("--category", [1, 2],
     "malformed algebra input: category file must hold a JSON object"),
    ("--monoid", {"elements": ["e"], "table": [["e"]]},
     'malformed algebra input: monoid file has no "unit"'),
    ("--monoid", {"elements": ["e"], "unit": "e"},
     'malformed algebra input: monoid file has no "table"'),
    ("--monoid", {"unit": "e", "table": [["e"]]},
     'malformed algebra input: monoid file has no "elements"'),
    ("--category", {k: v for k, v in two_objects().items()
                    if k != "identities"},
     'malformed algebra input: category file has no "identities"'),
    ("--category", {k: v for k, v in two_objects().items()
                    if k != "composition"},
     'malformed algebra input: category file has no "composition"'),
    ("--category", {k: v for k, v in two_objects().items()
                    if k != "objects"},
     'malformed algebra input: category file has no "objects"'),
    ("--monoid", {"elements": ["e"], "unit": "e", "table": 5},
     "malformed algebra input: table must be a list"),
])
def test_algebra_inputs_are_read_as_the_types_they_claim(
        capsys, tmp_path, flag, algebra, message):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    assert main(["build", "nerve", flag, str(path), "--cap", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.fixture()
def delta1_doc(tmp_path):
    path = tmp_path / "d1.json"
    assert main(["build", "delta-t", "1", "--cap", "1", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("field, value", [
    ("thin", [3]),
    ("thin", "1:1"),
    ("labels", [1]),
    ("labels", {"0:0": 1}),
])
def test_malformed_document_exits_1(capsys, tmp_path, delta1_doc,
                                    field, value):
    delta1_doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(delta1_doc))
    assert main(["verify", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("dim_cap", True, "dim_cap must be a natural number, not True"),
    ("dim_cap", 1.0, "dim_cap must be a natural number, not 1.0"),
    ("dim_cap", "1", "dim_cap must be a natural number, not '1'"),
    ("dim_cap", -1, "dim_cap must be a natural number, not -1"),
    ("format_version", True, "unsupported format_version True"),
    ("format_version", 1.0, "unsupported format_version 1.0"),
    ("format_version", "1", "unsupported format_version '1'"),
])
@pytest.mark.parametrize("command", [["build", "th0"], ["verify"]])
def test_document_header_must_be_exact_ints(capsys, tmp_path, delta1_doc,
                                            field, value, message, command):
    delta1_doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(delta1_doc))
    assert main(command + [str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: InvalidInput: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(kind="verify"),
     "InvalidInput: document is not a complex"),
    (lambda d: d["simplices"].pop(),
     "InvalidInput: simplices must list dimensions 0..dim_cap"),
    (lambda d: d["simplices"][1].reverse(),
     "InvalidInput: simplex ids at dimension 1 are not canonical"),
    (lambda d: d["faces"].append(d["faces"][0]),
     "InvalidInput: faces must list dimensions 1..dim_cap"),
    (lambda d: d["degeneracies"].append(d["degeneracies"][0]),
     "InvalidInput: degeneracies must list dimensions 0..dim_cap-1"),
    (lambda d: d.pop("dim_cap"),
     'InvalidInput: complex document has no "dim_cap"'),
    (lambda d: d.pop("simplices"),
     'InvalidInput: complex document has no "simplices"'),
    (lambda d: d.pop("faces"), 'InvalidInput: complex document has no "faces"'),
    (lambda d: d.pop("degeneracies"),
     'InvalidInput: complex document has no "degeneracies"'),
    (lambda d: d.update(simplices=5),
     "InvalidInput: simplices must list dimensions 0..dim_cap"),
    (lambda d: d.update(simplices=[5, 6]),
     "InvalidInput: simplices must list dimensions 0..dim_cap"),
    (lambda d: d.update(faces=5),
     "InvalidInput: faces must list dimensions 1..dim_cap"),
    (lambda d: d.update(degeneracies=5),
     "InvalidInput: degeneracies must list dimensions 0..dim_cap-1"),
], ids=["kind", "dimensions", "canonical", "faces", "degeneracies",
        "no-dim_cap", "no-simplices", "no-faces", "no-degeneracies",
        "simplices-int", "simplices-of-ints", "faces-int", "degeneracies-int"])
def test_malformed_complex_exits_1_with_its_message(capsys, tmp_path,
                                                    delta1_doc, edit, message):
    edit(delta1_doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(delta1_doc))
    assert main(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("vertex, message", [
    ("nowhere", "no vertex labeled 'nowhere'"),
    ("2", "vertex index 2 out of range"),
    ("-1", "vertex index -1 out of range"),
])
def test_tau_rejects_a_vertex_it_cannot_find(capsys, tmp_path, delta1_doc,
                                             vertex, message):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(delta1_doc))
    assert main(["tau", str(path), "--n", "1", "--vertex", vertex]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "X", "--limit", "-1"],
])
def test_nonsense_flag_values_exit_1(capsys, tmp_path, delta1_doc, argv):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(delta1_doc))
    argv = [str(path) if a == "X" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "must be at least" in err


@pytest.mark.parametrize("argv, message", [
    (["build", "delta", "1", "--cap", "1_0"],
     "argument --cap: invalid integer '1_0'"),
    (["build", "delta", "1", "--cap", "+1"],
     "argument --cap: invalid integer '+1'"),
    (["build", "delta", "\u0661"], "delta parameters must be integers"),
    (["build", "comp-delta", "1", " 2"],
     "comp-delta parameters must be integers"),
    (["tau", "X", "--n", "1", "--vertex", " 0"], "no vertex labeled ' 0'"),
    (["tau", "X", "--n", "1", "--vertex", "0_0"], "no vertex labeled '0_0'"),
    (["tau", "X", "--n", " 1"], "argument --n: invalid integer ' 1'"),
    (["verify", "X", "--limit", "1_0"],
     "argument --limit: invalid integer '1_0'"),
    (["verify", "X", "--max-dim", "0_2"],
     "argument --max-dim: invalid integer '0_2'"),
    pytest.param(["verify", "X", "--max-dim", "9" * 5000],
                 f"argument --max-dim: invalid integer '{'9' * 5000}'",
                 id="more-digits-than-int-reads"),
])
def test_integers_are_ascii_digits_with_an_optional_minus(
        capsys, tmp_path, delta1_doc, argv, message):
    # int() alone reads underscores, spaces and other scripts' digits
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(delta1_doc))
    argv = [str(path) if a == "X" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["build", "th0", "X", "--cap", "7"],
     "th0 takes no --cap: it keeps its input's cap"),
    (["build", "qcat-e", "X", "--cap", "3"],
     "qcat-e takes no --cap: it keeps its input's cap"),
    (["build", "product", "X", "X", "--cap", "2"],
     "product takes no --cap: it keeps its input's cap"),
    (["build", "delta", "2", "--monoid", "M"],
     "--monoid is for nerve only, not delta"),
    (["build", "boundary", "2", "--category", "C"],
     "--category is for nerve only, not boundary"),
    (["build", "th0", "X", "--monoid", "M"],
     "--monoid is for nerve only, not th0"),
    (["build", "nerve", "--monoid", "M", "--category", "C", "--cap", "2"],
     "nerve takes --monoid or --category, not both"),
])
def test_flags_a_builder_would_ignore_exit_1(capsys, tmp_path, delta1_doc,
                                             z2_monoid_file, category_file,
                                             argv, message):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(delta1_doc))
    files = {"X": str(path), "M": z2_monoid_file, "C": category_file}
    assert main([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_threads_flag_is_unknown(capsys, tmp_path, delta1_doc):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(delta1_doc))
    assert main(["verify", str(path), "--threads", "2"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_limit_zero_keeps_counts(capsys, tmp_path):
    mind2 = tmp_path / "mind2.json"
    run(capsys, "build", "delta", "2", "--cap", "2", "--out", str(mind2))
    code, out = run(capsys, "verify", str(mind2), "--limit", "0")
    assert code == 2
    bad = [r for r in json.loads(out)["payload"]["rows"] if r["failures"]]
    assert bad and all(r["witnesses"] == [] for r in bad)


def test_malformed_category_exits_1(capsys, tmp_path):
    cat = tmp_path / "bad.json"
    cat.write_text(json.dumps({
        "objects": ["0"],
        "morphisms": [{"name": "id0", "src": "0", "tgt": "0"}],
        "identities": {"0": "id0"},
        "composition": [],
    }))
    assert main(["build", "nerve", "--category", str(cat), "--cap", "1"]) == 1
    assert "composition" in capsys.readouterr().err


@pytest.mark.parametrize("table", [
    [["e", "a"], ["a", "e"], ["e", "a"]],   # a row more than elements
    ["ea", "ae"],                           # rows given as strings
])
def test_monoid_table_that_is_not_square_exits_1(capsys, tmp_path, table):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"elements": ["e", "a"], "unit": "e",
                                "table": table}))
    assert main(["build", "nerve", "--monoid", str(path), "--cap", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: InvalidInput: multiplication table is not square\n"



def with_arrow(**changes):
    """The README's category, with fields changed."""
    return {**README_CATEGORY, **changes}


@pytest.mark.parametrize("flag, algebra, message", [
    ("--category", two_objects(
        objects=["0", "0"],
        morphisms=[{"name": "id0", "src": "0", "tgt": "0"}],
        identities={"0": "id0"}, composition={"id0|id0": "id0"}),
     "object and morphism names must be unique"),
    ("--category", two_objects(
        objects=["0"],
        morphisms=[{"name": "id0", "src": "0", "tgt": "0"}] * 2,
        identities={"0": "id0"}, composition={"id0|id0": "id0"}),
     "object and morphism names must be unique"),
    ("--category", with_arrow(identities={"0": "a", "1": "id1"}),
     "identity of object 0 has wrong ends"),
    ("--category", with_arrow(composition={
        **README_CATEGORY["composition"], "a|a": "a"}),
     "composition of a and a is defined but must not be"),
    ("--category", with_arrow(composition={
        "id0|id0": "id0", "id1|id1": "id1", "a|id1": "a"}),
     "composition of id0 and a is missing but must be defined"),
    ("--category", with_arrow(composition={
        **README_CATEGORY["composition"], "id0|a": "id0"}),
     "composite has wrong endpoints"),
    ("--monoid", {"elements": ["e", "a"], "unit": "u",
                  "table": [["e", "a"], ["a", "e"]]},
     "unit 'u' is not an element"),
    ("--monoid", {"elements": ["e", "a"], "unit": "e",
                  "table": [["e", "a"], ["a", "b"]]},
     "table entry 'b' is not an element"),
    ("--monoid", {"perm_generators": []},
     "at least one generator is required"),
], ids=["objects-repeated", "morphisms-repeated", "identity-ends",
        "composite-defined", "composite-missing", "composite-ends",
        "unit", "table-entry", "no-generators"])
def test_algebra_that_is_no_category_exits_1(capsys, tmp_path, flag, algebra,
                                             message):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    assert main(["build", "nerve", flag, str(path), "--cap", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: InvalidInput: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["build", "nerve", "--monoid", "M"], "nerve needs --cap"),
    (["build", "nerve", "1", "--monoid", "M", "--cap", "2"],
     "nerve takes no positional parameters"),
    (["build", "nerve", "--cap", "2"], "nerve needs --monoid or --category"),
    (["build", "th0"], "th0 takes one input path (or -)"),
    (["build", "th0", "M", "M"], "th0 takes one input path (or -)"),
    (["build", "qcat-e"], "qcat-e takes one input path (or -)"),
    (["build", "qcat-e", "M", "M"], "qcat-e takes one input path (or -)"),
    (["build", "product", "M"], "product takes two input paths"),
    (["build", "product", "M", "M", "M"], "product takes two input paths"),
], ids=["nerve-cap", "nerve-params", "nerve-algebra", "th0-none", "th0-two",
        "qcat-e-none", "qcat-e-two", "product-one", "product-three"])
def test_builders_given_the_wrong_inputs_exit_1(capsys, z2_monoid_file, argv,
                                                message):
    # the inputs are counted before any is read
    argv = [z2_monoid_file if a == "M" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"

def test_numeric_category_objects_exit_1_at_build(capsys, tmp_path):
    cat = tmp_path / "numeric.json"
    cat.write_text(json.dumps({
        "objects": [0, 1],
        "morphisms": [{"name": "id0", "src": 0, "tgt": 0},
                      {"name": "id1", "src": 1, "tgt": 1},
                      {"name": "a", "src": 0, "tgt": 1}],
        "identities": ["id0", "id1"],
        "composition": {"id0|id0": "id0", "id1|id1": "id1",
                        "id0|a": "a", "a|id1": "a"},
    }))
    assert main(["build", "nerve", "--category", str(cat), "--cap", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: InvalidInput: object and morphism names must be strings")
    assert "Traceback" not in captured.err


def test_numeric_monoid_elements_and_unit_build_and_verify(capsys, tmp_path):
    mon = tmp_path / "z2.json"
    mon.write_text(json.dumps({"elements": [0, 1], "unit": 0,
                               "table": [[0, 1], [1, 0]]}))
    code, out = run(capsys, "build", "nerve", "--monoid", str(mon),
                    "--cap", "3")
    assert code == 0
    nerve = tmp_path / "nerve.json"
    nerve.write_text(out)
    labels = json.loads(out)["labels"]
    assert (labels["0:0"], labels["1:0"], labels["1:1"]) == ("*", "0", "1")
    code, out = run(capsys, "build", "th0", str(nerve))
    assert code == 0
    th0 = tmp_path / "th0.json"
    th0.write_text(out)
    code, out = run(capsys, "verify", str(th0), "--max-dim", "3")
    assert code == 0
    assert json.loads(out)["payload"]["passed"] is True


# -- pinned tau documents ---------------------------------------------------------

@pytest.mark.parametrize("category, cap, n, digest", [
    ("s3", 2, 1,
     "8021677260a50da5018322fdf48b6866fb55c68a59eb6a58755261770b575932"),
    ("z2", 3, 2,
     "a5b09d8750c03bb620b6f057d87ee9c2a840a4704e5313838624b3942265e540"),
])
def test_tau_audit_document_is_pinned(capsys, tmp_path, category, cap, n,
                                      digest):
    # digests of the documents written before the cylinder and the horns
    # were shared between pairs
    cat = {"s3": C.symmetric_group_3, "z2": lambda: C.cyclic_group(2)}
    path = tmp_path / "x.json"
    path.write_text(D.dumps(D.complex_to_doc(
        C.th0(C.nerve(cat[category](), cap)))))
    code, out = run(capsys, "tau", str(path), "--n", str(n),
                    "--audit-well-defined")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("category, cap, n, digest", [
    ("s3", 2, 1,
     "f8b12f7b6e65565ba7f792a01b8c41c00f7457a6edd97e5197af7abe593c67ff"),
    ("z2", 3, 2,
     "f42481d8d568db2a0f85e96760f21b06af62d29b0362878cb8066df4d1d66dc5"),
])
def test_tau_document_is_pinned(capsys, tmp_path, category, cap, n, digest):
    # digests of the documents written before the table rows and the
    # fillers were written by template
    cat = {"s3": C.symmetric_group_3, "z2": lambda: C.cyclic_group(2)}
    path = tmp_path / "x.json"
    path.write_text(D.complex_text(C.th0(C.nerve(cat[category](), cap))))
    code, out = run(capsys, "tau", str(path), "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tau_with_an_inconsistent_audit_exits_2(capsys, tmp_path):
    # one vertex and the loops c, a and b; the product horn of (a, b) has
    # the fillers (a, c, b), (a, a, b) and (a, b, b), so its cell of the
    # table is not well defined.  The document is the table and the audit
    # the API computes, written by json
    c, a, b = 0, 1, 2
    triangles = [(c, c, c), (a, a, c), (c, a, a), (b, b, c), (c, b, b),
                 (a, c, a), (a, c, b), (b, c, a), (b, c, b), (a, a, b),
                 (a, b, b)]
    u = C.build_sset(2, [1, 3, len(triangles)],
                     [[], [(0, 0)] * 3, triangles],
                     [[(c,)], [(0, 0), (1, 2), (3, 4)], []])
    x = C.make_stratified(u, u.simplices(2))
    path = tmp_path / "loops.json"
    path.write_text(D.complex_text(x))
    code, out = run(capsys, "tau", str(path), "--n", "1",
                    "--audit-well-defined")
    assert code == 2
    v = u.id_at(0, 0)
    table = C.tau_table(x, v, 1)
    audit = C.audit_well_defined(x, v, table)
    assert not audit.all_consistent
    doc = D.result_doc("tau", {
        "complex_sha256": D.complex_digest(x), "n": 1, "vertex": "0:0",
        "audit_well_defined": True}, D.table_payload(table, audit))
    assert out == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("argv", [
    ["build", "delta", "-1", "--cap", "2"],
    ["build", "delta", "-1"],
    ["build", "delta-t", "-1"],
    ["build", "boundary", "-1"],
])
def test_negative_dimension_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "negative" in captured.err


# the builders whose parameters are numbers, and k for those that take one
NUMERIC_BUILDERS = {
    "delta": (standard.delta, []),
    "delta-t": (standard.delta_t, []),
    "boundary": (standard.boundary, []),
    "comp-delta": (standard.complicial_delta, [1]),
    "comp-horn": (standard.complicial_horn, [1]),
    "horn-prime": (standard.horn_prime, [1]),
    "delta-prime": (standard.delta_prime, [1]),
    "delta-dprime": (standard.delta_dprime, [1]),
}
HUGE = 10 ** 20


@pytest.mark.parametrize("where", ["n", "cap"])
@pytest.mark.parametrize("name", NUMERIC_BUILDERS)
def test_oversized_builder_parameters_exit_1(capsys, name, where):
    # more than a C ssize_t holds: once an OverflowError from deep inside
    # the builder, or a loop up to the cap that ran until memory ran out
    builder, k = NUMERIC_BUILDERS[name]
    n, cap = (HUGE, HUGE) if where == "n" else (2, HUGE)
    argv = ["build", name, *map(str, k + [n])]
    if where == "cap":
        argv += ["--cap", str(cap)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidInput: ")
    assert captured.err.endswith(" is too large\n")
    with pytest.raises(errors.InvalidInput, match="is too large"):
        builder(*k, n, cap)


# -- sizes counted before building ---------------------------------------------

def refusal(build, *args):
    """The message of the InvalidInput that ``build(*args)`` raises, and
    the peak, in bytes, of what it allocated on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(errors.InvalidInput) as refused:
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(refused.value), peak


BIG = sys.maxsize - 1  # the largest size that is not too large for C


@pytest.mark.parametrize("build, args, message", [
    (C.nerve, (C.cyclic_group(2), 10 ** 6),
     "the nerve has 2097151 simplices up to dimension 20, more than the "
     "2000000 a complex may have"),
    (C.nerve, (C.trivial_monoid(), BIG),
     f"cap {BIG} is above 24, the highest cap a complex may have"),
    (C.delta, (2, BIG), f"cap {BIG} is above 24"),
    (C.boundary, (0, BIG), f"cap {BIG} is above 24"),  # empty everywhere
    (C.delta, (BIG, BIG), f"the {BIG}-simplex has {BIG + 1} simplices "
                          "up to dimension 0"),
    (C.boundary, (10 ** 6, 10 ** 6), "the boundary of the 1000000-simplex "
                                     "has 500002500002 simplices"),
    (C.horn_prime, (1, 10 ** 6, 10 ** 6), "the horn of the 1000000-simplex "
                                          "has 500002500002 simplices"),
    (C.complicial_horn, (1, 2, BIG), f"cap {BIG} is above 24"),
    (C.gproduct, (C.th0(C.nerve(C.symmetric_group_3(), 5)),) * 2,
     "the product has 62193781 simplices up to dimension 5"),
])
def test_a_complex_too_large_is_refused_before_it_is_built(build, args,
                                                           message):
    # the counts are integers, read until the total passes the ceiling;
    # building any of these would take gigabytes, or loop until memory
    # runs out
    got, peak = refusal(build, *args)
    assert got.startswith(message)
    assert peak < 100_000


def test_a_nerve_too_large_exits_1_naming_its_count(capsys, z2_monoid_file):
    tracemalloc.start()
    try:
        code = main(["build", "nerve", "--monoid", z2_monoid_file,
                     "--cap", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: InvalidInput: the nerve has 2097151 simplices up to "
        "dimension 20, more than the 2000000 a complex may have\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [
    ["build", "delta", "2", "--cap", str(BIG)],
    ["build", "boundary", "0", "--cap", str(BIG)],
    ["build", "comp-delta", "1", "2", "--cap", "25"],
])
def test_a_cap_above_the_ceiling_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InvalidInput: cap {argv[-1]} "
                                   "is above 24")


def test_counts_before_building_are_exact():
    for n in range(5):
        kinds = [("delta", None), ("boundary", None)] + [
            ("horn", k) for k in range(n + 1) if n >= 1]
        for kind, k in kinds:
            u = standard._simplex_family(n, 4, kind, k)
            assert list(islice(standard._family_counts(n, kind), 5)) == \
                list(u.counts), (n, kind, k)
    for category in (C.trivial_monoid(), C.cyclic_group(3),
                     C.boolean_monoid(), C.arrow_category(),
                     C.symmetric_group_3()):
        assert list(islice(adapters._chain_counts(category), 5)) == \
            list(C.nerve(category, 4).counts)


def test_the_ceilings_are_above_every_input_of_the_tests_and_ci():
    # the largest nerves built in CI: th0(N S4) at cap 4 and N S6 at cap 2
    s4 = C.from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    assert sum(islice(adapters._chain_counts(s4), 5)) == 346_201
    core._require_buildable("the nerve", 4, adapters._chain_counts(s4))
    core._require_buildable("the nerve", 2, [1, 720, 720 ** 2])
    # the benchmark's pipeline product: th0(N S3) at cap 3, squared
    core._require_buildable("the product", 3, [m ** 2 for m in
                                               (1, 6, 36, 216)])
    assert core.MAX_CAP >= 7


def refused_document(capsys, tmp_path, doc, message):
    """``doc`` is refused with ``message``, through the API and, as exit 1
    with one ``error:`` line, through the CLI."""
    with pytest.raises(errors.InvalidInput) as refused:
        D.doc_to_complex(doc)
    assert str(refused.value) == message
    path = tmp_path / "doc.json"
    path.write_text(D.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: InvalidInput: {message}\n"


def test_a_document_above_the_cap_ceiling_is_refused(capsys, tmp_path):
    # the empty complex, written by hand at a cap no builder writes
    doc = {"format_version": 1, "kind": "complex", "dim_cap": 25,
           "simplices": [[]] * 26, "faces": [[]] * 25,
           "degeneracies": [[]] * 25, "thin": []}
    refused_document(capsys, tmp_path, doc, "cap 25 is above 24, the "
                     "highest cap a complex may have")


def test_a_document_of_too_many_simplices_is_refused(capsys, tmp_path,
                                                     monkeypatch):
    # th0(N Z2) at cap 3 has 1, 2, 4 and 8 simplices of dimensions 0..3
    doc = D.complex_to_doc(C.th0(C.nerve(C.cyclic_group(2), 3)))
    monkeypatch.setattr(core, "MAX_SIMPLICES", 6)
    refused_document(capsys, tmp_path, doc, "the document has 7 simplices "
                     "up to dimension 2, more than the 6 a complex may have")


# -- the parser, built once per process ---------------------------------------

def test_the_parser_is_built_once(capsys, tmp_path, monkeypatch):
    d1 = tmp_path / "d1.json"
    assert main(["build", "delta", "1", "--out", str(d1)]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1)
                        or init(self, *a, **kw))
    for argv in (["build", "delta", "1", "--out", str(d1)],
                 ["verify", str(d1)], ["tau", str(d1), "--n", "1"],
                 ["tau0", str(d1)], ["verify", str(d1), "--limit", "-1"]):
        main(argv)
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert built == []


def test_the_shared_parser_keeps_no_state_between_calls(capsys, tmp_path):
    d2 = tmp_path / "d2.json"
    assert main(["build", "delta", "2", "--cap", "2", "--out", str(d2)]) == 0
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    verify = ["verify", str(d2), "--max-dim", "2", "--limit", "1", "--out"]
    assert main(verify + [str(first)]) == 2
    # a usage error, an error from the package and --help in between
    assert main(["verify", str(d2), "--limit", "-1", "--out",
                 str(second)]) == 1
    assert main(["tau", str(d2), "--n", "0", "--out", str(second)]) == 1
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert not second.exists()
    assert main(verify + [str(second)]) == 2
    assert second.read_bytes() == first.read_bytes()
    capsys.readouterr()


def test_help_is_formatted_when_asked_for(capsys, monkeypatch):
    # argparse reads the terminal width when it formats, so the kept
    # parser wraps as a new one would, at whatever width is set then
    texts = []
    for columns in ("200", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as stop:
            main(["tau", "--help"])
        assert stop.value.code == 0
        texts.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(["tau", "--help"])
        assert capsys.readouterr().out == texts[-1]
    assert texts[0] == texts[1] != texts[2]


def test_main_finds_the_handler_when_called(capsys, tmp_path, monkeypatch):
    # a cmd_* rebound after the parser was built is the one called, as a
    # tracer that wraps the handlers from outside needs
    d1 = tmp_path / "d1.json"
    assert main(["build", "delta", "1", "--out", str(d1)]) == 0
    calls = []

    def spy(args):
        calls.append((args.command, args.complex))
        return 7

    monkeypatch.setattr(cli, "cmd_tau0", spy)
    assert main(["tau0", str(d1)]) == 7
    assert calls == [("tau0", str(d1))]
    assert capsys.readouterr().out == ""


# -- pinned complex documents -------------------------------------------------

def test_built_documents_are_pinned(capsys, tmp_path, category_file):
    # digests of the documents written before the indent-2 writer and the
    # bulk parser replaced json.dumps and the per-entry parse
    s3 = tmp_path / "s3.json"
    s3.write_text(json.dumps({"perm_generators": [[1, 0, 2], [1, 2, 0]]}))
    z3 = tmp_path / "z3.json"
    z3.write_text(json.dumps({
        "elements": ["0", "1", "2"], "unit": "0",
        "table": [[str((i + j) % 3) for j in range(3)] for i in range(3)],
    }))

    def build(*argv):
        code, out = run(capsys, "build", *argv)
        assert code == 0
        return out

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    nerve = tmp_path / "n.json"
    nerve.write_text(build("nerve", "--monoid", str(s3), "--cap", "4"))
    assert digest(nerve.read_text()) == \
        "821c447e8237b6c05d78b4b9f1216d432d55355a6fdd6a7b89afebecf727b653"
    assert digest(build("th0", str(nerve))) == \
        "4e044946bd921fd79cb5ac177d1fc5585212b4d612b27240205acefbf76371d2"
    nz = tmp_path / "nz.json"
    nz.write_text(build("nerve", "--monoid", str(z3), "--cap", "3"))
    tz = tmp_path / "tz.json"
    tz.write_text(build("th0", str(nz)))
    assert digest(build("product", str(tz), str(tz))) == \
        "a84bcedbe958bbaec47e61a01c3f16ef74c7e47609b14da15693eeba99b3c5da"
    # a document read back is written back byte for byte
    assert build("th0", str(tz)) == tz.read_text()
    # a nerve with two objects, so chains branch by the target object
    nc = tmp_path / "nc.json"
    nc.write_text(build("nerve", "--category", category_file, "--cap", "4"))
    assert digest(nc.read_text()) == \
        "6511163f31fd3dd6e72d240a9c9e7caab83eaa34f838eedbf6534c2e81a41c41"
    assert digest(build("th0", str(nc))) == \
        "89393df64f7878101507dce8d45510139bd8d8a3a79f701d069fa8431d220ef6"


# -- input that is not JSON text ----------------------------------------------

NOT_UTF8 = b"\xff"
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.fixture(params=["path", "stdin"])
def feed(request, tmp_path, monkeypatch):
    """Offer bytes as a file path, or as stdin under the path '-'."""
    def offer(data: bytes) -> str:
        if request.param == "stdin":
            monkeypatch.setattr(
                "sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            return "-"
        path = tmp_path / "input.json"
        path.write_bytes(data)
        return str(path)
    return offer


@pytest.mark.parametrize("data", [NOT_UTF8, TOO_DEEP],
                         ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("argv", [
    ["tau0", "X"],
    ["build", "th0", "X"],
    ["build", "nerve", "--monoid", "X", "--cap", "2"],
    ["build", "nerve", "--category", "X", "--cap", "2"],
])
def test_undecodable_input_exits_1(capsys, feed, data, argv):
    source = feed(data)
    assert main([source if a == "X" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid input: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("enabled", [True, False])
def test_reading_a_document_leaves_the_collector_as_it_was(
        capsys, tmp_path, delta1_doc, enabled):
    # the collector is off while a document is read, and then as before,
    # whether the read succeeds or fails
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(delta1_doc))
    bad.write_text(json.dumps({**delta1_doc, "faces": 5}))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for path, code in ((good, 0), (bad, 1)):
            assert main(["verify", str(path)]) == code
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
