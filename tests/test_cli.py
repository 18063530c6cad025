import hashlib
import json

import pytest

import complicial as C
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
    _, second = run(capsys, "verify", str(th0_path), "--max-dim", "3",
                    "--threads", "4")
    assert first == second
    _, t1 = run(capsys, "tau", str(th0_path), "--n", "1")
    _, t2 = run(capsys, "tau", str(th0_path), "--n", "1", "--threads", "3")
    assert t1 == t2


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


@pytest.mark.parametrize("argv", [
    ["verify", "X", "--limit", "-1"],
    ["verify", "X", "--threads", "0"],
    ["verify", "X", "--threads", "-2"],
    ["tau", "X", "--n", "1", "--threads", "0"],
])
def test_nonsense_flag_values_exit_1(capsys, tmp_path, delta1_doc, argv):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(delta1_doc))
    argv = [str(path) if a == "X" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "must be at least" in err


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
