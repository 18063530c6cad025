"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (visible with ``pytest -s``; the ``-v``
test listing carries the same information) and enforces its time budget.
Run this module alone with ``pytest tests/test_acceptance.py -v``.
"""

import json
import time
from contextlib import contextmanager

import complicial as C
from complicial import documents as D
from complicial.cli import main

from .conftest import vertex
from . import reference
from .test_standard import BUILDERS, constructed_thin


@contextmanager
def budget(num, description, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, \
        f"criterion {num} exceeded its budget: {elapsed:.1f}s >= {seconds}s"
    print(f"[acceptance {num:02d}] PASS ({elapsed:.2f}s) {description}")


def test_c01_standard_complex_thin_oracle():
    with budget(1, "standard-complex thin sets match brute force, n <= 5", 10):
        for n in range(6):
            for k in range(n + 1):
                for name, build in sorted(BUILDERS.items()):
                    if name in ("horn", "horn-prime") and n == 0:
                        continue
                    x = build(k, n, n)
                    assert constructed_thin(x) == \
                        reference.standard_thin(name, k, n, n), \
                        f"{name} at (k, n) = ({k}, {n})"


def test_c02_verifier_soundness(th0_z2_4, point_3):
    with budget(2, "verifier fails min Delta[2] at (1,2), passes Kan inputs", 30):
        first = C.verify_weak_complicial(C.delta(2, 2), 2)
        second = C.verify_weak_complicial(C.delta(2, 2), 2)
        assert not first.passed
        bad = [(r.family, r.k, r.n) for r in first.rows if not r.ok]
        assert bad == [(1, 1, 2)]
        assert D.verify_payload(first) == D.verify_payload(second), \
            "witness is not reproducible"
        witness = first.failures()[0].detail["faces"]
        assert set(witness) == {0, 2}
        assert C.verify_weak_complicial(th0_z2_4, 3).passed
        assert C.verify_weak_complicial(point_3, 3).passed


def test_c03_kan_agreement(nerve_z2_3, nerve_z3_3, nerve_s3_3, nerve_z2_4):
    with budget(3, "tau on th0(K) is table-isomorphic to the pi oracle", 120):
        instances = [
            (C.delta(0, 3).underlying, 1),
            (nerve_z2_3, 1),
            (nerve_z3_3, 1),
            (nerve_s3_3, 1),
            (nerve_z2_4, 2),
        ]
        for k, n in instances:
            v = k.id_at(0, 0)
            t = C.tau_table(C.th0(k), v, n)
            p = C.pi_oracle(k, v, n)
            assert t.classes == p.classes
            assert t.unit == p.unit
            assert t.table == p.table
            assert t.is_group == p.is_group
            assert t.inverses == p.inverses
            assert t.commutative == p.commutative
            assert t.associative == p.associative


def test_c04_pi1_bz2_reproduction(tmp_path, capsys):
    with budget(4, "cmd_tau on th0(nerve Z/2) gives the group of order 2", 10):
        mon = tmp_path / "z2.json"
        mon.write_text(json.dumps({
            "elements": ["e", "a"], "unit": "e",
            "table": [["e", "a"], ["a", "e"]],
        }))
        nerve_path = tmp_path / "n.json"
        assert main(["build", "nerve", "--monoid", str(mon), "--cap", "3",
                     "--out", str(nerve_path)]) == 0
        th0_path = tmp_path / "t.json"
        assert main(["build", "th0", str(nerve_path),
                     "--out", str(th0_path)]) == 0
        assert main(["tau", str(th0_path), "--n", "1",
                     "--out", str(tmp_path / "tau.json")]) == 0
        payload = json.loads((tmp_path / "tau.json").read_text())["payload"]
        capsys.readouterr()
        assert len(payload["classes"]) == 2
        assert payload["is_group"] is True
        a_class = payload["classes"].index(["1:1"])
        assert payload["table"][a_class][a_class] == payload["unit"]


def test_c05_non_group_homotopy_monoid(tmp_path, capsys):
    with budget(5, "cmd_tau on qcat-e(nerve Bool) is a non-group monoid", 10):
        mon = tmp_path / "bool.json"
        mon.write_text(json.dumps({
            "elements": ["0", "1"], "unit": "1",
            "table": [["0", "0"], ["0", "1"]],
        }))
        nerve_path = tmp_path / "n.json"
        assert main(["build", "nerve", "--monoid", str(mon), "--cap", "3",
                     "--out", str(nerve_path)]) == 0
        q_path = tmp_path / "q.json"
        assert main(["build", "qcat-e", str(nerve_path),
                     "--out", str(q_path)]) == 0
        assert main(["tau", str(q_path), "--n", "1",
                     "--out", str(tmp_path / "tau.json")]) == 0
        payload = json.loads((tmp_path / "tau.json").read_text())["payload"]
        capsys.readouterr()
        assert len(payload["classes"]) == 2
        assert payload["is_group"] is False
        zero_class = payload["classes"].index(["1:0"])
        assert str(zero_class) not in payload["inverses"]


def test_c06_group_corollary(th0_z2_3, th0_s3_3, nerve_z3_3, nerve_s3_3):
    with budget(6, "all-thin above m implies groups for m <= n < cap", 120):
        th0_corpus = [th0_z2_3, C.th0(nerve_z3_3), th0_s3_3]
        for x in th0_corpus:
            # every simplex of dim >= 1 is thin, and verification passes
            assert all(
                s in x.thin
                for n in range(1, x.cap + 1) for s in x.simplices(n)
            )
            assert C.verify_weak_complicial(x, x.cap).passed
            for n in range(1, x.cap):
                table = C.tau_table(x, vertex(x), n)
                inverses, is_group = C.find_inverses(table)
                assert is_group, f"tau_{n} not a group"
                assert len(inverses) == len(table.classes)
        xq = C.quasicat_e(nerve_s3_3)
        assert all(
            s in xq.thin
            for n in range(2, xq.cap + 1) for s in xq.simplices(n)
        )
        assert C.verify_weak_complicial(xq, xq.cap).passed
        table = C.tau_table(xq, vertex(xq), 2)
        _, is_group = C.find_inverses(table)
        assert is_group


def test_c07_equivalence_relation_lemmas(th0_z2_3, th0_s3_3, qcat_bool_3,
                                         point_3, nerve_z3_3):
    with budget(7, "witness relations are equivalences before closure", 60):
        corpus = [point_3, th0_z2_3, C.th0(nerve_z3_3), th0_s3_3, qcat_bool_3]
        for x in corpus:
            assert C.verify_weak_complicial(x, x.cap).passed
            t0 = C.tau0(x)
            assert not t0.closure_needed, "tau0 needed closure"
            for n in (1, 2):
                if x.cap < n + 1:
                    continue
                table = C.tau_table(x, vertex(x), n)
                assert table.relation_reflexive
                assert table.relation_symmetric
                assert table.relation_transitive
                assert not table.closure_needed


def test_c08_well_definedness_audit(tmp_path, capsys):
    with budget(8, "audit: every filler of every cell lands in one class", 300):
        mon = tmp_path / "s3.json"
        mon.write_text(json.dumps(
            {"perm_generators": [[1, 0, 2], [1, 2, 0]]}
        ))
        nerve_path = tmp_path / "n.json"
        assert main(["build", "nerve", "--monoid", str(mon), "--cap", "3",
                     "--out", str(nerve_path)]) == 0
        th0_path = tmp_path / "t.json"
        assert main(["build", "th0", str(nerve_path),
                     "--out", str(th0_path)]) == 0
        assert main(["tau", str(th0_path), "--n", "1", "--audit-well-defined",
                     "--out", str(tmp_path / "tau.json")]) == 0
        payload = json.loads((tmp_path / "tau.json").read_text())["payload"]
        capsys.readouterr()
        audit = payload["audit"]
        assert audit["all_consistent"] is True
        assert audit["min_fillers_per_cell"] >= 1
        assert len(audit["cells"]) == len(payload["classes"]) ** 2


def test_c09_associativity_theorem(th0_z2_3, th0_s3_3, qcat_bool_3):
    with budget(9, "tables associative; the proof's horn fills for n = 1", 60):
        tables = [
            C.tau_table(th0_z2_3, vertex(th0_z2_3), 1),
            C.tau_table(th0_s3_3, vertex(th0_s3_3), 1),
            C.tau_table(qcat_bool_3, vertex(qcat_bool_3), 1),
            C.tau_table(th0_z2_3, vertex(th0_z2_3), 2),
        ]
        for t in tables:
            assert t.associative
            size = len(t.classes)
            for a in range(size):
                for b in range(size):
                    for c in range(size):
                        assert t.table[t.table[a][b]][c] == \
                            t.table[a][t.table[b][c]]
        x = th0_z2_3
        t = tables[0]
        els = C.sphere_elements(x, vertex(x), 1)
        for a in els:
            for b in els:
                for c in els:
                    w = C.associativity_witness(x, vertex(x), 1, a, b, c)
                    ca, cb, cc = (t.class_of(a), t.class_of(b), t.class_of(c))
                    both = t.table[t.table[ca][cb]][cc]
                    assert t.class_of(w.double_face) == both


def test_c10_determinism_and_roundtrip(th0_z2_3, th0_s3_3, qcat_bool_3,
                                       point_3):
    with budget(10, "round-trips lossless; results byte-stable", 60):
        corpus = [point_3, th0_z2_3, th0_s3_3, qcat_bool_3,
                  C.delta_t(2, 3), C.complicial_horn(1, 3, 3)[0]]
        for x in corpus:
            doc = D.complex_to_doc(x, name="c")
            assert D.doc_to_complex(doc) == x
            assert D.dumps(D.complex_to_doc(
                D.doc_to_complex(doc), name="c")) == D.dumps(doc)
        for x in (th0_z2_3, qcat_bool_3):
            serial = D.dumps(D.result_doc("verify", {}, D.verify_payload(
                C.verify_weak_complicial(x, 3))))
            rerun = D.dumps(D.result_doc("verify", {}, D.verify_payload(
                C.verify_weak_complicial(x, 3))))
            assert serial == rerun
            t1 = D.dumps(D.result_doc("tau", {}, D.table_payload(
                C.tau_table(x, vertex(x), 1))))
            t2 = D.dumps(D.result_doc("tau", {}, D.table_payload(
                C.tau_table(x, vertex(x), 1))))
            assert t1 == t2
