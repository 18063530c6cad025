import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import documents as D, errors
from complicial.adapters import (
    _pi_homotopic,
    _prism_unknowns,
    _simplicial_horn_tuples,
)

from .conftest import vertex


# -- categories ------------------------------------------------------------------

def test_monoid_category_validation():
    C.monoid_category(["e"], "e", [["e"]])
    # unit law violated: e * a = e
    with pytest.raises(errors.InvalidInput):
        C.monoid_category(["e", "a"], "e", [["e", "e"], ["a", "a"]])
    # associativity violated on a 3-element table
    with pytest.raises(errors.InvalidInput):
        C.monoid_category(
            ["e", "a", "b"], "e",
            [["e", "a", "b"], ["a", "e", "a"], ["b", "b", "e"]],
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_random_tables_accepted_iff_lawful(flat):
    table = [[str(flat[0]), str(flat[1])], [str(flat[2]), str(flat[3])]]
    m = [[flat[0], flat[1]], [flat[2], flat[3]]]
    unital = all(m[0][j] == j and m[j][0] == j for j in range(2))
    associative = all(
        m[m[a][b]][c] == m[a][m[b][c]]
        for a in range(2) for b in range(2) for c in range(2)
    )
    try:
        C.monoid_category(["0", "1"], "0", table)
        accepted = True
    except errors.InvalidInput:
        accepted = False
    assert accepted == (unital and associative)


def test_from_permutations_s3():
    s3 = C.symmetric_group_3()
    assert len(s3.morphisms) == 6
    assert all(s3.is_iso(i) for i in range(6))


def test_from_permutations_bound():
    with pytest.raises(errors.InvalidInput):
        C.from_permutations([(1, 2, 0)], bound=2)


def test_boolean_monoid_not_group():
    b = C.boolean_monoid()
    zero = b.morphisms.index("0")
    assert not b.is_iso(zero)
    assert b.is_iso(b.morphisms.index("1"))


# -- nerves ----------------------------------------------------------------------

def test_nerve_counts(nerve_z2_4, nerve_bool_3):
    assert C.nerve(C.trivial_monoid(), 3).counts == (1, 1, 1, 1)
    assert nerve_z2_4.counts == (1, 2, 4, 8, 16)
    assert nerve_bool_3.counts[:3] == (1, 2, 4)


def test_nerve_nondegenerate_boolean_pairs(nerve_bool_3):
    nd = [nerve_bool_3.keys[2][s.index]
          for s in nerve_bool_3.nondegenerate(2)]
    assert nd == [(0, 0)]


def test_nerve_of_arrow_category():
    n = C.nerve(C.arrow_category(), 2)
    assert n.counts == (2, 3, 4)


def test_th0_marks_everything(th0_z2_3):
    u = th0_z2_3.underlying
    for n in range(1, 4):
        for s in u.simplices(n):
            assert th0_z2_3.is_thin(s)


# -- homotopy category -------------------------------------------------------------

def test_homotopy_category_roundtrip():
    from complicial.adapters import _edge_classes

    for cat in (C.trivial_monoid(), C.cyclic_group(2), C.boolean_monoid(),
                C.arrow_category()):
        n = C.nerve(cat, 2)
        hc = C.homotopy_category(n)
        assert len(hc.objects) == len(cat.objects)
        assert len(hc.morphisms) == len(cat.morphisms)
        classes = _edge_classes(n)

        def class_of(m):
            edge = n.id_for_key(1, (m,))
            return next(i for i, cl in enumerate(classes) if edge in cl)

        # nerve 2-simplices are exactly commuting triangles, so composition
        # agrees with the input category under the edge identification
        for (f, g), h in cat.comp.items():
            assert hc.comp[(class_of(f), class_of(g))] == class_of(h)
        for o in range(len(cat.objects)):
            assert hc.identities[o] == class_of(cat.identities[o])


def test_homotopy_category_point():
    hc = C.homotopy_category(C.nerve(C.trivial_monoid(), 2))
    assert len(hc.objects) == 1 and len(hc.morphisms) == 1


def test_homotopy_category_needs_quasicategory():
    k = C.boundary(2, 2).underlying
    with pytest.raises(errors.NotQuasiCategory):
        C.homotopy_category(k)


# -- quasi-category stratification ---------------------------------------------------

def test_quasicat_e_of_group_nerve_is_th0(nerve_z2_3, nerve_z3_3):
    for n in (nerve_z2_3, nerve_z3_3):
        assert C.quasicat_e(n) == C.th0(n)


def test_quasicat_e_boolean(qcat_bool_3):
    u = qcat_bool_3.underlying
    thin_edges = [e for e in qcat_bool_3.thin_in_dim(1)]
    assert thin_edges == [u.id_for_key(1, (1,))]
    assert u.is_degenerate(thin_edges[0])
    for s in u.simplices(2):
        assert qcat_bool_3.is_thin(s)


def test_quasicat_e_arrow_edge_not_thin():
    n = C.nerve(C.arrow_category(), 2)
    x = C.quasicat_e(n)
    crossing = n.id_for_key(1, (2,))
    assert not x.is_thin(crossing)


def test_quasicat_thin_edges_closed_under_composition(qcat_bool_3):
    # composites of thin edges are thin: scan all 2-simplices
    x = qcat_bool_3
    u = x.underlying
    for sigma in u.simplices(2):
        if x.is_thin(u.face(sigma, 2)) and x.is_thin(u.face(sigma, 0)):
            assert x.is_thin(u.face(sigma, 1))


# -- the independent classical oracle -------------------------------------------------

def test_pi_oracle_z2(nerve_z2_3):
    pi = C.pi_oracle(nerve_z2_3, nerve_z2_3.id_at(0, 0), 1)
    assert len(pi.classes) == 2 and pi.is_group
    assert pi.table == ((0, 1), (1, 0))
    assert pi.inverses == {0: 0, 1: 1}


def test_pi_oracle_z2_dim2(nerve_z2_4):
    pi = C.pi_oracle(nerve_z2_4, nerve_z2_4.id_at(0, 0), 2)
    assert len(pi.classes) == 1 and pi.is_group


def test_pi_oracle_point():
    pt = C.delta(0, 2).underlying
    pi = C.pi_oracle(pt, pt.id_at(0, 0), 1)
    assert len(pi.classes) == 1 and pi.is_group


def test_pi_oracle_rejects_non_kan(nerve_bool_3):
    with pytest.raises(errors.NotKan):
        C.pi_oracle(nerve_bool_3, nerve_bool_3.id_at(0, 0), 1)


def test_assert_kan_accepts_group_nerve(nerve_s3_3):
    C.assert_kan(nerve_s3_3)


def test_agreement_tau_vs_pi(nerve_z3_3):
    x = C.th0(nerve_z3_3)
    v = vertex(x)
    t = C.tau_table(x, v, 1)
    p = C.pi_oracle(nerve_z3_3, nerve_z3_3.id_at(0, 0), 1)
    assert t.classes == p.classes
    assert t.unit == p.unit
    assert t.table == p.table
    assert t.is_group == p.is_group
    assert t.inverses == p.inverses
    assert t.commutative == p.commutative
    assert t.associative == p.associative


def test_pi_oracle_payload_is_pinned(s3):
    # digest of the payload written before the prism search was indexed
    k = C.nerve(s3, 2)
    text = D.dumps(D.table_payload(C.pi_oracle(k, k.id_at(0, 0), 1)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e9bde23fd50f21596db71eb3eaa4b755e97a9ad96e18b0a7ee3b75d8abe55d4d"


def scan_pi_homotopic(k, base, n, alpha, beta):
    """The prism search drawing each cell's candidates from all of X_m."""
    full = set(range(n + 1))
    assigned = {}

    def val(a, b):
        if all(t == 0 for t in b):
            return k.apply_monotone(alpha, a)
        if all(t == 1 for t in b):
            return k.apply_monotone(beta, a)
        if set(a) != full:
            return k.const(base, len(a) - 1)
        if (a, b) in assigned:
            return assigned[(a, b)]
        t = next(t for t in range(len(a) - 1)
                 if a[t] == a[t + 1] and b[t] == b[t + 1])
        face = val(a[:t + 1] + a[t + 2:], b[:t + 1] + b[t + 2:])
        return k.degeneracy(face, t)

    unknowns = _prism_unknowns(n)

    def search(pos):
        if pos == len(unknowns):
            return True
        a, b = unknowns[pos]
        m = len(a) - 1
        want = [val(a[:i] + a[i + 1:], b[:i] + b[i + 1:])
                for i in range(m + 1)]
        for w in k.simplices(m):
            if [k.face(w, i) for i in range(m + 1)] == want:
                assigned[(a, b)] = w
                if search(pos + 1):
                    return True
                del assigned[(a, b)]
        return False

    return search(0)


@pytest.mark.parametrize("fixture, n", [("nerve_z3_3", 1), ("nerve_z2_4", 2)])
def test_indexed_prism_search_matches_full_scan(request, fixture, n):
    # every pair of n-simplices, sphere elements or not
    k = request.getfixturevalue(fixture)
    base = k.id_at(0, 0)
    simplices = k.simplices(n)
    got = [[_pi_homotopic(k, base, n, p, q) for q in simplices]
           for p in simplices]
    assert got == [[scan_pi_homotopic(k, base, n, p, q) for q in simplices]
                   for p in simplices]
    assert any(map(any, got)) and not all(map(all, got))


def brute_horn_tuples(k, hk, n):
    """Every tuple of (n-1)-simplices on faces j != hk with matching faces."""
    js = [j for j in range(n + 1) if j != hk]
    out = []
    for tup in itertools.product(k.simplices(n - 1), repeat=len(js)):
        faces = dict(zip(js, tup))
        if n == 1 or all(
            k.face(faces[j], i) == k.face(faces[i], j - 1)
            for j in js for i in js if i < j
        ):
            out.append(faces)
    return out


def test_simplicial_horn_tuples_match_brute_force(nerve_z3_3):
    for n in range(1, 4):
        for hk in range(n + 1):
            got = list(_simplicial_horn_tuples(nerve_z3_3, hk, n))
            assert got == brute_horn_tuples(nerve_z3_3, hk, n), (hk, n)


def test_horn_instances_match_brute_force(qcat_bool_3):
    x = qcat_bool_3
    for n in range(1, 4):
        for hk in range(n + 1):
            horn, _ = C.complicial_horn(hk, n, n)
            want = []
            for faces in brute_horn_tuples(x.underlying, hk, n):
                try:
                    C.assemble_horn_map(horn, faces, x)
                except (errors.BoundaryMismatch, errors.ThinnessViolation):
                    continue
                want.append(faces)
            assert list(C.horn_instances(hk, n, x)) == want, (hk, n)
