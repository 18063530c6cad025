import pytest
from hypothesis import given, strategies as st

import complicial as C
from complicial import errors
from complicial.homotopy import _Cylinder, _partition, _witness_summary

from .conftest import vertex


# -- simple and relative homotopy ------------------------------------------------

def test_reflexivity_through_degenerate_cylinder(th0_z2_3):
    x = th0_z2_3
    f = C.classifying_map(x, x.underlying.id_for_key(1, (1,)), cap=2)
    w = C.simple_homotopic(f, f)
    assert w is not None
    assert w.f is f and w.g is f


def test_single_vertex_selfhomotopy(th0_z2_3):
    x = th0_z2_3
    f = C.classifying_map(x, vertex(x), cap=2)
    assert C.simple_homotopic(f, f) is not None


def test_vertices_of_minimal_interval_not_homotopic():
    x = C.delta(1, 2)
    f = C.classifying_map(x, x.underlying.id_at(0, 0), cap=1)
    g = C.classifying_map(x, x.underlying.id_at(0, 1), cap=1)
    assert C.simple_homotopic(f, g) is None
    # with the top edge thin they become homotopic
    xt = C.delta_t(1, 2)
    f2 = C.classifying_map(xt, xt.underlying.id_at(0, 0), cap=1)
    g2 = C.classifying_map(xt, xt.underlying.id_at(0, 1), cap=1)
    assert C.simple_homotopic(f2, g2) is not None


def test_empty_rel_coincides_with_simple():
    # rel over the empty subcomplex imposes nothing
    for x in (C.delta(1, 2), C.delta_t(1, 2)):
        source = C.delta(0, 1)
        empty, einc = C.regular_subset(source, [])
        assert empty.counts == (0, 0)
        f = C.classifying_map(x, x.underlying.id_at(0, 0), cap=1)
        g = C.classifying_map(x, x.underlying.id_at(0, 1), cap=1)
        simple = C.simple_homotopic(f, g)
        relative = C.rel_homotopic(f, g, einc)
        assert (simple is None) == (relative is None)


def test_boolean_loops_not_homotopic(qcat_bool_3):
    x = qcat_bool_3
    _, binc = C.boundary_pair(1, 2)
    l0 = C.classifying_map(x, x.underlying.id_for_key(1, (0,)), cap=2)
    l1 = C.classifying_map(x, x.underlying.id_for_key(1, (1,)), cap=2)
    assert C.rel_homotopic(l1, l0, binc) is None
    assert C.rel_homotopic(l0, l0, binc) is not None


def test_restriction_mismatch_detected(th0_z2_3):
    x = th0_z2_3
    d1 = C.delta(1, 2)
    u = d1.underlying
    const_edge = x.underlying.const(vertex(x), 1)
    loop = x.underlying.id_for_key(1, (1,))
    f = C.classifying_map(x, const_edge, cap=2)
    g = C.classifying_map(x, loop, cap=2)
    # pin the whole source: f and g differ there
    full, finc = C.regular_subset(d1, u.simplices(2))
    with pytest.raises(errors.RestrictionMismatch):
        C.rel_homotopic(f, g, finc)


def test_shared_cylinder_rejects_mismatched_maps(th0_z2_3):
    x = th0_z2_3
    _, binc = C.boundary_pair(1, 2)
    cylinder = _Cylinder(binc.target, binc)
    loop = C.classifying_map(x, x.underlying.id_for_key(1, (1,)), cap=2)
    assert cylinder.solve(loop, loop) is not None
    # an edge with distinct ends differs from the loop on the boundary
    y = C.delta_t(1, 2)
    edge = C.classifying_map(y, y.underlying.id_for_key(1, (0, 1)), cap=2)
    point = C.classifying_map(y, y.underlying.const(vertex(y), 1), cap=2)
    with pytest.raises(errors.RestrictionMismatch):
        cylinder.solve(edge, point)
    with pytest.raises(errors.RestrictionMismatch):
        C.rel_homotopic(edge, point, binc)
    # different targets, and a source other than the cylinder's
    with pytest.raises(errors.InvalidInput):
        cylinder.solve(loop, point)
    vmap = C.classifying_map(x, vertex(x), cap=1)
    with pytest.raises(errors.InvalidInput):
        cylinder.solve(vmap, vmap)
    with pytest.raises(errors.InvalidInput):
        C.rel_homotopic(loop, vmap, binc)
    with pytest.raises(errors.InvalidInput):
        _Cylinder(C.delta(0, 1), binc)


def test_shared_cylinder_matches_fresh_rel_homotopic(qcat_bool_3):
    x = qcat_bool_3
    els, rel, witnesses = C.sphere_relation(x, vertex(x), 1)
    assert not all(map(all, rel))  # the relation is not trivial here
    _, binc = C.boundary_pair(1, 2)
    for i, p in enumerate(els):
        for j, q in enumerate(els):
            w = C.rel_homotopic(C.classifying_map(x, p, cap=2),
                                C.classifying_map(x, q, cap=2), binc)
            assert rel[i][j] == (w is not None)
            if w is not None:
                assert witnesses[(p, q)] == _witness_summary(w)


# -- the class closure ------------------------------------------------------------

@given(st.data())
def test_partition_matches_matrix_closure(data):
    size = data.draw(st.integers(0, 5))
    index = st.integers(0, size - 1)
    pairs = data.draw(st.lists(st.tuples(index, index)) if size
                      else st.just([]))
    rel = [[(i, j) in pairs for j in range(size)] for i in range(size)]
    # the reachability closure of the symmetric relation, by matrix squaring
    reach = [[i == j or rel[i][j] or rel[j][i] for j in range(size)]
             for i in range(size)]
    for _ in range(size):
        reach = [[any(reach[i][m] and reach[m][j] for m in range(size))
                  for j in range(size)] for i in range(size)]
    classes = sorted({tuple(j for j in range(size) if reach[i][j])
                      for i in range(size)})
    assert _partition(size, pairs) == (
        tuple(classes),
        all(rel[i][i] for i in range(size)),
        all(rel[i][j] == rel[j][i] for i in range(size) for j in range(size)),
        all(not (rel[i][j] and rel[j][k]) or rel[i][k]
            for i in range(size) for j in range(size) for k in range(size)),
    )


# -- tau0 -------------------------------------------------------------------------

def test_tau0_minimal_interval():
    r = C.tau0(C.delta(1, 1))
    assert [len(c) for c in r.classes] == [1, 1]
    assert not r.closure_needed


def test_tau0_kan_interval():
    r = C.tau0(C.max_strat(C.delta(1, 1).underlying))
    assert len(r.classes) == 1
    # only the 0 -> 1 edge is thin, so the raw relation is asymmetric
    assert not r.raw_symmetric and r.closure_needed


def test_tau0_thin_interval():
    assert len(C.tau0(C.delta_t(1, 1)).classes) == 1


def test_tau0_point(point_3):
    assert len(C.tau0(point_3).classes) == 1


# -- sphere elements ---------------------------------------------------------------

def test_sphere_elements_point():
    for n in (1, 2):
        x = C.delta(0, n)
        els = C.sphere_elements(x, vertex(x), n)
        assert els == (x.underlying.const(vertex(x), n),)


def test_sphere_elements_z2(th0_z2_4):
    x = th0_z2_4
    assert len(C.sphere_elements(x, vertex(x), 1)) == 2
    # only the degenerate 2-simplex has fully constant boundary
    assert C.sphere_elements(x, vertex(x), 2) == \
        (x.underlying.const(vertex(x), 2),)


# -- multiplication ----------------------------------------------------------------

def test_multiply_z2(th0_z2_3):
    x = th0_z2_3
    e, a = C.sphere_elements(x, vertex(x), 1)
    assert C.multiply(x, vertex(x), 1, a, a) == e
    assert C.multiply(x, vertex(x), 1, e, e) == e


def test_multiply_boolean(qcat_bool_3):
    x = qcat_bool_3
    l0 = x.underlying.id_for_key(1, (0,))
    l1 = x.underlying.id_for_key(1, (1,))
    assert C.multiply(x, vertex(x), 1, l0, l1) == l0
    assert C.multiply(x, vertex(x), 1, l1, l0) == l0


def test_multiply_surfaces_no_filler(nerve_z2_3):
    # minimal stratification: the filler would have to be thin but the only
    # candidate 2-chain is nondegenerate
    x = C.min_strat(nerve_z2_3)
    v = vertex(x)
    a = x.underlying.id_for_key(1, (1,))
    with pytest.raises(errors.NoFiller):
        C.multiply(x, v, 1, a, a)


# -- tables ------------------------------------------------------------------------

def test_tau_table_z2(th0_z2_3):
    x = th0_z2_3
    t = C.tau_table(x, vertex(x), 1)
    assert len(t.classes) == 2
    assert t.is_group and t.associative and t.commutative
    assert t.table == ((0, 1), (1, 0))
    assert t.unit == 0
    assert not t.closure_needed


def test_tau_table_matches_nerve_composition(th0_s3_3, s3):
    # independent oracle: the group multiplication read off the nerve keys
    x = th0_s3_3
    t = C.tau_table(x, vertex(x), 1)
    assert [len(c) for c in t.classes] == [1] * 6
    for i, ci in enumerate(t.classes):
        for j, cj in enumerate(t.classes):
            a = x.underlying.key_of(ci[0])[0]
            b = x.underlying.key_of(cj[0])[0]
            expected = s3.comp[(b, a)]  # faces n-1 and n+1 mount (beta, alpha)
            got = x.underlying.key_of(t.classes[t.table[i][j]][0])[0]
            assert got == expected


def test_tau_table_boolean(qcat_bool_3):
    x = qcat_bool_3
    t = C.tau_table(x, vertex(x), 1)
    assert len(t.classes) == 2
    assert not t.is_group
    zero_class = t.class_of(x.underlying.id_for_key(1, (0,)))
    assert zero_class not in t.inverses
    assert t.table[zero_class][zero_class] == zero_class
    assert t.unit == t.class_of(x.underlying.id_for_key(1, (1,)))


def test_tau_table_trivial_on_simplex():
    x = C.delta(0, 2)
    t = C.tau_table(x, vertex(x), 1)
    assert len(t.classes) == 1 and t.is_group


def test_tau_requires_headroom(th0_z2_3):
    with pytest.raises(errors.CapTooSmall):
        C.tau_table(th0_z2_3, vertex(th0_z2_3), 3)


def test_tau_table_threads_match_serial(th0_s3_3):
    x = th0_s3_3
    assert C.tau_table(x, vertex(x), 1, threads=3) == \
        C.tau_table(x, vertex(x), 1)


def test_find_inverses():
    x = C.delta(0, 2)
    t = C.tau_table(x, vertex(x), 1)
    inv, ok = C.find_inverses(t)
    assert ok and inv == {0: 0}


# -- well-definedness ---------------------------------------------------------------

def test_check_well_defined_z2(th0_z2_3):
    x = th0_z2_3
    e, a = C.sphere_elements(x, vertex(x), 1)
    report = C.check_well_defined(x, vertex(x), 1, a, a, a, a)
    assert report.consistent
    assert report.fillers_tested == 2  # one filler per (identical) pair
    assert report.representative == e


def test_check_well_defined_s3(th0_s3_3):
    x = th0_s3_3
    els = C.sphere_elements(x, vertex(x), 1)
    report = C.check_well_defined(
        x, vertex(x), 1, els[1], els[1], els[2], els[2]
    )
    assert report.consistent


def test_check_well_defined_rejects_unrelated(qcat_bool_3):
    x = qcat_bool_3
    l0 = x.underlying.id_for_key(1, (0,))
    l1 = x.underlying.id_for_key(1, (1,))
    with pytest.raises(errors.InvalidInput):
        C.check_well_defined(x, vertex(x), 1, l0, l1, l1, l1)


def test_audit_well_defined(th0_z2_3):
    x = th0_z2_3
    t = C.tau_table(x, vertex(x), 1)
    audit = C.audit_well_defined(x, vertex(x), t)
    assert audit.all_consistent
    assert audit.min_fillers >= 1
    assert len(audit.cells) == len(t.classes) ** 2


# -- associativity ------------------------------------------------------------------

def test_associativity_witness_joins_both_sides(th0_z2_3):
    x = th0_z2_3
    t = C.tau_table(x, vertex(x), 1)
    els = C.sphere_elements(x, vertex(x), 1)
    for a in els:
        for b in els:
            for c in els:
                w = C.associativity_witness(x, vertex(x), 1, a, b, c)
                ca, cb, cc = t.class_of(a), t.class_of(b), t.class_of(c)
                lhs = t.table[t.table[ca][cb]][cc]
                rhs = t.table[ca][t.table[cb][cc]]
                assert t.class_of(w.double_face) == lhs == rhs


def test_sphere_relation_is_equivalence_on_weak_complicial(th0_z2_3):
    x = th0_z2_3
    els, rel, witnesses = C.sphere_relation(x, vertex(x), 1)
    size = len(els)
    assert all(rel[i][i] for i in range(size))
    assert all(rel[i][j] == rel[j][i]
               for i in range(size) for j in range(size))
    assert all(
        not (rel[i][j] and rel[j][k]) or rel[i][k]
        for i in range(size) for j in range(size) for k in range(size)
    )
    assert all((e, e) in witnesses for e in els)
