import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import errors, homotopy
from complicial.homotopy import _partition, all_product_fillers

from . import reference
from .conftest import check_tau, transformation_table, vertex


# -- homotopy rel boundary ---------------------------------------------------------

def test_boolean_loops_not_homotopic(qcat_bool_3):
    x = qcat_bool_3
    els, rel, _ = C.sphere_relation(x, vertex(x), 1)
    l0 = els.index(x.underlying.id_for_key(1, (0,)))
    l1 = els.index(x.underlying.id_for_key(1, (1,)))
    assert not rel[l1][l0]
    assert rel[l0][l0]


# -- the class closure ------------------------------------------------------------

@given(st.data())
def test_partition_matches_matrix_closure(data):
    size = data.draw(st.integers(0, 5))
    index = st.integers(0, size - 1)
    pairs = data.draw(st.lists(st.tuples(index, index)) if size
                      else st.just([]))
    rel = [[(i, j) in pairs for j in range(size)] for i in range(size)]
    classes, flags = reference.closure(rel)
    assert _partition(size, pairs) == (tuple(classes), *flags)


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


def test_multiplication_horn_is_validated():
    # the crossing arrow of 0 < 1 is no sphere: its horn's faces disagree
    x = C.th0(C.nerve(C.arrow_category(), 3))
    a = next(e for e in x.underlying.simplices(1) if e.label == "a")
    for op in (C.multiply, all_product_fillers):
        with pytest.raises(errors.BoundaryMismatch) as info:
            op(x, vertex(x), 1, a, a)
        assert str(info.value) == "face mismatch at dim 1 simplex 1, d_0"


def test_multiply_surfaces_no_filler(nerve_z2_3):
    # minimal stratification: the filler would have to be thin but the only
    # candidate 2-chain is nondegenerate
    x = C.min_strat(nerve_z2_3)
    v = vertex(x)
    a = x.underlying.id_for_key(1, (1,))
    with pytest.raises(errors.NoFiller):
        C.multiply(x, v, 1, a, a)


@pytest.mark.parametrize("op", [
    lambda x, v: C.multiply(x, v, 0, v, v),
    lambda x, v: C.multiply_with_filler(x, v, 0, v, v),
    lambda x, v: all_product_fillers(x, v, 0, v, v),
    lambda x, v: C.associativity_witness(x, v, 0, v, v, v),
], ids=["multiply", "multiply_with_filler", "all_product_fillers",
        "associativity_witness"])
def test_multiplication_needs_n_at_least_1(th0_z2_3, op):
    # at n = 0 the rows of vertex indexes were read as a horn of edges, and
    # multiply returned the edge <1:0>
    x = th0_z2_3
    with pytest.raises(errors.InvalidInput,
                       match="^multiplication needs n >= 1$"):
        op(x, vertex(x))


@pytest.mark.parametrize("call, message", [
    (lambda x, t: C.sphere_elements(x, C.SimplexId(0, 5), 1),
     "<0:5> is not a vertex of the complex"),
    (lambda x, t: C.sphere_elements(x, C.SimplexId(1, 0), 1),
     "<1:0> is not a vertex of the complex"),
    (lambda x, t: C.classifying_map(x, C.SimplexId(1, 99)),
     "<1:99> is not a simplex of the complex"),
    (lambda x, t: C.classifying_map(x, C.SimplexId(7, 0)),
     "<7:0> is not a simplex of the complex"),
    (lambda x, t: C.multiply(x, vertex(x), 1, C.SimplexId(1, 99), t[0]),
     "<1:99> is not a 1-simplex of the complex"),
    (lambda x, t: C.multiply(x, vertex(x), 1, t[0], C.SimplexId(2, 0)),
     "<2:0> is not a 1-simplex of the complex"),
    (lambda x, t: all_product_fillers(x, C.SimplexId(0, 5), 1, t[0], t[0]),
     "<0:5> is not a vertex of the complex"),
    (lambda x, t: C.tau_table(x, C.SimplexId(0, 5), 1),
     "<0:5> is not a vertex of the complex"),
    (lambda x, t: C.audit_well_defined(x, C.SimplexId(0, 5), t[1]),
     "<0:5> is not a vertex of the complex"),
])
def test_ids_are_checked_at_entry(th0_z2_3, call, message):
    x = th0_z2_3
    table = C.tau_table(x, vertex(x), 1)
    with pytest.raises(errors.InvalidInput) as info:
        call(x, (table.elements[1], table))
    assert str(info.value) == message


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


def test_class_of_finds_each_element_and_rejects_the_rest(th0_s3_3):
    x = th0_s3_3
    t = C.tau_table(x, vertex(x), 1)
    for element in t.elements:
        assert t.class_of(element) == next(
            i for i, c in enumerate(t.classes) if element in c)
    for stranger in (x.underlying.id_at(2, 0), C.SimplexId(1, 10 ** 6)):
        with pytest.raises(errors.InvalidInput,
                           match="is not a sphere element of this table"):
            t.class_of(stranger)


def test_tau_table_trivial_on_simplex():
    x = C.delta(0, 2)
    t = C.tau_table(x, vertex(x), 1)
    assert len(t.classes) == 1 and t.is_group


def test_tau_requires_headroom(th0_z2_3):
    with pytest.raises(errors.CapTooSmall):
        C.tau_table(th0_z2_3, vertex(th0_z2_3), 3)


def test_find_inverses():
    x = C.delta(0, 2)
    t = C.tau_table(x, vertex(x), 1)
    inv, ok = C.find_inverses(t)
    assert ok and inv == {0: 0}


# -- associativity by Light's test -------------------------------------------------

def finished(table):
    return homotopy._finish_table(
        table, n=1, base=C.SimplexId(0, 0), elements=(), classes=(), unit=0,
        relation_reflexive=True, relation_symmetric=True,
        relation_transitive=True, _fillers=(), _witnesses={}, _complex=None)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_light_test_matches_the_triple_check(data):
    if data.draw(st.booleans()):
        table = transformation_table(data)
    else:
        size = data.draw(st.integers(1, 5))
        entry = st.integers(0, size - 1)
        table = data.draw(st.lists(st.lists(entry, min_size=size,
                                            max_size=size),
                                   min_size=size, max_size=size))
    if data.draw(st.booleans()):
        # one entry changed: mostly a near miss of an associative table
        a, b = (data.draw(st.integers(0, len(table) - 1)) for _ in range(2))
        table[a][b] = data.draw(st.integers(0, len(table) - 1))
    table = tuple(map(tuple, table))
    got = finished(table)
    assert got.associative == reference.associative(table)
    k = range(len(table))
    assert got.commutative == all(table[a][b] == table[b][a]
                                  for a in k for b in k)


def test_light_test_on_known_tables():
    z3 = tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3))
    assert finished(z3).associative and finished(z3).is_group
    # a - b mod 3 is not associative
    minus = tuple(tuple((a - b) % 3 for b in range(3)) for a in range(3))
    assert not finished(minus).associative


# -- well-definedness ---------------------------------------------------------------

def test_audit_well_defined(th0_z2_3):
    x = th0_z2_3
    t = C.tau_table(x, vertex(x), 1)
    audit = C.audit_well_defined(x, vertex(x), t)
    assert audit.all_consistent
    assert audit.min_fillers >= 1
    assert len(audit.cells) == len(t.classes) ** 2


# -- associativity ------------------------------------------------------------------

def test_audit_rejects_another_base():
    # at vertex 1 of the arrow category every cell would look consistent
    x = C.th0(C.nerve(C.arrow_category(), 3))
    v0, v1 = x.underlying.simplices(0)
    table = C.tau_table(x, v0, 1)
    with pytest.raises(errors.InvalidInput,
                       match="audit at <0:1 .*> of a table computed at <0:0"):
        C.audit_well_defined(x, v1, table)


def test_audit_rejects_a_cap_below_the_product_horns(th0_z2_4):
    v = vertex(th0_z2_4)
    table = C.tau_table(th0_z2_4, v, 3)
    low = C.th0(C.nerve(C.cyclic_group(2), 3))
    with pytest.raises(errors.InvalidInput,
                       match=r"audit at n = 3 needs cap >= 4"):
        C.audit_well_defined(low, v, table)


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


# -- the batched loops against the reference ----------------------------------

def mostly_thin(data, cap):
    """The nerve of Z3 or of Bool at ``cap``, its edges thin at random and
    all above them thin but a few, so that most product horns have fillers
    and the relation still varies."""
    u = C.nerve(data.draw(st.sampled_from([C.cyclic_group(3),
                                           C.boolean_monoid()])), cap)
    edges = u.nondegenerate(1)
    marks = data.draw(st.lists(st.booleans(), min_size=len(edges),
                               max_size=len(edges)))
    higher = [s for n in range(2, cap + 1) for s in u.nondegenerate(n)]
    dropped = data.draw(st.lists(st.sampled_from(higher), max_size=3))
    return C.make_stratified(u, [e for e, m in zip(edges, marks) if m] + [
        s for s in higher if s not in dropped])


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_batched_loops_match_per_pair_loops_on_random_stratifications(data):
    x = mostly_thin(data, 3)
    check_tau(x, vertex(x), data.draw(st.integers(1, 2)))


@pytest.mark.parametrize("n", [1, 2])
def test_batched_loops_match_per_pair_loops_on_qcat_s3(s3, n):
    x = C.quasicat_e(C.nerve(s3, 3))
    table = check_tau(x, vertex(x), n)
    assert table.is_group and len(table.classes) == (6 if n == 1 else 1)


def test_batched_loops_match_per_pair_loops_at_n_3(th0_z2_4):
    table = check_tau(th0_z2_4, vertex(th0_z2_4), 3)
    assert table.is_group and len(table.classes) == 1


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_batched_loops_match_per_pair_loops_on_random_stratifications_at_cap_4(
        data):
    x = mostly_thin(data, 4)
    check_tau(x, vertex(x), data.draw(st.integers(1, 3)))


def two_homotopies(drop=()):
    """One vertex and the loops c (constant), b and a.  Thin triangles:
    the degenerate ones; (c, b, a), twice, and (a, b, c), which make more
    homotopies from a to a, through the wall b; and (b, c, b), (a, c, a),
    (b, c, a) and (a, c, b), so that every product horn of the loops
    fills.  One triangle, (c, c, a), is not thin: it would make a homotopy
    from a to c.  Triangles are given by their faces (d0, d1, d2); those
    in ``drop`` are left out."""
    c, b, a = 0, 1, 2
    triangles = [t for t in [(c, c, c), (b, b, c), (c, b, b), (a, a, c),
                             (c, a, a), (c, b, a), (a, b, c), (b, c, b),
                             (a, c, a), (b, c, a), (a, c, b), (c, b, a),
                             (c, c, a)]
                 if t not in drop]
    u = C.build_sset(2, [1, 3, len(triangles)], [[], [(0, 0)] * 3, triangles],
                     [[(c,)], [(0, 0), (1, 2), (3, 4)], []])
    return C.make_stratified(u, u.simplices(1) + u.simplices(2)[:-1])


def homotopy_count(x, p, q, n):
    """The number of homotopies from ``p`` to ``q`` rel boundary at the
    first vertex, by the reference."""
    return len(reference.homotopies(x, vertex(x).index, n, p.index, q.index))


def test_first_homotopy_is_chosen_among_several():
    x = two_homotopies()
    a, b = x.underlying.id_at(1, 2), x.underlying.id_at(1, 1)
    assert homotopy_count(x, a, a, 1) == 3
    table = check_tau(x, vertex(x), 1)
    assert table.classes == ((x.underlying.id_at(1, 0),), (b, a))
    # the first homotopy runs through the wall b, the least, and not a, and
    # takes the least of the two thin triangles (c, b, a)
    tops = {x.underlying.id_at(2, 5), x.underlying.id_at(2, 6)}
    assert set(table.witnesses[(a, a)]) == tops


# -- the table and the audit from one filler lookup --------------------------------

def test_a_representative_pair_with_no_filler_raises_the_tables_error():
    # (b, c, b) was the one filler of the product horn of b with itself
    x = two_homotopies(drop=[(1, 0, 1)])
    v = vertex(x)
    message = "no filler for the multiplication horn of <1:1>, <1:1>"
    for run in (lambda: C.tau_table(x, v, 1),
                lambda: homotopy._tau(x, v, 1, True)):
        with pytest.raises(errors.NoFiller) as info:
            run()
        assert str(info.value) == message


@pytest.mark.parametrize("dropped", [(2, 0, 2), (2, 0, 1), (1, 0, 2)])
def test_another_pair_with_no_filler_raises_the_audits_error(dropped):
    # the class (b, a) has the representative b: every pair of cell (1, 1)
    # but (b, b) is another pair, and the table is still made
    x = two_homotopies(drop=[dropped])
    v = vertex(x)
    table = C.tau_table(x, v, 1)
    assert [len(c) for c in table.classes] == [1, 2]
    for run in (lambda: C.audit_well_defined(x, v, table),
                lambda: homotopy._tau(x, v, 1, True)):
        with pytest.raises(errors.NoFiller) as info:
            run()
        assert str(info.value) == "no filler at cell (1, 1)"


def test_a_product_that_is_no_sphere_element_is_refused(monkeypatch):
    # at vertex 0 of the arrow category the only loop is the constant; every
    # product horn is made to have a filler whose face 1 is the arrow
    x = C.th0(C.nerve(C.arrow_category(), 2))
    u, v = x.underlying, vertex(x)
    table = C.tau_table(x, v, 1)
    arrow = next(e for e in u.simplices(1)
                 if u.face(e, 0) != u.face(e, 1))
    stray = u.face_columns[2][1].index(arrow.index)
    monkeypatch.setattr(homotopy, "_batch_fillers",
                        lambda x, k, n, rows: [[stray] for _ in rows])
    product = f"product {arrow!r} is not a sphere element"
    for run in (lambda: C.tau_table(x, v, 1),
                lambda: homotopy._tau(x, v, 1, True)):
        with pytest.raises(errors.InvalidInput, match=product):
            run()
    with pytest.raises(errors.InvalidInput,
                       match=f"{arrow!r} is not a sphere element of this "
                             "table"):
        C.audit_well_defined(x, v, table)


@pytest.mark.parametrize("found, error", [
    # pairs (c, c), then (c, b), (c, a), then (b, c), (a, c), ...: the
    # first pair either has no filler or a face outside every class
    ([[0], [], [3]] + [[0]] * 6, "no filler at cell (0, 1)"),
    ([[0], [3, 5], []] + [[0]] * 6,
     "<1:1> is not a sphere element of this table"),
    ([[0], [0], [0], [], [3]] + [[0]] * 4, "no filler at cell (1, 0)"),
])
def test_the_audit_reads_the_pairs_in_order(found, error):
    # the loop b is taken out of every class, so a filler whose face 1 is
    # b is a stray; the audit raises for whichever comes first
    x = two_homotopies()
    u = x.underlying
    table = C.tau_table(x, vertex(x), 1)
    position = homotopy._positions(u, 1, table.classes)
    position[1] = None
    faces = u.face_columns[2][1]
    assert [faces[w] for w in (0, 3, 5)] == [0, 2, 1]
    with pytest.raises((errors.NoFiller, errors.InvalidInput),
                       match=re.escape(error)):
        homotopy._audit(u, 1, table, position, [1, 2, 2, 4], found)


def test_the_audit_by_columns_on_several_members():
    # the fillers of cell (1, 1) land in the class of c, not of (b, a);
    # the counts are summed over the pairs of a cell
    x = two_homotopies()
    u = x.underlying
    table = C.tau_table(x, vertex(x), 1)
    found = [[0], [0], [0, 0], [0], [0], [0], [0, 0, 0], [0], [0]]
    report = homotopy._audit(u, 1, table, homotopy._positions(
        u, 1, table.classes), [1, 2, 2, 4], found)
    assert [(c.row, c.col, c.pairs_tested, c.fillers_tested)
            for c in report.cells] == [(0, 0, 1, 1), (0, 1, 2, 3),
                                       (1, 0, 2, 2), (1, 1, 4, 6)]
    assert [c.consistent for c in report.cells] == [
        table.table[i][j] == 0 for i in range(2) for j in range(2)]
    assert report.min_fillers == 1
    assert not report.all_consistent


def test_the_audit_refuses_a_table_of_another_complex():
    # an S3 table on Z2 was an IndexError, and a Z2 table on S3 audited
    # as consistent over its 4 cells
    z2, s3 = (C.th0(C.nerve(g, 2)) for g in (C.cyclic_group(2),
                                             C.symmetric_group_3()))
    for x, y in ((z2, s3), (s3, z2)):
        v = vertex(x)
        table = C.tau_table(y, vertex(y), 1)
        with pytest.raises(errors.InvalidInput,
                           match="elements are not the sphere elements"):
            C.audit_well_defined(x, v, table)
        assert C.audit_well_defined(y, vertex(y), table).all_consistent


def test_sphere_witnesses_are_validated(monkeypatch, th0_z2_3):
    # every witness row moved off its top simplex, to the next one of its
    # dimension, whose faces differ: the batch validation must raise
    x = th0_z2_3
    v = vertex(x)
    assert C.sphere_relation(x, v, 1)[2]
    rebuild = homotopy._SphereHomotopy._witness_rows

    def corrupted(self, pairs, solutions):
        batch = rebuild(self, pairs, solutions)
        top = self.links[0].top
        row = batch[0][self.n + 1]
        row[top] = (row[top] + 1) % x.counts[self.n + 1]
        return batch

    monkeypatch.setattr(homotopy._SphereHomotopy, "_witness_rows", corrupted)
    with pytest.raises(errors.NotWellDefined):
        C.sphere_relation(x, v, 1)
    with pytest.raises(errors.NotWellDefined):
        C.tau_table(x, v, 1)


def test_the_relation_asks_only_for_related_pairs(monkeypatch, th0_s3_3):
    # each row is read off the set reachable from its element, so the
    # witnesses are built for the related pairs alone, not for all size**2
    x = th0_s3_3
    v = vertex(x)
    asked = []
    homotopies = homotopy._SphereHomotopy.homotopies

    def spy(self, pairs):
        asked.append(list(pairs))
        return homotopies(self, pairs)

    monkeypatch.setattr(homotopy._SphereHomotopy, "homotopies", spy)
    elements, rel, _ = C.sphere_relation(x, v, 1)
    related = [(i, j) for i, row in enumerate(rel)
               for j, r in enumerate(row) if r]
    assert asked == [related] and len(related) == len(elements) == 6
    C.tau_table(x, v, 1)
    assert asked[1] == related


@pytest.mark.parametrize("x, n", [("th0_s3_3", 1), ("th0_z2_4", 2)])
def test_the_cylinder_is_the_only_map_source(monkeypatch, request, x, n):
    # the pins read alpha, beta and the constant, so the relation builds no
    # classifying map: its one batch of maps is the witnesses, out of the
    # cylinder
    x = request.getfixturevalue(x)
    sources = []
    batch = homotopy.make_stratified_maps

    def spy(source, target, rows):
        sources.append(source)
        return batch(source, target, rows)

    monkeypatch.setattr(homotopy, "make_stratified_maps", spy)
    C.tau_table(x, vertex(x), n)
    cylinder = C.gproduct(C.delta(n, n + 1), C.delta_t(1, n + 1))
    assert sources and all(s == cylinder for s in sources)


def test_each_row_is_walked_once(monkeypatch, th0_s3_3):
    x = th0_s3_3
    rows = []
    row = homotopy._SphereHomotopy.row

    def spy(self, i):
        rows.append(i)
        return row(self, i)

    monkeypatch.setattr(homotopy._SphereHomotopy, "row", spy)
    elements = C.sphere_relation(x, vertex(x), 1)[0]
    assert rows == list(range(len(elements)))


def test_classifying_maps_match_the_reference(th0_z2_3):
    x = th0_z2_3
    u = x.underlying
    for n in (1, 2):
        for alpha in u.simplices(n):
            for cap in range(n, 4):
                f = C.classifying_map(x, alpha, cap)
                keys = C.delta(n, cap).underlying.keys
                assert f.map.assign == tuple(
                    tuple(reference.operate(u, n, alpha.index, key)
                          for key in keys[m]) for m in range(cap + 1))



def test_classifying_map_defaults_to_one_above_the_simplex(th0_z2_3):
    x = th0_z2_3
    u = x.underlying
    # one above, clipped to the target's cap
    for n, cap in ((1, 2), (2, 3), (3, 3)):
        alpha = u.id_at(n, 1)
        f = C.classifying_map(x, alpha)
        assert f.source == C.delta(n, cap)
        assert f == C.classifying_map(x, alpha, cap)
    for alpha, cap in ((u.id_at(2, 0), 1), (u.id_at(1, 0), 4)):
        with pytest.raises(errors.CapTooSmall, match=re.escape(
                f"cap {cap} unusable for a {alpha.dim}-simplex in cap 3")):
            C.classifying_map(x, alpha, cap)


@pytest.mark.parametrize("call, error, message", [
    (lambda x, v: C.sphere_elements(x, v, 0), errors.InvalidInput,
     "sphere elements need n >= 1"),
    (lambda x, v: C.sphere_elements(x, v, 4), errors.CapTooSmall,
     "cap 3 below n = 4"),
    (lambda x, v: C.tau0(C.delta(0, 0)), errors.CapTooSmall,
     "tau0 needs cap >= 1"),
    (lambda x, v: C.multiply(x, v, 3, v, v), errors.CapTooSmall,
     "multiplication at n = 3 needs cap >= 4"),
    (lambda x, v: C.associativity_witness(
        x, v, 2, *[C.sphere_elements(x, v, 2)[0]] * 3),
     errors.CapTooSmall, "the associativity horn needs cap >= 4"),
], ids=["sphere_elements-n", "sphere_elements-cap", "tau0", "multiply",
        "associativity_witness"])
def test_homotopy_entry_checks(th0_z2_3, call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call(th0_z2_3, vertex(th0_z2_3))


def test_inverses_need_an_associative_table(th0_z2_3):
    table = C.tau_table(th0_z2_3, vertex(th0_z2_3), 1)
    assert C.find_inverses(table) == (table.inverses, True)
    with pytest.raises(errors.InvalidInput,
                       match="inverse search needs an associative table"):
        C.find_inverses(replace(table, associative=False))


@pytest.mark.parametrize("bad", [1.0, "1", True])
@pytest.mark.parametrize("name, call", [
    ("n", lambda x, v, a, bad: C.tau_table(x, v, bad)),
    ("n", lambda x, v, a, bad: C.sphere_elements(x, v, bad)),
    ("n", lambda x, v, a, bad: C.multiply(x, v, bad, a, a)),
    ("cap", lambda x, v, a, bad: C.classifying_map(x, a, cap=bad)),
    ("bound", lambda x, v, a, bad: C.verify_weak_complicial(x, bad)),
    ("n", lambda x, v, a, bad: C.pi_oracle(x.underlying, v, bad)),
    ("bound", lambda x, v, a, bad: C.assert_kan(x.underlying, bad)),
    ("bound", lambda x, v, a, bad: C.assert_quasicategory(x.underlying, bad)),
    ("bound", lambda x, v, a, bad: C.quasicat_e(x.underlying, bound=bad)),
    ("bound", lambda x, v, a, bad: C.homotopy_category(x.underlying,
                                                       bound=bad)),
    ("bound", lambda x, v, a, bad: C.homotopy_category(
        x.underlying, bound=bad, assume_quasicategory=True)),
    ("k", lambda x, v, a, bad: list(C.horn_instances(bad, 2, x))),
    ("n", lambda x, v, a, bad: list(C.horn_instances(1, bad, x))),
], ids=["tau_table", "sphere_elements", "multiply", "classifying_map",
        "verify_weak_complicial", "pi_oracle", "assert_kan",
        "assert_quasicategory", "quasicat_e", "homotopy_category",
        "homotopy_category_assumed", "horn_instances_k",
        "horn_instances_n"])
def test_dimension_arguments_must_be_ints(th0_z2_3, name, call, bad):
    x = th0_z2_3
    v = vertex(x)
    a = x.underlying.id_for_key(1, (1,))
    with pytest.raises(errors.InvalidInput, match="^" + re.escape(
            f"{name} must be an integer, not {bad!r}") + "$"):
        call(x, v, a, bad)
