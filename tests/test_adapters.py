import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import adapters, documents as D, errors
from complicial.adapters import _pi_rows, _prism_program
from complicial.lifting import _horn_rows

from . import reference
from .conftest import (
    preorder_category, renumbered, transformation_table, vertex,
)


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


@pytest.mark.parametrize("table", [
    [["e", "a"], ["a", "e"], ["e", "a"]],   # a row more than elements
    [["e", "a"]],                           # a row fewer
    ["ea", "ae"],                           # rows given as strings
    [["e", "a"], "ae"],
    [["e", "a"], None],                     # a row that is no list
])
def test_monoid_table_must_be_square(table):
    with pytest.raises(errors.InvalidInput,
                       match="^multiplication table is not square$"):
        C.monoid_category(["e", "a"], "e", table)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_random_tables_accepted_iff_lawful(flat):
    table = [[str(flat[0]), str(flat[1])], [str(flat[2]), str(flat[3])]]
    m = [[flat[0], flat[1]], [flat[2], flat[3]]]
    unital = all(m[0][j] == j and m[j][0] == j for j in range(2))
    try:
        C.monoid_category(["0", "1"], "0", table)
        accepted = True
    except errors.InvalidInput:
        accepted = False
    assert accepted == (unital and reference.associative(m))


def triple_scan_error(morphisms, src, tgt, comp):
    """The message of ``make_category``'s former associativity check over
    every composable triple, in index order, or None."""
    nm = len(morphisms)
    for f in range(nm):
        for g in range(nm):
            if tgt[f] != src[g]:
                continue
            for h in range(nm):
                if tgt[g] != src[h]:
                    continue
                if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                    return ("composition is not associative at "
                            f"({morphisms[f]}, {morphisms[g]}, "
                            f"{morphisms[h]})")
    return None


def drawn_category(data):
    """The tables of a drawn category that passes every check but
    associativity.  Either a monoid of maps of a small set, with one
    composite of two morphisms other than the unit perhaps redrawn, or a
    few objects, each hom set between two distinct objects inhabited,
    composites with an identity forced and every other one drawn from its
    hom set.  The morphisms come in a drawn order."""
    if data.draw(st.booleans()):
        table = transformation_table(data, unit=True)
        m = range(len(table))
        unit = next(e for e in m if list(table[e]) == list(m))
        comp = {(f, g): table[f][g] for f in m for g in m}
        others = [(f, g) for f, g in comp if unit not in (f, g)]
        if others and data.draw(st.booleans()):
            comp[data.draw(st.sampled_from(others))] = data.draw(
                st.sampled_from(m))
        return (["*"], [f"m{i}" for i in m], [0] * len(table),
                [0] * len(table), [unit], comp)
    objects = range(data.draw(st.integers(1, 3)))
    ends = [(a, a) for a in objects]
    for a in objects:
        for c in objects:
            ends += [(a, c)] * data.draw(st.integers(int(a != c), 2))
    order = data.draw(st.permutations(range(len(ends))))
    src = [ends[i][0] for i in order]
    tgt = [ends[i][1] for i in order]
    identities = [order.index(a) for a in objects]
    comp = {}
    for f in range(len(order)):
        for g in range(len(order)):
            if tgt[f] != src[g]:
                continue
            if f in identities or g in identities:
                comp[(f, g)] = g if f in identities else f
            else:
                comp[(f, g)] = data.draw(st.sampled_from([
                    h for h in range(len(order))
                    if (src[h], tgt[h]) == (src[f], tgt[g])]))
    names = [f"m{i}" for i in range(len(order))]
    return [f"o{a}" for a in objects], names, src, tgt, identities, comp


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_make_category_decides_associativity_as_the_triple_scan(data):
    objects, names, src, tgt, identities, comp = drawn_category(data)
    want = triple_scan_error(names, src, tgt, comp)
    if want is None:
        C.make_category(objects, names, src, tgt, identities, comp)
    else:
        with pytest.raises(errors.InvalidInput) as info:
            C.make_category(objects, names, src, tgt, identities, comp)
        assert str(info.value) == want


def test_from_permutations_matches_its_table():
    # the composites are "p then q", named by value tuples in sorted order
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    s4 = C.from_permutations(gens)
    ordered = sorted(itertools.permutations(range(4)))
    assert s4.morphisms == tuple(",".join(map(str, p)) for p in ordered)
    assert s4.comp == {
        (i, j): ordered.index(tuple(q[p[v]] for v in range(4)))
        for i, p in enumerate(ordered) for j, q in enumerate(ordered)}
    assert s4.identities == (0,)
    assert C.from_permutations([()]).comp == {(0, 0): 0}


@pytest.mark.parametrize("objects, morphisms", [
    ([0, 1], ["i0", "i1", "a"]),
    (["0", "1"], ["i0", "i1", 2]),
])
def test_make_category_rejects_names_that_are_not_strings(objects, morphisms):
    with pytest.raises(errors.InvalidInput,
                       match="object and morphism names must be strings"):
        C.make_category(objects, morphisms, [0, 1, 0], [0, 1, 1], [0, 1],
                        {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2})


def test_from_permutations_s3():
    s3 = C.symmetric_group_3()
    assert len(s3.morphisms) == 6
    assert all(s3.is_iso(i) for i in range(6))


def test_from_permutations_bound():
    with pytest.raises(errors.InvalidInput):
        C.from_permutations([(1, 2, 0)], bound=2)


@pytest.mark.parametrize("generators", [
    [[1.0, 0.0]], [[True, False]], [[1, 0], [False, True]], ["ab"], "ab",
    [["1", "0"]],
])
def test_from_permutations_takes_only_int_entries(generators):
    with pytest.raises(errors.InvalidInput, match=(
            r"^permutation generator .* is not a permutation of the ints")):
        C.from_permutations(generators)


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


def test_nerve_makes_keys_and_labels_on_first_use():
    c = C.symmetric_group_3()
    ref = reference.nerve(c, 3)
    chains = ref.keys
    u = C.nerve(c, 3)

    def made():
        return [n for n in range(4) if u.keys._slots[n] is not None]

    assert made() == [] and u._labels._slots == [None] * 4
    assert u.key_of(C.SimplexId(2, 5)) == chains[2][5]
    assert made() == [2]
    assert u.id_for_key(3, chains[3][7]).index == 7
    assert made() == [2, 3]
    assert u.keys[1] == tuple(chains[1]) and u.keys[0] == tuple(chains[0])
    assert made() == [0, 1, 2, 3]
    assert [u.label_column(n) for n in range(4)] == \
        [ref.label_column(n) for n in range(4)]


def assert_nerve_matches_reference(c, cap):
    u, ref = C.nerve(c, cap), reference.nerve(c, cap)
    assert u == ref and u.keys == ref.keys
    assert [u.label_column(n) for n in range(cap + 1)] == \
        [ref.label_column(n) for n in range(cap + 1)]
    assert [s.label for s in u.all_simplices()] == \
        [s.label for s in ref.all_simplices()]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(range(3)), min_size=1, max_size=2)
       | st.lists(st.permutations(range(4)), min_size=1, max_size=1),
       st.integers(0, 4))
def test_column_nerve_matches_chain_construction(generators, cap):
    c = C.from_permutations(generators)
    assert_nerve_matches_reference(c, cap if len(c.morphisms) <= 6 else 3)


@pytest.mark.parametrize("category", [
    C.arrow_category(), preorder_category([(0, 1), (1, 2)]),
    C.boolean_monoid(), C.trivial_monoid()],
    ids=["arrow", "poset2", "bool", "trivial"])
@pytest.mark.parametrize("cap", range(6))
def test_column_nerve_matches_chain_construction_on_categories(category, cap):
    assert_nerve_matches_reference(category, cap)


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


def scan_homotopy_category(c):
    """The homotopy category of ``c``, each composite found by a scan of
    every 2-simplex per pair of edge classes; the first error raised, as a
    (type, message) pair, if there is one."""
    from complicial.adapters import _edge_classes, make_category

    classes = _edge_classes(c)
    cls_of = {e: i for i, cl in enumerate(classes) for e in cl}
    src = tuple(c.face(cl[0], 1).index for cl in classes)
    tgt = tuple(c.face(cl[0], 0).index for cl in classes)
    comp = {}
    for i in range(len(classes)):
        for j in range(len(classes)):
            if tgt[i] != src[j]:
                continue
            composites = {
                cls_of[c.face(sigma, 1)]
                for sigma in c.simplices(2)
                if cls_of[c.face(sigma, 2)] == i
                and cls_of[c.face(sigma, 0)] == j
            }
            if not composites:
                return ("NotQuasiCategory",
                        f"no composite for classes {i} and {j}")
            if len(composites) > 1:
                return ("NotQuasiCategory", f"composition of classes {i} "
                        f"and {j} is not well defined")
            comp[(i, j)] = composites.pop()
    return make_category(
        tuple(v.label if v.label is not None else str(v.index)
              for v in c.simplices(0)),
        tuple(f"1:{cl[0].index}" for cl in classes), src, tgt,
        tuple(cls_of[c.degeneracy(v, 0)] for v in c.simplices(0)), comp)


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("category", [
    C.cyclic_group(3), C.boolean_monoid(), C.arrow_category(),
    C.symmetric_group_3(),
], ids=["Z3", "Bool", "arrow", "S3"])
def test_homotopy_category_matches_a_scan_per_pair(category, cap):
    n = C.nerve(category, cap)
    assert C.homotopy_category(n) == scan_homotopy_category(n)


def two_composites():
    """Two 2-simplices (g, h, f) and (g, k, f) on edges f: 0 -> 1,
    g: 1 -> 2 and h, k: 0 -> 2, with all their degeneracies."""
    edges = [(0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (2, 0), (2, 0)]
    triangles = [(v, v, v) for v in range(3)]
    for e in range(3, 7):
        target, source = edges[e]
        triangles += [(e, e, source), (target, e, e)]  # s_0 e, s_1 e
    triangles += [(4, 5, 3), (4, 6, 3)]
    degeneracies = [(v, v) for v in range(3)] \
        + [(2 * e - 3, 2 * e - 2) for e in range(3, 7)]
    return C.build_sset(2, [3, 7, 13], [[], edges, triangles],
                        [[(v,) for v in range(3)], degeneracies, []])


@pytest.mark.parametrize("complex_, message", [
    (C.boundary(2, 2).underlying, "no composite for classes 1 and 4"),
    (two_composites(), "composition of classes 3 and 4 is not well defined"),
])
def test_homotopy_category_raises_the_first_error_of_a_scan_per_pair(
        complex_, message):
    with pytest.raises(errors.NotQuasiCategory) as info:
        C.homotopy_category(complex_, assume_quasicategory=True)
    assert str(info.value) == message
    assert scan_homotopy_category(complex_) == ("NotQuasiCategory", message)


def test_homotopy_category_point():
    hc = C.homotopy_category(C.nerve(C.trivial_monoid(), 2))
    assert len(hc.objects) == 1 and len(hc.morphisms) == 1


def test_horn_checks_above_the_cap_raise():
    k = C.nerve(C.cyclic_group(2), 2)
    for check in (C.assert_quasicategory, C.assert_kan):
        with pytest.raises(errors.CapTooSmall):
            check(k, 3)


def test_homotopy_category_needs_quasicategory():
    k = C.boundary(2, 2).underlying
    with pytest.raises(errors.NotQuasiCategory) as info:
        C.homotopy_category(k)
    # the first unfillable inner horn, as the solver-based check named it
    assert str(info.value) == ("inner horn (k, n) = (1, 2) unfillable at "
                               "{0: <1:4 (1, 2)>, 2: <1:1 (0, 1)>}")


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


def test_quasicat_e_computes_the_edge_classes_once(monkeypatch):
    n = C.nerve(C.symmetric_group_3(), 2)
    want = C.quasicat_e(n)
    calls = []
    edge_classes = adapters._edge_classes

    def counted(c):
        calls.append(c)
        return edge_classes(c)

    monkeypatch.setattr(adapters, "_edge_classes", counted)
    assert C.quasicat_e(n) == want
    assert calls == [n]


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


def test_pi_oracle_checks_the_base_at_entry(nerve_z2_3):
    for base in (C.SimplexId(0, 5), C.SimplexId(1, 0)):
        with pytest.raises(errors.InvalidInput) as info:
            C.pi_oracle(nerve_z2_3, base, 1)
        assert str(info.value) == f"{base!r} is not a vertex of the complex"


def test_pi_oracle_payload_is_pinned(s3):
    # digest of the payload written before the prism search was indexed
    k = C.nerve(s3, 2)
    text = D.dumps(D.table_payload(C.pi_oracle(k, k.id_at(0, 0), 1)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e9bde23fd50f21596db71eb3eaa4b755e97a9ad96e18b0a7ee3b75d8abe55d4d"


def test_agreement_tau_vs_pi_on_s5():
    # 120 classes, and a group that is not commutative
    k = C.nerve(C.from_permutations([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]), 2)
    v = k.id_at(0, 0)
    t = C.tau_table(C.th0(k), v, 1)
    p = C.pi_oracle(k, v, 1)
    assert len(p.classes) == 120 and p.is_group and not p.commutative
    assert (t.classes, t.unit, t.table, t.inverses, t.commutative) == \
        (p.classes, p.unit, p.table, p.inverses, p.commutative)


@pytest.fixture(scope="module")
def bent_loop():
    """Loops a and b at one vertex and one 2-simplex (s_0 v, b, a): a
    homotopy from a to b rel boundary, and none from b to a."""
    return C.build_sset(2, [1, 3, 6], [
        [], [[0, 0]] * 3,
        [[0, 0, 0], [1, 1, 0], [0, 1, 1], [2, 2, 0], [0, 2, 2], [0, 2, 1]],
    ], [[[0]], [[0, 0], [1, 2], [3, 4]], []])


@pytest.mark.parametrize("fixture, n", [
    ("nerve_z3_3", 1), ("nerve_z2_4", 2), ("nerve_z2_4", 3),
    ("nerve_s3_3", 1), ("nerve_bool_3", 1), ("nerve_bool_3", 2),
    ("bent_loop", 1),
])
def test_indexed_prism_search_matches_full_scan(request, fixture, n):
    # each oracle row, one prism search with beta left free, is what the
    # reference's full scan relates its element to; every pair of sphere
    # elements, on groups, on a monoid that is not one and on a relation
    # that is not symmetric
    k = request.getfixturevalue(fixture)
    base = k.id_at(0, 0)
    const = k.const(base, n - 1).index
    elements = [s for s in k.simplices(n)
                if {col[s.index] for col in k.face_columns[n]} == {const}]
    # every map into the maximal stratification is stratified
    x = C.max_strat(k)
    rows = _pi_rows(k, base, n, elements)
    assert rows == [[j for j, q in enumerate(elements)
                     if reference.homotopies(x, 0, n, p.index, q.index)]
                    for p in elements]
    if fixture == "bent_loop":
        assert rows == [[0], [1, 2], [2]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prism_reads_each_element_once(n):
    # alpha and beta are each one face of one unknown, and no unknown
    # reads a top cell, so the beta cell can be left to a lookup
    program = _prism_program(n)
    reads = [(q, kind) for q, (_, faces) in enumerate(program)
             for kind, _ in faces if kind in ("alpha", "beta")]
    assert sorted(kind for _, kind in reads) == ["alpha", "beta"]
    assert len({q for q, _ in reads}) == 2
    top = [q for q, (m, _) in enumerate(program) if m == n + 1]
    assert not [what for _, faces in program for kind, what in faces
                if kind == "cell" and what in top]


def test_pi_oracle_reads_no_end_values(monkeypatch, s3):
    k = C.nerve(s3, 2)
    calls = []
    monkeypatch.setattr(C.TruncatedSSet, "apply_monotone",
                        lambda *args: calls.append(args))
    C.pi_oracle(k, k.id_at(0, 0), 1)
    assert calls == []


def test_simplicial_horn_tuples_match_brute_force(nerve_z3_3):
    for n in range(1, 4):
        for hk in range(n + 1):
            js = [j for j in range(n + 1) if j != hk]
            assert list(_horn_rows(nerve_z3_3, js, n, None)) == \
                reference.horn_tuples(nerve_z3_3, hk, n), (hk, n)


def check_horn_instances(x):
    """``horn_instances`` against the reference's stratified horns at every
    (k, n) within the cap."""
    u = x.underlying
    for n in range(1, x.cap + 1):
        for hk in range(n + 1):
            js = [j for j in range(n + 1) if j != hk]
            instances = list(C.horn_instances(hk, n, x))
            assert all(list(faces) == js for faces in instances)
            assert [tuple(s.index for s in faces.values())
                    for faces in instances] == \
                reference.horn_tuples(u, hk, n, x.thin_indexes()), (hk, n)


def test_horn_instances_match_brute_force(qcat_bool_3):
    check_horn_instances(qcat_bool_3)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_horn_instances_match_brute_force_on_random_stratifications(data):
    # thinness prunes each horn position on its own, so draw thin sets
    # that cut some faces and not others
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.symmetric_group_3()]))
    u = renumbered(C.nerve(category, 3), data)
    cells = [s for n in range(1, 4) for s in u.nondegenerate(n)]
    marks = data.draw(st.lists(st.booleans(), min_size=len(cells),
                               max_size=len(cells)))
    check_horn_instances(
        C.make_stratified(u, [s for s, m in zip(cells, marks) if m]))
