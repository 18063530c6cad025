import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from itertools import chain

import complicial as C
from complicial import documents as D, errors, homotopy
from complicial.strat import make_stratified_maps


def nondeg_thin_keys(x):
    u = x.underlying
    return sorted(
        u.keys[s.dim][s.index]
        for s in x.thin if not u.is_degenerate(s)
    )


def test_make_stratified_closes_degenerates():
    d1u = C.delta(1, 2).underlying
    x = C.make_stratified(d1u, ())
    for n in range(1, 3):
        for s in d1u.simplices(n):
            assert x.is_thin(s) == d1u.is_degenerate(s)


def test_delta1_t_marks_only_top():
    x = C.delta_t(1, 1)
    assert nondeg_thin_keys(x) == [(0, 1)]


def test_thin_vertex_rejected():
    d1u = C.delta(1, 1).underlying
    with pytest.raises(errors.ThinVertex):
        C.make_stratified(d1u, [d1u.id_at(0, 0)])


@pytest.mark.parametrize("u", [
    C.nerve(C.boolean_monoid(), 3), C.nerve(C.arrow_category(), 3),
    C.delta(2, 3).underlying], ids=["nerve_bool", "nerve_arrow", "delta_2"])
def test_index_stratifications_match_make_stratified(u):
    # max_strat and gproduct mark thin simplices by index; make_stratified
    # of the same simplices as ids is the reference
    every = [s for n in range(1, u.dim_cap + 1) for s in u.simplices(n)]
    assert C.max_strat(u) == C.make_stratified(u, every)
    x, y = C.min_strat(u), C.delta_t(1, u.dim_cap)
    for a, b in ((x, y), (y, x), (C.max_strat(u), y)):
        p = C.gproduct(a, b)
        pu, au, bu = p.underlying, a.underlying, b.underlying
        pairs = [pu.id_for_key(n, (au.key_of(s), bu.key_of(t)))
                 for n in range(1, p.cap + 1)
                 for s in a.thin_in_dim(n) for t in b.thin_in_dim(n)]
        assert p == C.make_stratified(pu, pairs)
        assert p.thin == frozenset(pairs) | {
            s for n in range(1, p.cap + 1) for s in pu.simplices(n)
            if pu.is_degenerate(s)}


def test_min_max_on_point():
    pt = C.delta(0, 2).underlying
    assert C.min_strat(pt) == C.max_strat(pt)


def test_max_strat_counts():
    x = C.max_strat(C.delta(2, 2).underlying)
    assert len(x.thin) == x.counts[1] + x.counts[2]


def test_min_strat_nerve_matches_degeneracy_scan(nerve_z2_3):
    x = C.min_strat(nerve_z2_3)
    for n in range(1, 4):
        for s in nerve_z2_3.simplices(n):
            assert x.is_thin(s) == nerve_z2_3.is_degenerate(s)


def test_stratification_axioms_hold_everywhere(th0_s3_3, qcat_bool_3):
    for x in (th0_s3_3, qcat_bool_3):
        u = x.underlying
        for v in u.simplices(0):
            assert v not in x.thin
        for n in range(1, x.cap + 1):
            for s in u.simplices(n):
                if u.is_degenerate(s):
                    assert s in x.thin


# -- regular subsets -----------------------------------------------------------

def test_regular_subset_of_complicial_simplex():
    cd = C.complicial_delta(1, 2, 2)
    u = cd.underlying
    sub, inc = C.regular_subset(
        cd, [u.id_for_key(1, (1, 2)), u.id_for_key(1, (0, 1))]
    )
    horn, _ = C.complicial_horn(1, 2, 2)
    assert sub == horn
    assert nondeg_thin_keys(sub) == []
    # inclusion preserves keys
    for n in range(3):
        for s in sub.simplices(n):
            assert cd.underlying.key_of(inc(s)) == sub.underlying.key_of(s)


def test_regular_subset_on_all_top_simplices_is_identity(nerve_z2_3):
    x = C.th0(nerve_z2_3)
    sub, _ = C.regular_subset(x, x.simplices(3))
    assert sub == x


def test_zero_horn_contains_thin_edge():
    cd = C.complicial_delta(0, 2, 2)
    u = cd.underlying
    sub, _ = C.regular_subset(
        cd, [u.id_for_key(1, (0, 2)), u.id_for_key(1, (0, 1))]
    )
    assert (0, 1) in nondeg_thin_keys(sub)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_regular_subset_idempotent_and_monotone(data):
    x = C.complicial_delta(1, 3, 3)
    pool = [s for n in range(4) for s in x.simplices(n)]
    small = data.draw(st.sets(st.sampled_from(pool), max_size=4), label="gens")
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=3), label="more")
    sub1, inc1 = C.regular_subset(x, small)
    sub2, inc2 = C.regular_subset(x, small | extra)
    members1 = {inc1(s) for n in range(4) for s in sub1.simplices(n)}
    members2 = {inc2(s) for n in range(4) for s in sub2.simplices(n)}
    assert members1 <= members2
    again, _ = C.regular_subset(sub1, [s for n in range(4)
                                       for s in sub1.simplices(n)])
    assert again == sub1


def closure_by_ids(x, generators):
    """The simplices of the regular subset, closed one id at a time."""
    u = x.underlying
    member, stack = set(), list(generators)
    while stack:
        s = stack.pop()
        if s not in member:
            member.add(s)
            if s.dim >= 1:
                stack += [u.face(s, i) for i in range(s.dim + 1)]
            if s.dim < u.dim_cap:
                stack += [u.degeneracy(s, i) for i in range(s.dim + 1)]
    return sorted(member)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_regular_subset_closes_like_the_id_worklist(data):
    x = data.draw(st.sampled_from([
        C.complicial_delta(1, 3, 3), C.th0(C.nerve(C.cyclic_group(2), 3)),
        C.gproduct(C.delta_t(1, 2), C.delta(2, 2))]))
    pool = [s for n in range(x.cap + 1) for s in x.simplices(n)]
    gens = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    sub, inc = C.regular_subset(x, gens)
    assert [inc(s) for n in range(sub.cap + 1) for s in sub.simplices(n)] \
        == closure_by_ids(x, gens)
    assert all(sub.is_thin(s) == x.is_thin(inc(s))
               for n in range(sub.cap + 1) for s in sub.simplices(n))


@pytest.mark.parametrize("g", [C.SimplexId(9, 0), C.SimplexId(1, 99),
                               C.SimplexId(-1, 0), C.SimplexId(1, -1)])
def test_regular_subset_rejects_a_generator_outside_the_complex(g):
    with pytest.raises(errors.InvalidInput,
                       match="is not a simplex of the complex"):
        C.regular_subset(C.delta(2, 2), [g])


# -- products -------------------------------------------------------------------

def test_gproduct_with_point_is_isomorphic(th0_z2_3):
    pt = C.delta(0, 3)
    p = C.gproduct(pt, th0_z2_3)
    assert p.counts == th0_z2_3.counts
    assert len(p.thin) == len(th0_z2_3.thin)


def test_gproduct_thinness_is_componentwise():
    a = C.delta_t(1, 2)
    b = C.complicial_delta(0, 2, 2)
    p = C.gproduct(a, b)
    au, bu, pu = a.underlying, b.underlying, p.underlying
    for n in range(p.cap + 1):
        for i in range(au.counts[n]):
            for j in range(bu.counts[n]):
                s = pu.id_at(n, i * bu.counts[n] + j)
                assert p.is_thin(s) == (
                    a.is_thin(au.id_at(n, i)) and b.is_thin(bu.id_at(n, j))
                )


def test_shuffles_of_min_delta_with_interval_are_thin():
    for n in (1, 2):
        p = C.gproduct(C.delta(n, n + 1), C.delta_t(1, n + 1))
        tops = p.nondegenerate(n + 1)
        assert len(tops) == n + 1
        assert all(p.is_thin(s) for s in tops)


def test_interval_square_diagonal_thin():
    p = C.gproduct(C.delta_t(1, 2), C.delta_t(1, 2))
    diag = p.underlying.id_for_key(1, ((0, 1), (0, 1)))
    assert p.is_thin(diag)
    # both nondegenerate 2-cells have degenerate (hence thin) components
    assert all(p.is_thin(s) for s in p.nondegenerate(2))


def keyless(x):
    """``x`` as read back from its document: the same tables and thin
    simplices, no keys."""
    return D.doc_to_complex(D.complex_to_doc(x))


def points(*keys):
    return C.min_strat(C.build_sset(0, [len(keys)], [[]], [[]],
                                    keys=[list(keys)]))


awkward = points("plain", "it's", 'say "hi"', "back\\slash", "é→😀",
                 "tab\t", "\x00", 7, (1, "a"))


@pytest.mark.parametrize("factors", [
    (keyless(C.delta_t(1, 2)), keyless(C.th0(C.nerve(C.cyclic_group(2), 2)))),
    (C.min_strat(C.nerve(C.symmetric_group_3(), 2)),
     C.delta_t(1, 2)),
    (awkward, awkward),
    (awkward, keyless(awkward)),
    (C.gproduct(C.delta_t(1, 1), awkward),
     C.gproduct(awkward, C.th0(C.nerve(C.cyclic_group(2), 1)))),
], ids=["keyless", "nerve-delta_t", "escaped", "escaped-keyless",
        "of-products"])
def test_product_labels_are_str_of_the_pair_keys(factors):
    u = C.gproduct(*factors).underlying
    for n in range(u.dim_cap + 1):
        assert u.label_column(n) == tuple(map(str, u.keys[n]))
    assert [s.label for s in u.ids[0]] == list(map(str, u.keys[0]))


def test_product_makes_keys_and_labels_on_first_use():
    x = C.th0(C.nerve(C.symmetric_group_3(), 3))
    y = C.delta_t(1, 3)
    xu, yu = x.underlying, y.underlying
    u = C.gproduct(x, y).underlying

    def made(w):
        return [n for n in range(4) if w.keys._slots[n] is not None]

    assert made(u) == made(xu) == [] and u._labels._slots == [None] * 4
    # the reference, eagerly: every pair of the factors' keys
    want = [[(a, b) for a in xu.keys[n] for b in yu.keys[n]]
            for n in range(4)]
    assert made(u) == []
    assert u.key_of(u.id_at(3, 100)) == want[3][100]
    assert made(u) == [3]
    assert u.id_for_key(2, want[2][41]) == u.id_at(2, 41)
    assert made(u) == [2, 3]
    assert list(map(list, u.keys)) == want
    assert [u.label_column(n) for n in range(4)] == \
        [tuple(map(str, per_dim)) for per_dim in want]


def test_a_used_complex_is_freed_without_the_cycle_collector():
    # every store's maker closes over columns and counts, not over the
    # complex, so reference counting alone frees a complex once dropped
    x = C.th0(C.nerve(C.cyclic_group(3), 3))
    refs = []
    gc.disable()
    try:
        for u in (C.nerve(C.cyclic_group(3), 3), C.gproduct(x, x).underlying,
                  C.regular_subset(x, [x.underlying.id_at(2, 4)])[0]
                  .underlying):
            for n in range(u.dim_cap + 1):
                u.keys[n], u.label_column(n), u.ids[n]
                u.face_index(n), u.deg_witness[n]
                u.id_for_key(n, u.key_of(u.id_at(n, 0)))
            refs.append(weakref.ref(u))
            del u
        assert [r() for r in refs] == [None] * 3
    finally:
        gc.enable()


def test_tau_table_makes_no_labels_for_its_cylinders(monkeypatch):
    # a cylinder's labels, which its ids would carry, are never made
    cylinders = []
    gproduct = C.gproduct

    def recording_gproduct(x, y):
        p = gproduct(x, y)
        cylinders.append(p.underlying)
        return p

    monkeypatch.setattr(homotopy, "gproduct", recording_gproduct)
    for x, n in ((C.th0(C.nerve(C.symmetric_group_3(), 2)), 1),
                 (C.th0(C.nerve(C.cyclic_group(2), 3)), 2)):
        v = x.underlying.id_at(0, 0)
        homotopy.audit_well_defined(x, v, homotopy.tau_table(x, v, n))
    assert len(cylinders) == 2
    assert all(c._labels._slots == [None] * (c.dim_cap + 1)
               for c in cylinders)


# -- stratified maps -----------------------------------------------------------

def test_thinness_violation_detected():
    src = C.delta_t(1, 1)
    tgt = C.delta(1, 1)
    ident = C.identity_map(src.underlying)
    with pytest.raises(errors.ThinnessViolation):
        C.make_stratified_map(src, tgt, ident)
    C.make_stratified_map(tgt, src, ident)  # the other direction is fine


def test_composition_of_stratified_maps_is_stratified(th0_z2_3):
    x = th0_z2_3
    horn, inc = C.complicial_horn(1, 2, 2)
    d = C.complicial_delta(1, 2, 2)
    collapse = C.make_stratified_map(
        d, x,
        C.build_map(
            d.underlying, x.underlying,
            {s: x.underlying.const(x.underlying.id_at(0, 0), s.dim)
             for n in range(3) for s in d.underlying.nondegenerate(n)},
        ),
    )
    composite = inc.then(collapse)
    # explicit re-validation from scratch
    C.make_stratified_map(horn, x, composite.map)


def per_simplex_stratification(x, thin):
    """make_stratified one simplex id at a time, checks in set order."""
    thin_set = set(thin)
    for t in thin_set:
        if not (0 <= t.dim <= x.dim_cap and 0 <= t.index < x.counts[t.dim]):
            raise errors.InvalidInput(f"{t!r} is not a simplex of the complex")
        if t.dim == 0:
            raise errors.ThinVertex(f"vertex {t!r} cannot be thin")
    for n in range(1, x.dim_cap + 1):
        thin_set.update(s for s in x.simplices(n) if x.is_degenerate(s))
    return frozenset(x.id_at(t.dim, t.index) for t in thin_set)


@given(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 12)),
                max_size=8))
def test_make_stratified_matches_per_simplex_checks(pairs):
    u = C.nerve(C.cyclic_group(2), 3)
    thin = [C.SimplexId(n, i) for n, i in pairs]
    try:
        want = per_simplex_stratification(u, thin)
    except errors.ComplicialError as exc:
        with pytest.raises(type(exc)) as got:
            C.make_stratified(u, thin)
        assert str(got.value) == str(exc)
    else:
        x = C.make_stratified(u, iter(thin))
        assert x.thin == want
        assert x.thin_indexes() == tuple(
            frozenset(t.index for t in want if t.dim == n) for n in range(4))
        assert all(x.is_thin(t) for t in want)
        assert x.thin_in_dim(2) == tuple(sorted(t for t in want
                                                if t.dim == 2))


# -- batch validation --------------------------------------------------------------

# The one-map checks that a batch is compared against: a map's depth, row
# lengths and index ranges, then faces and degeneracies by dimension, read
# off the row tables; then its thinness.

def _validate_map(source, target, assign):
    depth = len(assign) - 1
    if depth != min(source.dim_cap, target.dim_cap):
        raise errors.InvalidInput("assignment must cover min of the two caps")
    for n in range(depth + 1):
        row = assign[n]
        if len(row) != source.counts[n]:
            raise errors.InvalidInput(
                f"assignment at dim {n} is not index-complete")
        if row and (min(row) < 0 or max(row) >= target.counts[n]):
            e = next(e for e in row if not 0 <= e < target.counts[n])
            raise errors.DanglingReference(
                f"assigned target {n}:{e} does not exist")
    for n in range(1, depth + 1):
        _check_commutes(assign[n], assign[n - 1], source.faces[n],
                        target.faces[n], f"face mismatch at dim {n}", "d")
    for n in range(depth):
        _check_commutes(assign[n], assign[n + 1], source.degeneracies[n],
                        target.degeneracies[n],
                        f"degeneracy mismatch at dim {n}", "s")


def _check_commutes(row, other, source_ops, target_ops, what, op):
    # the first simplex i and operator j with op_j f(i) != f(op_j i)
    got = list(chain.from_iterable(map(target_ops.__getitem__, row)))
    want = list(map(other.__getitem__, chain.from_iterable(source_ops)))
    if got != want:
        width = len(source_ops[0])
        p = next(p for p, (g, w) in enumerate(zip(got, want)) if g != w)
        raise errors.NotWellDefined(
            f"{what} simplex {p // width}, {op}_{p % width}")


def _check_thin(source, target, simplicial):
    if simplicial.source != source.underlying or \
            simplicial.target != target.underlying:
        raise errors.InvalidInput(
            "simplicial map does not match the stratified ends")
    src_thin, tgt_thin = source.thin_indexes(), target.thin_indexes()
    for n in range(simplicial.depth + 1):
        row, thin = simplicial.assign[n], tgt_thin[n]
        bad = [i for i in src_thin[n] if row[i] not in thin]
        if bad:
            i = min(bad)
            raise errors.ThinnessViolation(
                f"thin {source.underlying.ids[n][i]!r} maps to non-thin "
                f"{target.underlying.ids[n][row[i]]!r}"
            )


def first_outcome(make, items):
    """``make`` applied to each item in order: the results, or the type and
    message of the first error."""
    made = []
    for item in items:
        try:
            made.append(make(item))
        except errors.ComplicialError as exc:
            return type(exc), str(exc)
    return made


def batch_outcome(make_all, items):
    try:
        return list(make_all(items))
    except errors.ComplicialError as exc:
        return type(exc), str(exc)


def assigns(outcome):
    return outcome if isinstance(outcome, tuple) else \
        [getattr(m, "map", m).assign for m in outcome]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_validation_matches_per_map_validation(data):
    # classifying maps of random simplices, with entries, row lengths and
    # dimensions corrupted at random
    category = data.draw(st.sampled_from([
        C.cyclic_group(3), C.boolean_monoid(), C.arrow_category()]))
    u = C.nerve(category, 2)
    cells = [s for n in (1, 2) for s in u.nondegenerate(n)]
    marks = data.draw(st.lists(st.booleans(), min_size=len(cells),
                               max_size=len(cells)))
    x = C.make_stratified(u, [s for s, m in zip(cells, marks) if m])
    m = data.draw(st.integers(0, 2))
    a = data.draw(st.sampled_from(
        [C.delta(m, 2), C.delta_t(m, 2), C.complicial_delta(m // 2, m, 2)]))
    au = a.underlying
    picks = data.draw(st.lists(st.integers(0, u.counts[m] - 1), max_size=5))
    batch = [[[u.act(m, key, [w])[0] for key in au.keys[d]]
              for d in range(3)] for w in picks]
    for _ in range(data.draw(st.integers(0, 3)) if batch else 0):
        rows = batch[data.draw(st.integers(0, len(batch) - 1))]
        kind = data.draw(st.sampled_from(["entry", "entry", "short", "depth"]))
        d = data.draw(st.integers(0, len(rows) - 1))
        if kind == "depth":
            rows.pop()
        elif kind == "short" or not rows[d]:
            rows[d] = rows[d][:-1]
        else:
            i = data.draw(st.integers(0, len(rows[d]) - 1))
            rows[d][i] = data.draw(st.integers(-1, u.counts[d]))

    # the references: the one-map checks that report a fault, with no
    # batch in front of them
    def simplicial(rows):
        assign = tuple(tuple(row) for row in rows)
        _validate_map(au, u, assign)
        return C.SimplicialMap(au, u, assign)

    def stratified(f):
        _check_thin(a, x, f)
        return C.StratifiedMap(a, x, f)

    want = first_outcome(simplicial, batch)
    assert assigns(first_outcome(
        lambda rows: C.make_simplicial_map(au, u, rows), batch)) == \
        assigns(want)
    # thinness over the maps that are simplicially valid
    maps = [first_outcome(simplicial, [rows]) for rows in batch]
    maps = [m[0] for m in maps if isinstance(m, list)]
    want = first_outcome(stratified, maps)
    assert assigns(first_outcome(
        lambda f: C.make_stratified_map(a, x, f), maps)) == assigns(want)
    got = batch_outcome(
        lambda b: make_stratified_maps(a, x, [f.assign for f in b]), maps)
    assert assigns(got) == assigns(want)
    # both checks, map by map, against the batch validator
    want = first_outcome(lambda rows: stratified(simplicial(rows)), batch)
    got = batch_outcome(lambda b: make_stratified_maps(a, x, b), batch)
    assert assigns(got) == assigns(want)
