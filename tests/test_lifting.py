import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import documents as D
from complicial import errors, homotopy, lifting
from complicial.homotopy import all_product_fillers
from complicial.lifting import (
    _batch_fillers, _horn_maps, _horn_rows, _stratified_horn_tuples,
)

from . import reference
from .conftest import (
    preorder_category, random_thin, renumbered, report_rows, with_twins,
    z3_bool,
)


def horn_tuples(xu, k, n, x):
    """The horn tuples at k of the n-simplex, by ``_horn_rows``."""
    return _horn_rows(xu, [j for j in range(n + 1) if j != k], n, x)


def test_horn_into_minimal_delta2_has_no_extension():
    # the horn is a stratified map, but the minimal 2-simplex has no thin
    # 2-simplex to fill it
    x = C.delta(2, 2)
    u = x.underlying
    faces = {0: u.id_for_key(1, (1, 2)), 2: u.id_for_key(1, (0, 1))}
    C.assemble_horn_map(C.complicial_horn(1, 2, 2)[0], faces, x)
    assert _batch_fillers(x, 1, 2, [(faces[0].index, faces[2].index)]) == [[]]


def test_unique_filler_in_z2_nerve(th0_z2_3):
    x = th0_z2_3
    v = x.underlying.id_at(0, 0)
    a = x.underlying.id_for_key(1, (1,))
    (d1, _), = all_product_fillers(x, v, 1, a, a)
    assert x.underlying.key_of(d1) == (0,)
    assert x.underlying.is_degenerate(d1)


# -- horn assembly --------------------------------------------------------------

def test_assemble_constant_horn(th0_z2_3):
    x = th0_z2_3
    horn, _ = C.complicial_horn(1, 2, 2)
    loop = x.underlying.const(x.underlying.id_at(0, 0), 1)
    m = C.assemble_horn_map(horn, {0: loop, 2: loop}, x)
    for n in range(3):
        for s in horn.simplices(n):
            assert m(s) == x.underlying.const(x.underlying.id_at(0, 0), n)


def test_assemble_boundary_mismatch():
    x = C.delta(2, 2)
    u = x.underlying
    horn, _ = C.complicial_horn(1, 2, 2)
    with pytest.raises(errors.BoundaryMismatch):
        C.assemble_horn_map(
            horn, {0: u.id_for_key(1, (0, 1)), 2: u.id_for_key(1, (0, 1))}, x
        )


def test_assemble_thinness_violation():
    x = C.delta(2, 2)  # minimal: no thin nondegenerate edges
    u = x.underlying
    horn, _ = C.complicial_horn(0, 2, 2)
    # face 2 of the 0-horn is thin (its image contains {0, 1})
    with pytest.raises(errors.ThinnessViolation):
        C.assemble_horn_map(
            horn,
            {1: u.id_for_key(1, (0, 2)), 2: u.id_for_key(1, (0, 1))},
            x,
        )


@pytest.mark.parametrize("horn, faces", [
    (C.complicial_horn(1, 2, 2)[0], (1, 2)),
    (C.delta(2, 2), (1, 2)),
    (C.complicial_horn(1, 3, 3)[0], (0, 2)),
    (C.complicial_horn(1, 2, 2)[0], (0, 1, 2)),
], ids=["another-k", "no-horn", "another-n", "below-the-cap"])
def test_assemble_needs_the_horn_its_faces_name(th0_z2_3, horn, faces):
    # each was a Python error: a KeyError (1, 2) for the first two and (3,)
    # for the third, and an IndexError for the last, whose faces name a
    # horn of the 3-simplex, above the horn's cap
    x = th0_z2_3
    e = x.underlying.const(x.underlying.id_at(0, 0), len(faces) - 1)
    with pytest.raises(errors.InvalidInput,
                       match="-complicial horn of the [23]-simplex$"):
        C.assemble_horn_map(horn, dict.fromkeys(faces, e), x)


def test_horn_instances_need_their_faces_within_the_cap(th0_z2_3):
    x = th0_z2_3
    with pytest.raises(errors.CapTooSmall):
        list(C.horn_instances(0, 9, x))
    with pytest.raises(errors.CapTooSmall):
        list(C.horn_instances(0, 5, x))
    # the faces of a horn of the 4-simplex are 3-simplices, within the cap:
    # one horn per chain of four elements of Z2
    assert len(list(C.horn_instances(1, 4, x))) == 2 ** 4


@pytest.mark.parametrize("k, n, error, message", [
    (0, 0, errors.InvalidInput, "horns need n >= 1"),
    (0, -1, errors.InvalidInput, "horns need n >= 1"),
    (3, 2, errors.KOutOfRange, r"k = 3 outside \[2\]"),
    (-1, 2, errors.KOutOfRange, r"k = -1 outside \[2\]"),
])
def test_horn_instances_need_a_horn(th0_z2_3, k, n, error, message):
    with pytest.raises(error, match=message):
        list(C.horn_instances(k, n, th0_z2_3))


def test_assemble_needs_the_faces_of_a_horn_in_the_dimension_below(th0_z2_3):
    x = th0_z2_3
    horn, _ = C.complicial_horn(1, 2, 2)
    v = x.underlying.id_at(0, 0)
    loop = x.underlying.const(v, 1)
    # two faces name the 2-simplex, which has no face 3
    with pytest.raises(errors.InvalidInput,
                       match=r"assignments \[0, 3\] are not the faces of a "
                             "horn of the 2-simplex"):
        C.assemble_horn_map(horn, {0: loop, 3: loop}, x)
    with pytest.raises(errors.InvalidInput,
                       match=re.escape(f"face 0 image {v!r} must have dim 1")):
        C.assemble_horn_map(horn, {0: v, 2: v}, x)


# -- verification ----------------------------------------------------------------

def test_verify_needs_a_natural_bound(th0_z2_3):
    with pytest.raises(errors.InvalidInput,
                       match="bound must be a natural number"):
        C.verify_weak_complicial(th0_z2_3, -1)


def test_point_verifies(point_3):
    report = C.verify_weak_complicial(point_3, 3)
    assert report.passed
    assert report.checked_dims == 3
    families = {(r.family, r.n, r.k) for r in report.rows}
    assert (1, 1, 0) in families and (2, 2, 2) in families
    assert all(r.instances >= 1 for r in report.rows if r.family == 2)


def test_minimal_delta2_fails_at_inner_horn():
    report = C.verify_weak_complicial(C.delta(2, 2), 2)
    assert not report.passed
    bad = [(r.family, r.k, r.n) for r in report.rows if not r.ok]
    assert bad == [(1, 1, 2)]
    witness = report.failures()[0]
    assert witness.detail["faces"][0].dim == 1


def test_th0_nerve_z2_verifies(th0_z2_4):
    assert C.verify_weak_complicial(th0_z2_4, 3).passed


def test_qcat_bool_verifies(qcat_bool_3):
    assert C.verify_weak_complicial(qcat_bool_3, 3).passed


def test_family2_counts_instances(th0_z2_3):
    report = C.verify_weak_complicial(th0_z2_3, 2)
    fam2 = [r for r in report.rows if r.family == 2]
    assert fam2 and all(r.instances == th0_z2_3.counts[r.n] for r in fam2)


def test_bound_exceeds_cap(th0_z2_3):
    with pytest.raises(errors.BoundExceedsCap):
        C.verify_weak_complicial(th0_z2_3, 4)


# -- the integer kernel ----------------------------------------------------------

@pytest.mark.parametrize("category, passed, failures, digest", [
    (C.symmetric_group_3, True, 0,
     "d7c317e12303fa429e5b52d9a615e06f41d2a584282f28b3a0bce6fb0c5981c4"),
    (z3_bool, False, 234,
     "1593448ec7925d18b9183df44daa279879967069549fdb80c5ffef49ae72f706"),
])
def test_verify_payload_is_pinned(category, passed, failures, digest):
    # digests of the payloads produced by the SimplexId-level solver
    report = C.verify_weak_complicial(C.th0(C.nerve(category(), 3)), 3)
    assert report.passed is passed
    assert len(report.failures()) == failures
    text = D.dumps(D.verify_payload(report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_failure_check_catches_an_incompatible_tuple(monkeypatch):
    # th0 of a group nerve passes, so the one tuple appended to a row's
    # horns is its only failure; it must stop verify with the error that
    # assemble_horn_map raises on it
    x = C.th0(C.nerve(C.symmetric_group_3(), 3))
    k, n = 1, 3
    good = next(horn_tuples(x.underlying, k, n, x))
    bad = good[:-1] + ((good[-1] + 1) % x.counts[n - 1],)
    js = [j for j in range(n + 1) if j != k]
    ids = x.underlying.ids[n - 1]
    with pytest.raises(errors.BoundaryMismatch) as want:
        C.assemble_horn_map(C.complicial_horn(k, n, n)[0],
                            {j: ids[w] for j, w in zip(js, bad)}, x)
    horn_rows = lifting._horn_rows

    def with_bad(xu, js_, n_, strat):
        yield from horn_rows(xu, js_, n_, strat)
        if (list(js_), n_) == (js, n):
            yield bad

    monkeypatch.setattr(lifting, "_horn_rows", with_bad)
    with pytest.raises(errors.BoundaryMismatch) as got:
        C.verify_weak_complicial(x, 3)
    assert str(got.value) == str(want.value)


def test_failure_check_catches_an_unstratified_horn(monkeypatch):
    # with no cut, the horns whose thin simplices land on nondegenerate
    # edges are enumerated too, and none of them has a thin filler
    x = C.make_stratified(C.nerve(C.cyclic_group(3), 3), [])
    horn_rows = lifting._horn_rows
    monkeypatch.setattr(lifting, "_horn_rows",
                        lambda xu, js, n, strat: horn_rows(xu, js, n, None))
    with pytest.raises(errors.ThinnessViolation):
        C.verify_weak_complicial(x, 3)


def weak_complicial_nerve(data):
    """A weak complicial stratification of a nerve at cap 3, drawn: th0 (of
    a group) or qcat-e of a renumbered nerve, or every simplex above
    dimension 1 thin with the edges of a drawn submonoid (qcat-e where that
    marking is not weak complicial)."""
    category = data.draw(st.sampled_from([
        C.cyclic_group(3), C.boolean_monoid(), C.symmetric_group_3(),
        C.arrow_category()]))
    # th0 is weak complicial on the nerves of groups only
    kinds = ["th0"] * all(map(category.is_iso, range(
        len(category.morphisms)))) + ["qcat-e", "submonoid"]
    kind = data.draw(st.sampled_from(kinds))
    if kind != "submonoid":
        u = renumbered(C.nerve(category, 3), data)
        return C.th0(u) if kind == "th0" else C.quasicat_e(u)
    u = C.nerve(category, 3)
    marked = set(data.draw(st.lists(st.sampled_from(
        range(len(category.morphisms))), max_size=3)))
    while True:
        more = {category.comp[(f, g)] for f in marked for g in marked
                if (f, g) in category.comp} - marked
        if not more:
            break
        marked |= more
    x = C.make_stratified(u, [
        s for s in u.nondegenerate(1) if u.key_of(s)[0] in marked] + [
        s for n in (2, 3) for s in u.nondegenerate(n)])
    return x if C.verify_weak_complicial(x, 3).passed else C.quasicat_e(u)


def product_rows(x, base, n, pairs):
    """The multiplication horns of pairs of n-simplex indexes by their faces
    j != n: constants, then the two factors."""
    const = x.underlying.const(base, n).index
    return [(const,) * (n - 1) + pair for pair in pairs]


def refuse_horn_maps(*args):
    raise AssertionError("a product horn of spheres built as a map")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sphere_product_horns_need_no_map(data):
    # for every pair of sphere elements the product horn is a valid map, so
    # the column check passes, no map is built, and the lookup returns the
    # validated fillers
    x = weak_complicial_nerve(data)
    assert C.verify_weak_complicial(x, 3).passed
    base = data.draw(st.sampled_from(x.underlying.simplices(0)))
    n = data.draw(st.integers(1, 2))
    elements = [e.index for e in C.sphere_elements(x, base, n)]
    pairs = [(p, q) for p in elements for q in elements]
    rows = product_rows(x, base, n, pairs)
    horn = C.complicial_horn(n, n + 1, n + 1)[0]
    assert len(_horn_maps(horn, n, n + 1, x, list(zip(*rows)))) == len(pairs)
    want = homotopy._horn_fillers(x, n, rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lifting, "_horn_maps", refuse_horn_maps)
        assert list(homotopy._product_fillers(x, base, n, pairs)) == want


def test_every_product_batch_runs_the_column_check(monkeypatch, th0_s3_3):
    # all-sphere batches too: each entry point checks its horns by columns,
    # once per batch, and builds no map for them
    x = th0_s3_3
    base = x.underlying.id_at(0, 0)
    a, b = C.sphere_elements(x, base, 1)[:2]
    checked = []
    check = homotopy._require_horns

    def spy(x, k, n, columns):
        checked.append((k, n, len(columns[0])))
        return check(x, k, n, columns)

    monkeypatch.setattr(homotopy, "_require_horns", spy)
    monkeypatch.setattr(lifting, "_horn_maps", refuse_horn_maps)
    table = C.tau_table(x, base, 1)
    C.audit_well_defined(x, base, table)
    C.multiply(x, base, 1, a, b)
    all_product_fillers(x, base, 1, a, b)
    size = len(table.elements)
    assert len(table.classes) == size == 6
    assert checked == [(1, 2, 36), (1, 2, 36), (1, 2, 1), (1, 2, 1)]


def first_non_sphere(u, n):
    """The first n-simplex with a face that is not constant at vertex 0."""
    const = u.const(u.id_at(0, 0), n - 1)
    return next(s.index for s in u.simplices(n)
                if any(u.face(s, j) != const for j in range(n + 1)))


@pytest.mark.parametrize("category, n, bad", [
    # n = 2: a triangle with an edge that is not the constant, against the
    # constant
    (C.cyclic_group(2), 2, lambda u: (
        first_non_sphere(u, 2), u.const(u.id_at(0, 0), 2).index)),
    # n = 1: the crossing arrow of 0 < 1 is no loop, and not composable
    # with itself
    (C.arrow_category(), 1, lambda u: (next(
        s.index for s in u.simplices(1) if s.label == "a"),) * 2),
])
def test_product_batch_with_a_non_sphere_factor_is_validated(
        monkeypatch, category, n, bad):
    x = C.th0(C.nerve(category, 3))
    u = x.underlying
    base = u.id_at(0, 0)
    spheres = [e.index for e in C.sphere_elements(x, base, n)]
    pairs = [(p, q) for p in spheres for q in spheres]
    pairs.append(bad(u))
    built = []

    def spy(*args):
        built.append(args)
        return _horn_maps(*args)

    monkeypatch.setattr(lifting, "_horn_maps", spy)
    # the batch is checked before any list comes out, and the invalid horn
    # raises
    with pytest.raises(errors.BoundaryMismatch):
        homotopy._product_fillers(x, base, n, pairs)
    assert len(built) == 1 and len(built[0][-1][0]) == len(pairs)


# -- horn filling by lookup, against the reference's fillers ------------------

@settings(max_examples=25, deadline=None)
@given(st.data())
def test_horn_fillers_match_solver_on_random_stratifications(data):
    # the reference lists fillers in the order of the extension search
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.boolean_monoid()]))
    u = renumbered(C.nerve(category, 3), data)
    x = random_thin(u, data)
    for n in range(1, 4):
        for k in range(n + 1):
            horns = reference.horn_tuples(u, k, n, x.thin_indexes())
            found = [reference.fillers(x, k, n, horn) for horn in horns]
            assert _batch_fillers(x, k, n, horns) == found
            if n < 2 or k != n - 1:
                continue
            # the multiplication horn of (n-1)-spheres: faces other than
            # k-1 and k+1 are constant at the base
            for horn, want in zip(horns, found):
                for base in u.simplices(0):
                    faces = dict(zip([j for j in range(n + 1) if j != k],
                                     map(u.ids[n - 1].__getitem__, horn)))
                    const = u.const(base, k)
                    if any(s != const for j, s in faces.items()
                           if j not in (k - 1, k + 1)):
                        continue
                    want = [u.ids[n][w] for w in want]
                    args = (x, base, k, faces[k - 1], faces[k + 1])
                    assert all_product_fillers(*args) == \
                        [(u.face(t, k), t) for t in want]
                    if want:
                        assert C.multiply_with_filler(*args) == \
                            (u.face(want[0], k), want[0])
                    else:
                        with pytest.raises(errors.NoFiller):
                            C.multiply_with_filler(*args)


# -- family 2 by columns, family 1 by projection sets ------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wholly_thin_dimensions_match_the_references(data):
    # every family-1 and family-2 row, and the horns with and without the
    # cut; a dimension drawn all thin skips its thinness passes, one drawn
    # cell by cell keeps them, and both meet in one complex
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.boolean_monoid(),
                                          C.symmetric_group_3()]))
    x = random_thin(renumbered(C.nerve(category, 3), data), data)
    check_join(x)
    assert report_rows(C.verify_weak_complicial(x, 3)) == \
        reference.verify_rows(x, 3)


def test_passing_verify_never_applies_monotone_maps(monkeypatch):
    # every positive dimension of a th0 is wholly thin, so no thinness
    # pass runs (``apply_monotone`` goes through ``act`` too), and a row
    # without failures names no simplex: no dimension's ids are made
    x = C.th0(C.nerve(C.symmetric_group_3(), 4))
    calls = []
    act = C.TruncatedSSet.act

    def counted_act(self, n, values, column):
        calls.append(("act", n, tuple(values)))
        return act(self, n, values, column)

    monkeypatch.setattr(C.TruncatedSSet, "act", counted_act)
    ids = x.underlying.ids._slots
    assert ids == [None] * 5
    report = C.verify_weak_complicial(x, 4)
    assert report.passed and not calls and ids == [None] * 5


def test_family2_failure_payload_is_pinned():
    # digest of the payload written by the per-simplex family-2 check
    u = C.nerve(C.cyclic_group(3), 3)
    thin = [u.nondegenerate(1)[0]] + [s for n in (2, 3) for s in u.simplices(n)]
    report = C.verify_weak_complicial(C.make_stratified(u, thin), 3)
    bad = [(r.family, r.k, r.n, len(r.failures)) for r in report.rows
           if not r.ok]
    assert bad == [(2, 0, 2, 1), (2, 1, 2, 1), (2, 2, 2, 1)]
    text = D.dumps(D.verify_payload(report))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f6d8126b8401304461f14aca6fc526eae148d55b79d8448e2d743894cd2c5c61"


# -- horn enumeration by hash join, against the reference ---------------------

def check_join(x, top_n=None):
    """``_horn_rows`` against the reference's horns at every (k, n) up to
    ``top_n`` (the cap by default), with and without the stratification."""
    u = x.underlying
    for n in range(1, (top_n or x.cap) + 1):
        for k in range(n + 1):
            for strat in (x, None):
                want = reference.horn_tuples(
                    u, k, n, strat and strat.thin_indexes())
                assert list(horn_tuples(u, k, n, strat)) == want, (k, n)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_join_matches_recursion_on_several_objects(data):
    pairs = [(a, b) for a in range(4) for b in range(4) if a < b]
    below = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    category = data.draw(st.sampled_from(
        [C.arrow_category(), preorder_category(below + [(0, 0), (3, 3)])]))
    u = renumbered(C.nerve(category, 3), data)
    check_join(random_thin(u, data))
    check_join(C.quasicat_e(u))


def test_join_matches_recursion_on_a_product():
    check_join(C.gproduct(C.th0(C.nerve(C.cyclic_group(2), 3)),
                          C.delta_t(1, 3)))


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_join_matches_recursion_when_faces_repeat(data):
    u = renumbered(C.nerve(C.cyclic_group(3), 2), data)
    u = with_twins(u, [s.index for s in u.nondegenerate(2)])
    rows = u.faces[2]
    assert len(set(rows)) < len(rows)
    # the horns of the 3-simplex have their faces in the top dimension
    check_join(random_thin(u, data), top_n=3)
    check_join(C.th0(u), top_n=3)


# -- failing horn maps built a column at a time ------------------------------------

def check_batched_maps(x, k, n, tuples):
    """The maps ``_horn_maps`` builds for the face tuples together against
    ``assemble_horn_map`` and the reference, one at a time; an invalid
    tuple must stop the batch with the error of the first one."""
    horn = C.complicial_horn(k, n, n)[0]
    js = [j for j in range(n + 1) if j != k]
    ids = x.underlying.ids[n - 1]
    columns = list(zip(*tuples))
    want = []
    for row in tuples:
        faces = {j: ids[w] for j, w in zip(js, row)}
        ref = reference.horn_map(horn, x, dict(zip(js, row)))
        if not isinstance(ref, tuple):
            with pytest.raises(ref) as alone:
                C.assemble_horn_map(horn, faces, x)
            with pytest.raises(ref) as batch:
                _horn_maps(horn, k, n, x, columns)
            assert str(batch.value) == str(alone.value)
            return []
        assert C.assemble_horn_map(horn, faces, x).map.assign == ref
        want.append(ref)
    got = _horn_maps(horn, k, n, x, columns)
    assert [m.map.assign for m in got] == want
    return got


def test_batched_failure_maps_match_per_instance_maps():
    x = C.th0(C.nerve(z3_bool(), 3))
    report = C.verify_weak_complicial(x, 3)
    failed = 0
    for row in report.rows:
        if row.family == 1 and row.failures:
            tuples = [tuple(s.index for s in f.detail["faces"].values())
                      for f in row.failures]
            failed += len(check_batched_maps(x, row.k, row.n, tuples))
    assert failed == 234


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_batched_maps_match_per_instance_maps_on_random_stratifications(data):
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.boolean_monoid()]))
    x = random_thin(renumbered(C.nerve(category, 3), data), data)
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, n))
    instances = list(horn_tuples(x.underlying, k, n, x))
    # the row's instances, then drawn face tuples that may be invalid
    check_batched_maps(x, k, n, instances)
    count = x.counts[n - 1]
    drawn = data.draw(st.lists(
        st.tuples(*[st.integers(0, count - 1)] * n), min_size=1, max_size=6))
    check_batched_maps(x, k, n, drawn)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_column_check_agrees_with_the_map_build(data):
    # on the row's instances and on drawn face tuples, the failure check
    # accepts a tuple exactly when _horn_maps builds a map from it
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.boolean_monoid()]))
    x = random_thin(renumbered(C.nerve(category, 3), data), data)
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, n))
    count = x.counts[n - 1]
    drawn = data.draw(st.lists(
        st.tuples(*[st.integers(0, count - 1)] * n), min_size=1, max_size=6))
    tuples = list(horn_tuples(x.underlying, k, n, x)) + drawn
    accepted = [bool(check_batched_maps(x, k, n, [row])) for row in tuples]
    for row, ok in zip(tuples, accepted):
        assert _stratified_horn_tuples(x, k, n, [[w] for w in row]) is ok
    assert _stratified_horn_tuples(x, k, n, list(zip(*tuples))) is \
        all(accepted)
