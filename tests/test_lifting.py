import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import documents as D
from complicial import errors, homotopy, lifting
from complicial.core import TruncatedSSet, make_simplicial_map
from complicial.homotopy import all_product_fillers
from complicial.lifting import (
    _batch_fillers, _horn_maps, _horn_rows, _stratified_horn_tuples,
)
from complicial.standard import (
    complicial_thin_key, in_horn_key, monotone_maps,
)

from .conftest import recursive_apply_monotone, renumbered


def horn_tuples(xu, k, n, x):
    """The horn tuples at k of the n-simplex, by ``_horn_rows``."""
    return _horn_rows(xu, [j for j in range(n + 1) if j != k], n, x)


def horn_problem(x, k, n, faces):
    horn, inc = C.complicial_horn(k, n, n)
    partial = C.assemble_horn_map(horn, faces, x)
    return C.ExtensionProblem(inc, partial)


def test_trivial_problem_returns_partial(th0_z2_3):
    x = th0_z2_3
    horn, inc = C.complicial_horn(1, 2, 2)
    a = x.underlying.id_for_key(1, (1,))
    partial = C.assemble_horn_map(horn, {0: a, 2: a}, x)
    ident = C.make_stratified_map(horn, horn, C.identity_map(horn.underlying))
    sols = C.find_extensions(C.ExtensionProblem(ident, partial))
    assert sols == [partial]


def test_horn_into_minimal_delta2_has_no_extension():
    x = C.delta(2, 2)
    u = x.underlying
    problem = horn_problem(
        x, 1, 2,
        {0: u.id_for_key(1, (1, 2)), 2: u.id_for_key(1, (0, 1))},
    )
    assert C.find_extensions(problem) == []


def test_unique_filler_in_z2_nerve(th0_z2_3):
    x = th0_z2_3
    a = x.underlying.id_for_key(1, (1,))
    problem = horn_problem(x, 1, 2, {0: a, 2: a})
    sols = C.find_extensions(problem)
    assert len(sols) == 1
    theta = sols[0](C.top_id(C.complicial_delta(1, 2, 2), 2))
    d1 = x.underlying.face(theta, 1)
    assert x.underlying.key_of(d1) == (0,)
    assert x.underlying.is_degenerate(d1)


def test_soundness_revalidation(th0_z2_3):
    x = th0_z2_3
    a = x.underlying.id_for_key(1, (1,))
    problem = horn_problem(x, 1, 2, {0: a, 2: a})
    for sol in C.find_extensions(problem):
        rebuilt = make_simplicial_map(
            sol.map.source, sol.map.target, sol.map.assign
        )
        C.make_stratified_map(sol.source, sol.target, rebuilt)


def naive_extensions(problem):
    """Products over raw unknown assignments, validated from scratch."""
    b = problem.inclusion.target
    x = problem.partial.target
    bu, xu = b.underlying, x.underlying
    pinned = {}
    a = problem.inclusion.source
    for n in range(a.cap + 1):
        for s in a.simplices(n):
            pinned[problem.inclusion(s)] = problem.partial(s)
    unknowns = [
        s for n in range(b.cap + 1) for s in bu.nondegenerate(n)
        if s not in pinned
    ]

    def extend(choice):
        table = dict(pinned)
        table.update(choice)

        def value(s):
            if s in table:
                return table[s]
            base, i = bu.degeneracy_witness(s)
            return xu.degeneracy(value(base), i)

        rows = tuple(
            tuple(value(s).index for s in bu.simplices(n))
            for n in range(b.cap + 1)
        )
        try:
            simp = make_simplicial_map(bu, xu, rows)
            return C.make_stratified_map(b, x, simp)
        except (errors.NotWellDefined, errors.ThinnessViolation):
            return None

    found = []

    def rec(pos, choice):
        if pos == len(unknowns):
            got = extend(choice)
            if got is not None:
                found.append(got)
            return
        for cand in xu.simplices(unknowns[pos].dim):
            choice[unknowns[pos]] = cand
            rec(pos + 1, choice)
            del choice[unknowns[pos]]

    rec(0, {})
    return found


def test_solver_matches_naive_enumeration(th0_z2_3):
    x = th0_z2_3
    a = x.underlying.id_for_key(1, (1,))
    for faces in ({0: a, 2: a},
                  {0: a, 2: x.underlying.id_for_key(1, (0,))}):
        problem = horn_problem(x, 1, 2, faces)
        fast = C.find_extensions(problem)
        slow = naive_extensions(problem)
        assert [s.map.assign for s in fast] == [s.map.assign for s in slow]


def test_solver_matches_naive_on_empty_source(th0_z2_3):
    empty = C.boundary(0, 1)
    b = C.delta(1, 1)
    x = th0_z2_3
    inc = C.make_stratified_map(
        empty, b,
        make_simplicial_map(empty.underlying, b.underlying, ((), ())),
    )
    par = C.make_stratified_map(
        empty, x,
        make_simplicial_map(empty.underlying, x.underlying, ((), ())),
    )
    problem = C.ExtensionProblem(inc, par)
    fast = C.find_extensions(problem)
    slow = naive_extensions(problem)
    assert [s.map.assign for s in fast] == [s.map.assign for s in slow]
    assert len(fast) == 2  # one vertex, two edge choices


def test_determinism_of_extension_order(th0_s3_3):
    x = th0_s3_3
    a = x.underlying.id_at(1, 3)
    b = x.underlying.id_at(1, 4)
    problem = horn_problem(x, 1, 2, {0: a, 2: b})
    first = [s.map.assign for s in C.find_extensions(problem)]
    second = [s.map.assign for s in C.find_extensions(problem)]
    assert first == second


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


# -- verification ----------------------------------------------------------------

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

def z3_bool():
    elems = [(i, b) for b in (1, 0) for i in range(3)]
    name = lambda e: f"{e[0]}{'u' if e[1] else 'z'}"  # noqa: E731
    table = [[name(((a[0] + b[0]) % 3, a[1] * b[1])) for b in elems]
             for a in elems]
    return C.monoid_category([name(e) for e in elems], "0u", table)


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


class _EveryCandidate(dict):
    """An index that answers every face row or face value with all simplices."""

    def __init__(self, count):
        super().__init__()
        self.everything = tuple(range(count))

    def get(self, row, default=None):
        return self.everything


def test_witness_validation_is_live(monkeypatch):
    x = C.th0(C.nerve(C.cyclic_group(3), 2))
    monkeypatch.setattr(
        TruncatedSSet, "face_index",
        lambda self, n: _EveryCandidate(self.counts[n]),
    )
    problem = horn_problem(x, 1, 2, {0: x.underlying.id_at(1, 1),
                                     2: x.underlying.id_at(1, 1)})
    with pytest.raises((errors.NotWellDefined, errors.ThinnessViolation)):
        C.find_extensions(problem)


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
    # for every pair of sphere elements the product horn is a valid map,
    # and the lookup, which builds none, returns the validated fillers
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
        patch.setattr(homotopy, "_require_horns", refuse_horn_maps)
        assert list(homotopy._product_fillers(x, base, n, pairs)) == want


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solver_matches_naive_on_random_horns(data):
    x = C.th0(C.nerve(C.cyclic_group(3), 2))
    n = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(0, n))
    picks = data.draw(st.lists(
        st.integers(0, x.counts[n - 1] - 1), min_size=n, max_size=n))
    js = [j for j in range(n + 1) if j != k]
    faces = {j: x.underlying.id_at(n - 1, w) for j, w in zip(js, picks)}
    problem = horn_problem(x, k, n, faces)
    fast = C.find_extensions(problem)
    assert [s.map.assign for s in fast] == \
        [s.map.assign for s in naive_extensions(problem)]
    assert [s.map.assign for s in C.find_extensions(problem, limit=1)] == \
        [s.map.assign for s in fast[:1]]


# -- horn filling by lookup, against the solver ------------------------------------

def solver_fillers(x, k, n, faces):
    """The top images of every extension the solver finds for the horn."""
    problem = horn_problem(x, k, n, faces)
    top = C.top_id(problem.inclusion.target, n)
    return [ext(top) for ext in C.find_extensions(problem)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_horn_fillers_match_solver_on_random_stratifications(data):
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.boolean_monoid()]))
    u = renumbered(C.nerve(category, 3), data)
    cells = [s for n in range(1, 4) for s in u.nondegenerate(n)]
    marks = data.draw(st.lists(st.booleans(), min_size=len(cells),
                               max_size=len(cells)))
    x = C.make_stratified(u, [s for s, m in zip(cells, marks) if m])
    rows = {(r.k, r.n): r for r in C.verify_weak_complicial(x, 3).rows
            if r.family == 1}
    for n in range(1, 4):
        for k in range(n + 1):
            instances = list(C.horn_instances(k, n, x))
            found = [solver_fillers(x, k, n, faces) for faces in instances]
            for faces, want in zip(instances, found):
                horn = tuple(s.index for s in faces.values())
                assert [u.ids[n][w]
                        for w in _batch_fillers(x, k, n, [horn])[0]] == want
            row = rows[(k, n)]
            assert row.instances == len(instances)
            assert [f.detail["faces"] for f in row.failures] == \
                [faces for faces, want in zip(instances, found) if not want]
            if n < 2 or k != n - 1:
                continue
            # the multiplication horn of (n-1)-spheres: faces other than
            # k-1 and k+1 are constant at the base
            for faces, want in zip(instances, found):
                for base in u.simplices(0):
                    const = u.const(base, k)
                    if any(s != const for j, s in faces.items()
                           if j not in (k - 1, k + 1)):
                        continue
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

def family2_by_simplex(x, k, n):
    """Family 2 of (k, n), one operator application per n-simplex and thin
    key, through the recursive reference rather than ``act``."""
    xu = x.underlying
    thin_keys = [
        t for m in range(n + 1) for t in monotone_maps(m, n)
        if all(t[i] < t[i + 1] for i in range(m))
        and (complicial_thin_key(k, n, t)
             or (len(t) == n and in_horn_key(k, n, t)))
    ]
    kth = tuple(v for v in range(n + 1) if v != k)
    instances, failures = 0, []
    for theta in xu.simplices(n):
        if not all(recursive_apply_monotone(xu, theta, t) in x.thin
                   for t in thin_keys):
            continue
        instances += 1
        if recursive_apply_monotone(xu, theta, kth) not in x.thin:
            failures.append(C.FailedInstance(
                2, k, n, {"simplex": theta, "missing_thin_face": k}))
    return instances, failures


def check_rows_by_reference(x):
    """Every row of ``verify`` at cap 3 against the references: family 2
    against :func:`family2_by_simplex`, family 1 against the instances of
    ``horn_instances`` without a filler by ``_batch_fillers``."""
    rows = {(r.family, r.k, r.n): r
            for r in C.verify_weak_complicial(x, 3).rows}
    for n in range(2, 4):
        for k in range(n + 1):
            row = rows[(2, k, n)]
            assert (row.instances, list(row.failures)) == \
                family2_by_simplex(x, k, n)
    for n in range(1, 4):
        for k in range(n + 1):
            instances = list(C.horn_instances(k, n, x))
            unfilled = [
                faces for faces in instances
                if not _batch_fillers(
                    x, k, n, [tuple(s.index for s in faces.values())])[0]
            ]
            row = rows[(1, k, n)]
            assert row.instances == len(instances)
            assert [f.detail["faces"] for f in row.failures] == unfilled


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_family2_columns_match_per_simplex_rule(data):
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.boolean_monoid(),
                                          C.symmetric_group_3()]))
    check_rows_by_reference(
        random_thin(renumbered(C.nerve(category, 3), data), data))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_wholly_thin_dimensions_match_the_references(data):
    # a dimension drawn all thin skips its thinness passes, one drawn
    # cell by cell keeps them, and both meet in one complex
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.boolean_monoid(),
                                          C.symmetric_group_3()]))
    x = random_thin_by_dimension(renumbered(C.nerve(category, 3), data), data)
    check_join(x)
    check_rows_by_reference(x)


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


# -- horn enumeration by hash join, against the recursive enumerator ------------

def recursive_horn_rows(xu, k, n, x):
    """The horn tuples of ``_horn_rows``, by the former depth-first
    recursion: each face after the first draws its candidates from the
    face-value index at the first chosen face and keeps those whose entries
    match every chosen face.  A reference independent of the join."""
    js = [j for j in range(n + 1) if j != k]
    top = n - 1
    allowed = [range(xu.counts[top])] * len(js)
    if x is not None:
        thin = x.thin_indexes()
        for m in range(top + 1):
            for key in itertools.combinations(range(n + 1), m + 1):
                if not complicial_thin_key(k, n, key):
                    continue
                j = min(j for j in js if j not in key)
                p = js.index(j)
                images = xu.act(top, [v - (v > j) for v in key], allowed[p])
                allowed[p] = [w for w, v in zip(allowed[p], images)
                              if v in thin[m]]
    allowed = [set(c) for c in allowed]
    rows = xu.faces[top] if top else ()
    by_value = xu.face_value_index(top) if top else ()
    chosen = [0] * len(js)

    def deeper(pos):
        if pos == len(js):
            yield tuple(chosen)
            return
        j = js[pos]
        if pos == 0 or top == 0:
            pool = sorted(allowed[pos])
        else:
            want = [rows[w][j - 1] for w in chosen[:pos]]
            pool = [w for w in by_value[js[0]].get(want[0], ())
                    if [rows[w][i] for i in js[:pos]] == want]
        for w in pool:
            if w in allowed[pos]:
                chosen[pos] = w
                yield from deeper(pos + 1)

    yield from deeper(0)


def check_join(x, top_n=None):
    """``_horn_rows`` against the recursion at every (k, n) up to ``top_n``
    (the cap by default), with and without the stratification."""
    u = x.underlying
    for n in range(1, (top_n or x.cap) + 1):
        for k in range(n + 1):
            for strat in (x, None):
                want = list(recursive_horn_rows(u, k, n, strat))
                assert list(horn_tuples(u, k, n, strat)) == want, (k, n)


def random_thin(u, data):
    cells = [s for n in range(1, u.dim_cap + 1) for s in u.nondegenerate(n)]
    marks = data.draw(st.lists(st.booleans(), min_size=len(cells),
                               max_size=len(cells)))
    return C.make_stratified(u, [s for s, m in zip(cells, marks) if m])


def random_thin_by_dimension(u, data):
    """``random_thin`` with, per positive dimension, all of it thin or
    each nondegenerate cell marked on its own, as drawn."""
    thin = []
    for n in range(1, u.dim_cap + 1):
        cells = u.nondegenerate(n)
        if data.draw(st.booleans()):
            thin += cells
        else:
            marks = data.draw(st.lists(st.booleans(), min_size=len(cells),
                                       max_size=len(cells)))
            thin += [s for s, m in zip(cells, marks) if m]
    return C.make_stratified(u, thin)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_join_matches_recursion_on_random_stratifications(data):
    category = data.draw(st.sampled_from([C.cyclic_group(3),
                                          C.symmetric_group_3()]))
    check_join(random_thin(renumbered(C.nerve(category, 3), data), data))


def preorder_category(below):
    """The category of a preorder on 0..n-1; ``below`` lists the pairs
    a <= b, closed under reflexivity and transitivity here."""
    objects = sorted({a for pair in below for a in pair})
    le = {(a, a) for a in objects} | set(below)
    while True:
        more = {(a, d) for a, b in le for c, d in le if b == c} - le
        if not more:
            break
        le |= more
    arrows = sorted(le)
    index = {f: i for i, f in enumerate(arrows)}
    return C.make_category(
        [str(a) for a in objects], [f"{a}{b}" for a, b in arrows],
        [objects.index(a) for a, _ in arrows],
        [objects.index(b) for _, b in arrows],
        [index[(a, a)] for a in objects],
        {(index[(a, b)], index[(b, d)]): index[(a, d)]
         for a, b in arrows for c, d in arrows if b == c},
    )


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


def with_twins(u):
    """``u`` with a second copy of each nondegenerate top simplex, on the
    same face row, so that faces no longer determine simplices."""
    top = u.dim_cap
    twins = [u.faces[top][s.index] for s in u.nondegenerate(top)]
    counts = u.counts[:top] + (u.counts[top] + len(twins),)
    faces = list(u.faces[:top]) + [u.faces[top] + tuple(twins)]
    return C.build_sset(top, counts, faces, u.degeneracies)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_join_matches_recursion_when_faces_repeat(data):
    u = with_twins(renumbered(C.nerve(C.cyclic_group(3), 2), data))
    rows = u.faces[2]
    assert len(set(rows)) < len(rows)
    # the horns of the 3-simplex have their faces in the top dimension
    check_join(random_thin(u, data), top_n=3)
    check_join(C.th0(u), top_n=3)


# -- failing horn maps built a column at a time ------------------------------------

def per_simplex_horn_map(horn, faces, x):
    """``assemble_horn_map`` as it was written per horn simplex: each
    nondegenerate simplex finds its first generating face and is read off
    it by ``apply_monotone``; a degenerate one takes the degeneracy of its
    base's image.  A reference independent of the batched plan."""
    hu, xu = horn.underlying, x.underlying
    n = len(faces)
    rows = []
    for m in range(min(hu.dim_cap, xu.dim_cap) + 1):
        row = []
        for key, w in zip(hu.keys[m], hu.deg_witness[m]):
            if w is None:
                j = min(j for j in faces if j not in key)
                row.append(xu.apply_monotone(
                    faces[j], [v - (v > j) for v in key]).index)
            else:
                row.append(xu.degeneracies[m - 1][rows[-1][w[0]]][w[1]])
        rows.append(row)
    try:
        simplicial = make_simplicial_map(hu, xu, rows)
    except errors.NotWellDefined as exc:
        raise errors.BoundaryMismatch(str(exc)) from exc
    return C.make_stratified_map(horn, x, simplicial)


def check_batched_maps(x, k, n, tuples):
    """The maps ``_horn_maps`` builds for the face tuples together against
    ``assemble_horn_map`` and the per-simplex reference, one at a time; an
    invalid tuple must stop the batch with the error of the first one."""
    horn = C.complicial_horn(k, n, n)[0]
    js = [j for j in range(n + 1) if j != k]
    ids = x.underlying.ids[n - 1]
    want, error = [], None
    for row in tuples:
        faces = {j: ids[w] for j, w in zip(js, row)}
        try:
            ref = per_simplex_horn_map(horn, faces, x)
        except (errors.BoundaryMismatch, errors.ThinnessViolation) as exc:
            error = exc
            with pytest.raises(type(exc)) as info:
                C.assemble_horn_map(horn, faces, x)
            assert str(info.value) == str(exc)
            break
        assert C.assemble_horn_map(horn, faces, x) == ref
        want.append(ref)
    columns = list(zip(*tuples))
    if error is not None:
        with pytest.raises(type(error)) as info:
            _horn_maps(horn, k, n, x, columns)
        assert str(info.value) == str(error)
        return []
    got = _horn_maps(horn, k, n, x, columns)
    assert [m.map.assign for m in got] == [m.map.assign for m in want]
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
    x = random_thin_by_dimension(renumbered(C.nerve(category, 3), data), data)
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
