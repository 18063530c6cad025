"""Family-1 rows decided by columns where the face-row map is a bijection.

Where every m-simplex is the one simplex with its face row, and every
compatible boundary is some simplex's face row, for m = n - 1 and m = n,
each horn of the n-simplex has exactly one simplicial filler, and
``lifting._check_family1`` reads row (k, n) off the n-simplices instead of
joining horns.  These tests compare its rows with the reference's
(``tests/reference.py``), on inputs where the shortcut fires and on inputs
where it must not.
"""

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import errors, lifting
from complicial.lifting import (
    _boundaries_bijective, _check_family1, _horn_rows,
)

from . import reference
from .conftest import renumbered, with_twins


def check_rows(x, ns):
    """``_check_family1`` against the reference's row on every k of each
    n: instances and the witnesses in order."""
    for n in ns:
        for k in range(n + 1):
            row = _check_family1(k, n, x)
            assert (row.instances, [
                tuple(s.index for s in f.detail["faces"].values())
                for f in row.failures]) == reference.family1(x, k, n), (k, n)


def random_stratification(u, rnd):
    """Per positive dimension, every simplex thin or each nondegenerate one
    thin with a drawn probability, so some rows fail and some cuts bite."""
    thin = []
    for n in range(1, u.dim_cap + 1):
        cells = u.nondegenerate(n)
        if rnd.random() < 0.3:
            thin += cells
        else:
            p = rnd.random()
            thin += [s for s in cells if rnd.random() < p]
    return C.make_stratified(u, thin)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([C.cyclic_group(3), C.boolean_monoid(),
                        C.symmetric_group_3(), C.arrow_category()]),
       st.randoms(use_true_random=False), st.data())
def test_shortcut_rows_match_the_join_on_nerves_at_cap_4(category, rnd, data):
    u = renumbered(C.nerve(category, 4), data)
    assert _boundaries_bijective(u, 3) and _boundaries_bijective(u, 4)
    check_rows(random_stratification(u, rnd), [4])


@pytest.fixture(scope="module")
def nerve_s3_5():
    return C.nerve(C.symmetric_group_3(), 5)


@settings(max_examples=4, deadline=None)
@given(st.randoms(use_true_random=False))
def test_shortcut_rows_match_the_join_on_s3_at_cap_5(nerve_s3_5, rnd):
    u = nerve_s3_5
    assert u.counts[5] == 7776
    assert all(_boundaries_bijective(u, m) for m in (3, 4, 5))
    check_rows(random_stratification(u, rnd), [4, 5])


def test_shortcut_rows_match_the_join_on_th0_of_s3_at_cap_5(nerve_s3_5):
    x = C.th0(nerve_s3_5)
    check_rows(x, [4, 5])
    assert all(row.instances == 7776 and row.ok
               for row in map(_check_family1, range(6), [5] * 6, [x] * 6))


def test_shortcut_rows_join_no_horns(monkeypatch):
    # on th0 of a nerve at cap 4 the n = 4 rows join no stratified horn;
    # the bijection's own counts join without a stratification
    x = C.th0(C.nerve(C.symmetric_group_3(), 4))
    joined = []
    horn_rows = lifting._horn_rows

    def spy(xu, js, n, strat):
        if strat is not None:
            joined.append(n)
        return horn_rows(xu, js, n, strat)

    monkeypatch.setattr(lifting, "_horn_rows", spy)
    report = C.verify_weak_complicial(x, 4)
    assert report.passed and 4 not in joined and 3 in joined
    assert [row.instances for row in report.rows
            if (row.family, row.n) == (1, 4)] == [1296] * 5


# -- where the shortcut must not fire ------------------------------------------------

def without_simplex(u, r):
    """``u`` at its cap with the top simplex r (not degenerate) removed."""
    n = u.dim_cap
    faces = [u.faces[m] for m in range(n)] + [
        tuple(row for w, row in enumerate(u.faces[n]) if w != r)]
    degeneracies = [u.degeneracies[m] for m in range(n - 1)] + [
        tuple(tuple(v - (v > r) for v in row)
              for row in u.degeneracies[n - 1]), ()]
    counts = u.counts[:n] + (u.counts[n] - 1,)
    return C.build_sset(n, counts, faces, degeneracies)


@pytest.mark.parametrize("category", [C.cyclic_group(3), C.boolean_monoid()],
                         ids=["Z3", "Bool"])
def test_no_shortcut_at_n_3_of_a_nerve(category):
    # dimension 2 is injective but not onto: some compatible triangles
    # of edges do not compose
    u = C.nerve(category, 3)
    assert len(set(u.faces[2])) == u.counts[2]
    assert not _boundaries_bijective(u, 2)
    assert _boundaries_bijective(u, 3)
    check_rows(C.th0(u), [3])
    check_rows(C.quasicat_e(u), [3])


def test_no_shortcut_where_two_simplices_share_faces():
    u = C.nerve(C.cyclic_group(3), 4)
    r = u.nondegenerate(4)[5].index
    twin = with_twins(u, [r])
    assert _boundaries_bijective(twin, 3) and not _boundaries_bijective(twin, 4)
    for x in (C.th0(twin), C.make_stratified(
            twin, [twin.id_at(4, twin.counts[4] - 1)])):
        check_rows(x, [4])
    # each horn of r is filled twice, so the rows count the horns, not the
    # 4-simplices
    assert _check_family1(0, 4, C.th0(twin)).instances == u.counts[4]


def test_no_shortcut_where_a_boundary_has_no_simplex():
    u = C.nerve(C.cyclic_group(3), 4)
    r = u.nondegenerate(4)[5].index
    holed = without_simplex(u, r)
    assert _boundaries_bijective(holed, 3)
    assert not _boundaries_bijective(holed, 4)
    x = C.th0(holed)
    check_rows(x, [4])
    # each row has the one horn of the missing simplex unfilled
    for k in range(5):
        row = _check_family1(k, 4, x)
        assert (row.instances, len(row.failures)) == (u.counts[4], 1)
    assert not C.verify_weak_complicial(x, 4).passed
    with pytest.raises(errors.NotKan):
        C.assert_kan(holed)


def test_no_shortcut_where_a_twin_stands_in_for_a_missing_simplex():
    # as many 4-simplices as compatible boundaries, but not one for each:
    # the count alone cannot tell, the distinct face rows can
    u = C.nerve(C.cyclic_group(3), 4)
    r, s = (t.index for t in u.nondegenerate(4)[5:7])
    x = C.th0(with_twins(without_simplex(u, r), [s - (s > r)]))
    assert x.counts[4] == u.counts[4]
    assert not _boundaries_bijective(x.underlying, 4)
    check_rows(x, [4])
    assert all(len(_check_family1(k, 4, x).failures) == 1 for k in range(5))


# -- compatible boundaries, by the join on every position --------------------------------

@pytest.mark.parametrize("u", [
    C.delta(2, 3).underlying, C.delta(3, 3).underlying,
    C.boundary(2, 3).underlying, C.boundary(3, 3).underlying,
    C.nerve(C.cyclic_group(2), 4), C.nerve(C.boolean_monoid(), 3),
    C.nerve(C.arrow_category(), 3), C.nerve(C.cyclic_group(3), 3),
], ids=["delta2", "delta3", "boundary2", "boundary3", "Z2", "Bool",
        "arrow", "Z3"])
def test_boundary_join_matches_brute_force(u):
    for m in range(2, u.dim_cap + 1):
        want = reference.face_tuples(u, m, range(m + 1))
        assert list(_horn_rows(u, range(m + 1), m, None)) == want, m
        rows = set(u.faces[m])
        bijective = len(rows) == u.counts[m] and sorted(rows) == want
        assert _boundaries_bijective(u, m) is bijective, m
    pairs = u.counts[0] ** 2
    assert _boundaries_bijective(u, 1) is (len(set(u.faces[1])) == pairs
                                           == u.counts[1])


def test_the_bijection_is_computed_once_per_dimension(monkeypatch):
    u = C.nerve(C.cyclic_group(2), 4)
    counted = []
    horn_rows = lifting._horn_rows

    def spy(xu, js, n, strat):
        counted.append((tuple(js), n))
        return horn_rows(xu, js, n, strat)

    monkeypatch.setattr(lifting, "_horn_rows", spy)
    for _ in range(2):
        assert [_boundaries_bijective(u, m) for m in range(1, 5)] == \
            [False, False, True, True]
    # dimension 3 counts boundaries, dimension 4 only horns, given 3
    assert counted == [((0, 1, 2), 2), ((0, 1, 2, 3), 3), ((0, 1, 2, 3), 4)]


# -- one horn check for verify and the Kan and quasi-category checks -----------------

def test_assert_kan_names_the_first_unfillable_horn():
    with pytest.raises(errors.NotKan) as info:
        C.assert_kan(C.nerve(C.boolean_monoid(), 3))
    assert str(info.value) == \
        "horn (k, n) = (0, 2) unfillable at {1: <1:1 1>, 2: <1:0 0>}"


def test_assert_quasicategory_names_the_first_unfillable_horn():
    horn = C.complicial_horn(1, 2, 2)[0].underlying
    with pytest.raises(errors.NotQuasiCategory) as info:
        C.assert_quasicategory(horn)
    assert str(info.value) == ("inner horn (k, n) = (1, 2) unfillable at "
                               "{0: <1:3 (1, 2)>, 2: <1:1 (0, 1)>}")


def test_horn_checks_stop_at_the_first_unfilled_horn():
    x = C.max_strat(C.nerve(C.boolean_monoid(), 3))
    full = _check_family1(0, 3, x)
    first = _check_family1(0, 3, x, limit=1)
    assert len(full.failures) > 1
    assert first.failures == full.failures[:1]
    assert first.instances < full.instances
