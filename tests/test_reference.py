"""The engine against the brute-force references of ``tests/reference.py``:
every ``verify`` row and tau_1 at cap 2 on random stratifications of the
nerves of every monoid of order at most 3 and of the standard complexes,
at caps up to 3, tau_1 on ``qcat-e`` of the monoids that are not groups,
and tau_n for n = 2 and 3 on the Street nerves of the suspensions of
commutative monoids and on their restratifications."""

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial.lifting import _batch_fillers

from . import reference
from .conftest import check_tau, random_thin, renumbered, report_rows

MONOIDS = [t for order in (1, 2, 3) for t in reference.monoids(order)]
Z2, BOOL = reference.monoids(2)
Z3 = tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3))


def monoid_category(table):
    names = [str(a) for a in range(len(table))]
    return C.monoid_category(names, "0", [[str(v) for v in row]
                                          for row in table])


def test_every_monoid_of_order_up_to_3_and_its_nerve():
    assert [len(reference.monoids(order)) for order in (1, 2, 3)] == [1, 2, 7]
    for table in MONOIDS:
        c = monoid_category(table)
        assert C.nerve(c, 3) == reference.nerve(c, 3)
        assert reference.is_group(table, 0) == all(map(c.is_iso, range(
            len(table))))


@pytest.mark.parametrize("table", [t for t in MONOIDS
                                   if not reference.is_group(t, 0)])
def test_tau1_of_qcat_e_of_a_monoid_that_is_no_group(table):
    x = C.quasicat_e(C.nerve(monoid_category(table), 2))
    got = check_tau(x, x.underlying.id_at(0, 0), 1)
    assert not got.is_group and len(got.classes) == len(table)


def test_tau1_where_a_product_depends_on_the_filler():
    # one vertex and the loops c (constant), a and b, every triangle thin;
    # each loop is homotopic only to itself, and the product horn of (a, b)
    # has the fillers (a, c, b), (a, a, b) and (a, b, b), given by their
    # faces (d0, d1, d2)
    c, a, b = 0, 1, 2
    triangles = [(c, c, c), (a, a, c), (c, a, a), (b, b, c), (c, b, b),
                 (a, c, a), (a, c, b), (b, c, a), (b, c, b), (a, a, b),
                 (a, b, b)]
    u = C.build_sset(2, [1, 3, len(triangles)],
                     [[], [(0, 0)] * 3, triangles],
                     [[(c,)], [(0, 0), (1, 2), (3, 4)], []])
    x = C.make_stratified(u, u.simplices(2))
    table = check_tau(x, u.id_at(0, 0), 1)
    assert reference.tau(x, 0, 1).products[a][b] == {c, a, b}
    assert table.table[a][b] == c and not table.is_group
    assert not C.audit_well_defined(x, u.id_at(0, 0), table).all_consistent


def test_marking_matters_on_one_nerve():
    # th0 of the nerve of Bool fails the lifting conditions, its qcat-e
    # passes them, and its tau_1 is a monoid that is no group
    u = C.nerve(C.boolean_monoid(), 3)
    for x, passed in ((C.th0(u), False), (C.quasicat_e(u), True)):
        report = C.verify_weak_complicial(x, 3)
        assert report.passed is passed
        assert report_rows(report) == reference.verify_rows(x, 3)
    assert not check_tau(x, x.underlying.id_at(0, 0), 1).is_group


def standard_complex(data, cap):
    """The complex underlying a drawn standard complex at ``cap``."""
    n = data.draw(st.integers(0, cap))
    build = data.draw(st.sampled_from([
        C.delta, C.delta_t, C.boundary] + [C.complicial_delta, C.delta_prime,
                                           C.delta_dprime, C.horn_prime,
                                           C.complicial_horn] * (n > 0)))
    if build in (C.delta, C.delta_t, C.boundary):
        return build(n, cap).underlying
    x = build(data.draw(st.integers(0, n)), n, cap)
    return (x[0] if build is C.complicial_horn else x).underlying


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_engine_matches_the_reference_on_random_stratifications(data):
    cap = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        u = C.nerve(monoid_category(data.draw(st.sampled_from(MONOIDS))), cap)
    else:
        u = standard_complex(data, cap)
    x = random_thin(renumbered(u, data), data)
    assert report_rows(C.verify_weak_complicial(x, cap)) == \
        reference.verify_rows(x, cap)
    if cap >= 2 and u.counts[0]:
        check_tau(x, data.draw(st.sampled_from(x.simplices(0))), 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_fillers_order_fillers_by_the_kth_face(data):
    # in a monoid that is no group some element is not cancellable, so some
    # horn at k = 0 or 2 has fillers whose k-th faces differ; renumbered,
    # index order says nothing about that order
    table = data.draw(st.sampled_from([t for t in MONOIDS
                                       if not reference.is_group(t, 0)]))
    u = renumbered(C.nerve(monoid_category(table), 2), data)
    x = C.max_strat(u)
    spread = 0
    for k in range(3):
        horns = reference.horn_tuples(u, k, 2, x.thin_indexes())
        got = _batch_fillers(x, k, 2, horns)
        assert got == [reference.fillers(x, k, 2, h) for h in horns]
        spread += sum(len({u.faces[2][w][k] for w in found}) > 1
                      for found in got)
    assert spread


# -- tau_n of suspensions -----------------------------------------------------

def test_street_nerves_of_double_suspensions_count_their_solutions():
    # one n-simplex per element, and one (n+1)-simplex per solution of
    # a + c = b + d: 8 in Z2, 10 in Bool
    assert reference.street_nerve(Z2, 2, 3).underlying.counts == (1, 1, 2, 8)
    assert reference.street_nerve(BOOL, 2, 3).underlying.counts == \
        (1, 1, 2, 10)


@pytest.mark.parametrize("table, n, cap", [
    *[(t, 2, 3) for t in MONOIDS if t == tuple(zip(*t))],
    *[(t, 3, 4) for t in (Z2, Z3, BOOL)],
])
def test_tau_n_of_a_suspension_is_its_monoid(table, n, cap):
    # the n-simplices of the Street nerve of the n-fold suspension are the
    # elements, in order, each alone in its class
    x = reference.street_nerve(table, n, cap)
    assert C.verify_weak_complicial(x, cap).passed
    got = check_tau(x, x.underlying.id_at(0, 0), n)
    assert len(got.classes) == len(table) and got.table == table
    assert got.is_group == reference.is_group(table, 0)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_tau_n_matches_the_reference_on_restratified_suspensions(data):
    # the n-simplices thin with probability 0, 0.3 or 0.6 and the simplices
    # above n with probability 0.7 to 1: the join runs over several
    # elements, some tops lose their simplices and some product horns
    # their fillers
    table = data.draw(st.sampled_from([Z2, Z3, BOOL]))
    n = data.draw(st.integers(2, 3))
    u = reference.street_nerve(table, n, n + 1).underlying
    low = data.draw(st.sampled_from([0, 0.3, 0.6]))
    high = data.draw(st.floats(0.7, 1))
    rng = data.draw(st.randoms(use_true_random=False))
    x = C.make_stratified(u, [s for m in (n, n + 1) for s in u.nondegenerate(m)
                              if rng.random() < (low if m == n else high)])
    check_tau(x, x.underlying.id_at(0, 0), n)
