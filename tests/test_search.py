"""The extension search, a join over its unknowns, against the reference
search written from the definition (``tests/reference.py``): the same maps
in the same order."""

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import errors
from complicial.core import TruncatedSSet
from complicial.homotopy import _Cylinder

from . import reference
from .conftest import random_thin, renumbered


def check_against_reference(problem):
    """``find_extensions`` with and without a limit of 1 gives the maps of
    the reference's backtracking search, in its order.  Returns the number
    of maps."""
    want = reference.solve(problem)
    assert [s.map.assign for s in C.find_extensions(problem)] == want
    assert [s.map.assign for s in C.find_extensions(problem, 1)] == want[:1]
    return len(want)


def cylinder_problem(x, f, g, rel):
    """The extension problem of a homotopy from ``f`` to ``g`` rel ``rel``,
    pinned as :meth:`_Cylinder.solve` pins it."""
    cylinder = _Cylinder(f.source, rel)
    rows = [[(fr + gr)[r] for r in plan] for plan, fr, gr
            in zip(cylinder._plan, f.map.assign, g.map.assign)]
    partial = C.make_stratified_map(
        cylinder.inclusion.source, x, C.make_simplicial_map(
            cylinder.inclusion.source.underlying, x.underlying, rows))
    return C.ExtensionProblem(cylinder.inclusion, partial)


def pinned_vertex_problem(b, v, x, w):
    """Maps Δ[n] -> X (as stratified by ``b``) sending vertex ``v`` to the
    vertex ``w`` of X: the point included at ``v``, mapped to ``w``."""
    point = C.delta(0, b.cap)
    pu, bu, xu = point.underlying, b.underlying, x.underlying
    inclusion = C.make_stratified_map(point, b, C.make_simplicial_map(
        pu, bu, [[bu.id_for_key(m, (v,) * (m + 1)).index]
                 for m in range(b.cap + 1)]))
    partial = C.make_stratified_map(point, x, C.make_simplicial_map(
        pu, xu, [[xu.const(xu.id_at(0, w), m).index]
                 for m in range(b.cap + 1)]))
    return C.ExtensionProblem(inclusion, partial)


CATEGORIES = [C.cyclic_group(2), C.cyclic_group(3), C.boolean_monoid(),
              C.arrow_category()]


def drawn_stratification(data, u):
    """``u`` stratified by a drawn marking: th0, qcat-e or at random."""
    kind = data.draw(st.sampled_from(["th0", "qcat-e", "random"]))
    if kind == "th0":
        return C.th0(u)
    return C.quasicat_e(u) if kind == "qcat-e" else random_thin(u, data)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_join_search_matches_backtracking_search(data):
    category = data.draw(st.sampled_from(CATEGORIES))
    u = renumbered(C.nerve(category, 3), data)
    x = drawn_stratification(data, u)
    xu = x.underlying
    kind = data.draw(st.sampled_from(["cylinder", "horn", "vertex"]))
    if kind == "cylinder":
        # two n-simplices with the same boundary, rel that boundary or not
        n = data.draw(st.integers(1, 2))
        p = xu.id_at(n, data.draw(st.integers(0, xu.counts[n] - 1)))
        same = [q for q in xu.simplices(n)
                if all(xu.face(q, j) == xu.face(p, j) for j in range(n + 1))]
        q = data.draw(st.sampled_from(same))
        f, g = (C.classifying_map(x, s, cap=n + 1) for s in (p, q))
        rel = data.draw(st.sampled_from([C.boundary_pair(n, n + 1)[1], None]))
        problem = cylinder_problem(x, f, g, rel)
    elif kind == "horn":
        n = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(0, n))
        instances = list(C.horn_instances(k, n, x))
        if not instances:
            return
        faces = data.draw(st.sampled_from(instances))
        horn, inc = C.complicial_horn(k, n, n)
        problem = C.ExtensionProblem(inc,
                                     C.assemble_horn_map(horn, faces, x))
    else:
        n = data.draw(st.integers(1, 3))
        b = data.draw(st.sampled_from([
            C.delta(n, n), C.delta_t(n, n),
            C.complicial_delta(data.draw(st.integers(0, n)), n, n)]))
        problem = pinned_vertex_problem(
            b, data.draw(st.integers(0, n)),
            x, data.draw(st.integers(0, xu.counts[0] - 1)))
    check_against_reference(problem)


@pytest.mark.parametrize("complex_, n, p, q, count", [
    # loops of a group nerve are homotopic only to themselves, and in
    # qcat-e of the boolean monoid its two loops are not homotopic
    ("th0_s3_3", 1, 1, 1, 1), ("th0_s3_3", 1, 1, 2, 0),
    ("qcat_bool_3", 1, 0, 1, 0), ("th0_z2_3", 2, 0, 0, 1),
])
def test_cylinders_with_and_without_extensions(request, complex_, n, p, q,
                                               count):
    x = request.getfixturevalue(complex_)
    elements = C.sphere_elements(x, x.underlying.id_at(0, 0), n)
    f, g = (C.classifying_map(x, elements[i], cap=n + 1) for i in (p, q))
    problem = cylinder_problem(x, f, g, C.boundary_pair(n, n + 1)[1])
    assert check_against_reference(problem) == count


def test_horn_into_minimal_simplex_matches_backtracking_search():
    # the horn's edges into the minimal 2-simplex: no thin filler
    x = C.delta(2, 2)
    u = x.underlying
    horn, inc = C.complicial_horn(1, 2, 2)
    faces = {0: u.id_for_key(1, (1, 2)), 2: u.id_for_key(1, (0, 1))}
    problem = C.ExtensionProblem(inc, C.assemble_horn_map(horn, faces, x))
    assert check_against_reference(problem) == 0


def test_maps_of_the_3_simplex_into_the_s3_nerve(th0_s3_3):
    problem = pinned_vertex_problem(C.delta(3, 3), 0, th0_s3_3, 0)
    assert check_against_reference(problem) == 216


class CountingIndex(dict):
    """A face-row index that counts its lookups in ``lookups``."""

    lookups = 0

    def get(self, *args):
        CountingIndex.lookups += 1
        return super().get(*args)


def test_limit_one_stops_at_the_first_solution(monkeypatch, th0_s3_3):
    problem = pinned_vertex_problem(C.delta(3, 3), 0, th0_s3_3, 0)
    face_index = TruncatedSSet.face_index
    monkeypatch.setattr(TruncatedSSet, "face_index",
                        lambda self, n: CountingIndex(face_index(self, n)))
    lookups = []
    for limit in (None, 1):
        CountingIndex.lookups = 0
        found = C.find_extensions(problem, limit)
        lookups.append(CountingIndex.lookups)
    assert len(found) == 1
    # the first candidate of every unknown leads to a map, so the first
    # map takes one lookup per edge, triangle and the top (vertices need
    # none); all maps take one per partial solution of every level
    assert lookups[1] == 6 + 4 + 1 < lookups[0]


@pytest.mark.parametrize("limit", [1.5, True, False, 0, -1, "1"])
def test_limit_must_be_a_positive_integer(th0_s3_3, limit):
    problem = pinned_vertex_problem(C.delta(3, 3), 0, th0_s3_3, 0)
    with pytest.raises(errors.InvalidInput,
                       match="limit must be a positive integer"):
        C.find_extensions(problem, limit)
