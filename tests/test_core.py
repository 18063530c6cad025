import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import complicial as C
from complicial import errors
from complicial.core import _sset
from complicial.standard import monotone_maps
from complicial.strat import make_stratified_maps

from . import reference
from .conftest import renumbered


def one_point_tables(cap):
    counts = [1] * (cap + 1)
    faces = [[]] + [[[0] * (n + 1)] for n in range(1, cap + 1)]
    degens = [[[0] * (n + 1)] for n in range(cap)] + [[]]
    return cap, counts, faces, degens


def test_one_point_presentation_is_valid():
    x = C.build_sset(*one_point_tables(2))
    assert x.counts == (1, 1, 1)
    assert x.face(x.id_at(2, 0), 1) == x.id_at(1, 0)


def test_identity_violation_is_named():
    # Delta[2] at cap 1 with one face entry corrupted: d_0 d_1 breaks
    d2 = C.delta(2, 2).underlying
    faces = [list(map(list, per)) for per in d2.faces]
    faces[2][d2.id_for_key(2, (0, 1, 2)).index][0] = \
        d2.id_for_key(1, (0, 1)).index
    with pytest.raises(errors.IdentityViolation, match=r"d_0 d_\d"):
        C.build_sset(2, d2.counts, faces, d2.degeneracies)


def test_dangling_reference():
    cap, counts, faces, degens = one_point_tables(1)
    faces[1][0] = [0, 5]
    with pytest.raises(errors.DanglingReference):
        C.build_sset(cap, counts, faces, degens)


def test_face_lookup_on_delta2():
    d2 = C.delta(2, 2).underlying
    top = d2.id_for_key(2, (0, 1, 2))
    assert d2.key_of(d2.face(top, 1)) == (0, 2)
    assert d2.key_of(d2.face(top, 0)) == (1, 2)


def test_face_of_degeneracy_is_identity(th0_z2_3):
    x = th0_z2_3.underlying
    for n in range(x.dim_cap):
        for s in x.simplices(n):
            for j in range(n + 1):
                sj = x.degeneracy(s, j)
                assert x.face(sj, j) == s
                assert x.face(sj, j + 1) == s


def test_degeneracy_at_cap_fails():
    d1 = C.delta(1, 1).underlying
    with pytest.raises(errors.CapExceeded):
        d1.degeneracy(d1.id_at(1, 0), 0)


def test_face_index_out_of_range():
    d1 = C.delta(1, 1).underlying
    with pytest.raises(errors.IndexOutOfRange):
        d1.face(d1.id_at(1, 0), 2)
    with pytest.raises(errors.IndexOutOfRange):
        d1.face(d1.id_at(0, 0), 0)


def test_is_degenerate():
    d2 = C.delta(2, 2).underlying
    v = d2.id_at(0, 0)
    assert d2.is_degenerate(d2.degeneracy(v, 0))
    assert not d2.is_degenerate(d2.id_for_key(2, (0, 1, 2)))
    with pytest.raises(errors.InvalidInput):
        d2.is_degenerate(v)


def test_degenerate_iff_identity_entry_in_nerve(nerve_bool_3):
    # independent scan: a chain in a monoid nerve is degenerate exactly
    # when it contains the identity element
    k = nerve_bool_3
    for n in range(1, 3 + 1):
        for s in k.simplices(n):
            chain = k.keys[n][s.index]
            assert k.is_degenerate(s) == (1 in chain)


def test_nondegenerate_loop_in_boolean_nerve(nerve_bool_3):
    loop0 = nerve_bool_3.id_for_key(1, (0,))
    assert not nerve_bool_3.is_degenerate(loop0)


def test_all_degeneracies_marked(th0_z2_3):
    x = th0_z2_3.underlying
    for n in range(x.dim_cap):
        for s in x.simplices(n):
            for i in range(n + 1):
                assert x.is_degenerate(x.degeneracy(s, i))


def test_double_face_identity_exhaustive(nerve_s3_3):
    x = nerve_s3_3
    for n in range(2, x.dim_cap + 1):
        for s in x.simplices(n):
            for j in range(1, n + 1):
                for i in range(j):
                    assert x.face(x.face(s, j), i) == \
                        x.face(x.face(s, i), j - 1)


def test_const_simplex():
    d1 = C.delta(1, 2).underlying
    v = d1.id_at(0, 0)
    assert d1.key_of(d1.const(v, 2)) == (0, 0, 0)
    assert d1.const(v, 0) == v


def test_const_rejects_negative_dimension():
    d1 = C.delta(1, 2).underlying
    with pytest.raises(errors.InvalidInput):
        d1.const(d1.id_at(0, 0), -1)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("x", [C.SimplexId(0, 5), C.SimplexId(0, -1),
                               C.SimplexId(1, 0)])
def test_const_rejects_a_vertex_not_of_the_complex(x, m):
    u = C.nerve(C.cyclic_group(2), 3)
    with pytest.raises(errors.InvalidInput,
                       match=f"^{x!r} is not a vertex of the complex$"):
        u.const(x, m)


@pytest.mark.parametrize("call", [
    lambda u, x: u.face(x, 0),
    lambda u, x: u.degeneracy(x, 0),
    lambda u, x: u.apply_monotone(x, [0]),
    lambda u, x: u.is_degenerate(x),
    lambda u, x: u.degeneracy_witness(x),
    lambda u, x: u.key_of(x),
], ids=["face", "degeneracy", "apply_monotone", "is_degenerate",
        "degeneracy_witness", "key_of"])
@pytest.mark.parametrize("x", [C.SimplexId(1, 99), C.SimplexId(1, -1),
                               C.SimplexId(3, 0), C.SimplexId(-1, 0)])
def test_simplex_methods_reject_a_simplex_not_of_the_complex(call, x):
    # an index of -1 would otherwise read the last simplex of the dimension
    u = C.nerve(C.cyclic_group(2), 2)
    with pytest.raises(errors.InvalidInput,
                       match=f"^{x!r} is not a simplex of the complex$"):
        call(u, x)


def test_nondegenerate_range_checks_dimension(nerve_z3_3):
    for n in (-1, nerve_z3_3.dim_cap + 1):
        with pytest.raises(errors.IndexOutOfRange):
            nerve_z3_3.nondegenerate(n)


def test_indexes_outside_the_complex_are_refused():
    # a negative index would otherwise read from the end of a dimension
    u = C.delta(1, 2).underlying
    f = C.identity_map(u)
    for call, *args in [
            (u.id_at, -1, 0), (u.id_at, 0, -1), (u.id_at, 5, 0),
            (u.id_at, 1, 3), (u.id_for_key, -1, (0, 1, 1)),
            (u.id_for_key, 3, (0,)), (f, C.SimplexId(-1, 0)),
            (f, C.SimplexId(0, -1)), (f, C.SimplexId(3, 0))]:
        with pytest.raises(errors.IndexOutOfRange):
            call(*args)
    for key in ((0, 1, 1), [0, 1]):
        with pytest.raises(errors.InvalidInput, match="has the key"):
            u.id_for_key(1, key)


# -- build_map ----------------------------------------------------------------

def test_identity_assignment_builds_identity():
    d2 = C.delta(2, 2).underlying
    gens = {s: s for n in range(3) for s in d2.nondegenerate(n)}
    m = C.build_map(d2, d2, gens)
    assert m == C.identity_map(d2)


def test_collapse_to_point():
    d1 = C.delta(1, 1).underlying
    pt = C.build_sset(*one_point_tables(1))
    gens = {
        d1.id_at(0, 0): pt.id_at(0, 0),
        d1.id_at(0, 1): pt.id_at(0, 0),
        d1.id_for_key(1, (0, 1)): pt.id_at(1, 0),
    }
    m = C.build_map(d1, pt, gens)
    assert m(d1.id_for_key(1, (0, 0))) == pt.id_at(1, 0)


def test_build_map_rejects_face_mismatch(nerve_z2_3):
    d2 = C.delta(2, 2).underlying
    x = nerve_z2_3
    v = x.id_at(0, 0)
    e = x.id_for_key(1, (1,))  # the nondegenerate loop
    good_triangle = x.id_for_key(2, (1, 1))
    gens = {s: x.const(v, s.dim) for n in range(2) for s in d2.nondegenerate(n)}
    gens[d2.id_for_key(2, (0, 1, 2))] = good_triangle
    # d_0 of the triangle is the loop a, not the constant edge
    with pytest.raises(errors.NotWellDefined, match="face mismatch"):
        C.build_map(d2, x, gens)
    # fixing the edges makes it valid
    gens[d2.id_for_key(1, (0, 1))] = e
    gens[d2.id_for_key(1, (1, 2))] = e
    gens[d2.id_for_key(1, (0, 2))] = x.id_for_key(1, (0,))
    C.build_map(d2, x, gens)


def test_build_map_requires_generators():
    d1 = C.delta(1, 1).underlying
    with pytest.raises(errors.NotWellDefined, match="no assignment"):
        C.build_map(d1, d1, {d1.id_at(0, 0): d1.id_at(0, 0)})


# -- monotone operator application ---------------------------------------------

@st.composite
def monotone_tuples(draw, target, max_len=4):
    length = draw(st.integers(1, max_len))
    vals = draw(st.lists(st.integers(0, target), min_size=length,
                         max_size=length))
    return tuple(sorted(vals))


@given(monotone_tuples(3))
def test_apply_monotone_on_standard_simplex(values):
    d3 = C.delta(3, 3).underlying
    top = d3.id_for_key(3, (0, 1, 2, 3))
    got = d3.apply_monotone(top, values)
    assert d3.key_of(got) == values


@given(st.data())
def test_apply_monotone_composes(data):
    d3 = C.delta(3, 3).underlying
    top = d3.id_for_key(3, (0, 1, 2, 3))
    a = data.draw(monotone_tuples(3), label="a")
    b = data.draw(monotone_tuples(len(a) - 1), label="b")
    composite = tuple(a[i] for i in b)
    assert d3.apply_monotone(d3.apply_monotone(top, a), b) == \
        d3.apply_monotone(top, composite)


def test_apply_monotone_rejects_bad_input():
    d2 = C.delta(2, 2).underlying
    top = d2.id_for_key(2, (0, 1, 2))
    with pytest.raises(errors.InvalidInput):
        d2.apply_monotone(top, (1, 0))
    with pytest.raises(errors.InvalidInput):
        d2.apply_monotone(top, (0, 3))


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_act_matches_recursive_apply_monotone(data):
    # every monotone map [m] -> [p] within the cap, on a renumbered complex,
    # against the reference's recursive operator
    u = renumbered(data.draw(st.sampled_from([
        C.nerve(C.cyclic_group(3), 3),
        C.nerve(C.symmetric_group_3(), 3),
        C.quasicat_e(C.nerve(C.boolean_monoid(), 3)).underlying,
    ])), data)
    for p in range(u.dim_cap + 1):
        simplices = u.simplices(p)
        for m in range(u.dim_cap + 1):
            for values in monotone_maps(m, p):
                want = [reference.operate(u, p, y.index, values)
                        for y in simplices]
                assert list(u.act(p, values, range(len(simplices)))) == want
                assert [u.apply_monotone(y, values).index
                        for y in simplices] == want


def test_face_indexes_match_tables(nerve_s3_3):
    u = nerve_s3_3
    for n in range(1, u.dim_cap + 1):
        by_row = u.face_index(n)
        for i, row in enumerate(u.faces[n]):
            assert i in by_row[row]
        assert sum(map(len, by_row.values())) == u.counts[n]


def test_lazy_indexes_agree_under_threads():
    # a fresh complex, so every thread races to build the same caches
    x = C.th0(C.nerve(C.symmetric_group_3(), 3))
    u = x.underlying

    def build():
        return u.face_index(3), u.face_index(2), x.thin_indexes()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(build) for _ in range(16)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(r == results[0] for r in results)
    assert results[0] == build()
    assert [len(t) for t in results[0][2]] == [0, 6, 36, 216]


# -- column-wise table validation ----------------------------------------------

def scalar_checks(dim_cap, counts, faces, degens):
    """The range and identity checks of build_sset, one simplex at a time."""
    for n in range(1, dim_cap + 1):
        for i, row in enumerate(faces[n]):
            if len(row) != n + 1:
                raise errors.InvalidInput(
                    f"face row {n}:{i} must have {n + 1} entries")
            for e in row:
                if not 0 <= e < counts[n - 1]:
                    raise errors.DanglingReference(
                        f"face entry {n}:{i} -> {n - 1}:{e} does not exist")
    for n in range(dim_cap):
        for i, row in enumerate(degens[n]):
            if len(row) != n + 1:
                raise errors.InvalidInput(
                    f"degeneracy row {n}:{i} must have {n + 1} entries")
            for e in row:
                if not 0 <= e < counts[n + 1]:
                    raise errors.DanglingReference(
                        f"degeneracy entry {n}:{i} -> {n + 1}:{e} "
                        "does not exist")

    def fc(n, i, j):
        return faces[n][i][j]

    def dg(n, i, j):
        return degens[n][i][j]

    for n in range(2, dim_cap + 1):
        for x in range(counts[n]):
            for j in range(1, n + 1):
                for i in range(j):
                    if fc(n - 1, fc(n, x, j), i) != \
                            fc(n - 1, fc(n, x, i), j - 1):
                        raise errors.IdentityViolation(
                            f"d_{i} d_{j} != d_{j - 1} d_{i} at dim {n} "
                            f"simplex {x}")
    for n in range(dim_cap - 1):
        for x in range(counts[n]):
            for j in range(n + 1):
                for i in range(j + 1):
                    if dg(n + 1, dg(n, x, j), i) != \
                            dg(n + 1, dg(n, x, i), j + 1):
                        raise errors.IdentityViolation(
                            f"s_{i} s_{j} != s_{j + 1} s_{i} at dim {n} "
                            f"simplex {x}")
    for n in range(dim_cap):
        for x in range(counts[n]):
            for j in range(n + 1):
                sx = dg(n, x, j)
                for i in range(n + 2):
                    got = fc(n + 1, sx, i)
                    if i < j:
                        want = dg(n - 1, fc(n, x, i), j - 1)
                        name = f"d_{i} s_{j} != s_{j - 1} d_{i}"
                    elif i in (j, j + 1):
                        want = x
                        name = f"d_{i} s_{j} != id"
                    else:
                        want = dg(n - 1, fc(n, x, i - 1), j)
                        name = f"d_{i} s_{j} != s_{j} d_{i - 1}"
                    if got != want:
                        raise errors.IdentityViolation(
                            f"{name} at dim {n} simplex {x}")


def check_outcome(fn, *args):
    try:
        fn(*args)
    except errors.ComplicialError as exc:
        return type(exc), str(exc)
    return None


VALIDATION_CORPUS = {
    # at cap 2 the loops of N Z3 share their faces, so a corrupted top face
    # of a degenerate triangle breaks a mixed identity and nothing earlier
    "nerve_z3_2": lambda: C.nerve(C.cyclic_group(3), 2),
    "nerve_z3_3": lambda: C.nerve(C.cyclic_group(3), 3),
    "qcat_bool_3": lambda: C.quasicat_e(
        C.nerve(C.boolean_monoid(), 3)).underlying,
    "delta_3": lambda: C.delta(3, 3).underlying,
}


@st.composite
def corrupted_tables(draw, in_range=True):
    u = VALIDATION_CORPUS[draw(st.sampled_from(sorted(VALIDATION_CORPUS)))]()
    faces = [list(map(list, per_dim)) for per_dim in u.faces]
    degens = [list(map(list, per_dim)) for per_dim in u.degeneracies]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            table, n = faces, draw(st.integers(1, u.dim_cap))
            target = n - 1
        else:
            table, n = degens, draw(st.integers(0, u.dim_cap - 1))
            target = n + 1
        row = table[n][draw(st.integers(0, u.counts[n] - 1))]
        low, high = (0, u.counts[target] - 1) if in_range \
            else (-2, u.counts[target] + 2)
        row[draw(st.integers(0, n))] = draw(st.integers(low, high))
    return u.dim_cap, u.counts, faces, degens


@given(corrupted_tables())
def test_columnwise_identity_checks_match_scalar_loops(tables):
    want = check_outcome(scalar_checks, *tables)
    assert check_outcome(C.build_sset, *tables) == want


@given(corrupted_tables(in_range=False))
def test_columnwise_range_checks_match_scalar_loops(tables):
    want = check_outcome(scalar_checks, *tables)
    assert check_outcome(C.build_sset, *tables) == want


@pytest.mark.parametrize("name", sorted(VALIDATION_CORPUS))
def test_every_single_corruption_matches_scalar_loops(name):
    # exhaustive over the first simplices of every table of one complex
    u = VALIDATION_CORPUS[name]()
    tables = [list(map(list, per_dim)) for per_dim in u.faces], \
        [list(map(list, per_dim)) for per_dim in u.degeneracies]
    seen = set()
    for which, table in enumerate(tables):
        for n, per_dim in enumerate(table):
            for row in per_dim[:4]:
                target = n - 1 if which == 0 else n + 1
                for pos in range(len(row)):
                    keep = row[pos]
                    for value in range(u.counts[target]):
                        row[pos] = value
                        args = (u.dim_cap, u.counts, *tables)
                        got = check_outcome(C.build_sset, *args)
                        assert got == check_outcome(scalar_checks, *args)
                        seen.add(got and got[1].split(" at ")[0])
                    row[pos] = keep
    assert len(seen) > 3  # several identities were broken and named


@pytest.mark.parametrize("cap", [True, False, 1.0, "1", None, -1])
def test_build_sset_rejects_a_cap_that_is_not_a_natural_number(cap):
    # the tables are those of the point at cap 1, which 1.0 and True equal
    _, counts, faces, degens = one_point_tables(1)
    with pytest.raises(errors.InvalidInput,
                       match="dim_cap must be a natural number, not"):
        C.build_sset(cap, counts, faces, degens)


@pytest.mark.parametrize("label", [0, 1.5, b"a", ("a",)])
def test_build_sset_rejects_labels_that_are_not_strings(label):
    cap, counts, faces, degens = one_point_tables(1)
    with pytest.raises(errors.InvalidInput,
                       match="labels must be strings or None"):
        C.build_sset(cap, counts, faces, degens, labels=[[label], [None]])


@pytest.mark.parametrize("counts, faces, degens, message", [
    ([1, 1.9], [[], [[0, 0]]], [[[0]], []],
     "count at dim 1 must be an int, not 1.9"),
    ([True, 1], [[], [[0, 0]]], [[[0]], []],
     "count at dim 0 must be an int, not True"),
    ([1, 1], [[], [["0", 0.7]]], [[[0]], []],
     "face table at dim 1 has an entry that is not an int: '0'"),
    ([1, 1], [[], [[0, 0.7]]], [[[0]], []],
     "face table at dim 1 has an entry that is not an int: 0.7"),
    ([1, 1], [[], [[0, 0]]], [[[False]], []],
     "degeneracy table at dim 0 has an entry that is not an int: False"),
])
def test_build_sset_refuses_entries_that_are_not_ints(counts, faces, degens,
                                                      message):
    # each would once be read with int(), as the point at cap 1
    with pytest.raises(errors.InvalidInput, match=re.escape(message)):
        C.build_sset(1, counts, faces, degens)


@pytest.mark.parametrize("entry", ["0", 0.9, 0.0, True, False])
def test_maps_refuse_assignments_that_are_not_ints(entry):
    d = C.delta(0, 0)
    message = f"assignment at dim 0 has an entry that is not an int: {entry!r}"
    with pytest.raises(errors.InvalidInput, match=re.escape(message)):
        C.make_simplicial_map(d.underlying, d.underlying, [[entry]])
    with pytest.raises(errors.InvalidInput, match=re.escape(message)):
        make_stratified_maps(d, d, [[[0]], [[entry]]])


def test_build_sset_takes_keys_and_labels_only_as_tables():
    cap, counts, faces, degens = one_point_tables(0)
    for given in ({"keys": lambda n: (0,)}, {"labels": lambda n: ("a",)}):
        with pytest.raises(errors.InvalidInput,
                           match="must be given per dimension"):
            C.build_sset(cap, counts, faces, degens, **given)


def test_then_refuses_a_composite_through_a_smaller_cap():
    high, low = C.delta(0, 3), C.delta(0, 1)
    down = C.make_simplicial_map(high.underlying, low.underlying, [[0]] * 2)
    up = C.make_simplicial_map(low.underlying, high.underlying, [[0]] * 2)
    message = "passes through cap 1, below the caps 3 and 3 of its ends"
    with pytest.raises(errors.InvalidInput, match=message):
        down.then(up)
    with pytest.raises(errors.InvalidInput, match=message):
        C.make_stratified_map(high, low, down).then(
            C.make_stratified_map(low, high, up))
    # through a larger cap, or ending at the smaller one, it covers its ends
    assert up.then(down).assign == ((0,), (0,))
    assert down.then(C.identity_map(low.underlying)) == down



# the 1-simplex as rows: two vertices, three edges (two of them degenerate)
D1_FACES = [[], [(0, 0), (1, 0), (1, 1)]]
D1_DEGENS = [[(0,), (2,)], []]


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, (2, 3), 5, D1_DEGENS), {}, "malformed face table"),
    ((1, (2, 3), [[], [(0, 0), (1, 0)]], D1_DEGENS), {},
     "face table at dim 1 is not index-complete"),
    ((1, (2,), D1_FACES, D1_DEGENS), {}, "counts must list dimensions 0..1"),
    ((1, (2, -3), D1_FACES, D1_DEGENS), {},
     "counts must list dimensions 0..1"),
    ((1, (2, 3), D1_FACES[1:], D1_DEGENS), {},
     "tables must be indexed by dimension 0..dim_cap"),
    ((1, (2, 3), [[(0,)], D1_FACES[1]], D1_DEGENS), {},
     "faces[0] and degeneracies[dim_cap] must be empty"),
    ((1, (2, 3), D1_FACES, D1_DEGENS), {"keys": [[0, 1], [0, 1]]},
     "keys must cover every simplex"),
    ((1, (2, 3), D1_FACES, D1_DEGENS), {"labels": [["a", "b"], []]},
     "labels must cover every simplex"),
    ((1, (2, 3), D1_FACES, D1_DEGENS), {"keys": [[0, 0], [0, 1, 2]]},
     "keys must be unique within a dimension"),
], ids=["malformed", "rows", "count-length", "negative-count", "table-length",
        "faces0", "keys-cover", "labels-cover", "keys-unique"])
def test_build_sset_rejects_malformed_tables(args, kwargs, message):
    with pytest.raises(errors.InvalidInput, match=re.escape(message)):
        C.build_sset(*args, **kwargs)
    # the same tables, put right, are the 1-simplex
    assert C.build_sset(1, (2, 3), D1_FACES, D1_DEGENS) == \
        C.delta(1, 1).underlying


def test_build_map_rejects_assignments_it_cannot_extend():
    d1, d2 = C.delta(1, 1).underlying, C.delta(1, 2).underlying
    v, e = d1.id_at(0, 0), d1.id_at(1, 0)
    with pytest.raises(errors.InvalidInput, match="differ in dimension"):
        C.build_map(d1, d1, {v: e})
    # above the shared cap: C.SimplexId(2, 0) is a simplex of neither cap
    with pytest.raises(errors.InvalidInput,
                       match=re.escape("lies above the shared cap 1")):
        C.build_map(d2, d1, {d2.id_at(2, 0): C.SimplexId(2, 0)})
    # s_0 of vertex 0 is its constant edge, not the edge (0, 1)
    gens = {s: s for n in range(2) for s in d2.nondegenerate(n)}
    gens[d2.id_for_key(1, (0, 0))] = d2.id_for_key(1, (0, 1))
    with pytest.raises(errors.NotWellDefined,
                       match="degeneracy propagation conflict at dim 1"):
        C.build_map(d2, d2, gens)


def test_maps_that_do_not_compose_are_refused():
    d1, d2 = C.delta(1, 1), C.delta(2, 2)
    one, two = C.identity_map(d1.underlying), C.identity_map(d2.underlying)
    with pytest.raises(errors.InvalidInput, match="maps are not composable"):
        one.then(two)
    with pytest.raises(errors.InvalidInput, match="maps are not composable"):
        C.make_stratified_map(d1, d1, one).then(
            C.make_stratified_map(d2, d2, two))
    with pytest.raises(errors.InvalidInput,
                       match="does not match the stratified ends"):
        C.make_stratified_map(d1, d1, two)


def test_keys_are_refused_on_a_complex_without_them():
    u = C.build_sset(1, (2, 3), D1_FACES, D1_DEGENS)
    with pytest.raises(errors.InvalidInput, match="carries no simplex keys"):
        u.id_for_key(0, (0,))
    with pytest.raises(errors.InvalidInput, match="carries no simplex keys"):
        u.key_of(u.id_at(0, 0))


def test_operators_out_of_range_are_refused():
    d1 = C.delta(1, 2).underlying
    with pytest.raises(errors.IndexOutOfRange,
                       match=re.escape("degeneracy index 2 outside 0..1")):
        d1.degeneracy(d1.id_at(1, 0), 2)
    with pytest.raises(errors.CapExceeded,
                       match="constant 3-simplex exceeds cap 2"):
        d1.const(d1.id_at(0, 0), 3)
    with pytest.raises(errors.CapExceeded,
                       match="result dimension 3 exceeds cap 2"):
        d1.apply_monotone(d1.id_at(1, 1), [0, 0, 1, 1])


def test_degeneracy_witness_of_a_degenerate_simplex():
    d2 = C.delta(2, 2).underlying
    for s in d2.simplices(2):
        if d2.is_degenerate(s):
            y, i = d2.degeneracy_witness(s)
            assert d2.degeneracy(y, i) == s
        else:
            with pytest.raises(errors.InvalidInput, match="is not degenerate"):
                d2.degeneracy_witness(s)


# -- rows checked at entry, columns trusted by the core --------------------------

TWO_ENTRY_CORPUS = {
    "nerve_z3_3": lambda: C.nerve(C.cyclic_group(3), 3),
    "nerve_arrow_3": lambda: C.nerve(C.arrow_category(), 3),
    "delta_t_1_3": lambda: C.delta_t(1, 3).underlying,
    "comp_delta_1_2": lambda: C.complicial_delta(1, 2, 3).underlying,
}


@st.composite
def one_corruption(draw):
    """The tables of a complex with one fault, and the fault: its kind,
    the table's name, dimension and target dimension, the row and the
    entry it put there (None when it took one away)."""
    u = TWO_ENTRY_CORPUS[draw(st.sampled_from(sorted(TWO_ENTRY_CORPUS)))]()
    faces = [list(map(list, per_dim)) for per_dim in u.faces]
    degens = [list(map(list, per_dim)) for per_dim in u.degeneracies]
    if draw(st.booleans()):
        table, n, what = faces, draw(st.integers(1, u.dim_cap)), "face"
        target = n - 1
    else:
        table, n = degens, draw(st.integers(0, u.dim_cap - 1))
        what, target = "degeneracy", n + 1
    kind = draw(st.sampled_from(["range", "identity", "long", "short"]))
    if kind == "long":
        i, entry = 0, draw(st.integers(0, u.counts[target] - 1))
        table[n][i].append(entry)
    elif kind == "short":
        i, entry = u.counts[n] - 1, None
        table[n][i].pop()
    else:
        i = draw(st.integers(0, u.counts[n] - 1))
        values = st.integers(0, u.counts[target] - 1) if kind == "identity" \
            else st.integers(-3, -1) | st.integers(u.counts[target],
                                                   u.counts[target] + 3)
        entry = draw(values)
        table[n][i][draw(st.integers(0, n))] = entry
    return (u.dim_cap, u.counts, faces, degens), (kind, what, n, target, i,
                                                  entry)


@settings(max_examples=150, deadline=None)
@given(one_corruption())
def test_rows_and_columns_are_validated_alike(corrupted):
    tables, (kind, what, n, target, i, entry) = corrupted
    cap, counts, faces, degens = tables
    by_rows = check_outcome(C.build_sset, *tables)
    if kind == "range":
        assert by_rows == (errors.DanglingReference, f"{what} entry {n}:{i} "
                           f"-> {target}:{entry} does not exist")
    elif kind in ("long", "short"):
        assert by_rows == (errors.InvalidInput,
                           f"{what} row {n}:{i} must have {n + 1} entries")
    else:
        # the core, given the columns of the rows, names the same identity
        columns = ([()] + [tuple(zip(*faces[n])) for n in range(1, cap + 1)],
                   [tuple(zip(*degens[n])) for n in range(cap)] + [()])
        args = (cap, counts, *columns, None, None)
        assert by_rows is None or by_rows[0] is errors.IdentityViolation
        assert check_outcome(_sset, *args) == by_rows
        if by_rows is None:
            assert C.build_sset(*tables) == _sset(*args)


def test_only_build_sset_checks_the_shapes_of_tables(monkeypatch, tmp_path,
                                                     capsys):
    # constructors' columns are right by construction, and a document's
    # tables are checked as they are read: neither is checked again
    from complicial import cli, core, documents

    calls = []
    checked_columns = core._checked_columns

    def spy(*args):
        calls.append(args[1])
        return checked_columns(*args)

    monkeypatch.setattr(core, "_checked_columns", spy)
    k = C.th0(C.nerve(C.cyclic_group(3), 3))
    square = C.gproduct(k, C.delta(1, 3))
    C.regular_subset(square, [square.underlying.id_at(2, 5)])
    path = tmp_path / "square.json"
    path.write_text(documents.complex_text(square))
    assert cli.main(["build", "th0", str(path)]) == 0
    capsys.readouterr()
    assert calls == []
    C.build_sset(*one_point_tables(2))
    assert calls == [1, 2, 0, 1]


def test_per_dimension_tables_compare_by_their_entries():
    u, v = C.nerve(C.cyclic_group(3), 3), C.nerve(C.cyclic_group(3), 3)
    assert u.faces == v.faces and u.degeneracies == v.degeneracies
    assert u.ids == u.ids == v.ids
    assert u.faces == tuple(u.faces) and tuple(u.faces) == u.faces
    assert u.faces != v.degeneracies
    assert u.faces != list(u.faces)
    w = C.nerve(C.cyclic_group(2), 3)
    assert u.faces != w.faces and u.ids != w.ids
    with pytest.raises(TypeError):
        hash(u.faces)


def test_degeneracy_witnesses_are_the_first_in_row_order(nerve_s3_3):
    for u in (nerve_s3_3, C.gproduct(C.delta(1, 3), C.delta(2, 3)).underlying):
        want = [[None] * c for c in u.counts]
        for n in range(u.dim_cap):
            for i, row in enumerate(u.degeneracies[n]):
                for j, target in enumerate(row):
                    if want[n + 1][target] is None:
                        want[n + 1][target] = (i, j)
        assert u.deg_witness == tuple(map(tuple, want))


def test_no_row_table_is_made_inside_the_package(monkeypatch, tmp_path,
                                                 capsys):
    # faces[n] and degeneracies[n] are for API callers: the commands and
    # the searches read the columns only
    from complicial import adapters, cli, core

    made = []

    def spy(columns):
        made.append(len(columns))
        return rows(columns)

    rows = core._rows
    monkeypatch.setattr(core, "_rows", spy)
    (tmp_path / "bool.json").write_text(
        '{"elements": ["0", "1"], "unit": "1",'
        ' "table": [["0", "0"], ["0", "1"]]}')

    def run(*argv):
        assert cli.main(list(argv)) in (0, 2)

    for name, path in (("nerve", "bool.json"), ("th0", "nerve.json"),
                       ("qcat-e", "nerve.json")):
        extra = ["--monoid", str(tmp_path / path), "--cap", "3"] \
            if name == "nerve" else [str(tmp_path / path)]
        run("build", name, *extra, "--out", str(tmp_path / f"{name}.json"))
    for name in ("nerve", "th0", "qcat-e"):
        run("verify", str(tmp_path / f"{name}.json"))
    run("tau", str(tmp_path / "qcat-e.json"), "--n", "1",
        "--audit-well-defined")
    run("tau", str(tmp_path / "th0.json"), "--n", "2")
    run("tau0", str(tmp_path / "qcat-e.json"))
    capsys.readouterr()
    k = C.nerve(C.cyclic_group(3), 3)
    adapters.pi_oracle(k, k.id_at(0, 0), 1)
    assert made == []
    x = C.th0(C.nerve(C.cyclic_group(2), 3))
    # the spy sees a row table that is made
    assert len(x.underlying.faces[2]) == x.underlying.counts[2]
    assert made == [3]
