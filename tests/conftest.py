import pytest
from hypothesis import strategies as st

import complicial as C


@pytest.fixture(scope="session")
def z2():
    return C.cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return C.cyclic_group(3)


@pytest.fixture(scope="session")
def s3():
    return C.symmetric_group_3()


@pytest.fixture(scope="session")
def nerve_z2_3(z2):
    return C.nerve(z2, 3)


@pytest.fixture(scope="session")
def nerve_z2_4(z2):
    return C.nerve(z2, 4)


@pytest.fixture(scope="session")
def nerve_z3_3(z3):
    return C.nerve(z3, 3)


@pytest.fixture(scope="session")
def nerve_s3_3(s3):
    return C.nerve(s3, 3)


@pytest.fixture(scope="session")
def nerve_bool_3():
    return C.nerve(C.boolean_monoid(), 3)


@pytest.fixture(scope="session")
def th0_z2_3(nerve_z2_3):
    return C.th0(nerve_z2_3)


@pytest.fixture(scope="session")
def th0_z2_4(nerve_z2_4):
    return C.th0(nerve_z2_4)


@pytest.fixture(scope="session")
def th0_s3_3(nerve_s3_3):
    return C.th0(nerve_s3_3)


@pytest.fixture(scope="session")
def qcat_bool_3(nerve_bool_3):
    return C.quasicat_e(nerve_bool_3)


@pytest.fixture(scope="session")
def point_3():
    return C.delta(0, 3)


def vertex(x):
    """The first vertex of a stratified complex."""
    return x.underlying.id_at(0, 0)


def renumbered(u, data):
    """``u`` with the simplices of each dimension renumbered by a drawn
    permutation, so that index order says nothing about face order."""
    perm = [data.draw(st.permutations(range(c))) for c in u.counts]
    old = [sorted(range(c), key=perm[n].__getitem__)
           for n, c in enumerate(u.counts)]
    faces = [()] + [
        tuple(tuple(perm[n - 1][v] for v in u.faces[n][i]) for i in old[n])
        for n in range(1, u.dim_cap + 1)
    ]
    degeneracies = [
        tuple(tuple(perm[n + 1][v] for v in u.degeneracies[n][i])
              for i in old[n])
        for n in range(u.dim_cap)
    ] + [()]
    return C.build_sset(u.dim_cap, u.counts, faces, degeneracies)


def transformation_table(data, unit=False):
    """The table of a drawn semigroup of maps of a small set, with the
    identity map when ``unit``, its elements in a drawn order: "f then g"
    at row f, column g.  It is associative, and has no unit in general."""
    degree = data.draw(st.integers(1, 3))
    maps = st.tuples(*[st.integers(0, degree - 1)] * degree)
    elements = set(data.draw(st.lists(maps, min_size=1, max_size=3)))
    if unit:
        elements.add(tuple(range(degree)))
    while True:
        more = {tuple(g[v] for v in f) for f in elements
                for g in elements} - elements
        if not more:
            break
        elements |= more
    elements = data.draw(st.permutations(sorted(elements)))
    index = {f: i for i, f in enumerate(elements)}
    return [[index[tuple(g[v] for v in f)] for g in elements]
            for f in elements]


def recursive_apply_monotone(u, y, values):
    """``u.apply_monotone(y, values)`` written out on ``SimplexId``s: a face
    walk for the missed vertices, then the repeats peeled one elementary
    degeneracy at a time, recursively.  A reference independent of
    ``TruncatedSSet.act``; ``values`` is assumed valid."""
    image = set(values)
    for j in range(y.dim, -1, -1):
        if j not in image:
            y = u.face(y, j)
    ranks = sorted(image)

    def expand(z, word):
        # the word factors through the collapse of positions t, t+1, so
        # that s_t is applied last
        for t in range(len(word) - 1):
            if word[t] == word[t + 1]:
                return u.degeneracy(expand(z, word[:t + 1] + word[t + 2:]), t)
        return z

    return expand(y, [ranks.index(v) for v in values])
