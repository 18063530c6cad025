import pytest
from hypothesis import strategies as st

import complicial as C
from complicial import errors, homotopy

from . import reference


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


def random_thin(u, data):
    """``u`` stratified by a drawn marking: per positive dimension, every
    simplex thin or each nondegenerate one drawn on its own."""
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


def with_twins(u, tops):
    """``u`` with one more top simplex for each of ``tops``, on its face
    row, so that faces no longer determine simplices."""
    n, rows = u.dim_cap, u.faces[u.dim_cap]
    counts = u.counts[:n] + (u.counts[n] + len(tops),)
    faces = list(u.faces[:n]) + [rows + tuple(rows[r] for r in tops)]
    return C.build_sset(n, counts, faces, u.degeneracies)


def z3_bool():
    """The monoid Z3 x Bool, Bool under AND: its th0 nerve fails outer horns."""
    elems = [(i, b) for b in (1, 0) for i in range(3)]
    name = lambda e: f"{e[0]}{'u' if e[1] else 'z'}"  # noqa: E731
    table = [[name(((a[0] + b[0]) % 3, a[1] * b[1])) for b in elems]
             for a in elems]
    return C.monoid_category([name(e) for e in elems], "0u", table)


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


def report_rows(report):
    """The rows of a ``verify`` report as ``reference.verify_rows`` has
    them."""
    return [(r.family, r.k, r.n, r.instances, [f.detail for f in r.failures])
            for r in report.rows]


def check_tau(x, base, n):
    """``sphere_relation``, ``tau_table`` and ``audit_well_defined``
    against the reference's tau_n, field by field; a table entry must be
    one of the classes the fillers of its representatives give, and an
    audit cell is consistent when all give it.  The table and the audit
    from one filler lookup, as the CLI computes them, must be those two,
    or raise as they do.  Returns the table, or None where both raise
    ``NoFiller``."""
    ref = reference.tau(x, base.index, n)
    elements, related, witnesses = C.sphere_relation(x, base, n)
    assert [e.index for e in elements] == ref.elements
    assert related == ref.related
    assert {(p.index, q.index): tuple(t.index for t in w)
            for (p, q), w in witnesses.items()} == ref.witnesses
    if not all(map(all, ref.products)):
        with pytest.raises(errors.NoFiller) as alone:
            C.tau_table(x, base, n)
        with pytest.raises(errors.NoFiller) as shared:
            homotopy._tau(x, base, n, True)
        assert str(shared.value) == str(alone.value)
        return None
    table = C.tau_table(x, base, n)
    assert (table.relation_reflexive, table.relation_symmetric,
            table.relation_transitive) == ref.flags
    assert [[e.index for e in c] for c in table.classes] == \
        [[ref.elements[p] for p in c] for c in ref.classes]
    assert table.unit == ref.unit
    size = range(len(ref.classes))
    assert all(table.table[i][j] in ref.products[i][j]
               for i in size for j in size)
    assert [[w.index for w in row] for row in table.fillers] == ref.first
    assert table.is_group == reference.is_group(table.table, table.unit)
    if any(cell is None for row in ref.cells for cell in row):
        with pytest.raises(errors.NoFiller) as alone:
            C.audit_well_defined(x, base, table)
        with pytest.raises(errors.NoFiller) as shared:
            homotopy._tau(x, base, n, True)
        assert str(shared.value) == str(alone.value)
        return table
    audit = C.audit_well_defined(x, base, table)
    assert [c.consistent for c in audit.cells] \
        == [ref.cells[i][j] == {table.table[i][j]} for i in size for j in size]
    shared, report = homotopy._tau(x, base, n, True)
    assert shared == table and shared.fillers == table.fillers
    assert report == audit and report.cells == audit.cells
    return table
