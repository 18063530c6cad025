"""Bridges from finite algebra and Kan/quasi-category data.

Finite categories (monoids and groups being the one-object case) enter
through composition tables, turn into nerves, and acquire stratifications:
``th0`` marks every positive-dimensional simplex thin (the Kan route), and
``quasicat_e`` marks dimensions two and up together with the equivalence
edges, detected through invertibility in the homotopy category.

``pi_oracle`` is an independent implementation of the classical simplicial
homotopy group: same sphere elements, homotopy through unstratified prism
maps (one search per element, which collects every element it reaches),
multiplication through unstratified horn filling.  It shares no
filler-search code with the homotopy-monoid machinery beyond the core
simplex tables, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, product, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    SimplexId,
    TruncatedSSet,
    _compose,
    _require_buildable,
    _require_int,
    _sset,
    require_simplex,
)
from .errors import (
    CapTooSmall,
    InvalidInput,
    NotKan,
    NotQuasiCategory,
)
from .homotopy import (
    MonoidTable, _associative, _class_index, _finish_table, _partition,
)
from .lifting import _check_family1
from .strat import StratifiedSSet, _stratify, max_strat


# -- finite categories --------------------------------------------------------

@dataclass(frozen=True)
class FiniteCategory:
    """A finite category as index tables; composition is "f then g"."""

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    identities: tuple[int, ...]
    comp: Mapping[tuple[int, int], int]

    def is_iso(self, f: int) -> bool:
        return any(
            self.comp.get((f, w)) == self.identities[self.src[f]]
            and self.comp.get((w, f)) == self.identities[self.tgt[f]]
            for w in range(len(self.morphisms))
        )


def _require_strings(names: Sequence) -> None:
    """Raise unless every object and morphism name is a string."""
    if not all(map(isinstance, names, repeat(str))):
        raise InvalidInput("object and morphism names must be strings")


def make_category(
    objects: Sequence[str],
    morphisms: Sequence[str],
    src: Sequence[int],
    tgt: Sequence[int],
    identities: Sequence[int],
    comp: Mapping[tuple[int, int], int],
) -> FiniteCategory:
    """Validate the names (unique strings), the composition table, the
    unit laws and associativity, and wrap up.

    Associativity is decided by Light's test over a generating set of
    morphisms (``homotopy._associative``), not over every composable
    triple; a table that fails is rescanned in index order, so the message
    names the first failing triple.
    """
    objects = tuple(objects)
    morphisms = tuple(morphisms)
    src = tuple(src)
    tgt = tuple(tgt)
    identities = tuple(identities)
    comp = dict(comp)
    nm = len(morphisms)
    _require_strings(objects + morphisms)
    if len(set(objects)) != len(objects) or len(set(morphisms)) != nm:
        raise InvalidInput("object and morphism names must be unique")
    if len(src) != nm or len(tgt) != nm or len(identities) != len(objects):
        raise InvalidInput("category tables are not index-complete")
    for o, e in enumerate(identities):
        if src[e] != o or tgt[e] != o:
            raise InvalidInput(f"identity of object {objects[o]} has wrong ends")
    for f in range(nm):
        for g in range(nm):
            defined = (f, g) in comp
            if defined != (tgt[f] == src[g]):
                raise InvalidInput(
                    f"composition of {morphisms[f]} and {morphisms[g]} is "
                    f"{'defined' if defined else 'missing'} but must not be"
                )
            if defined:
                h = comp[(f, g)]
                if src[h] != src[f] or tgt[h] != tgt[g]:
                    raise InvalidInput("composite has wrong endpoints")
    for f in range(nm):
        if comp[(identities[src[f]], f)] != f or comp[(f, identities[tgt[f]])] != f:
            raise InvalidInput(f"unit law fails at {morphisms[f]}")
    rows = [list(map(comp.get, zip(repeat(f), range(nm)))) for f in range(nm)]
    if not _associative(rows, src, tgt):
        # name the first failing triple, in index order
        for f in range(nm):
            for g in range(nm):
                if tgt[f] != src[g]:
                    continue
                for h in range(nm):
                    if tgt[g] != src[h]:
                        continue
                    if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                        raise InvalidInput(
                            "composition is not associative at "
                            f"({morphisms[f]}, {morphisms[g]}, {morphisms[h]})"
                        )
    return FiniteCategory(objects, morphisms, src, tgt, identities, comp)


def monoid_category(elements: Sequence[str], unit: str,
                    table: Sequence[Sequence[str]]) -> FiniteCategory:
    """One-object category from a monoid multiplication table.

    ``table[i][j]`` is the product "element i then element j".  The table
    must be square: one list or tuple per element, of one entry per
    element.  The elements, the unit and the table entries are converted
    with ``str``.
    """
    elements = tuple(str(e) for e in elements)
    unit = str(unit)
    index = {e: i for i, e in enumerate(elements)}
    if unit not in index:
        raise InvalidInput(f"unit {unit!r} is not an element")
    n = len(elements)
    if len(table) != n or any(not isinstance(row, (list, tuple))
                              or len(row) != n for row in table):
        raise InvalidInput("multiplication table is not square")
    comp = {}
    for i in range(n):
        for j in range(n):
            e = str(table[i][j])
            if e not in index:
                raise InvalidInput(f"table entry {e!r} is not an element")
            comp[(i, j)] = index[e]
    return make_category(
        ("*",), elements, (0,) * n, (0,) * n, (index[unit],), comp
    )


def cyclic_group(n: int) -> FiniteCategory:
    names = [str(i) for i in range(n)]
    table = [[str((i + j) % n) for j in range(n)] for i in range(n)]
    return monoid_category(names, "0", table)


def boolean_monoid() -> FiniteCategory:
    """The multiplicative monoid on {0, 1}; 0 is absorbing."""
    return monoid_category(["0", "1"], "1", [["0", "0"], ["0", "1"]])


def trivial_monoid() -> FiniteCategory:
    return monoid_category(["e"], "e", [["e"]])


def from_permutations(generators: Sequence[Sequence[int]],
                      bound: int = 10000) -> FiniteCategory:
    """Close permutation generators under composition, up to ``bound``.

    The generated group becomes a one-object category; elements are named by
    their value tuples and ordered lexicographically so ids are stable.
    ``bound``, a positive int, caps the number of elements.
    """
    if type(bound) is not int or bound < 1:
        raise InvalidInput(f"bound must be a positive integer, not {bound!r}")
    gens = [tuple(g) for g in generators]
    if not gens:
        raise InvalidInput("at least one generator is required")
    degree = len(gens[0])
    for g in gens:
        if any(type(e) is not int for e in g) \
                or sorted(g) != list(range(degree)):
            raise InvalidInput(f"permutation generator {g!r} is not a "
                               f"permutation of the ints 0..{degree - 1}")
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[i]] for i in range(degree))
            if q not in elements:
                if len(elements) >= bound:
                    raise InvalidInput(f"closure exceeds the bound {bound}")
                elements.add(q)
                frontier.append(q)
    ordered = sorted(elements)
    names = tuple(",".join(map(str, p)) for p in ordered)
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    # p then q sends i to q[p[i]]; below degree 2 the group is trivial
    comp = {(0, 0): 0} if degree < 2 else dict(zip(
        product(range(n), repeat=2),
        chain.from_iterable(map(index.__getitem__, map(itemgetter(*p), ordered))
                            for p in ordered)))
    return make_category(("*",), names, (0,) * n, (0,) * n,
                         (index[identity],), comp)


def symmetric_group_3() -> FiniteCategory:
    return from_permutations([(1, 0, 2), (1, 2, 0)])


def arrow_category() -> FiniteCategory:
    """The poset 0 < 1 as a category: two objects, one crossing arrow."""
    return make_category(
        ("0", "1"),
        ("id0", "id1", "a"),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1),
        {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2},
    )


# -- nerves -------------------------------------------------------------------

def _chain_counts(c: FiniteCategory) -> Iterator[int]:
    """The number of n-chains of ``c``, n = 0, 1, ...: the objects, then,
    per target object, the chains ending there, each n-chain extended by
    every morphism out of its target.  For a monoid, |M|^n."""
    yield len(c.objects)
    ending = [0] * len(c.objects)
    for t in c.tgt:
        ending[t] += 1
    while True:
        yield sum(ending)
        longer = [0] * len(c.objects)
        for s, t in zip(c.src, c.tgt):
            longer[t] += ending[s]
        ending = longer


def nerve(c: FiniteCategory, cap: int) -> TruncatedSSet:
    """The nerve: n-simplices are composable n-chains of morphisms.

    Faces drop an outer morphism or compose an adjacent pair; degeneracies
    insert identities.  Chains are ordered lexicographically by morphism
    index, so ids are stable.

    The tables are built a column at a time from those one dimension down.
    For n >= 2 an n-chain is its parent, the (n-1)-chain without its last
    morphism, extended by that morphism; the chains extending one parent
    are consecutive, in ascending morphism order, so the index of an
    extension is the first index for its parent plus the morphism's rank
    among those leaving the parent's target (base-|M| arithmetic for a
    monoid).  A face or degeneracy that keeps the last morphism is the
    extension of that face or degeneracy of the parent; d_n is the parent,
    d_{n-1} composes the last two morphisms, and s_n appends an identity.
    Keys (the morphisms' indexes, or an object's) and labels (their names
    joined by ``|``) are made per dimension on first use, along the parents.
    """
    if type(cap) is not int or cap < 0:
        raise InvalidInput("cap must be a natural number")
    _require_buildable("the nerve", cap, _chain_counts(c))
    nm = len(c.morphisms)
    leaving: list[list[int]] = [[] for _ in c.objects]
    for m in range(nm):
        leaving[c.src[m]].append(m)
    rank = [leaving[c.src[m]].index(m) for m in range(nm)]
    comp = [[c.comp.get((f, g)) for g in range(nm)] for f in range(nm)]
    idents = list(c.identities)
    # per dimension: the parent and last morphism of each chain (for n = 1
    # the source object and the morphism itself), its target object, and
    # for n >= 2 the index of the first chain extending each parent
    parent: list[list[int]] = [[]]
    last: list[list[int]] = [[]]
    target: list[list[int]] = [list(range(len(c.objects)))]
    starts: list[list[int]] = [[], []]
    if cap >= 1:
        parent.append(list(c.src))
        last.append(list(range(nm)))
        target.append(list(c.tgt))
    for n in range(2, cap + 1):
        outs = list(map(leaving.__getitem__, target[n - 1]))
        starts.append([0, *accumulate(map(len, outs))][:-1])
        parent.append(list(chain.from_iterable(
            map(repeat, range(len(outs)), map(len, outs)))))
        last.append(list(chain.from_iterable(outs)))
        target.append(list(map(c.tgt.__getitem__, last[n])))

    def parents_of(column: list[int], n: int) -> list[int]:
        return list(map(column.__getitem__, parent[n]))

    def extend(n: int, ps: Iterable[int], ms: list[int]) -> list[int]:
        # the indexes of the n-chains that extend the (n-1)-chains ps by
        # the morphisms ms; 1-chains are indexed by their morphism
        if n == 1:
            return list(ms)
        return list(map(add, map(starts[n].__getitem__, ps),
                        map(rank.__getitem__, ms)))

    faces: list[list[list[int]]] = [[]]
    if cap >= 1:
        faces.append([list(c.tgt), list(c.src)])
    for n in range(2, cap + 1):
        p, m = parent[n], last[n]
        grand = parents_of(parent[n - 1], n)
        composite = list(map(list.__getitem__,
                             map(comp.__getitem__, parents_of(last[n - 1], n)),
                             m))
        faces.append(
            [extend(n - 1, parents_of(col, n), m) for col in faces[n - 1][:-1]]
            + [extend(n - 1, grand, composite), list(p)])
    degens: list[list[list[int]]] = []
    if cap >= 1:
        degens.append([idents])
    for n in range(1, cap):
        m = last[n]
        appended = list(map(idents.__getitem__, target[n]))
        degens.append(
            [extend(n + 1, parents_of(col, n), m) for col in degens[n - 1]]
            + [extend(n + 1, range(len(m)), appended)])
    degens.append([])
    objects, names, singletons = c.objects, c.morphisms, tuple(zip(range(nm)))
    bar_names = ["|" + name for name in names]

    def chains(n: int, first: Sequence, tails: Sequence) -> tuple:
        # per n-chain (n >= 1), its parent's value extended by its last tail
        column = first
        for k in range(2, n + 1):
            column = list(map(add, map(column.__getitem__, parent[k]),
                              map(tails.__getitem__, last[k])))
        return tuple(column)

    return _sset(
        cap, tuple(map(len, target)), faces, degens,
        lambda n: chains(n, singletons, singletons) if n
        else tuple(zip(range(len(objects)))),
        lambda n: chains(n, names, bar_names) if n else objects)


def th0(k: TruncatedSSet) -> StratifiedSSet:
    """Mark every positive-dimensional simplex thin (the Kan stratification)."""
    return max_strat(k)


# -- simplicial horn filling (no thinness) ------------------------------------

def _first_unfillable(x: StratifiedSSet, hk: int, n: int
                      ) -> dict[int, SimplexId] | None:
    """The faces, by index j, of the first simplicial horn at ``hk`` of the
    n-simplex with no filler in the maximal stratification ``x``, or None.

    Every positive-dimensional simplex of ``x`` is thin, so family-1 row
    (hk, n) is exactly simplicial horn filling, and ``verify``'s row check
    decides it, stopped at its first failure.
    """
    if n > x.cap:
        raise CapTooSmall(f"target cap {x.cap} below problem cap {n}")
    row = _check_family1(hk, n, x, limit=1)
    return None if row.ok else row.failures[0].detail["faces"]


def _bound(k: TruncatedSSet, bound: int | None) -> int:
    """The highest dimension to check: ``bound``, which must be an
    ``int``, or the cap when it is None."""
    if bound is None:
        return k.dim_cap
    _require_int("bound", bound)
    return bound


def assert_quasicategory(k: TruncatedSSet, bound: int | None = None) -> None:
    """Inner-horn fillability up to the bound, by ``verify``'s row check
    on the maximal stratification."""
    x = max_strat(k)
    for n in range(2, _bound(k, bound) + 1):
        for hk in range(1, n):
            tup = _first_unfillable(x, hk, n)
            if tup is not None:
                raise NotQuasiCategory(
                    f"inner horn (k, n) = ({hk}, {n}) unfillable at {tup}"
                )


def assert_kan(k: TruncatedSSet, bound: int | None = None) -> None:
    """All-horn fillability up to the bound, by ``verify``'s row check on
    the maximal stratification."""
    x = max_strat(k)
    for n in range(1, _bound(k, bound) + 1):
        for hk in range(n + 1):
            tup = _first_unfillable(x, hk, n)
            if tup is not None:
                raise NotKan(f"horn (k, n) = ({hk}, {n}) unfillable at {tup}")


# -- the homotopy category and the quasi-category stratification --------------

def _edge_classes(c: TruncatedSSet) -> tuple[tuple[SimplexId, ...], ...]:
    """Edge classes under "some 2-simplex exhibits one as the other".

    Two edges are related when a 2-simplex has them as faces 2 and 1 with a
    degenerate face 0 at the shared target; the closure of the relation is
    taken.  Classes are sorted by least member, so their order is stable.
    """
    # the loop s_0 at the target d_0 of each edge
    loop_at = _compose(c.degeneracy_columns[0][0], c.face_columns[1][0])
    related = [(f, g) for d0, g, f in zip(*c.face_columns[2])
               if d0 == loop_at[f]]
    blocks = _partition(c.counts[1], related)[0]
    return tuple(tuple(c.ids[1][i] for i in b) for b in blocks)


def homotopy_category(c: TruncatedSSet, *, bound: int | None = None,
                      assume_quasicategory: bool = False) -> FiniteCategory:
    """Vertices and homotopy classes of edges, composed by inner fillers.

    Composition of two classes is the class of the middle face of any
    2-simplex mounting representatives on its outer faces; well-definedness
    is checked exhaustively over all such 2-simplices.
    """
    return _homotopy_category(c, bound, assume_quasicategory)[0]


def _homotopy_category(c: TruncatedSSet, bound: int | None,
                       assume_quasicategory: bool) -> tuple:
    """:func:`homotopy_category` and its morphisms, the edge classes."""
    if c.dim_cap < 2:
        raise CapTooSmall("the homotopy category needs cap >= 2")
    if not assume_quasicategory:
        assert_quasicategory(c, bound)
    else:  # the bound goes unused, but is still checked
        _bound(c, bound)
    classes = _edge_classes(c)
    cls_of = _class_index(classes)

    for cl in classes:
        ends = {(c.face(e, 1), c.face(e, 0)) for e in cl}
        if len(ends) != 1:
            raise NotQuasiCategory("homotopic edges with different endpoints")

    morphisms = tuple(f"{cl[0].dim}:{cl[0].index}" for cl in classes)
    src = tuple(c.face(cl[0], 1).index for cl in classes)
    tgt = tuple(c.face(cl[0], 0).index for cl in classes)
    identities = tuple(
        cls_of[c.degeneracy(v, 0)] for v in c.simplices(0)
    )
    # the classes of the middle faces of the 2-simplices, by the classes of
    # their outer faces, read in one pass over the 2-simplices
    edge_class = list(map(cls_of.__getitem__, c.ids[1]))
    middles: dict[tuple[int, int], set[int]] = {}
    for d0, d1, d2 in zip(*c.face_columns[2]):
        middles.setdefault((edge_class[d2], edge_class[d0]), set()).add(
            edge_class[d1])
    comp: dict[tuple[int, int], int] = {}
    for i in range(len(classes)):
        for j in range(len(classes)):
            if tgt[i] != src[j]:
                continue
            composites = middles.get((i, j), ())
            if not composites:
                raise NotQuasiCategory(
                    f"no composite for classes {i} and {j}"
                )
            if len(composites) > 1:
                raise NotQuasiCategory(
                    f"composition of classes {i} and {j} is not well defined"
                )
            (comp[(i, j)],) = composites
    objects = tuple(
        v.label if v.label is not None else str(v.index)
        for v in c.simplices(0)
    )
    return (make_category(objects, morphisms, src, tgt, identities, comp),
            classes)


def quasicat_e(c: TruncatedSSet, *, bound: int | None = None) -> StratifiedSSet:
    """Thin: degenerates, everything above dimension one, equivalence edges.

    An edge is an equivalence when its class is invertible in the homotopy
    category.  On the nerve of a group this recovers the all-thin
    stratification.
    """
    hc, classes = _homotopy_category(c, bound, False)
    invertible = {i for i in range(len(hc.morphisms)) if hc.is_iso(i)}
    edges = [e.index for i, cl in enumerate(classes) if i in invertible
             for e in cl]
    return _stratify(c, [(), edges] + [range(k) for k in c.counts[2:]])


# -- independent classical homotopy groups -------------------------------------

def _nonconstant_steps(n: int) -> list[tuple[int, ...]]:
    return [(0,) * i + (1,) * (n + 1 - i) for i in range(n, 0, -1)]


@lru_cache(maxsize=None)
def _prism_unknowns(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    ident = tuple(range(n + 1))
    cells = [(ident, b) for b in _nonconstant_steps(n)]
    for i in range(n + 1):
        a = ident[:i + 1] + ident[i:]
        b = (0,) * (i + 1) + (1,) * (n + 1 - i)
        cells.append((a, b))
    return sorted(cells, key=lambda ab: (len(ab[0]), ab))


@lru_cache(maxsize=None)
def _prism_program(n: int) -> tuple[tuple[int, tuple[tuple, ...]], ...]:
    """Where each face of each prism unknown reads its value.

    Per unknown of :func:`_prism_unknowns`, in order: its dimension m and,
    per face i, a pair (kind, what).  Kind "alpha" or "beta" reads that
    sphere element itself, "const" the constant ``what``-simplex at the
    base, and "cell" the simplex chosen for the earlier unknown ``what``.
    The prism is the nerve of the poset [n] x [1], so the faces of its
    nondegenerate cells are nondegenerate.  A face that misses a vertex of
    [n] lies over the boundary of Δ[n], where the homotopy is constant and
    every proper face of a sphere element is the constant at the base; a
    face on an end that covers all of [n] is that end's element, and any
    other face is an unknown.  So the elements are read only as the top
    faces of two unknowns.  This depends on n only.
    """
    unknowns = _prism_unknowns(n)
    position = {cell: q for q, cell in enumerate(unknowns)}
    full = set(range(n + 1))

    def source(a: tuple[int, ...], b: tuple[int, ...], before: int) -> tuple:
        if set(a) != full:
            return "const", len(a) - 1
        if all(t == 0 for t in b):
            return "alpha", None
        if all(t == 1 for t in b):
            return "beta", None
        q = position.get((a, b))
        if q is None or q >= before:  # pragma: no cover
            raise InvalidInput("unresolved prism cell")
        return "cell", q

    return tuple(
        (len(a) - 1, tuple(source(a[:i] + a[i + 1:], b[:i] + b[i + 1:], q)
                           for i in range(len(a))))
        for q, (a, b) in enumerate(unknowns)
    )


def _pi_rows(k: TruncatedSSet, base: SimplexId, n: int,
             elements: Sequence[SimplexId]) -> list[list[int]]:
    """Per sphere element alpha, in order, the positions (ascending) of the
    elements beta with a prism homotopy from alpha to beta rel boundary.

    One depth-first search per alpha runs :func:`_prism_program` on index
    tuples, giving each unknown, in order, the simplices whose face row is
    what its faces read, with beta left free.  Exactly one unknown, the
    beta cell, has beta as a face, and no unknown reads that cell, so it is
    looked up rather than chosen: in one dict, built once, from the cell's
    other faces to the positions of its beta faces.  The unknowns after it
    do not read beta, so where the beta cell yields an element not yet
    reached they are searched once, up to a first solution, for all such
    elements together.  The unknowns before it are searched until every
    element is reached.
    """
    program = _prism_program(n)
    ((top, free),) = [(q, i) for q, (_, faces) in enumerate(program)
                      for i, (kind, _) in enumerate(faces) if kind == "beta"]
    const = [k.const(base, m).index for m in range(n + 1)]
    position = {e.index: p for p, e in enumerate(elements)}
    # the beta cell's key: its faces but beta
    reads = [faces[:free] + faces[free + 1:] if q == top else faces
             for q, (_, faces) in enumerate(program)]
    # the beta cells whose constant faces are the constants, by their other
    # faces: the positions of their beta faces
    columns = k.face_columns[n + 1]
    rows = [w for w, b in enumerate(columns[free]) if b in position]
    for i, (kind, what) in enumerate(program[top][1]):
        if kind == "const":
            rows = [w for w in rows if columns[i][w] == const[what]]
    others = columns[:free] + columns[free + 1:]
    betas: dict[tuple[int, ...], set[int]] = {}
    for w in rows:
        betas.setdefault(tuple(c[w] for c in others), set()).add(
            position[columns[free][w]])
    index = {m: k.face_index(m) for m, _ in program}
    cells = [tuple((i, what) for i, (kind, what) in enumerate(faces)
                   if kind == "cell") for faces in reads]
    chosen = [0] * len(program)

    def row(alpha: int) -> list[int]:
        steps = [(index[m], tuple(alpha if kind == "alpha" else const[what]
                                  if kind == "const" else None
                                  for kind, what in faces), read)
                 for (m, _), faces, read in zip(program, reads, cells)]
        reached: set[int] = set()

        def search(pos: int) -> bool:
            # whether the search may stop: after the beta cell, once the
            # unknowns have a solution; up to it, once every element has
            # been reached
            if pos == len(steps):
                return True
            table, want, read = steps[pos]
            if read:
                got = list(want)
                for i, q in read:
                    got[i] = chosen[q]
                want = tuple(got)
            if pos == top:
                new = betas.get(want, set()) - reached
                if new and search(pos + 1):
                    reached.update(new)
                return len(reached) == len(elements)
            for w in table.get(want, ()):
                chosen[pos] = w
                if search(pos + 1):
                    return True
            return False

        search(0)
        return sorted(reached)

    return [row(e.index) for e in elements]


def pi_oracle(k: TruncatedSSet, base: SimplexId, n: int) -> MonoidTable:
    """The classical simplicial homotopy group, computed independently.

    Requires a Kan presentation (all simplicial horns fillable up to the
    cap).  Sphere elements, homotopies and multiplications all run on the
    bare tables with no stratification anywhere.  Homotopy is one search
    for prism maps per element, which collects every element it reaches
    (:func:`_pi_rows`), on index tuples, where the prism's layout comes
    from :func:`_prism_program`, compiled once per n.  The product of two
    elements reads the n-th face of the first (n+1)-simplex whose other
    faces are the multiplication horn's.
    """
    _require_int("n", n)
    if n < 1:
        raise InvalidInput("homotopy groups are defined for n >= 1")
    if k.dim_cap < n + 1:
        raise CapTooSmall(f"pi at n = {n} needs cap >= {n + 1}")
    require_simplex(k, base, 0)
    assert_kan(k)
    const_low = k.const(base, n - 1)
    elements = tuple(
        s for s in k.simplices(n)
        if all(k.face(s, i) == const_low for i in range(n + 1))
    )
    blocks, reflexive, symmetric, transitive = _partition(len(elements), [
        (i, j) for i, row in enumerate(_pi_rows(k, base, n, elements))
        for j in row
    ])
    classes = tuple(tuple(elements[i] for i in b) for b in blocks)
    cls_of = _class_index(classes)
    const = k.const(base, n)
    unit = cls_of[const]
    reps = [cl[0] for cl in classes]

    # the first (n+1)-simplex, ascending, by its faces j != n
    first: dict[tuple[int, ...], int] = {}
    columns = k.face_columns[n + 1]
    for w, faces in enumerate(zip(*columns[:n], *columns[n + 1:])):
        first.setdefault(faces, w)

    def fill(p: SimplexId, q: SimplexId) -> tuple[SimplexId, int]:
        # the faces j != n: j = n - 1 and j = n + 1 sit at n - 1 and n
        spec = [const.index] * (n + 1)
        spec[n - 1], spec[n] = p.index, q.index
        w = first.get(tuple(spec))
        if w is None:
            raise NotKan(f"no unstratified filler for ({p!r}, {q!r})")
        return k.ids[n][columns[n][w]], w

    table = []
    fillers = []
    for p in reps:
        row = []
        for q in reps:
            result, w = fill(p, q)
            row.append(cls_of[result])
            fillers.append(w)
        table.append(tuple(row))
    return _finish_table(
        tuple(table),
        n=n, base=base, elements=elements, classes=classes, unit=unit,
        relation_reflexive=reflexive, relation_symmetric=symmetric,
        relation_transitive=transitive, _fillers=tuple(fillers),
        _witnesses={}, _complex=k,
    )
