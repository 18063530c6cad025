"""Bridges from finite algebra and Kan/quasi-category data.

Finite categories (monoids and groups being the one-object case) enter
through composition tables, turn into nerves, and acquire stratifications:
``th0`` marks every positive-dimensional simplex thin (the Kan route), and
``quasicat_e`` marks dimensions two and up together with the equivalence
edges, detected through invertibility in the homotopy category.

``pi_oracle`` is an independent implementation of the classical simplicial
homotopy group: same sphere elements, homotopy through unstratified prism
maps, multiplication through unstratified horn filling.  It shares no
filler-search code with the homotopy-monoid machinery beyond the core
simplex tables, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .core import SimplexId, TruncatedSSet, build_sset
from .errors import (
    CapTooSmall,
    InvalidInput,
    NotKan,
    NotQuasiCategory,
)
from .homotopy import MonoidTable, _finish_table, _partition
from .lifting import (
    ExtensionProblem,
    _horn_rows,
    assemble_horn_map,
    find_extensions,
)
from .standard import complicial_horn, delta
from .strat import (
    StratifiedSSet,
    make_stratified,
    make_stratified_map,
    max_strat,
    min_strat,
)


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

    def compose(self, f: int, g: int) -> int:
        return self.comp[(f, g)]

    def is_iso(self, f: int) -> bool:
        return any(
            self.comp.get((f, w)) == self.identities[self.src[f]]
            and self.comp.get((w, f)) == self.identities[self.tgt[f]]
            for w in range(len(self.morphisms))
        )


def make_category(
    objects: Sequence[str],
    morphisms: Sequence[str],
    src: Sequence[int],
    tgt: Sequence[int],
    identities: Sequence[int],
    comp: Mapping[tuple[int, int], int],
) -> FiniteCategory:
    """Validate unit and associativity laws exhaustively and wrap up."""
    objects = tuple(objects)
    morphisms = tuple(morphisms)
    src = tuple(src)
    tgt = tuple(tgt)
    identities = tuple(identities)
    comp = dict(comp)
    nm = len(morphisms)
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

    ``table[i][j]`` is the product "element i then element j".
    """
    elements = tuple(str(e) for e in elements)
    index = {e: i for i, e in enumerate(elements)}
    if unit not in index:
        raise InvalidInput(f"unit {unit!r} is not an element")
    n = len(elements)
    comp = {}
    for i in range(n):
        if len(table[i]) != n:
            raise InvalidInput("multiplication table is not square")
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
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise InvalidInput("at least one generator is required")
    degree = len(gens[0])
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidInput(f"{g!r} is not a permutation")
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
    names = [",".join(map(str, p)) for p in ordered]
    index = {p: i for i, p in enumerate(ordered)}
    table = [
        [
            names[index[tuple(q[p[i]] for i in range(degree))]]
            for q in ordered
        ]
        for p in ordered
    ]
    return monoid_category(names, names[index[identity]], table)


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

def nerve(c: FiniteCategory, cap: int) -> TruncatedSSet:
    """The nerve: n-simplices are composable n-chains of morphisms.

    Faces drop an outer morphism or compose an adjacent pair; degeneracies
    insert identities.  Chains are ordered lexicographically by morphism
    index, so ids are stable.
    """
    if cap < 0:
        raise InvalidInput("cap must be a natural number")
    nm = len(c.morphisms)
    chains: list[list[tuple[int, ...]]] = [
        [(o,) for o in range(len(c.objects))]
    ]
    if cap >= 1:
        chains.append([(m,) for m in range(nm)])
    for n in range(2, cap + 1):
        chains.append([
            ch + (m,)
            for ch in chains[n - 1]
            for m in range(nm)
            if c.src[m] == c.tgt[ch[-1]]
        ])
    index = [{ch: i for i, ch in enumerate(chains[n])}
             for n in range(cap + 1)]

    def face_chain(n: int, ch: tuple[int, ...], i: int) -> tuple[int, ...]:
        if n == 1:
            return (c.tgt[ch[0]],) if i == 0 else (c.src[ch[0]],)
        if i == 0:
            return ch[1:]
        if i == n:
            return ch[:-1]
        return ch[:i - 1] + (c.comp[(ch[i - 1], ch[i])],) + ch[i + 1:]

    def degen_chain(n: int, ch: tuple[int, ...], i: int) -> tuple[int, ...]:
        if n == 0:
            return (c.identities[ch[0]],)
        at = c.src[ch[i]] if i < n else c.tgt[ch[-1]]
        return ch[:i] + (c.identities[at],) + ch[i:]

    faces = tuple(
        tuple(
            tuple(index[n - 1][face_chain(n, ch, i)] for i in range(n + 1))
            for ch in chains[n]
        ) if n >= 1 else ()
        for n in range(cap + 1)
    )
    degens = tuple(
        tuple(
            tuple(index[n + 1][degen_chain(n, ch, i)] for i in range(n + 1))
            for ch in chains[n]
        ) if n < cap else ()
        for n in range(cap + 1)
    )
    labels = tuple(
        tuple(
            c.objects[ch[0]] if n == 0
            else "|".join(c.morphisms[m] for m in ch)
            for ch in chains[n]
        )
        for n in range(cap + 1)
    )
    return build_sset(
        cap,
        tuple(len(chains[n]) for n in range(cap + 1)),
        faces,
        degens,
        keys=chains,
        labels=labels,
    )


def th0(k: TruncatedSSet) -> StratifiedSSet:
    """Mark every positive-dimensional simplex thin (the Kan stratification)."""
    return max_strat(k)


# -- simplicial horn instances (no thinness) ----------------------------------

def _simplicial_horn_tuples(
    k: TruncatedSSet, hk: int, n: int
) -> Iterator[dict[int, SimplexId]]:
    """Compatible face tuples for the simplicial horn, all faces present."""
    js = [j for j in range(n + 1) if j != hk]
    ids = k.ids[n - 1]
    for row in _horn_rows(k, hk, n, None):
        yield {j: ids[w] for j, w in zip(js, row)}


def assert_quasicategory(k: TruncatedSSet, bound: int | None = None) -> None:
    """Inner-horn fillability up to the bound, checked through the solver.

    Instances carry the minimal stratification on both sides, so lifting is
    exactly simplicial horn filling.
    """
    bound = k.dim_cap if bound is None else bound
    target = min_strat(k)
    for n in range(2, bound + 1):
        for hk in range(1, n):
            horn, inclusion = complicial_horn(hk, n, n)
            minhorn = min_strat(horn.underlying)
            mindelta = min_strat(delta(n, n).underlying)
            mininc = make_stratified_map(minhorn, mindelta, inclusion.map)
            for tup in _simplicial_horn_tuples(k, hk, n):
                partial = assemble_horn_map(minhorn, tup, target)
                if not find_extensions(
                    ExtensionProblem(mininc, partial), limit=1
                ):
                    raise NotQuasiCategory(
                        f"inner horn (k, n) = ({hk}, {n}) unfillable at {tup}"
                    )


def assert_kan(k: TruncatedSSet, bound: int | None = None) -> None:
    """All-horn fillability up to the bound, by face-index lookup."""
    bound = k.dim_cap if bound is None else bound
    for n in range(1, bound + 1):
        by_value = k.face_value_index(n)
        for hk in range(n + 1):
            j0 = 1 if hk == 0 else 0  # the first face of the horn
            for tup in _simplicial_horn_tuples(k, hk, n):
                want = [(j, s.index) for j, s in tup.items()]
                if not any(
                    all(k.faces[n][w][j] == v for j, v in want)
                    for w in by_value[j0].get(tup[j0].index, ())
                ):
                    raise NotKan(
                        f"horn (k, n) = ({hk}, {n}) unfillable at {tup}"
                    )


# -- the homotopy category and the quasi-category stratification --------------

def _edge_classes(c: TruncatedSSet) -> tuple[tuple[SimplexId, ...], ...]:
    """Edge classes under "some 2-simplex exhibits one as the other".

    Two edges are related when a 2-simplex has them as faces 2 and 1 with a
    degenerate face 0 at the shared target; the closure of the relation is
    taken.  Classes are sorted by least member, so their order is stable.
    """
    edge_faces, loops = c.faces[1], c.degeneracies[0]
    related = [
        (f, g) for d0, g, f in c.faces[2] if d0 == loops[edge_faces[f][0]][0]
    ]
    blocks = _partition(c.counts[1], related)[0]
    return tuple(tuple(c.ids[1][i] for i in b) for b in blocks)


def homotopy_category(c: TruncatedSSet, *, bound: int | None = None,
                      assume_quasicategory: bool = False) -> FiniteCategory:
    """Vertices and homotopy classes of edges, composed by inner fillers.

    Composition of two classes is the class of the middle face of any
    2-simplex mounting representatives on its outer faces; well-definedness
    is checked exhaustively over all such 2-simplices.
    """
    if c.dim_cap < 2:
        raise CapTooSmall("the homotopy category needs cap >= 2")
    if not assume_quasicategory:
        assert_quasicategory(c, bound)
    classes = _edge_classes(c)
    cls_of = {e: i for i, cl in enumerate(classes) for e in cl}

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
    comp: dict[tuple[int, int], int] = {}
    for i in range(len(classes)):
        for j in range(len(classes)):
            if tgt[i] != src[j]:
                continue
            composites = {
                cls_of[c.face(sigma, 1)]
                for sigma in c.simplices(2)
                if cls_of[c.face(sigma, 2)] == i
                and cls_of[c.face(sigma, 0)] == j
            }
            if not composites:
                raise NotQuasiCategory(
                    f"no composite for classes {i} and {j}"
                )
            if len(composites) > 1:
                raise NotQuasiCategory(
                    f"composition of classes {i} and {j} is not well defined"
                )
            comp[(i, j)] = composites.pop()
    objects = tuple(
        v.label if v.label is not None else str(v.index)
        for v in c.simplices(0)
    )
    return make_category(objects, morphisms, src, tgt, identities, comp)


def quasicat_e(c: TruncatedSSet, *, bound: int | None = None) -> StratifiedSSet:
    """Thin: degenerates, everything above dimension one, equivalence edges.

    An edge is an equivalence when its class is invertible in the homotopy
    category.  On the nerve of a group this recovers the all-thin
    stratification.
    """
    hc = homotopy_category(c, bound=bound)
    classes = _edge_classes(c)
    invertible = {i for i in range(len(hc.morphisms)) if hc.is_iso(i)}
    thin = [e for i, cl in enumerate(classes) if i in invertible for e in cl]
    thin += [s for n in range(2, c.dim_cap + 1) for s in c.simplices(n)]
    return make_stratified(c, thin)


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


def _pi_homotopic(k: TruncatedSSet, base: SimplexId, n: int,
                  alpha: SimplexId, beta: SimplexId) -> bool:
    """Unstratified prism homotopy between sphere elements, rel boundary."""
    full = set(range(n + 1))
    assigned: dict[tuple[tuple[int, ...], tuple[int, ...]], SimplexId] = {}

    def val(a: tuple[int, ...], b: tuple[int, ...]) -> SimplexId:
        if all(t == 0 for t in b):
            return k.apply_monotone(alpha, a)
        if all(t == 1 for t in b):
            return k.apply_monotone(beta, a)
        if set(a) != full:
            return k.const(base, len(a) - 1)
        got = assigned.get((a, b))
        if got is not None:
            return got
        for t in range(len(a) - 1):
            if a[t] == a[t + 1] and b[t] == b[t + 1]:
                return k.degeneracy(
                    val(a[:t + 1] + a[t + 2:], b[:t + 1] + b[t + 2:]), t
                )
        raise InvalidInput("unresolved prism cell")  # pragma: no cover

    unknowns = _prism_unknowns(n)

    def search(pos: int) -> bool:
        if pos == len(unknowns):
            return True
        a, b = unknowns[pos]
        m = len(a) - 1
        want = tuple(
            val(a[:i] + a[i + 1:], b[:i] + b[i + 1:]).index
            for i in range(m + 1)
        )
        for w in k.face_index(m).get(want, ()):
            assigned[(a, b)] = k.ids[m][w]
            if search(pos + 1):
                del assigned[(a, b)]
                return True
            del assigned[(a, b)]
        return False

    return search(0)


def pi_oracle(k: TruncatedSSet, base: SimplexId, n: int) -> MonoidTable:
    """The classical simplicial homotopy group, computed independently.

    Requires a Kan presentation (all simplicial horns fillable up to the
    cap).  Sphere elements, homotopies and multiplications all run on the
    bare tables with no stratification anywhere.
    """
    if n < 1:
        raise InvalidInput("homotopy groups are defined for n >= 1")
    if k.dim_cap < n + 1:
        raise CapTooSmall(f"pi at n = {n} needs cap >= {n + 1}")
    if base.dim != 0:
        raise InvalidInput(f"{base!r} is not a vertex")
    assert_kan(k)
    const_low = k.const(base, n - 1)
    elements = tuple(
        s for s in k.simplices(n)
        if all(k.face(s, i) == const_low for i in range(n + 1))
    )
    blocks, reflexive, symmetric, transitive = _partition(len(elements), [
        (i, j)
        for i, p in enumerate(elements)
        for j, q in enumerate(elements)
        if _pi_homotopic(k, base, n, p, q)
    ])
    classes = tuple(tuple(elements[i] for i in b) for b in blocks)
    cls_of = {e: i for i, cl in enumerate(classes) for e in cl}
    const = k.const(base, n)
    unit = cls_of[const]
    reps = [cl[0] for cl in classes]

    by_face = k.face_value_index(n + 1)[n - 1]

    def fill(p: SimplexId, q: SimplexId) -> tuple[SimplexId, SimplexId]:
        spec = {j: const.index for j in range(n + 2) if j != n}
        spec[n - 1] = p.index
        spec[n + 1] = q.index
        for w in by_face.get(p.index, ()):
            row = k.faces[n + 1][w]
            if all(row[j] == v for j, v in spec.items()):
                return k.ids[n][row[n]], k.ids[n + 1][w]
        raise NotKan(f"no unstratified filler for ({p!r}, {q!r})")

    size_c = len(reps)
    table = []
    fillers = []
    for i in range(size_c):
        row = []
        frow = []
        for j in range(size_c):
            result, w = fill(reps[i], reps[j])
            row.append(cls_of[result])
            frow.append(w)
        table.append(tuple(row))
        fillers.append(tuple(frow))
    return _finish_table(
        tuple(table),
        n=n, base=base, elements=elements, classes=classes, unit=unit,
        relation_reflexive=reflexive, relation_symmetric=symmetric,
        relation_transitive=transitive, fillers=tuple(fillers), witnesses={},
    )
