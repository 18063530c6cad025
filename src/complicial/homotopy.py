r"""Homotopy relations and homotopy monoids.

Sphere elements at a vertex x are the n-simplices with constant boundary
at x.  Two of them are homotopic rel boundary when a stratified map out of
the cylinder Δ[n] (x) I, where I is the interval with thin top edge, is the
one at one end, the other at the other end, and constant over ∂Δ[n] (x) I.
Their classes under this relation carry a multiplication obtained by
filling the horn of the (n+1)-simplex that mounts the first factor on face
n-1, the second on face n+1, and constants everywhere else.  The product
of the classes is the class of the n-th face of the filler.  For n = 1 the
filler is a thin triangle and the result is its composite edge,

            x
           ^ \
    second/   \ first
         /     v
        x ----> x
         result

so on nerves of monoids the table reproduces the monoid multiplication.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import ne, sub
from typing import Hashable, Iterable, Sequence

from .core import Row, SimplexId, TruncatedSSet, _require_int, require_simplex
from .errors import CapTooSmall, InvalidInput, NoFiller
from .lifting import _batch_fillers, _generated_rows, _require_horns
from .standard import delta, delta_t
from .strat import (
    StratifiedMap,
    StratifiedSSet,
    gproduct,
    make_stratified_maps,
)


# -- classifying maps and sphere elements -----------------------------------

def classifying_map(x: StratifiedSSet, alpha: SimplexId,
                    cap: int | None = None) -> StratifiedMap:
    """The map from the (minimally stratified) n-simplex picking ``alpha``.

    Built at ``cap`` (default: one above the simplex dimension, clipped to
    the target's cap) so that cylinders over it stay within range.
    """
    require_simplex(x.underlying, alpha)
    n = alpha.dim
    if cap is None:
        cap = min(x.cap, n + 1)
    _require_int("cap", cap)
    if cap < n or cap > x.cap:
        raise CapTooSmall(f"cap {cap} unusable for a {n}-simplex in cap {x.cap}")
    a = delta(n, cap)
    au, xu = a.underlying, x.underlying
    return make_stratified_maps(a, x, list(_generated_rows(
        au, xu, lambda m, i: xu.act(n, au.keys[m][i], [alpha.index]))))[0]


def _matching(columns: Sequence[Sequence[int]], candidates: Iterable[int],
              pinned: Iterable[tuple[int, int]]) -> list[int]:
    """The ``candidates`` whose entry j is v for each (j, v) of ``pinned``,
    in order; ``columns[j]`` holds entry j of every candidate."""
    for j, v in pinned:
        column = columns[j]
        candidates = [s for s in candidates if column[s] == v]
    return list(candidates)


def sphere_elements(x: StratifiedSSet, base: SimplexId, n: int
                    ) -> tuple[SimplexId, ...]:
    """All n-simplices whose entire boundary is constant at ``base``."""
    _require_int("n", n)
    require_simplex(x.underlying, base, 0)
    if n < 1:
        raise InvalidInput("sphere elements need n >= 1")
    if n > x.cap:
        raise CapTooSmall(f"cap {x.cap} below n = {n}")
    ids = x.underlying.ids[n]
    return tuple(map(ids.__getitem__, _sphere_indexes(x.underlying, base, n)))


def _sphere_indexes(xu: TruncatedSSet, base: SimplexId, n: int) -> list[int]:
    """The indexes of the sphere elements, ascending: one filter of the
    n-simplices by their face columns.  Not checked at entry."""
    const = xu.const(base, n - 1).index
    return _matching(xu.face_columns[n], range(xu.counts[n]),
                     [(j, const) for j in range(n + 1)])


# -- homotopy of sphere elements ---------------------------------------------

@dataclass(frozen=True)
class _Link:
    """One top of the sphere cylinder, as a binary relation on n-simplices.

    ``least`` maps each pair (u, v) of values of the two free faces, the
    one nearer alpha first, to the least simplex the top can take there;
    ``forward`` and ``backward`` index its pairs by their first and by
    their second entry.
    """

    top: int
    least: dict[tuple[int, int], int]
    forward: dict[int, set[int]]
    backward: dict[int, set[int]]


class _SphereHomotopy:
    """Homotopy rel boundary of the sphere elements at one vertex, as a
    chain join over the prism.

    The cylinder Δ[n] (x) I is the nerve of [n] x [1].  Relative to ∂Δ[n]
    its only simplices neither pinned nor degenerate are the n walls W_i =
    (0,0)...(i-1,0)(i,1)...(n,1), i = 1..n, and the n + 1 tops T_i =
    (0,0)...(i,0)(i,1)...(n,1), i = 0..n; in cylinder order W_n and T_0
    come first.  A pinned m-simplex reads alpha at the end 0 over the top
    n-simplex of Δ[n], beta at the end 1 there, and the constant m-simplex
    at the base everywhere else, over ∂Δ[n] included; the ends over the
    top's degeneracies are degenerate, so they are never read.  A wall's
    faces lie over ∂Δ[n] and no wall is thin, so a wall takes any sphere
    element.  The face d_{i+1} T_i is W_{i+1}, or alpha when i = n, the
    face d_i T_i is W_i, or beta when i = 0, and the other faces of T_i
    are constants.  So a homotopy is the path alpha, T_n, W_n, T_{n-1},
    ..., W_1, T_0, beta, and the relation is the composite of one binary
    relation per top: the faces (d_{i+1}, d_i) of the thin (n+1)-simplices
    of X whose other faces are constant (:class:`_Link`).  alpha is
    related to beta when beta is reachable from alpha along the path.  The
    layout is this formula in n; ``tests/test_homotopy.py`` checks it on
    the built cylinder, and every witness's validation checks it again.

    A witness is the first stratified map out of the cylinder with these
    pins, in the order of an extension search
    (``tests/reference.py::extensions``): the unknowns, walls then tops,
    each in cylinder order, take their candidates ascending.  The walls
    come in path order, so each takes the least value reached from the
    node before it that still reaches beta, and each top the least simplex
    with its face row (:meth:`homotopies`).  The witness rows are built by
    ``lifting._generated_rows``, degenerate simplices from their bases,
    and validated as one batch; a witness is then kept as the images of
    its tops alone.
    """

    def __init__(self, x: StratifiedSSet, base: SimplexId, n: int):
        self.elements = sphere_elements(x, base, n)
        if x.cap < n + 1:
            raise CapTooSmall(f"homotopy of {n}-spheres needs cap >= {n + 1}")
        self.x, self.n = x, n
        # each element's position, by its index
        self.position = {e.index: i for i, e in enumerate(self.elements)}
        xu = x.underlying
        # const[m]: the constant m-simplex at base, s_0 of const[m - 1]
        self.const = list(accumulate(
            range(n + 1), lambda v, m: xu.degeneracy_columns[m][0][v],
            initial=base.index))
        self.cylinder = cyl = gproduct(delta(n, n + 1), delta_t(1, n + 1))
        cu = cyl.underlying
        # pinned[m][c]: whether the cylinder m-simplex c, a pair of keys of
        # Δ[n] and of I, is pinned: at the ends, where the second key is
        # constant, and over ∂Δ[n], where the first misses a vertex
        self.pinned = [[len(set(kb)) == 1 or len(set(ka)) <= n
                        for ka, kb in cu.keys[m]]
                       for m in range(n + 2)]

        def cell(a: tuple[int, ...], zeros: int) -> int:
            # the cylinder simplex over the vertices a of Δ[n], at time 0
            # on the first ``zeros`` of them and at time 1 on the rest
            b = (0,) * zeros + (1,) * (len(a) - zeros)
            return cu.keys[len(a) - 1].index((a, b))

        full = tuple(range(n + 1))
        # the ends over the top n-simplex of Δ[n], alpha's first
        self.ends = cell(full, n + 1), cell(full, 0)
        # both in cylinder order: W_n, ..., W_1 and T_0, ..., T_n
        self.walls = [cell(full, i) for i in range(n, 0, -1)]
        self.tops = [cell(full[:i + 1] + full[i:], i + 1)
                     for i in range(n + 1)]
        every = set(self.position)
        columns = xu.face_columns[n + 1]
        pool = sorted(x.thin_indexes()[n + 1])
        self.links: list[_Link] = []
        # link k, from node k to node k + 1, is T_i for i = n - k
        for i in range(n, -1, -1):
            fixed = [(j, self.const[n]) for j in range(n + 2)
                     if j not in (i, i + 1)]
            least: dict[tuple[int, int], int] = {}
            for s in _matching(columns, pool, fixed):
                pair = columns[i + 1][s], columns[i][s]
                if every.issuperset(pair):
                    least.setdefault(pair, s)
            forward: dict[int, set[int]] = {}
            backward: dict[int, set[int]] = {}
            for u, v in least:
                forward.setdefault(u, set()).add(v)
                backward.setdefault(v, set()).add(u)
            self.links.append(_Link(self.tops[i], least, forward, backward))

    def _walk(self, values: set[int], start: int, stop: int) -> set[int]:
        """The values at node ``stop`` reachable from ``values`` at node
        ``start`` along the path, in either direction."""
        if start <= stop:
            for link in self.links[start:stop]:
                values = {v for u in values for v in link.forward.get(u, ())}
        else:
            for link in reversed(self.links[stop:start]):
                values = {u for v in values for u in link.backward.get(v, ())}
        return values

    def row(self, i: int) -> list[int]:
        """The positions, ascending, of the elements related to element i:
        those reachable from it along the path."""
        reach = self._walk({self.elements[i].index}, 0, len(self.links))
        return sorted(map(self.position.__getitem__, reach))

    def homotopies(self, pairs: Sequence[tuple[int, int]]
                   ) -> list[tuple[int, ...]]:
        """Per related pair (i, j) of element positions (j in :meth:`row`
        i), the first homotopy from element i to element j rel boundary,
        as the (n+1)-simplices at its tops in cylinder order.  The
        cylinder maps are validated as one batch; their ends hold by
        construction, since :meth:`_witness_rows` reads alpha and beta from
        elements i and j.
        """
        found: list[dict[tuple[int, int], int]] = []
        last = len(self.links)
        for i, j in pairs:
            # the value at each node of the path, the walls in path order
            beta = self.elements[j].index
            values = [self.elements[i].index]
            for k in range(1, last):
                values.append(min(self._walk({values[-1]}, k - 1, k)
                                  & self._walk({beta}, last, k)))
            values.append(beta)
            solution = {(self.n, w): v for w, v in zip(self.walls, values[1:])}
            for link, pair in zip(self.links, zip(values, values[1:])):
                solution[(self.n + 1, link.top)] = link.least[pair]
            found.append(solution)
        make_stratified_maps(self.cylinder, self.x,
                             self._witness_rows(pairs, found))
        return [tuple(s[(self.n + 1, t)] for t in self.tops) for s in found]

    def _witness_rows(self, pairs: Sequence[tuple[int, int]],
                      solutions: Sequence[dict[tuple[int, int], int]]
                      ) -> list[list[Sequence[int]]]:
        """The cylinder rows of each pair's solution: alpha and beta at the
        ends over the top n-simplex, the solution on the unknowns and the
        constant on every other simplex, degenerate simplices filled from
        their bases by ``lifting._generated_rows``."""
        # alpha's end first
        ends = {c: [self.elements[pair[side]].index for pair in pairs]
                for side, c in enumerate(self.ends)}

        def image(m: int, c: int) -> list[int]:
            if not self.pinned[m][c]:
                return [s[(m, c)] for s in solutions]
            if m == self.n and c in ends:
                return ends[c]
            return [self.const[m]] * len(pairs)

        return list(_generated_rows(self.cylinder.underlying,
                                    self.x.underlying, image))


# -- invertibly connected components -----------------------------------------

def _partition(size: int, related: Iterable[tuple[int, int]]
               ) -> tuple[tuple[tuple[int, ...], ...], bool, bool, bool]:
    """Classes of the equivalence relation that ``related`` generates.

    ``related`` lists the pairs (i, j) of indexes in ``range(size)`` that
    the raw relation relates.  Returns the classes, each ascending and
    ordered by least member, then whether the raw relation was already
    reflexive, symmetric and transitive.
    """
    succ: list[set[int]] = [set() for _ in range(size)]
    for i, j in related:
        succ[i].add(j)
    reflexive = all(i in s for i, s in enumerate(succ))
    symmetric = all(i in succ[j] for i, s in enumerate(succ) for j in s)
    transitive = all(succ[j] <= s for s in succ for j in s)
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, s in enumerate(succ):
        for j in s:
            parent[find(i)] = find(j)
    by_root: dict[int, list[int]] = {}
    for i in range(size):
        by_root.setdefault(find(i), []).append(i)
    classes = tuple(sorted(tuple(c) for c in by_root.values()))
    return classes, reflexive, symmetric, transitive


@dataclass(frozen=True)
class Tau0Result:
    """Partition of the vertices by the thin-edge relation."""

    classes: tuple[tuple[SimplexId, ...], ...]
    raw_symmetric: bool
    raw_transitive: bool

    @property
    def closure_needed(self) -> bool:
        return not (self.raw_symmetric and self.raw_transitive)


def tau0(x: StratifiedSSet) -> Tau0Result:
    """Vertices modulo "there is a thin edge from one to the other".

    The raw relation is closed reflexively, symmetrically and transitively;
    the result records whether the closure changed anything, which it never
    does on a verified weak complicial set.
    """
    if x.cap < 1:
        raise CapTooSmall("tau0 needs cap >= 1")
    xu = x.underlying
    nv = xu.counts[0]
    d0, d1 = xu.face_columns[1]
    thin = sorted(x.thin_indexes()[1])
    raw = list(zip(map(d1.__getitem__, thin), map(d0.__getitem__, thin)))
    # degenerate loops are thin, but be explicit
    raw += [(v, v) for v in range(nv)]
    blocks, _, symmetric, transitive = _partition(nv, raw)
    classes = tuple(tuple(xu.ids[0][i] for i in b) for b in blocks)
    return Tau0Result(classes, symmetric, transitive)


# -- multiplication by horn filling ------------------------------------------

def _horn_fillers(x: StratifiedSSet, k: int, rows: Sequence[Row]
                  ) -> list[list[int]]:
    """The fillers of horns at ``k``, one index list per horn, in search
    order.

    ``rows`` gives each horn by its faces j != k, as indexes in ascending
    j.  The horns are checked first, as one batch, to be stratified maps
    (``lifting._require_horns``), so an invalid horn raises before any
    filler is looked up; the fillers of all horns are then looked up
    together (``lifting._batch_fillers``).  The check compares whole
    columns, and horn maps are built only when it fails.
    """
    if not rows:
        return []
    n = len(rows[0])
    _require_horns(x, k, n, list(zip(*rows)))
    return _batch_fillers(x, k, n, rows)


def _product_fillers(x: StratifiedSSet, base: SimplexId, n: int,
                     pairs: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The fillers of the multiplication horn of each pair, in search order.

    ``pairs`` and the fillers are indexes of n- and (n+1)-simplices.  The
    horn of the (n+1)-simplex at n has the first factor on face n-1, the
    second on face n+1 and the constant n-simplex at ``base`` elsewhere.
    Every batch goes through :func:`_horn_fillers`, which checks the horns
    first, a column at a time.  The arguments are not checked.
    """
    xu = x.underlying
    # the faces j != n: constants, then j = n - 1 and j = n + 1 at n - 1
    # and n
    rows = list(map(((xu.const(base, n).index,) * (n - 1)).__add__, pairs))
    return _horn_fillers(x, n, rows)


def _product_args(x: StratifiedSSet, base: SimplexId, n: int,
                  *factors: SimplexId) -> None:
    """Check n, the cap, the base vertex and the n-simplex factors at
    entry."""
    _require_int("n", n)
    if n < 1:
        raise InvalidInput("multiplication needs n >= 1")
    if x.cap < n + 1:
        raise CapTooSmall(f"multiplication at n = {n} needs cap >= {n + 1}")
    require_simplex(x.underlying, base, 0)
    for s in factors:
        require_simplex(x.underlying, s, n)


def _first_filler(found: list[int], alpha: SimplexId, beta: SimplexId
                  ) -> int:
    """The first filler, or :class:`NoFiller`."""
    if not found:
        raise NoFiller(
            f"no filler for the multiplication horn of {alpha!r}, {beta!r}"
        )
    return found[0]


def multiply(x: StratifiedSSet, base: SimplexId, n: int,
             alpha: SimplexId, beta: SimplexId) -> SimplexId:
    """Product representative of two sphere elements at ``base``.

    Takes the first filler in deterministic search order and returns its
    n-th face.  Raises :class:`NoFiller` when the complex is not weak
    complicial at this instance; the failure is surfaced, never ignored.
    """
    result, _ = multiply_with_filler(x, base, n, alpha, beta)
    return result


def multiply_with_filler(
    x: StratifiedSSet, base: SimplexId, n: int,
    alpha: SimplexId, beta: SimplexId,
) -> tuple[SimplexId, SimplexId]:
    """Like :func:`multiply` but also returns the chosen filler simplex."""
    _product_args(x, base, n, alpha, beta)
    found = _product_fillers(x, base, n, [(alpha.index, beta.index)])[0]
    theta = x.underlying.ids[n + 1][_first_filler(found, alpha, beta)]
    return x.underlying.face(theta, n), theta


def all_product_fillers(
    x: StratifiedSSet, base: SimplexId, n: int,
    alpha: SimplexId, beta: SimplexId,
) -> list[tuple[SimplexId, SimplexId]]:
    """Every filler of the multiplication horn, with its resulting face."""
    _product_args(x, base, n, alpha, beta)
    found = _product_fillers(x, base, n, [(alpha.index, beta.index)])[0]
    ids = x.underlying.ids[n + 1]
    return [(x.underlying.face(ids[w], n), ids[w]) for w in found]


# -- the homotopy monoid table ------------------------------------------------

@dataclass(frozen=True)
class MonoidTable:
    """Multiplication table of a homotopy monoid, with diagnostics.

    ``classes`` lists each homotopy class as a sorted tuple of sphere
    elements, ordered by canonical (least) representative; ``table`` holds
    class indices.  The relation flags describe the witness relation before
    closure; commutativity is an observation about this table only, never a
    claimed theorem.  ``fillers`` and ``witnesses`` are kept as indexes
    (the first filler of each cell in row-major order, and each related
    pair of elements to the tops of its witness) and made into ids of
    ``_complex`` when they are first read.
    """

    n: int
    base: SimplexId
    elements: tuple[SimplexId, ...]
    classes: tuple[tuple[SimplexId, ...], ...]
    unit: int
    table: tuple[tuple[int, ...], ...]
    associative: bool
    inverses: dict[int, int]
    is_group: bool
    commutative: bool
    relation_reflexive: bool
    relation_symmetric: bool
    relation_transitive: bool
    _fillers: tuple[int, ...]
    _witnesses: dict[tuple[int, int], tuple[int, ...]]
    _complex: TruncatedSSet | None = field(compare=False, repr=False)

    @property
    def closure_needed(self) -> bool:
        return not (self.relation_reflexive and self.relation_symmetric
                    and self.relation_transitive)

    @cached_property
    def fillers(self) -> tuple[tuple[SimplexId, ...], ...]:
        """The first filler of each cell, as rows of ids."""
        ids = list(map(self._complex.ids[self.n + 1].__getitem__,
                       self._fillers))
        return tuple(zip(*[iter(ids)] * len(self.classes)))

    @cached_property
    def witnesses(self) -> dict[tuple[SimplexId, SimplexId],
                                tuple[SimplexId, ...]]:
        """The tops of the witness of each related pair, as ids."""
        return _witness_ids(self._complex, self.n, self._witnesses)

    @cached_property
    def _index(self) -> dict[SimplexId, int]:
        return _class_index(self.classes)

    def class_of(self, element: SimplexId) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise InvalidInput(
                f"{element!r} is not a sphere element of this table") from None


def _class_index(classes: Iterable[Iterable[Hashable]]) -> dict[Hashable, int]:
    """Each member of each class to the position of its class."""
    return {e: i for i, c in enumerate(classes) for e in c}


def find_inverses(table: MonoidTable) -> tuple[dict[int, int], bool]:
    """Two-sided inverses per class; a group exactly when all exist."""
    if not table.associative:
        raise InvalidInput("inverse search needs an associative table")
    inverses: dict[int, int] = {}
    e = table.unit
    size = len(table.classes)
    for i in range(size):
        for j in range(size):
            if table.table[i][j] == e and table.table[j][i] == e:
                inverses[i] = j
                break
    return inverses, len(inverses) == size


def _associative(table: Sequence[Sequence[int | None]],
                 src: Sequence[int], tgt: Sequence[int]) -> bool:
    """Whether a composition is associative, by Light's test.

    ``table[f][g]`` is the composite "f then g" of the morphisms f and g,
    read only where ``tgt[f] == src[g]``; a monoid is the case of one
    object.  The middle terms g with (fg)h = f(gh) for all composable f
    and h are closed under composition: if g and g' are such terms, then
    (f(gg'))h = ((fg)g')h = (fg)(g'h) = f(g(g'h)) = f((gg')h).  So it is
    enough to check g in a generating set (Clifford and Preston, *The
    Algebraic Theory of Semigroups* I, 1961), which needs no units.  The
    set is chosen greedily, in ascending index: g joins it when the
    composites of the generators so far miss it.  Those composites are
    closed under composing with a generator, one composite per element
    and generator, so the test costs O(m^2 |G|) instead of O(m^3); in a
    group each generator at least doubles the subgroup reached, so
    |G| <= log2(m) + 1.
    """
    size = len(table)
    reached = [False] * size
    seen: list[int] = []
    generators: list[int] = []
    for g in range(size):
        if reached[g]:
            continue
        # every element reached so far composes with g once, and every
        # element reached from now on with every generator
        todo = [table[s][g] for s in seen if tgt[s] == src[g]]
        generators.append(g)
        todo.append(g)
        while todo:
            s = todo.pop()
            if not reached[s]:
                reached[s] = True
                seen.append(s)
                todo.extend(table[s][h] for h in generators
                            if tgt[s] == src[h])
    into: dict[int, list[int]] = {}
    out_of: dict[int, list[int]] = {}
    for f in range(size):
        into.setdefault(tgt[f], []).append(f)
        out_of.setdefault(src[f], []).append(f)
    for g in generators:
        after = out_of.get(tgt[g], [])
        composites = [table[g][h] for h in after]
        for f in into.get(src[g], []):
            left, right = table[table[f][g]], table[f]
            if list(map(left.__getitem__, after)) != \
                    list(map(right.__getitem__, composites)):
                return False
    return True


def _finish_table(table: tuple[tuple[int, ...], ...], **fields) -> MonoidTable:
    """The table with its associativity, commutativity and inverses.

    Associativity is decided by Light's test (:func:`_associative`).
    ``fields`` are the remaining :class:`MonoidTable` fields; inverses are
    looked for only in an associative table.
    """
    one = [0] * len(table)
    associative = _associative(table, one, one)
    commutative = table == tuple(zip(*table))
    result = MonoidTable(
        table=table, associative=associative, commutative=commutative,
        inverses={}, is_group=False, **fields,
    )
    if associative:
        inverses, is_group = find_inverses(result)
        result = replace(result, inverses=inverses, is_group=is_group)
    return result


def _witness_ids(xu: TruncatedSSet, n: int,
                 found: dict[tuple[int, int], tuple[int, ...]]
                 ) -> dict[tuple[SimplexId, SimplexId], tuple[SimplexId, ...]]:
    """The witnesses of :func:`_sphere_relation` as ids: each pair of
    n-simplices to the (n+1)-simplices at the tops of its witness."""
    low, top = xu.ids[n], xu.ids[n + 1]
    return {(low[p], low[q]): tuple(map(top.__getitem__, tops))
            for (p, q), tops in found.items()}


def _sphere_relation(
    x: StratifiedSSet, base: SimplexId, n: int,
) -> tuple[tuple[SimplexId, ...], list[tuple[int, int]],
           dict[tuple[int, int], tuple[int, ...]]]:
    """:func:`sphere_relation` with the relation as its related pairs of
    element positions, row by row, and each witness kept as indexes: the
    indexes of its pair to those of its tops."""
    homotopy = _SphereHomotopy(x, base, n)
    elements = homotopy.elements
    pairs = [(i, j) for i in range(len(elements)) for j in homotopy.row(i)]
    witnesses = {(elements[i].index, elements[j].index): tops
                 for (i, j), tops in zip(pairs, homotopy.homotopies(pairs))}
    return elements, pairs, witnesses


def sphere_relation(
    x: StratifiedSSet, base: SimplexId, n: int,
) -> tuple[tuple[SimplexId, ...], list[list[bool]],
           dict[tuple[SimplexId, SimplexId], tuple[SimplexId, ...]]]:
    """The full ordered witness matrix of boundary-fixing homotopy.

    Computes, for every ordered pair of sphere elements, whether a homotopy
    witness exists, without assuming symmetry or transitivity; the caller
    may then diagnose whether the found-witness relation was already an
    equivalence relation.  The relation is one chain join over the prism
    (:class:`_SphereHomotopy`): each row is the set reachable from its
    element.  The witness of each related pair is its first cylinder map in
    extension-search order, rebuilt and validated with all the others as
    one batch, and given by the (n+1)-simplices at its tops, in cylinder
    order.
    """
    elements, pairs, witnesses = _sphere_relation(x, base, n)
    rel = [[False] * len(elements) for _ in elements]
    for i, j in pairs:
        rel[i][j] = True
    return elements, rel, _witness_ids(x.underlying, n, witnesses)


def _positions(xu: TruncatedSSet, n: int,
               classes: Sequence[Sequence[SimplexId]]) -> list[int | None]:
    """The class of each n-simplex, or None for one in no class."""
    position: list[int | None] = [None] * xu.counts[n]
    for c, members in enumerate(classes):
        for e in members:
            position[e.index] = c
    return position


def _member_pairs(classes: Sequence[Sequence[SimplexId]], every: bool
                  ) -> tuple[list[tuple[int, int]], list[int]]:
    """The pairs of n-simplex indexes whose product horns a table (with
    ``every`` false: one representative pair per cell) or an audit (every
    pair of class members) fills, cell by cell in row-major order, with
    the number of pairs of each cell.  The first pair of a cell is its
    representative pair."""
    members = [[e.index for e in c[:None if every else 1]] for c in classes]
    sizes = list(map(len, members))
    return ([(p, q) for ci in members for cj in members for p in ci
             for q in cj],
            [a * b for a in sizes for b in sizes])


def _products(xu: TruncatedSSet, n: int,
              classes: Sequence[Sequence[SimplexId]],
              position: Sequence[int | None], found: Sequence[list[int]]
              ) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The table's entries and the first filler of each cell, from the
    fillers of each representative pair (``found``, one list per cell in
    row-major order), a column at a time: first fillers, their n-th faces,
    then the classes of those.  Raises as the cells are read in order: a
    :class:`NoFiller` for a pair with no filler, an :class:`InvalidInput`
    for a product that is not a sphere element."""
    results = xu.face_columns[n + 1][n]
    firsts = list(map(next, map(iter, found), repeat(None)))
    empty = firsts.index(None) if None in firsts else len(firsts)
    got = list(map(position.__getitem__,
                   map(results.__getitem__, firsts[:empty])))
    if None in got:
        theta = firsts[got.index(None)]
        raise InvalidInput(
            f"product {xu.id_at(n, results[theta])!r} is not a sphere "
            "element; tables need constant-boundary closure"
        )
    size = len(classes)
    if empty < len(firsts):
        i, j = divmod(empty, size)
        _first_filler(found[empty], classes[i][0], classes[j][0])  # raises
    return tuple(zip(*[iter(got)] * size)), firsts


def _tau(x: StratifiedSSet, base: SimplexId, n: int, audit: bool
         ) -> tuple[MonoidTable, AuditReport | None]:
    """:func:`tau_table` and, when ``audit`` is set, the report of
    :func:`audit_well_defined` on it, from one filler lookup.

    The product horns of every pair of class members (of the
    representatives only, without ``audit``) are checked by columns and
    their fillers looked up in one batch (:func:`_product_fillers`).  The
    table reads the first filler of each cell's representative pair
    (:func:`_products`) and the audit all of them (:func:`_audit`), so the
    table's errors come before the audit's.
    """
    _require_int("n", n)
    if n < 1:
        raise InvalidInput("homotopy monoids are defined for n >= 1")
    if x.cap < n + 1:
        raise CapTooSmall(f"tau at n = {n} needs cap >= {n + 1}")
    xu = x.underlying
    require_simplex(xu, base, 0)
    elements, related, witnesses = _sphere_relation(x, base, n)
    blocks, reflexive, symmetric, transitive = _partition(len(elements),
                                                          related)
    # elements ascend, so the classes come out ordered as SimplexIds
    classes = tuple(tuple(elements[i] for i in b) for b in blocks)
    position = _positions(xu, n, classes)
    pairs, per_cell = _member_pairs(classes, audit)
    found = _product_fillers(x, base, n, pairs)
    starts = [0, *accumulate(per_cell)][:-1]
    table, fillers = _products(xu, n, classes, position,
                               list(map(found.__getitem__, starts)))
    result = _finish_table(
        table,
        n=n, base=base, elements=elements, classes=classes,
        unit=position[xu.const(base, n).index],
        relation_reflexive=reflexive, relation_symmetric=symmetric,
        relation_transitive=transitive,
        _fillers=tuple(fillers), _witnesses=witnesses, _complex=xu,
    )
    if not audit:
        return result, None
    return result, _audit(xu, n, result, position, per_cell, found)


def tau_table(x: StratifiedSSet, base: SimplexId, n: int) -> MonoidTable:
    """The homotopy monoid at ``base`` in dimension ``n``, as a full table.

    Partitions the sphere elements by homotopy rel boundary (computing the
    closure of the witness relation and recording whether closure was
    needed), multiplies canonical representatives through horn filling,
    then checks associativity by Light's test (:func:`_associative`) and
    attempts two-sided inverse detection.  The product horns of all pairs
    of representatives are checked by columns and their fillers looked up
    in one batch (:func:`_tau`).
    """
    return _tau(x, base, n, False)[0]


# -- audits -------------------------------------------------------------------

@dataclass(frozen=True)
class AuditCell:
    row: int
    col: int
    pairs_tested: int
    fillers_tested: int
    consistent: bool


@dataclass(frozen=True)
class AuditReport:
    """The audit of a table, as columns with one entry per cell in
    row-major order; ``size`` is the number of classes.  ``cells`` is made
    from the columns when it is first read."""

    size: int
    pairs_tested: tuple[int, ...]
    fillers_tested: tuple[int, ...]
    consistent: tuple[bool, ...]

    @cached_property
    def cells(self) -> tuple[AuditCell, ...]:
        return tuple(
            AuditCell(*divmod(k, self.size), pairs, fillers, consistent)
            for k, (pairs, fillers, consistent) in enumerate(zip(
                self.pairs_tested, self.fillers_tested, self.consistent)))

    @property
    def all_consistent(self) -> bool:
        return all(self.consistent)

    @property
    def min_fillers(self) -> int:
        return min(self.fillers_tested, default=0)


def _audit(xu: TruncatedSSet, n: int, table: MonoidTable,
           position: Sequence[int | None], per_cell: Sequence[int],
           found: Sequence[list[int]]) -> AuditReport:
    """The audit of ``table`` from the fillers of every pair of class
    members (``found``, as :func:`_member_pairs` orders them, with
    ``per_cell`` pairs per cell), a column at a time: the n-th face of every
    filler is mapped to its class and compared with its cell's entry.
    Raises as the pairs are read in order: a :class:`NoFiller` for a pair
    with no filler, an :class:`InvalidInput` for a face that is not a
    sphere element of the table."""
    faces = xu.face_columns[n + 1][n]
    lens = list(map(len, found))
    flat = list(chain.from_iterable(found))
    got = list(map(position.__getitem__, map(faces.__getitem__, flat)))
    # the first pair of each cell, and the first filler of each pair
    bounds = [0, *accumulate(per_cell)]
    starts = [0, *accumulate(lens)]
    empty = lens.index(0) if 0 in lens else len(lens)
    if None in got:
        stray = got.index(None)
        if bisect_right(starts, stray) - 1 < empty:  # its pair comes first
            raise InvalidInput(f"{xu.id_at(n, faces[flat[stray]])!r} is "
                               "not a sphere element of this table")
    if empty < len(lens):
        i, j = divmod(bisect_right(bounds, empty) - 1, len(table.classes))
        raise NoFiller(f"no filler at cell ({i}, {j})")
    # the first filler of each cell; every cell has one, so they ascend
    cell_starts = list(map(starts.__getitem__, bounds))
    fillers = list(map(sub, cell_starts[1:], cell_starts[:-1]))
    wanted = chain.from_iterable(
        map(repeat, chain.from_iterable(table.table), fillers))
    consistent = [True] * len(per_cell)
    for k in compress(count(), map(ne, got, wanted)):
        consistent[bisect_right(cell_starts, k) - 1] = False
    return AuditReport(len(table.classes), tuple(per_cell), tuple(fillers),
                       tuple(consistent))


def audit_well_defined(x: StratifiedSSet, base: SimplexId,
                       table: MonoidTable) -> AuditReport:
    """Rerun every cell over all representative pairs and all fillers.

    Confirms that each filler's resulting face lands in the class the table
    recorded for that cell.  ``base`` must be the table's base, the cap
    must leave room for the product horns, and the table's elements must
    be the sphere elements of ``x`` at ``base``.  The horns of all
    representative pairs of all cells are checked by columns and their
    fillers looked up in one batch (:func:`_product_fillers`), then read a
    column at a time (:func:`_audit`).
    """
    n = table.n
    xu = x.underlying
    require_simplex(xu, base, 0)
    if base != table.base:
        raise InvalidInput(
            f"audit at {base!r} of a table computed at {table.base!r}")
    if x.cap < n + 1:
        raise InvalidInput(f"audit at n = {n} needs cap >= {n + 1}")
    if [e.index for e in table.elements] != _sphere_indexes(xu, base, n):
        raise InvalidInput(
            f"audit of a table whose elements are not the sphere elements "
            f"at {base!r} of the complex")
    pairs, per_cell = _member_pairs(table.classes, True)
    return _audit(xu, n, table, _positions(xu, n, table.classes), per_cell,
                  _product_fillers(x, base, n, pairs))


@dataclass(frozen=True)
class AssociativityWitness:
    """The filled three-fold horn joining the two association orders."""

    filler: SimplexId
    double_face: SimplexId
    theta: SimplexId
    psi: SimplexId
    phi: SimplexId


def associativity_witness(
    x: StratifiedSSet, base: SimplexId, n: int,
    alpha: SimplexId, beta: SimplexId, gamma: SimplexId,
) -> AssociativityWitness:
    """Assemble and fill the horn that proves associativity of the table.

    Builds fillers theta (alpha, beta), psi (theta's face, gamma) and phi
    (beta, gamma), mounts them on the horn of the (n+2)-simplex at faces
    n-1, n+1 and n+2 with constants elsewhere, fills it, and returns the
    double n-th face joining ((alpha beta) gamma) with (alpha (beta gamma)).
    """
    _product_args(x, base, n, alpha, beta, gamma)
    if x.cap < n + 2:
        raise CapTooSmall(f"the associativity horn needs cap >= {n + 2}")
    ab, theta = multiply_with_filler(x, base, n, alpha, beta)
    _, psi = multiply_with_filler(x, base, n, ab, gamma)
    _, phi = multiply_with_filler(x, base, n, beta, gamma)
    # the faces j != n of the (n+2)-simplex: n - 1, n + 1, n + 2 sit at
    # n - 1, n, n + 1
    row = [x.underlying.const(base, n + 1).index] * (n + 2)
    row[n - 1], row[n], row[n + 1] = theta.index, psi.index, phi.index
    found = _horn_fillers(x, n, [tuple(row)])[0]
    if not found:
        raise NoFiller("the associativity horn has no filler")
    xu = x.underlying
    u = xu.ids[n + 2][found[0]]
    return AssociativityWitness(
        filler=u,
        double_face=xu.face(xu.face(u, n), n),
        theta=theta, psi=psi, phi=phi,
    )
