r"""Homotopy relations and homotopy monoids.

Two maps A -> X are simply homotopic when a stratified map out of the
cylinder A (x) I extends them, where I is the interval with thin top edge;
relative homotopy additionally pins the cylinder over a subcomplex B to the
common restriction.  Sphere elements at a vertex x are the n-simplices with
constant boundary at x; their classes under boundary-fixing homotopy carry a
multiplication obtained by filling the horn of the (n+1)-simplex that mounts
the first factor on face n-1, the second on face n+1, and constants
everywhere else.  The product of the classes is the class of the n-th face
of the filler.  For n = 1 the filler is a thin triangle and the result is
its composite edge,

            x
           ^ \
    second/   \ first
         /     v
        x ----> x
         result

so on nerves of monoids the table reproduces the monoid multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .core import SimplexId, build_map, make_simplicial_map
from .errors import (
    CapTooSmall,
    InvalidInput,
    NoFiller,
    RestrictionMismatch,
)
from .lifting import ExtensionProblem, find_extensions
from .standard import boundary_pair, complicial_horn, delta, delta_t, top_id
from .strat import (
    StratifiedMap,
    StratifiedSSet,
    gproduct,
    make_stratified_map,
    regular_subset,
)


# -- classifying maps and sphere elements -----------------------------------

def classifying_map(x: StratifiedSSet, alpha: SimplexId,
                    cap: int | None = None) -> StratifiedMap:
    """The map from the (minimally stratified) n-simplex picking ``alpha``.

    Built at ``cap`` (default: one above the simplex dimension, clipped to
    the target's cap) so that cylinders over it stay within range.
    """
    n = alpha.dim
    if cap is None:
        cap = min(x.cap, n + 1)
    if cap < n or cap > x.cap:
        raise CapTooSmall(f"cap {cap} unusable for a {n}-simplex in cap {x.cap}")
    a = delta(n, cap)
    au, xu = a.underlying, x.underlying
    assignments = {
        s: xu.apply_monotone(alpha, au.keys[m][s.index])
        for m in range(cap + 1)
        for s in au.nondegenerate(m)
    }
    return make_stratified_map(a, x, build_map(au, xu, assignments))


def sphere_elements(x: StratifiedSSet, base: SimplexId, n: int
                    ) -> tuple[SimplexId, ...]:
    """All n-simplices whose entire boundary is constant at ``base``."""
    if base.dim != 0:
        raise InvalidInput(f"{base!r} is not a vertex")
    if n < 1:
        raise InvalidInput("sphere elements need n >= 1")
    if n > x.cap:
        raise CapTooSmall(f"cap {x.cap} below n = {n}")
    xu = x.underlying
    const = xu.const(base, n - 1)
    return tuple(
        s for s in xu.simplices(n)
        if all(xu.face(s, i) == const for i in range(n + 1))
    )


# -- homotopy of maps --------------------------------------------------------

@dataclass(frozen=True)
class HomotopyWitness:
    """A stratified cylinder map restricting to ``f`` and ``g`` at the ends."""

    h: StratifiedMap
    f: StratifiedMap
    g: StratifiedMap

    def __post_init__(self):
        a = self.f.source
        cyl = self.h.source
        cu = cyl.underlying
        au = a.underlying
        for m in range(cyl.cap + 1):
            for i in range(cyl.counts[m]):
                ka, kt = cu.keys[m][i]
                if kt != (0,) * (m + 1) and kt != (1,) * (m + 1):
                    continue
                end = self.f if kt[0] == 0 else self.g
                cell = au.id_for_key(m, ka) if au.keys is not None \
                    else au.id_at(m, ka)
                if self.h(cu.id_at(m, i)) != end(cell):
                    raise InvalidInput(
                        f"cylinder map does not restrict to the ends at {m}:{i}"
                    )


class _Cylinder:
    """Homotopies out of A (x) I relative to B, as one reusable problem.

    Built once per (source ``a``, ``rel`` inclusion B -> A): the cylinder,
    the regular subset of its pinned part with the inclusion, and a plan
    saying where each pinned simplex reads its image.  The ends read the
    f or the g row at the simplex of A they lie over; over B the rel
    projection reads the f row (the two maps agree there).  Solving for a
    pair of maps only assembles the pinned rows, validates them as a
    partial map and searches for an extension.
    """

    __slots__ = ("source", "rel", "inclusion", "_plan")

    def __init__(self, a: StratifiedSSet, rel: StratifiedMap | None):
        if rel is not None and rel.target != a:
            raise InvalidInput("rel inclusion must land in the maps' source")
        interval = delta_t(1, a.cap)
        cyl = gproduct(a, interval)
        tu = interval.underlying
        # reads[m][c]: the cylinder m-simplex c is pinned to entry
        # reads[m][c] of the f row followed by the g row of dimension m
        reads: list[dict[int, int]] = []
        for m in range(cyl.cap + 1):
            c0 = tu.id_for_key(m, (0,) * (m + 1)).index
            c1 = tu.id_for_key(m, (1,) * (m + 1)).index
            t, na = interval.counts[m], a.counts[m]
            ends = {}
            for ia in range(na):
                ends[ia * t + c0] = ia
                ends[ia * t + c1] = na + ia
            reads.append(ends)
        if rel is not None:
            for m in range(min(rel.map.depth, cyl.cap) + 1):
                t = interval.counts[m]
                for ia in set(rel.map.assign[m]):
                    for it in range(t):
                        reads[m][ia * t + it] = ia
        cu = cyl.underlying
        sub, inclusion = regular_subset(
            cyl, [cu.id_at(m, c) for m, ends in enumerate(reads) for c in ends]
        )
        # the pinned part is face- and degeneracy-closed, so nothing was added
        assert sum(sub.counts) == sum(map(len, reads))
        self.source = a
        self.rel = rel
        self.inclusion = inclusion
        self._plan = tuple(
            tuple(map(ends.__getitem__, row))
            for ends, row in zip(reads, inclusion.map.assign)
        )

    def solve(self, f: StratifiedMap, g: StratifiedMap
              ) -> HomotopyWitness | None:
        """A homotopy from ``f`` to ``g`` rel B, or None when there is none."""
        a = self.source
        x = f.target
        if f.source != a or g.source != a or g.target != x:
            raise InvalidInput(
                "homotopy needs maps with common source and target"
            )
        if x.cap < a.cap:
            raise CapTooSmall(f"target cap {x.cap} below cylinder cap {a.cap}")
        rel = self.rel
        if rel is not None and rel.map.then(f.map) != rel.map.then(g.map):
            raise RestrictionMismatch("maps differ on the rel subcomplex")
        rows = tuple(
            tuple(map((fr + gr).__getitem__, plan))
            for plan, fr, gr in zip(self._plan, f.map.assign, g.map.assign)
        )
        sub = self.inclusion.source
        partial = make_stratified_map(
            sub, x, make_simplicial_map(sub.underlying, x.underlying, rows)
        )
        found = find_extensions(ExtensionProblem(self.inclusion, partial),
                                limit=1)
        if not found:
            return None
        return HomotopyWitness(found[0], f, g)


def rel_homotopic(
    f: StratifiedMap,
    g: StratifiedMap,
    rel: StratifiedMap | None = None,
) -> HomotopyWitness | None:
    """Search for a homotopy from ``f`` to ``g``, relative to ``rel``.

    ``rel`` is an inclusion B -> A; over B the cylinder is pinned to the
    common restriction through the projection.  The search space is the set
    of stratified extensions of the pinned part of the cylinder, which is
    determined by the images of the nondegenerate prism cells, so the solver
    only ever branches on those.  The cylinder problem depends only on A
    and ``rel``; callers comparing many pairs of maps (:func:`sphere_relation`,
    :func:`check_well_defined`) build it once and solve every pair with it.
    """
    return _Cylinder(f.source, rel).solve(f, g)


def simple_homotopic(f: StratifiedMap, g: StratifiedMap
                     ) -> HomotopyWitness | None:
    """Homotopy with no relative constraint."""
    return rel_homotopic(f, g, None)


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
    raw = [(xu.faces[1][e.index][1], xu.faces[1][e.index][0])
           for e in x.thin_in_dim(1)]
    # degenerate loops are thin, but be explicit
    raw += [(v, v) for v in range(nv)]
    blocks, _, symmetric, transitive = _partition(nv, raw)
    classes = tuple(tuple(xu.ids[0][i] for i in b) for b in blocks)
    return Tau0Result(classes, symmetric, transitive)


# -- multiplication by horn filling ------------------------------------------

def _product_problem(x: StratifiedSSet, base: SimplexId, n: int,
                     alpha: SimplexId, beta: SimplexId) -> ExtensionProblem:
    from .lifting import assemble_horn_map

    if x.cap < n + 1:
        raise CapTooSmall(f"multiplication at n = {n} needs cap >= {n + 1}")
    horn, inclusion = complicial_horn(n, n + 1, n + 1)
    const = x.underlying.const(base, n)
    faces = {j: const for j in range(n + 2) if j != n}
    faces[n - 1] = alpha
    faces[n + 1] = beta
    partial = assemble_horn_map(horn, faces, x)
    return ExtensionProblem(inclusion, partial)


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
    problem = _product_problem(x, base, n, alpha, beta)
    found = find_extensions(problem, limit=1)
    if not found:
        raise NoFiller(
            f"no filler for the multiplication horn of {alpha!r}, {beta!r}"
        )
    b = problem.inclusion.target
    theta = found[0](top_id(b, n + 1))
    return x.underlying.face(theta, n), theta


def all_product_fillers(
    x: StratifiedSSet, base: SimplexId, n: int,
    alpha: SimplexId, beta: SimplexId,
) -> list[tuple[SimplexId, SimplexId]]:
    """Every filler of the multiplication horn, with its resulting face."""
    problem = _product_problem(x, base, n, alpha, beta)
    b = problem.inclusion.target
    out = []
    for ext in find_extensions(problem, limit=None):
        theta = ext(top_id(b, n + 1))
        out.append((x.underlying.face(theta, n), theta))
    return out


# -- the homotopy monoid table ------------------------------------------------

@dataclass(frozen=True)
class MonoidTable:
    """Multiplication table of a homotopy monoid, with diagnostics.

    ``classes`` lists each homotopy class as a sorted tuple of sphere
    elements, ordered by canonical (least) representative; ``table`` holds
    class indices.  The relation flags describe the witness relation before
    closure; commutativity is an observation about this table only, never a
    claimed theorem.
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
    fillers: tuple[tuple[SimplexId, ...], ...]
    witnesses: dict[tuple[SimplexId, SimplexId], tuple[SimplexId, ...]]

    @property
    def closure_needed(self) -> bool:
        return not (self.relation_reflexive and self.relation_symmetric
                    and self.relation_transitive)

    @property
    def reps(self) -> tuple[SimplexId, ...]:
        return tuple(c[0] for c in self.classes)

    def class_of(self, element: SimplexId) -> int:
        for i, c in enumerate(self.classes):
            if element in c:
                return i
        raise InvalidInput(f"{element!r} is not a sphere element of this table")


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


def _finish_table(table: tuple[tuple[int, ...], ...], **fields) -> MonoidTable:
    """The table with its associativity, commutativity and inverses.

    ``fields`` are the remaining :class:`MonoidTable` fields; inverses are
    looked for only in an associative table.
    """
    k = range(len(table))
    associative = all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in k for b in k for c in k
    )
    commutative = all(table[a][b] == table[b][a] for a in k for b in k)
    result = MonoidTable(
        table=table, associative=associative, commutative=commutative,
        inverses={}, is_group=False, **fields,
    )
    if associative:
        inverses, is_group = find_inverses(result)
        result = replace(result, inverses=inverses, is_group=is_group)
    return result


def _witness_summary(w: HomotopyWitness) -> tuple[SimplexId, ...]:
    cyl = w.h.source
    top = cyl.cap
    return tuple(w.h(s) for s in cyl.nondegenerate(top))


def sphere_relation(
    x: StratifiedSSet, base: SimplexId, n: int,
    elements: Sequence[SimplexId] | None = None,
) -> tuple[tuple[SimplexId, ...], list[list[bool]],
           dict[tuple[SimplexId, SimplexId], tuple[SimplexId, ...]]]:
    """The full ordered witness matrix of boundary-fixing homotopy.

    Computes, for every ordered pair of sphere elements, whether a homotopy
    witness exists, without assuming symmetry or transitivity; the caller
    may then diagnose whether the found-witness relation was already an
    equivalence relation.  The cylinder problem over the boundary inclusion
    and the classifying maps are built once; each pair only pins its ends
    and runs the search.
    """
    if elements is None:
        elements = sphere_elements(x, base, n)
    if x.cap < n + 1:
        raise CapTooSmall(f"homotopy of {n}-spheres needs cap >= {n + 1}")
    _, binc = boundary_pair(n, n + 1)
    cylinder = _Cylinder(binc.target, binc)
    maps = [classifying_map(x, e, cap=n + 1) for e in elements]
    size = len(elements)
    rel = [[False] * size for _ in range(size)]
    witnesses: dict[tuple[SimplexId, SimplexId], tuple[SimplexId, ...]] = {}
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            w = cylinder.solve(maps[i], maps[j])
            if w is not None:
                rel[i][j] = True
                witnesses[(p, q)] = _witness_summary(w)
    return tuple(elements), rel, witnesses


def tau_table(
    x: StratifiedSSet, base: SimplexId, n: int, *, threads: int | None = None
) -> MonoidTable:
    """The homotopy monoid at ``base`` in dimension ``n``, as a full table.

    Partitions the sphere elements by relative homotopy (computing the
    closure of the witness relation and recording whether closure was
    needed), multiplies canonical representatives through horn filling,
    then checks associativity by full triple enumeration and attempts
    two-sided inverse detection.
    """
    if n < 1:
        raise InvalidInput("homotopy monoids are defined for n >= 1")
    if x.cap < n + 1:
        raise CapTooSmall(f"tau at n = {n} needs cap >= {n + 1}")
    xu = x.underlying
    if not (base.dim == 0 and 0 <= base.index < xu.counts[0]):
        raise InvalidInput(f"{base!r} is not a vertex of the complex")
    elements, rel, witnesses = sphere_relation(x, base, n)
    blocks, reflexive, symmetric, transitive = _partition(
        len(elements),
        [(i, j) for i, row in enumerate(rel) for j, r in enumerate(row) if r],
    )
    # elements ascend, so the classes come out ordered as SimplexIds
    classes = tuple(tuple(elements[i] for i in b) for b in blocks)
    class_index = {e: i for i, c in enumerate(classes) for e in c}

    const = xu.const(base, n)
    unit = class_index[const]
    reps = [c[0] for c in classes]

    def cell(pair: tuple[int, int]) -> tuple[int, int, int, SimplexId]:
        i, j = pair
        result, theta = multiply_with_filler(x, base, n, reps[i], reps[j])
        if result not in class_index:
            raise InvalidInput(
                f"product {result!r} is not a sphere element; tables need "
                "constant-boundary closure"
            )
        return i, j, class_index[result], theta

    pairs = [(i, j) for i in range(len(reps)) for j in range(len(reps))]
    if threads is not None and threads > 1 and len(pairs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(cell, pairs))
    else:
        results = [cell(p) for p in pairs]
    k = len(reps)
    table = [[0] * k for _ in range(k)]
    fillers = [[const] * k for _ in range(k)]
    for i, j, c, theta in sorted(results, key=lambda r: (r[0], r[1])):
        table[i][j] = c
        fillers[i][j] = theta
    return _finish_table(
        tuple(tuple(row) for row in table),
        n=n, base=base, elements=elements, classes=classes, unit=unit,
        relation_reflexive=reflexive, relation_symmetric=symmetric,
        relation_transitive=transitive,
        fillers=tuple(tuple(row) for row in fillers), witnesses=witnesses,
    )


# -- audits -------------------------------------------------------------------

@dataclass(frozen=True)
class WellDefinedReport:
    """Outcome of exhausting all fillers over two representative pairs."""

    fillers_tested: int
    results: tuple[SimplexId, ...]
    representative: SimplexId
    consistent: bool


def check_well_defined(
    x: StratifiedSSet, base: SimplexId, n: int,
    alpha: SimplexId, alpha2: SimplexId,
    beta: SimplexId, beta2: SimplexId,
) -> WellDefinedReport:
    """Verify the product class ignores representative and filler choices.

    Enumerates every filler for both pairs and checks all resulting faces
    are pairwise homotopic relative to the boundary.  The cylinder problem
    and each classifying map are built once.
    """
    _, binc = boundary_pair(n, n + 1)
    cylinder = _Cylinder(binc.target, binc)
    maps: dict[SimplexId, StratifiedMap] = {}

    def homotopic(p: SimplexId, q: SimplexId) -> bool:
        for e in (p, q):
            if e not in maps:
                maps[e] = classifying_map(x, e, cap=n + 1)
        return cylinder.solve(maps[p], maps[q]) is not None

    for p, q in ((alpha, alpha2), (beta, beta2)):
        if p != q and not homotopic(p, q):
            raise InvalidInput(f"{p!r} and {q!r} are not homotopic rel boundary")
    results: list[SimplexId] = []
    tested = 0
    for a, b in ((alpha, beta), (alpha2, beta2)):
        fillers = all_product_fillers(x, base, n, a, b)
        if not fillers:
            raise NoFiller(f"no filler for the pair ({a!r}, {b!r})")
        tested += len(fillers)
        results.extend(r for r, _ in fillers)
    distinct = sorted(set(results))
    consistent = True
    for i in range(1, len(distinct)):
        if not homotopic(distinct[0], distinct[i]):
            consistent = False
            break
    return WellDefinedReport(
        fillers_tested=tested,
        results=tuple(distinct),
        representative=distinct[0],
        consistent=consistent,
    )


@dataclass(frozen=True)
class AuditCell:
    row: int
    col: int
    pairs_tested: int
    fillers_tested: int
    consistent: bool


@dataclass(frozen=True)
class AuditReport:
    cells: tuple[AuditCell, ...]

    @property
    def all_consistent(self) -> bool:
        return all(c.consistent for c in self.cells)

    @property
    def min_fillers(self) -> int:
        return min((c.fillers_tested for c in self.cells), default=0)


def audit_well_defined(x: StratifiedSSet, base: SimplexId,
                       table: MonoidTable) -> AuditReport:
    """Rerun every cell over all representative pairs and all fillers.

    Confirms that each filler's resulting face lands in the class the table
    recorded for that cell.
    """
    n = table.n
    cells = []
    for i, ci in enumerate(table.classes):
        for j, cj in enumerate(table.classes):
            pairs = 0
            fillers = 0
            consistent = True
            for p in ci:
                for q in cj:
                    pairs += 1
                    found = all_product_fillers(x, base, n, p, q)
                    if not found:
                        raise NoFiller(f"no filler at cell ({i}, {j})")
                    fillers += len(found)
                    for result, _ in found:
                        if table.class_of(result) != table.table[i][j]:
                            consistent = False
            cells.append(AuditCell(i, j, pairs, fillers, consistent))
    return AuditReport(tuple(cells))


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
    from .lifting import assemble_horn_map

    if x.cap < n + 2:
        raise CapTooSmall(f"the associativity horn needs cap >= {n + 2}")
    ab, theta = multiply_with_filler(x, base, n, alpha, beta)
    _, psi = multiply_with_filler(x, base, n, ab, gamma)
    _, phi = multiply_with_filler(x, base, n, beta, gamma)
    horn, inclusion = complicial_horn(n, n + 2, n + 2)
    const = x.underlying.const(base, n + 1)
    faces = {j: const for j in range(n + 3) if j != n}
    faces[n - 1] = theta
    faces[n + 1] = psi
    faces[n + 2] = phi
    partial = assemble_horn_map(horn, faces, x)
    found = find_extensions(ExtensionProblem(inclusion, partial), limit=1)
    if not found:
        raise NoFiller("the associativity horn has no filler")
    b = inclusion.target
    u = found[0](top_id(b, n + 2))
    xu = x.underlying
    return AssociativityWitness(
        filler=u,
        double_face=xu.face(xu.face(u, n), n),
        theta=theta, psi=psi, phi=phi,
    )
