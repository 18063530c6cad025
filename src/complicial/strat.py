"""Stratifications, stratified maps, regular subsets and the product.

A stratified complex is a truncated simplicial set plus a set of thin
simplices that contains every degenerate simplex and no vertex.  Thinness
data drives everything downstream: lifting problems constrain images of thin
simplices, and the homotopy relations require their connecting cells to be
thin.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .core import (
    SimplexId,
    SimplicialMap,
    TruncatedSSet,
    build_sset,
    make_simplicial_map,
)
from .errors import InvalidInput, ThinVertex, ThinnessViolation


class StratifiedSSet:
    """A truncated simplicial set with a chosen set of thin simplices."""

    __slots__ = ("underlying", "thin", "_thin_idx")

    def __init__(self, underlying: TruncatedSSet, thin: frozenset[SimplexId]):
        self.underlying = underlying
        self.thin = thin
        self._thin_idx: tuple[frozenset[int], ...] | None = None

    # Convenience pass-throughs; the stratified object is used pervasively
    # and unwrapping at every call site obscures the code.
    @property
    def cap(self) -> int:
        return self.underlying.dim_cap

    @property
    def counts(self) -> tuple[int, ...]:
        return self.underlying.counts

    def simplices(self, n: int) -> tuple[SimplexId, ...]:
        return self.underlying.simplices(n)

    def nondegenerate(self, n: int) -> tuple[SimplexId, ...]:
        return self.underlying.nondegenerate(n)

    def face(self, x: SimplexId, i: int) -> SimplexId:
        return self.underlying.face(x, i)

    def degeneracy(self, x: SimplexId, i: int) -> SimplexId:
        return self.underlying.degeneracy(x, i)

    def const(self, x: SimplexId, m: int) -> SimplexId:
        return self.underlying.const(x, m)

    def is_thin(self, x: SimplexId) -> bool:
        return x in self.thin

    def thin_indexes(self) -> tuple[frozenset[int], ...]:
        """Per dimension, the indexes of the thin simplices (built once)."""
        got = self._thin_idx
        if got is None:
            per_dim: list[set[int]] = [set() for _ in range(self.cap + 1)]
            for t in self.thin:
                per_dim[t.dim].add(t.index)
            got = tuple(frozenset(ixs) for ixs in per_dim)
            self._thin_idx = got
        return got

    def thin_in_dim(self, n: int) -> tuple[SimplexId, ...]:
        return tuple(x for x in self.underlying.simplices(n) if x in self.thin)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratifiedSSet):
            return NotImplemented
        return self.underlying == other.underlying and self.thin == other.thin

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"StratifiedSSet(cap={self.cap}, counts={self.counts}, "
            f"thin={len(self.thin)})"
        )


def make_stratified(x: TruncatedSSet, thin: Iterable[SimplexId]) -> StratifiedSSet:
    """Stratify ``x`` with ``thin`` closed under the degenerate simplices.

    Degenerate simplices are added silently (the axiom is a closure
    condition, not a user burden); a thin vertex is an error.
    """
    thin_set = set(thin)
    for t in thin_set:
        if not (0 <= t.dim <= x.dim_cap and 0 <= t.index < x.counts[t.dim]):
            raise InvalidInput(f"{t!r} is not a simplex of the complex")
        if t.dim == 0:
            raise ThinVertex(f"vertex {t!r} cannot be thin")
    for n in range(1, x.dim_cap + 1):
        for s in x.simplices(n):
            if x.is_degenerate(s):
                thin_set.add(s)
    # normalize to the complex's own id instances so labels survive
    thin_set = {x.id_at(t.dim, t.index) for t in thin_set}
    return StratifiedSSet(x, frozenset(thin_set))


def min_strat(x: TruncatedSSet) -> StratifiedSSet:
    """The minimal stratification: thin = degenerate simplices exactly."""
    return make_stratified(x, ())


def max_strat(x: TruncatedSSet) -> StratifiedSSet:
    """The maximal stratification: every positive-dimensional simplex thin."""
    thin = [s for n in range(1, x.dim_cap + 1) for s in x.simplices(n)]
    return make_stratified(x, thin)


class StratifiedMap:
    """A simplicial map between stratified complexes preserving thinness."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: StratifiedSSet, target: StratifiedSSet,
                 simplicial: SimplicialMap):
        self.source = source
        self.target = target
        self.map = simplicial

    def __call__(self, x: SimplexId) -> SimplexId:
        return self.map(x)

    def then(self, other: "StratifiedMap") -> "StratifiedMap":
        if other.source != self.target:
            raise InvalidInput("maps are not composable")
        return make_stratified_map(self.source, other.target,
                                   self.map.then(other.map))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratifiedMap):
            return NotImplemented
        return (self.map == other.map and self.source == other.source
                and self.target == other.target)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StratifiedMap(depth={self.map.depth})"


def make_stratified_map(source: StratifiedSSet, target: StratifiedSSet,
                        simplicial: SimplicialMap) -> StratifiedMap:
    """Check thinness preservation and wrap the simplicial map."""
    if simplicial.source != source.underlying or \
            simplicial.target != target.underlying:
        raise InvalidInput("simplicial map does not match the stratified ends")
    src_thin, tgt_thin = source.thin_indexes(), target.thin_indexes()
    for n in range(simplicial.depth + 1):
        row, thin = simplicial.assign[n], tgt_thin[n]
        bad = [i for i in src_thin[n] if row[i] not in thin]
        if bad:
            i = min(bad)
            raise ThinnessViolation(
                f"thin {source.underlying.ids[n][i]!r} maps to non-thin "
                f"{target.underlying.ids[n][row[i]]!r}"
            )
    return StratifiedMap(source, target, simplicial)


def regular_subset(
    y: StratifiedSSet, generators: Iterable[SimplexId]
) -> tuple[StratifiedSSet, StratifiedMap]:
    """Smallest subcomplex of ``y`` containing ``generators``, regularly thin.

    The subcomplex is closed under faces and under degeneracies within the
    cap; its thin set is the intersection with ``y``'s.  Returns the subset
    together with the inclusion.  Simplices are renumbered contiguously in
    ambient (dim, index) order, so the construction is deterministic.
    """
    u = y.underlying
    member: set[SimplexId] = set()
    stack = [u.id_at(g.dim, g.index) for g in generators]
    for g in stack:
        if not (0 <= g.dim <= u.dim_cap and 0 <= g.index < u.counts[g.dim]):
            raise InvalidInput(f"{g!r} is not a simplex of the complex")
    while stack:
        s = stack.pop()
        if s in member:
            continue
        member.add(s)
        if s.dim >= 1:
            stack.extend(u.face(s, i) for i in range(s.dim + 1))
        if s.dim < u.dim_cap:
            stack.extend(u.degeneracy(s, i) for i in range(s.dim + 1))

    per_dim: list[list[SimplexId]] = [[] for _ in range(u.dim_cap + 1)]
    for s in sorted(member):
        per_dim[s.dim].append(s)
    amb_to_sub = [
        {s.index: i for i, s in enumerate(per_dim[n])}
        for n in range(u.dim_cap + 1)
    ]
    counts = tuple(len(per_dim[n]) for n in range(u.dim_cap + 1))
    faces = tuple(
        tuple(
            tuple(amb_to_sub[n - 1][u.faces[n][s.index][j]] for j in range(n + 1))
            for s in per_dim[n]
        ) if n >= 1 else ()
        for n in range(u.dim_cap + 1)
    )
    degens = tuple(
        tuple(
            tuple(
                amb_to_sub[n + 1][u.degeneracies[n][s.index][j]]
                for j in range(n + 1)
            )
            for s in per_dim[n]
        ) if n < u.dim_cap else ()
        for n in range(u.dim_cap + 1)
    )
    keys = None
    if u.keys is not None:
        keys = tuple(
            tuple(u.keys[n][s.index] for s in per_dim[n])
            for n in range(u.dim_cap + 1)
        )
    sub_u = build_sset(u.dim_cap, counts, faces, degens, keys=keys)
    sub = make_stratified(
        sub_u,
        [
            sub_u.id_at(n, i)
            for n in range(1, u.dim_cap + 1)
            for i, s in enumerate(per_dim[n])
            if s in y.thin
        ],
    )
    inc_assign = tuple(
        tuple(s.index for s in per_dim[n]) for n in range(u.dim_cap + 1)
    )
    inclusion = make_stratified_map(
        sub, y, make_simplicial_map(sub_u, u, inc_assign)
    )
    return sub, inclusion


def gproduct(x: StratifiedSSet, y: StratifiedSSet) -> StratifiedSSet:
    """Cartesian product: componentwise structure, componentwise thinness.

    The cap is the smaller of the two caps.  In each dimension the simplices
    are the pairs ordered lexicographically by component indices, so the
    pair ``(i, j)`` sits at index ``i * counts_y[m] + j``; callers may rely
    on this layout.
    """
    cap = min(x.cap, y.cap)
    xu, yu = x.underlying, y.underlying
    counts = tuple(xu.counts[n] * yu.counts[n] for n in range(cap + 1))

    def pair_key(n: int, i: int, j: int) -> Hashable:
        kx = xu.keys[n][i] if xu.keys is not None else i
        ky = yu.keys[n][j] if yu.keys is not None else j
        return (kx, ky)

    faces = tuple(
        tuple(
            tuple(
                xu.faces[n][i][t] * yu.counts[n - 1] + yu.faces[n][j][t]
                for t in range(n + 1)
            )
            for i in range(xu.counts[n])
            for j in range(yu.counts[n])
        ) if n >= 1 else ()
        for n in range(cap + 1)
    )
    degens = tuple(
        tuple(
            tuple(
                xu.degeneracies[n][i][t] * yu.counts[n + 1]
                + yu.degeneracies[n][j][t]
                for t in range(n + 1)
            )
            for i in range(xu.counts[n])
            for j in range(yu.counts[n])
        ) if n < cap else ()
        for n in range(cap + 1)
    )
    keys = tuple(
        tuple(
            pair_key(n, i, j)
            for i in range(xu.counts[n])
            for j in range(yu.counts[n])
        )
        for n in range(cap + 1)
    )
    prod_u = build_sset(cap, counts, faces, degens, keys=keys)
    thin = [
        prod_u.id_at(n, i * yu.counts[n] + j)
        for n in range(1, cap + 1)
        for i in range(xu.counts[n])
        for j in range(yu.counts[n])
        if xu.ids[n][i] in x.thin and yu.ids[n][j] in y.thin
    ]
    return make_stratified(prod_u, thin)
