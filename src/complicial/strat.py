"""Stratifications, stratified maps, regular subsets and the product.

A stratified complex is a truncated simplicial set plus a set of thin
simplices that contains every degenerate simplex and no vertex.  Thinness
data drives everything downstream: lifting problems constrain images of thin
simplices, and the homotopy relations require their connecting cells to be
thin.
"""

from __future__ import annotations

from itertools import chain, compress, product, repeat, starmap
from operator import add, attrgetter, eq
from typing import Iterable, Sequence

from .core import (
    SimplexId,
    SimplicialMap,
    TruncatedSSet,
    _gather,
    _map_fault,
    _require_buildable,
    _sset,
)
from .errors import InvalidInput, ThinVertex


class StratifiedSSet:
    """A truncated simplicial set with a chosen set of thin simplices.

    The thin simplices are held as one frozenset of indexes per dimension;
    :attr:`thin` presents them as simplex ids, built on first use.
    """

    __slots__ = ("underlying", "_thin_idx", "_thin")

    def __init__(self, underlying: TruncatedSSet,
                 thin_idx: tuple[frozenset[int], ...]):
        self.underlying = underlying
        self._thin_idx = thin_idx
        self._thin: frozenset[SimplexId] | None = None

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

    @property
    def thin(self) -> frozenset[SimplexId]:
        got = self._thin
        if got is None:
            ids = self.underlying.ids
            got = frozenset(chain.from_iterable(
                map(ids[n].__getitem__, ixs)
                for n, ixs in enumerate(self._thin_idx)))
            self._thin = got
        return got

    def is_thin(self, x: SimplexId) -> bool:
        return 0 <= x.dim <= self.cap and x.index in self._thin_idx[x.dim]

    def thin_indexes(self) -> tuple[frozenset[int], ...]:
        """Per dimension, the indexes of the thin simplices."""
        return self._thin_idx

    def thin_in_dim(self, n: int) -> tuple[SimplexId, ...]:
        ids = self.underlying.simplices(n)
        return tuple(ids[i] for i in sorted(self._thin_idx[n]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratifiedSSet):
            return NotImplemented
        return (self.underlying == other.underlying
                and self._thin_idx == other._thin_idx)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"StratifiedSSet(cap={self.cap}, counts={self.counts}, "
            f"thin={sum(map(len, self._thin_idx))})"
        )


_dim, _index = attrgetter("dim"), attrgetter("index")


def _stratify(x: TruncatedSSet, given: Sequence[Sequence[int]]
              ) -> StratifiedSSet:
    """``x`` with the n-simplices ``given[n]`` thin, for n = 1..cap, and
    every degenerate simplex.  Every stratification is made here, from
    indexes it trusts: in range, and none of them a vertex's
    (``given[0]`` is not read).  :func:`make_stratified` checks the thin
    simplices an API caller gives, and ``documents.doc_to_complex`` the
    thin ids of a document."""
    # the n-simplices with a degeneracy witness: every s_j of every
    # (n-1)-simplex
    return StratifiedSSet(x, (frozenset(),) + tuple(
        frozenset(chain(given[n], chain.from_iterable(
            x.degeneracy_columns[n - 1])))
        for n in range(1, x.dim_cap + 1)))


def make_stratified(x: TruncatedSSet, thin: Iterable[SimplexId]) -> StratifiedSSet:
    """Stratify ``x`` with ``thin`` closed under the degenerate simplices.

    Degenerate simplices are added silently (the axiom is a closure
    condition, not a user burden); a thin vertex is an error.
    """
    thin = list(thin)
    dims, indexes = list(map(_dim, thin)), list(map(_index, thin))
    given = None
    if not dims or 1 <= min(dims) <= max(dims) <= x.dim_cap:
        given = [list(compress(indexes, map(eq, dims, repeat(n))))
                 for n in range(x.dim_cap + 1)]
    if given is None or not all(0 <= min(g) <= max(g) < count for g, count
                                in zip(given, x.counts) if g):
        _reject_thin(x, thin)
    return _stratify(x, given)


def _reject_thin(x: TruncatedSSet, thin: list[SimplexId]) -> None:
    """Raise for the first bad thin simplex, in the order of ``set(thin)``."""
    for t in set(thin):
        if not (0 <= t.dim <= x.dim_cap and 0 <= t.index < x.counts[t.dim]):
            raise InvalidInput(f"{t!r} is not a simplex of the complex")
        if t.dim == 0:
            raise ThinVertex(f"vertex {t!r} cannot be thin")
    raise AssertionError("no bad thin simplex")  # pragma: no cover


def min_strat(x: TruncatedSSet) -> StratifiedSSet:
    """The minimal stratification: thin = degenerate simplices exactly."""
    return make_stratified(x, ())


def max_strat(x: TruncatedSSet) -> StratifiedSSet:
    """The maximal stratification: every positive-dimensional simplex thin."""
    return _stratify(x, [()] + [range(c) for c in x.counts[1:]])


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
        """Composite ``other after self``: a composite of stratified maps
        is stratified, so it is not checked again."""
        if other.source != self.target:
            raise InvalidInput("maps are not composable")
        return StratifiedMap(self.source, other.target,
                             self.map.then(other.map))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratifiedMap):
            return NotImplemented
        return (self.map == other.map and self.source == other.source
                and self.target == other.target)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StratifiedMap(depth={self.map.depth})"


def make_stratified_maps(source: StratifiedSSet, target: StratifiedSSet,
                         assigns: Iterable[Sequence[Sequence[int]]]
                         ) -> list[StratifiedMap]:
    """Wrap index assignments as stratified maps, after validating them as
    one batch (``core._map_fault``): the simplicial identities and the
    thinness of every map, a column per operator and dimension over the
    whole batch.  The first bad assignment raises the error it raises
    alone."""
    su, tu = source.underlying, target.underlying
    batch = [tuple(map(tuple, assign)) for assign in assigns]
    fault = _map_fault(su, tu, batch,
                       (source.thin_indexes(), target.thin_indexes()))
    if fault is not None:
        raise fault
    return [StratifiedMap(source, target, SimplicialMap(su, tu, assign))
            for assign in batch]


def make_stratified_map(source: StratifiedSSet, target: StratifiedSSet,
                        simplicial: SimplicialMap) -> StratifiedMap:
    """Check that the simplicial map runs between the underlying complexes,
    commutes with their operators and preserves thinness, and wrap it."""
    if simplicial.source != source.underlying or \
            simplicial.target != target.underlying:
        raise InvalidInput("simplicial map does not match the stratified ends")
    make_stratified_maps(source, target, [simplicial.assign])
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
    indexes: list[list[int]] = [[] for _ in range(u.dim_cap + 1)]
    for g in generators:
        if not (0 <= g.dim <= u.dim_cap and 0 <= g.index < u.counts[g.dim]):
            raise InvalidInput(f"{g!r} is not a simplex of the complex")
        indexes[g.dim].append(g.index)
    return _regular_subset(y, indexes)


def _regular_subset(y: StratifiedSSet, indexes: Sequence[Iterable[int]]
                    ) -> tuple[StratifiedSSet, StratifiedMap]:
    """:func:`regular_subset` of the simplices given by their indexes, per
    dimension, closed a column at a time with no :class:`SimplexId`."""
    u = y.underlying
    cap = u.dim_cap
    member = [set(given) for given in indexes]
    # faces from the top down, then degeneracies from the bottom up: a face
    # of s_j x is x or a degeneracy of a face of x, so the second pass keeps
    # the members closed under faces
    for n in range(cap, 0, -1):
        member[n - 1].update(_gather(u.face_columns[n], list(member[n])))
    for n in range(cap):
        member[n + 1].update(_gather(u.degeneracy_columns[n],
                                     list(member[n])))
    at = [sorted(m) for m in member]
    amb_to_sub = [dict(zip(ix, range(len(ix)))) for ix in at]
    counts = tuple(map(len, at))

    def columns(ambient: Sequence[Sequence[int]], n: int, target: int):
        # each column of the ambient table at the members, renumbered
        return [list(map(amb_to_sub[target].__getitem__,
                         map(column.__getitem__, at[n])))
                for column in ambient]

    faces = [()] + [columns(u.face_columns[n], n, n - 1)
                    for n in range(1, cap + 1)]
    degens = [columns(u.degeneracy_columns[n], n, n + 1)
              for n in range(cap)] + [()]
    ambient = u.keys
    keys = None if ambient is None else (  # the ambient's keys at the members
        lambda n: tuple(map(ambient[n].__getitem__, at[n])))
    sub_u = _sset(cap, counts, faces, degens, keys, None)
    y_thin = y.thin_indexes()
    sub = _stratify(sub_u, [[i for i, v in enumerate(at[n]) if v in y_thin[n]]
                            for n in range(cap + 1)])
    return sub, make_stratified_maps(sub, y, [at])[0]


def gproduct(x: StratifiedSSet, y: StratifiedSSet) -> StratifiedSSet:
    """Cartesian product: componentwise structure, componentwise thinness.

    The cap is the smaller of the two caps.  In each dimension the simplices
    are the pairs ordered lexicographically by component indices, so the
    pair ``(i, j)`` sits at index ``i * counts_y[m] + j``; callers may rely
    on this layout.  Tables and thin sets are built a column at a time, on
    indexes.  Keys, the pairs of the factors' keys (or indexes), and labels,
    ``str`` of those, are made per dimension on first use.
    """
    cap = min(x.cap, y.cap)
    xu, yu = x.underlying, y.underlying
    counts = tuple(xu.counts[n] * yu.counts[n] for n in range(cap + 1))
    _require_buildable("the product", cap, counts)

    def pairs(xs: Iterable[int], ys: Iterable[int], y_count: int) -> list:
        # the index of each pair (a, b), a in xs and b in ys, in that order
        return list(starmap(add, product([a * y_count for a in xs], ys)))

    faces = [()] + [
        [pairs(xc, yc, yu.counts[n - 1])
         for xc, yc in zip(xu.face_columns[n], yu.face_columns[n])]
        for n in range(1, cap + 1)
    ]
    degens = [
        [pairs(xc, yc, yu.counts[n + 1])
         for xc, yc in zip(xu.degeneracy_columns[n], yu.degeneracy_columns[n])]
        for n in range(cap)
    ] + [()]
    x_keys, y_keys, x_counts, y_counts = xu.keys, yu.keys, xu.counts, yu.counts

    def factor_keys(n: int) -> tuple[Sequence, Sequence]:
        # each factor's keys of its n-simplices, or its indexes if it has none
        return (range(x_counts[n]) if x_keys is None else x_keys[n],
                range(y_counts[n]) if y_keys is None else y_keys[n])

    def pair_labels(n: int) -> tuple[str, ...]:
        # str((a, b)) is "(" + repr(a) + ", " + repr(b) + ")": each factor's
        # halves are made once per simplex and joined per pair
        xk, yk = factor_keys(n)
        return tuple(starmap(add, product(
            map("({!r}, ".format, xk), map("{!r})".format, yk))))

    prod_u = _sset(cap, counts, faces, degens,
                   lambda n: tuple(product(*factor_keys(n))), pair_labels)
    x_thin, y_thin = x.thin_indexes(), y.thin_indexes()
    return _stratify(prod_u, [
        pairs(x_thin[n], y_thin[n], yu.counts[n]) for n in range(cap + 1)])
