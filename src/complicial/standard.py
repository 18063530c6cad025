"""Constructors for the named stratified complexes.

Simplices of every complex built here are keyed by the value lists of weakly
monotone maps into [n], so equality of simplices is structural and ids are
stable across runs.  A strictly increasing key is a nondegenerate simplex; a
repeated value marks a degeneracy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .core import SimplexId, TruncatedSSet, build_sset, make_simplicial_map
from .errors import CapTooSmall, InvalidInput, KOutOfRange
from .strat import (
    StratifiedMap,
    StratifiedSSet,
    make_stratified,
    make_stratified_map,
)

Key = tuple[int, ...]


def monotone_maps(m: int, n: int) -> list[Key]:
    """All weakly increasing maps [m] -> [n], in lexicographic order."""
    return [t for t in combinations_with_replacement(range(n + 1), m + 1)]


def is_degenerate_key(t: Key) -> bool:
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


def complicial_thin_key(k: int, n: int, t: Key) -> bool:
    """Thinness predicate of the k-complicial n-simplex on a value list."""
    return set(range(k - 1, k + 2)) & set(range(n + 1)) <= set(t)


def in_horn_key(k: int, n: int, t: Key) -> bool:
    """Membership in the horn: some face other than the k-th contains t."""
    missing = set(range(n + 1)) - set(t)
    return bool(missing - {k})


@lru_cache(maxsize=None)
def _simplex_family(n: int, cap: int, kind: str, k: int | None = None
                    ) -> TruncatedSSet:
    if kind == "delta":
        member = lambda t: True  # noqa: E731
    elif kind == "boundary":
        member = lambda t: set(t) != set(range(n + 1))  # noqa: E731
    elif kind == "horn":
        member = lambda t: in_horn_key(k, n, t)  # noqa: E731
    else:  # pragma: no cover
        raise InvalidInput(f"unknown family kind {kind!r}")
    per_dim = [
        [t for t in monotone_maps(m, n) if member(t)] for m in range(cap + 1)
    ]
    index = [{t: i for i, t in enumerate(per_dim[m])} for m in range(cap + 1)]
    faces = tuple(
        tuple(
            tuple(index[m - 1][t[:j] + t[j + 1:]] for j in range(m + 1))
            for t in per_dim[m]
        ) if m >= 1 else ()
        for m in range(cap + 1)
    )
    degens = tuple(
        tuple(
            tuple(index[m + 1][t[:j + 1] + t[j:]] for j in range(m + 1))
            for t in per_dim[m]
        ) if m < cap else ()
        for m in range(cap + 1)
    )
    counts = tuple(len(per_dim[m]) for m in range(cap + 1))
    return build_sset(cap, counts, faces, degens, keys=per_dim)


def _stratify(u: TruncatedSSet, thin_key) -> StratifiedSSet:
    thin = [
        s
        for m in range(1, u.dim_cap + 1)
        for s in u.simplices(m)
        if thin_key(u.keys[m][s.index])
    ]
    return make_stratified(u, thin)


def _require_cap(cap: int, need: int) -> None:
    if cap < need:
        raise CapTooSmall(f"cap {cap} is below the required {need}")


def _require_dim(n: int) -> None:
    if n < 0:
        raise InvalidInput(f"simplex dimension {n} is negative")


def _require_k(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise KOutOfRange(f"k = {k} outside [{n}]")


def delta(n: int, cap: int) -> StratifiedSSet:
    """The standard n-simplex with the minimal stratification."""
    _require_dim(n)
    _require_cap(cap, n)
    return _stratify(_simplex_family(n, cap, "delta"), lambda t: False)


def boundary(n: int, cap: int) -> StratifiedSSet:
    """The boundary of the standard n-simplex (minimal stratification)."""
    _require_dim(n)
    _require_cap(cap, max(n - 1, 0))
    return _stratify(_simplex_family(n, cap, "boundary"), lambda t: False)


def delta_t(n: int, cap: int) -> StratifiedSSet:
    """The standard thin n-simplex: the top cell is thin (when n > 0)."""
    _require_dim(n)
    _require_cap(cap, n)
    top = tuple(range(n + 1))
    return _stratify(
        _simplex_family(n, cap, "delta"),
        lambda t: n != 0 and t == top,
    )


def complicial_delta(k: int, n: int, cap: int) -> StratifiedSSet:
    """The k-complicial n-simplex: thin where the image meets {k-1,k,k+1}."""
    _require_k(k, n)
    _require_cap(cap, n)
    return _stratify(
        _simplex_family(n, cap, "delta"), lambda t: complicial_thin_key(k, n, t)
    )


def complicial_horn(k: int, n: int, cap: int
                    ) -> tuple[StratifiedSSet, StratifiedMap]:
    """The k-complicial horn and its inclusion into the complicial simplex.

    The horn is generated by the faces other than the k-th; its thin set is
    the regular one inherited from the ambient complicial simplex.  Built
    once per (k, n, cap); every call returns the same validated pair.
    """
    # the cache sits on a private builder so that the public name stays a
    # plain function, which wrappers around module functions (bench/tracer.py)
    # recognise
    return _complicial_horn(k, n, cap)


@lru_cache(maxsize=None)
def _complicial_horn(k: int, n: int, cap: int
                     ) -> tuple[StratifiedSSet, StratifiedMap]:
    _require_k(k, n)
    _require_cap(cap, n)
    if n < 1:
        raise InvalidInput("horns need n >= 1")
    horn = _stratify(
        _simplex_family(n, cap, "horn", k), lambda t: complicial_thin_key(k, n, t)
    )
    ambient = complicial_delta(k, n, cap)
    return horn, key_inclusion(horn, ambient)


def horn_prime(k: int, n: int, cap: int) -> StratifiedSSet:
    """The horn with every (n-1)-simplex additionally thin."""
    _require_k(k, n)
    _require_cap(cap, n)
    if n < 1:
        raise InvalidInput("horns need n >= 1")
    return _stratify(
        _simplex_family(n, cap, "horn", k),
        lambda t: complicial_thin_key(k, n, t) or len(t) == n,
    )


def delta_dprime(k: int, n: int, cap: int) -> StratifiedSSet:
    """The complicial simplex with every (n-1)-simplex additionally thin."""
    _require_k(k, n)
    _require_cap(cap, n)
    return _stratify(
        _simplex_family(n, cap, "delta"),
        lambda t: complicial_thin_key(k, n, t) or len(t) == n,
    )


def delta_prime(k: int, n: int, cap: int) -> StratifiedSSet:
    """The complicial simplex with the primed horn's thin set added.

    The union of thin sets makes exactly the (n-1)-faces other than the k-th
    thin on top of the complicial ones.
    """
    _require_k(k, n)
    _require_cap(cap, n)
    return _stratify(
        _simplex_family(n, cap, "delta"),
        lambda t: complicial_thin_key(k, n, t)
        or (len(t) == n and in_horn_key(k, n, t)),
    )


def key_inclusion(sub: StratifiedSSet, ambient: StratifiedSSet) -> StratifiedMap:
    """Inclusion of a key-carrying subcomplex into a key-carrying ambient."""
    su, au = sub.underlying, ambient.underlying
    if su.keys is None or au.keys is None:
        raise InvalidInput("key_inclusion needs keyed complexes")
    depth = min(su.dim_cap, au.dim_cap)
    assign = tuple(
        tuple(au.id_for_key(m, key).index for key in su.keys[m])
        for m in range(depth + 1)
    )
    return make_stratified_map(
        sub, ambient, make_simplicial_map(su, au, assign)
    )


def boundary_pair(n: int, cap: int) -> tuple[StratifiedSSet, StratifiedMap]:
    """The boundary of the n-simplex together with its inclusion.

    Built once per (n, cap); every call returns the same validated pair.
    """
    return _boundary_pair(n, cap)


@lru_cache(maxsize=None)
def _boundary_pair(n: int, cap: int) -> tuple[StratifiedSSet, StratifiedMap]:
    bd = boundary(n, cap)
    return bd, key_inclusion(bd, delta(n, cap))


def top_id(x: StratifiedSSet, n: int) -> SimplexId:
    """The nondegenerate top n-simplex of a standard complex."""
    return x.underlying.id_for_key(n, tuple(range(n + 1)))
