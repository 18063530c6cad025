"""Constructors for the named stratified complexes.

Simplices of every complex built here are keyed by the value lists of weakly
monotone maps into [n], so equality of simplices is structural and ids are
stable across runs.  A strictly increasing key is a nondegenerate simplex; a
repeated value marks a degeneracy.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, count
from math import comb
from typing import Iterator

from .core import TruncatedSSet, _require_buildable, _require_int, build_sset
from .errors import CapTooSmall, InvalidInput, KOutOfRange
from .strat import (
    StratifiedMap,
    StratifiedSSet,
    _stratify,
    make_stratified_maps,
)

Key = tuple[int, ...]


def monotone_maps(m: int, n: int) -> list[Key]:
    """All weakly increasing maps [m] -> [n], in lexicographic order."""
    return [t for t in combinations_with_replacement(range(n + 1), m + 1)]


def complicial_thin_key(k: int, n: int, t: Key) -> bool:
    """Thinness predicate of the k-complicial n-simplex on a value list."""
    return set(range(k - 1, k + 2)) & set(range(n + 1)) <= set(t)


def in_horn_key(k: int, n: int, t: Key) -> bool:
    """Membership in the horn: some face other than the k-th contains t."""
    missing = set(range(n + 1)) - set(t)
    return bool(missing - {k})


def _family_counts(n: int, kind: str) -> Iterator[int]:
    """The number of m-simplices, m = 0, 1, ..., of the ``kind`` family of
    the n-simplex: the C(n + m + 1, m + 1) weakly monotone maps [m] -> [n],
    of which the boundary leaves out the C(m, n) onto [n], and a horn
    those and the C(m, n - 1) onto [n] less its k-th vertex."""
    for m in count():
        left_out = 0 if kind == "delta" else comb(m, n)
        if kind == "horn":
            left_out += comb(m, n - 1)
        yield comb(n + m + 1, m + 1) - left_out


@lru_cache(maxsize=None)
def _simplex_family(n: int, cap: int, kind: str, k: int | None = None
                    ) -> TruncatedSSet:
    _require_buildable(f"the {n}-simplex" if kind == "delta"
                       else f"the {kind} of the {n}-simplex",
                       cap, _family_counts(n, kind))
    if kind == "delta":
        member = lambda t: True  # noqa: E731
    elif kind == "boundary":
        member = lambda t: set(t) != set(range(n + 1))  # noqa: E731
    else:
        member = lambda t: in_horn_key(k, n, t)  # noqa: E731
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


def _thin_where(u: TruncatedSSet, thin_key) -> list[list[int]]:
    """Per dimension, the simplices of ``u`` of positive dimension whose
    keys satisfy ``thin_key``, as the index lists ``strat._stratify``
    takes."""
    return [[]] + [[i for i, t in enumerate(keys) if thin_key(t)]
                   for keys in u.keys[1:]]


def _require_size(what: str, value: int) -> None:
    # a range or list this long cannot be indexed by a C ssize_t
    if value >= sys.maxsize:
        raise InvalidInput(f"{what} {value} is too large")


def _require_cap(cap: int, need: int) -> None:
    _require_int("cap", cap)
    _require_size("cap", cap)
    if cap < need:
        raise CapTooSmall(f"cap {cap} is below the required {need}")


def _require_dim(n: int) -> None:
    _require_int("n", n)
    if n < 0:
        raise InvalidInput(f"simplex dimension {n} is negative")
    _require_size("simplex dimension", n)


def _require_k(k: int, n: int) -> None:
    _require_int("k", k)
    _require_int("n", n)
    if not 0 <= k <= n:
        raise KOutOfRange(f"k = {k} outside [{n}]")


def delta(n: int, cap: int) -> StratifiedSSet:
    """The standard n-simplex with the minimal stratification."""
    _require_dim(n)
    _require_cap(cap, n)
    return _stratify(_simplex_family(n, cap, "delta"), [()] * (cap + 1))


def boundary(n: int, cap: int) -> StratifiedSSet:
    """The boundary of the standard n-simplex (minimal stratification)."""
    _require_dim(n)
    _require_cap(cap, max(n - 1, 0))
    return _stratify(_simplex_family(n, cap, "boundary"), [()] * (cap + 1))


def delta_t(n: int, cap: int) -> StratifiedSSet:
    """The standard thin n-simplex: the top cell is thin (when n > 0)."""
    _require_dim(n)
    _require_cap(cap, n)
    top = tuple(range(n + 1))
    u = _simplex_family(n, cap, "delta")
    return _stratify(u, _thin_where(u, top.__eq__))


def complicial_delta(k: int, n: int, cap: int) -> StratifiedSSet:
    """The k-complicial n-simplex: thin where the image meets {k-1,k,k+1}."""
    _require_k(k, n)
    _require_cap(cap, n)
    u = _simplex_family(n, cap, "delta")
    return _stratify(u, _thin_where(u, lambda t: complicial_thin_key(k, n, t)))


def complicial_horn(k: int, n: int, cap: int
                    ) -> tuple[StratifiedSSet, StratifiedMap]:
    """The k-complicial horn and its inclusion into the complicial simplex.

    The horn is generated by the faces other than the k-th; its thin set is
    the regular one inherited from the ambient complicial simplex.  Built
    once per (k, n, cap); every call returns the same validated pair.
    """
    # the arguments are checked before the cache is read, since True and
    # 1.0 hash and compare like 1; the cache sits on a private builder so
    # that the public name stays a plain function, which wrappers around
    # module functions (bench/tracer.py) recognise
    _require_k(k, n)
    _require_cap(cap, n)
    if n < 1:
        raise InvalidInput("horns need n >= 1")
    return _complicial_horn(k, n, cap)


@lru_cache(maxsize=None)
def _complicial_horn(k: int, n: int, cap: int
                     ) -> tuple[StratifiedSSet, StratifiedMap]:
    u = _simplex_family(n, cap, "horn", k)
    horn = _stratify(
        u, _thin_where(u, lambda t: complicial_thin_key(k, n, t)))
    ambient = complicial_delta(k, n, cap)
    return horn, key_inclusion(horn, ambient)


@lru_cache(maxsize=None)
def _horn_generators(k: int, n: int) -> dict[Key, tuple[int, Key]]:
    """How each nondegenerate simplex of the k-horn of the n-simplex is
    read off a generating face.

    Maps the simplex's key to ``(j, word)``: j is the first face j != k
    that contains it, and ``word`` lists the positions of its vertices in
    that face, a monotone map into [n - 1].  Ordered by dimension, then
    lexicographically.
    """
    js = [j for j in range(n + 1) if j != k]
    plan = {}
    for m in range(n):
        for key in combinations(range(n + 1), m + 1):
            if in_horn_key(k, n, key):
                j = min(j for j in js if j not in key)
                plan[key] = (j, tuple(v - (v > j) for v in key))
    return plan


def horn_prime(k: int, n: int, cap: int) -> StratifiedSSet:
    """The horn with every (n-1)-simplex additionally thin."""
    _require_k(k, n)
    _require_cap(cap, n)
    if n < 1:
        raise InvalidInput("horns need n >= 1")
    u = _simplex_family(n, cap, "horn", k)
    return _stratify(u, _thin_where(
        u, lambda t: complicial_thin_key(k, n, t) or len(t) == n))


def delta_dprime(k: int, n: int, cap: int) -> StratifiedSSet:
    """The complicial simplex with every (n-1)-simplex additionally thin."""
    _require_k(k, n)
    _require_cap(cap, n)
    u = _simplex_family(n, cap, "delta")
    return _stratify(u, _thin_where(
        u, lambda t: complicial_thin_key(k, n, t) or len(t) == n))


def delta_prime(k: int, n: int, cap: int) -> StratifiedSSet:
    """The complicial simplex with the primed horn's thin set added.

    The union of thin sets makes exactly the (n-1)-faces other than the k-th
    thin on top of the complicial ones.
    """
    _require_k(k, n)
    _require_cap(cap, n)
    u = _simplex_family(n, cap, "delta")
    return _stratify(u, _thin_where(
        u, lambda t: complicial_thin_key(k, n, t)
        or (len(t) == n and in_horn_key(k, n, t))))


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
    return make_stratified_maps(sub, ambient, [assign])[0]
