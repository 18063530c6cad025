"""Constructor outputs against literal brute-force predicates
(``tests/reference.py``)."""

import sys

import pytest

import complicial as C
from complicial import errors

from . import reference


def constructed_thin(x):
    u = x.underlying
    return {u.keys[s.dim][s.index] for s in x.thin}


BUILDERS = {
    "delta": lambda k, n, cap: C.delta(n, cap),
    "delta-t": lambda k, n, cap: C.delta_t(n, cap),
    "comp-delta": C.complicial_delta,
    "horn": lambda k, n, cap: C.complicial_horn(k, n, cap)[0],
    "horn-prime": C.horn_prime,
    "delta-dprime": C.delta_dprime,
    "delta-prime": C.delta_prime,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("n", range(4))
def test_thin_sets_match_oracle(name, n):
    horn_like = name in ("horn", "horn-prime")
    if horn_like and n == 0:
        return
    for k in range(n + 1):
        x = BUILDERS[name](k, n, n)
        assert constructed_thin(x) == \
            reference.standard_thin(name, k, n, n), \
            f"{name} (k, n) = ({k}, {n})"


def test_counts():
    assert C.delta(2, 2).counts == (3, 6, 10)
    assert C.delta(0, 2).counts == (1, 1, 1)
    assert C.boundary(1, 2).counts == (2, 2, 2)
    assert C.boundary(2, 2).counts == (3, 6, 9)


def test_boundary_of_point_is_empty():
    assert C.boundary(0, 1).counts == (0, 0)


def test_delta_t_0_equals_delta_0():
    assert C.delta_t(0, 1) == C.delta(0, 1)


def test_complicial_examples():
    def ndthin(x):
        u = x.underlying
        return sorted(
            (u.keys[s.dim][s.index] for s in x.thin
             if not u.is_degenerate(s)),
            key=lambda t: (len(t), t),
        )

    assert ndthin(C.complicial_delta(1, 2, 2)) == [(0, 1, 2)]
    assert ndthin(C.complicial_delta(0, 2, 2)) == [(0, 1), (0, 1, 2)]
    assert ndthin(C.complicial_delta(1, 3, 3)) == [(0, 1, 2), (0, 1, 2, 3)]
    assert ndthin(C.delta_dprime(1, 2, 2)) == \
        [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert ndthin(C.delta_prime(1, 2, 2)) == [(0, 1), (1, 2), (0, 1, 2)]


def test_prime_is_contained_in_dprime():
    for n in range(1, 4):
        for k in range(n + 1):
            p = C.delta_prime(k, n, n)
            dp = C.delta_dprime(k, n, n)
            assert p.thin <= dp.thin
            diff = dp.thin - p.thin
            if n == 1:
                # the missing face would be a vertex; nothing can be added
                assert diff == set()
                continue
            kth = tuple(v for v in range(n + 1) if v != k)
            expected = set()
            if p.underlying.id_for_key(n - 1, kth) not in p.thin:
                expected = {dp.underlying.id_for_key(n - 1, kth)}
            assert diff == expected


def test_horn_contents():
    horn, inc = C.complicial_horn(1, 2, 2)
    u = horn.underlying
    keys = {u.keys[n][s.index] for n in range(3) for s in u.simplices(n)}
    assert (0, 2) not in keys and (0, 1, 2) not in keys
    assert (0, 1) in keys and (1, 2) in keys
    # the inclusion is regular: thin(horn) = horn `intersect` thin(ambient)
    ambient = C.complicial_delta(1, 2, 2)
    for n in range(3):
        for s in horn.simplices(n):
            assert horn.is_thin(s) == ambient.is_thin(inc(s))


def test_horn_regularity_all_small():
    for n in range(1, 4):
        for k in range(n + 1):
            horn, inc = C.complicial_horn(k, n, n)
            ambient = C.complicial_delta(k, n, n)
            for m in range(n + 1):
                for s in horn.simplices(m):
                    assert horn.is_thin(s) == ambient.is_thin(inc(s))


def test_cap_too_small():
    with pytest.raises(errors.CapTooSmall):
        C.delta(3, 2)
    with pytest.raises(errors.CapTooSmall):
        C.delta_t(2, 1)


def test_k_out_of_range():
    with pytest.raises(errors.KOutOfRange):
        C.complicial_delta(3, 2, 2)


@pytest.mark.parametrize("build", [C.delta, C.delta_t, C.boundary])
def test_negative_dimension_rejected(build):
    with pytest.raises(errors.InvalidInput, match="negative"):
        build(-1, 2)


def test_sizes_from_sys_maxsize_up_rejected():
    # the boundary's cap may sit one below its dimension, so the dimension
    # is checked as well as the cap
    with pytest.raises(errors.InvalidInput, match="dimension .* too large"):
        C.boundary(sys.maxsize, sys.maxsize - 1)
    with pytest.raises(errors.InvalidInput, match="cap .* too large"):
        C.delta(0, sys.maxsize)


def test_horn_and_boundary_pair_are_built_once():
    assert C.complicial_horn(1, 2, 2) is C.complicial_horn(1, 2, 2)
    assert C.boundary_pair(1, 2) is C.boundary_pair(1, 2)
