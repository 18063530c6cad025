"""Finite monoids for the benchmark, and what the mathematics says about them.

Multiplication tables come from permutation composition and modular
arithmetic written here, never from complicial, so every expectation the
benchmark checks is independent of the program under test.  Products read
"first a, then b", the convention of the ``--monoid`` table format.
"""

from __future__ import annotations

import random
from itertools import permutations, product


class Monoid:
    """A finite monoid as element names plus a "first a, then b" product."""

    def __init__(self, name: str, elements, unit: str, mul: dict):
        self.name = name
        self.elements = tuple(elements)
        self.unit = unit
        self.mul = mul

    def __len__(self) -> int:
        return len(self.elements)

    def __call__(self, a: str, b: str) -> str:
        return self.mul[(a, b)]

    def shuffled(self, rng: random.Random) -> "Monoid":
        """The same monoid with its elements listed in a random order."""
        order = list(self.elements)
        rng.shuffle(order)
        return Monoid(self.name, order, self.unit, self.mul)

    def table_doc(self) -> dict:
        return {
            "elements": list(self.elements),
            "unit": self.unit,
            "table": [[self(a, b) for b in self.elements]
                      for a in self.elements],
        }

    @property
    def units(self) -> frozenset:
        return frozenset(
            a for a in self.elements
            if any(self(a, b) == self.unit == self(b, a)
                   for b in self.elements)
        )

    @property
    def is_group(self) -> bool:
        return len(self.units) == len(self)

    @property
    def abelian(self) -> bool:
        return all(self(a, b) == self(b, a)
                   for a in self.elements for b in self.elements)


def symmetric(n: int) -> Monoid:
    """S_n: "first p, then q" sends x to q[p[x]]."""
    perms = list(permutations(range(n)))
    label = lambda p: "".join(map(str, p))  # noqa: E731
    mul = {
        (label(p), label(q)): label(q[p[x]] for x in range(n))
        for p in perms for q in perms
    }
    return Monoid(f"S{n}", [label(p) for p in perms], label(range(n)), mul)


def dihedral(n: int) -> Monoid:
    """D_n as Z_n x| Z_2: (k, f)(l, g) = (k + (-1)^f l mod n, f xor g)."""
    elems = [(k, f) for f in (0, 1) for k in range(n)]
    label = lambda e: f"r{e[0]}" + ("s" if e[1] else "")  # noqa: E731
    mul = {
        (label(a), label(b)):
            label(((a[0] + (-1) ** a[1] * b[0]) % n, a[1] ^ b[1]))
        for a in elems for b in elems
    }
    return Monoid(f"D{n}", [label(e) for e in elems], "r0", mul)


def cyclic(n: int) -> Monoid:
    elems = [str(i) for i in range(n)]
    mul = {(a, b): str((int(a) + int(b)) % n) for a in elems for b in elems}
    return Monoid(f"Z{n}", elems, "0", mul)


def z3_bool() -> Monoid:
    """Z3 x ({0, 1}, *): a commutative monoid with three units, not a group."""
    elems = [(i, b) for b in (1, 0) for i in range(3)]
    label = lambda e: f"{e[0]}{'u' if e[1] else 'z'}"  # noqa: E731
    mul = {
        (label(a), label(b)): label(((a[0] + b[0]) % 3, a[1] * b[1]))
        for a in elems for b in elems
    }
    return Monoid("Z3xBool", [label(e) for e in elems], "0u", mul)


# -- expectations -------------------------------------------------------------

def nerve_counts(m: Monoid, cap: int) -> list[int]:
    """n-simplices of a one-object nerve are n-chains: |M|^n of them."""
    return [len(m) ** n for n in range(cap + 1)]


def degenerate_counts(m: Monoid, cap: int) -> list[int]:
    """Chains containing the unit somewhere: |M|^n - (|M| - 1)^n."""
    return [0] + [len(m) ** n - (len(m) - 1) ** n for n in range(1, cap + 1)]


def verify_rows(m: Monoid, bound: int) -> list[tuple[int, int, int, int, int]]:
    """(family, k, n, instances, failures) of ``verify`` on th0(N M).

    Every positive-dimensional simplex is thin, so thinness never prunes and
    only the simplicial structure of the nerve matters:

    * n = 1: the horn is one vertex, and the nerve has one.
    * n = 2: any two edges form a horn.  The outer horn (k = 0) given
      d2 = a and d1 = c fills iff a b = c for some b; k = 2 dually.
    * n = 3: every edge of the 3-simplex lies in the horn.  Inner horns are
      the 3-chains (a, b, c).  The outer horn k = 0 is (a, b, c, y) with the
      face d2 = (a, y) constrained by a y = a b c, and fills iff y = b c;
      k = 3 dually.
    * n >= 4: the horn holds the whole 2-skeleton and nerves are
      2-coskeletal, so instances are the |M|^n chains and all fill.

    Family 2 asks the k-th face of a thin n-simplex to be thin: always.
    """
    els, size = m.elements, len(m)
    rows = []
    for n in range(1, bound + 1):
        for k in range(n + 1):
            if n == 1:
                inst, fail = 1, 0
            elif n == 2 and k in (0, 2):
                inst = size ** 2
                reach = ({(a, m(a, b)) for a in els for b in els} if k == 0
                         else {(b, m(a, b)) for a in els for b in els})
                fail = inst - len(reach)
            elif n == 3 and k in (0, 3):
                inst = fail = 0
                for a, b, c, y in product(els, repeat=4):
                    if k == 0 and m(a, y) == m(m(a, b), c):
                        inst += 1
                        fail += y != m(b, c)
                    if k == 3 and m(y, c) == m(m(a, b), c):
                        inst += 1
                        fail += y != m(a, b)
            else:
                inst, fail = size ** n, 0
            rows.append((1, k, n, inst, fail))
    rows += [(2, k, n, size ** n, 0)
             for n in range(2, bound + 1) for k in range(n + 1)]
    return rows


def tau_expectation(m: Monoid, n: int) -> dict:
    """The homotopy monoid of th0(N M) or qcat-e(N M) at the vertex.

    For n = 1 the sphere elements are the edges, each its own class, and
    [p][q] is the class of "q, then p".  For n >= 2 the only 2-simplex (and
    above) with constant boundary is degenerate, so the monoid is trivial.
    """
    if n >= 2:
        const = "|".join([m.unit] * n)
        return {"classes": [[const]], "product": {(const, const): const},
                "unit": const, "is_group": True, "commutative": True,
                "invertible": {const}}
    return {
        "classes": [[e] for e in m.elements],
        "product": {(p, q): m(q, p) for p in m.elements for q in m.elements},
        "unit": m.unit,
        "is_group": m.is_group,
        "commutative": m.abelian,
        "invertible": set(m.units),
    }
