"""Brute-force references, written straight from the definitions, that the
tests compare the package against.

Independence rule: this module takes from ``complicial`` only what makes
inputs (``build_sset``, ``make_stratified``, ``SimplexId`` and ``errors``),
and reads a complex only through its tables (``counts``, ``faces``,
``degeneracies``, and ``keys`` of a standard complex) and its thin sets
(``thin_indexes``).  It never calls ``act``, ``apply_monotone``,
``face_index`` or a private name, so that a fault of the engine cannot
cancel out in a comparison; ``tests/test_names.py`` checks this.  Every
search is depth first and extends a partial tuple only by the simplices
whose faces match the ones already chosen, found in groupings this module
makes from the tables.  Results come out in the orders the package
documents, face tuples and assignments lexicographically, so that every
comparison is a list equality.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import (
    combinations, combinations_with_replacement, permutations, product,
)

from complicial import SimplexId, build_sset, errors, make_stratified

# -- simplicial operators -----------------------------------------------------

def operate(u, n, i, values):
    """The image of the n-simplex i of ``u`` under the monotone map
    ``values``: [m] -> [n]: the faces deleting the missed vertices, from the
    top down, then the repeats peeled off one degeneracy at a time."""
    for j in range(n, -1, -1):
        if j not in values:
            i, n = u.faces[n][i][j], n - 1
    ranks = sorted(set(values))
    if len(ranks) == len(values):
        return i
    return _degenerate(u, i, [ranks.index(v) for v in values])


def _degenerate(u, i, word):
    # a surjection [m] -> [r] that repeats t factors through the collapse of
    # t and t + 1, so s_t applies last
    for t in range(len(word) - 1):
        if word[t] == word[t + 1]:
            below = _degenerate(u, i, word[:t + 1] + word[t + 2:])
            return u.degeneracies[len(word) - 2][below][t]
    return i


def is_map(su, tu, rows, thin=None):
    """Whether ``rows`` commutes with every face and degeneracy, and, with
    ``thin`` = (source thin sets, target thin sets), sends thin to thin."""
    top = len(rows) - 1
    return (all(tu.faces[m][w] == tuple(rows[m - 1][f] for f in su.faces[m][i])
                for m in range(1, top + 1) for i, w in enumerate(rows[m]))
            and all(tu.degeneracies[m][w]
                    == tuple(rows[m + 1][d] for d in su.degeneracies[m][i])
                    for m in range(top) for i, w in enumerate(rows[m]))
            and (thin is None or all(rows[m][i] in thin[1][m]
                                     for m in range(top + 1)
                                     for i in thin[0][m])))


# -- face tuples, horns and verify rows ---------------------------------------

def complicial_thin(k, n, t):
    """Whether the face with vertex set t of the k-complicial n-simplex is
    thin: t contains {k-1, k, k+1} within [n]."""
    return {k - 1, k, k + 1} & set(range(n + 1)) <= set(t)


def _monotone(m, n):
    """The weakly increasing maps [m] -> [n], lexicographically."""
    return list(combinations_with_replacement(range(n + 1), m + 1))


def standard_thin(name, k, n, cap):
    """The thin simplices, as value lists, of a standard complex of the
    n-simplex at ``cap`` (named as in ``tests/test_standard.py``): the
    degenerate ones, and as the name asks, the top ("delta-t"), the
    complicial thin ones, and the (n-1)-faces ("horn-prime",
    "delta-dprime") or those but the k-th ("delta-prime").  A horn holds
    the faces of its faces j != k."""
    def in_horn(t):
        return any(j not in t for j in range(n + 1) if j != k)

    def marked(t):
        if name in ("delta", "delta-t"):
            return name == "delta-t" and n > 0 and t == tuple(range(n + 1))
        facet = len(t) == n and (name != "delta-prime" or in_horn(t))
        return complicial_thin(k, n, t) or facet and name not in (
            "comp-delta", "horn")

    return {t for m in range(1, cap + 1) for t in _monotone(m, n)
            if (name not in ("horn", "horn-prime") or in_horn(t))
            and (len(set(t)) < len(t) or marked(t))}


def _faces_of(n):
    """The faces of the n-simplex, as vertex sets, by size, then lex."""
    return [t for m in range(n + 1) for t in combinations(range(n + 1), m + 1)]


def _lands_thin(u, thin, n, w, keys):
    """Whether the n-simplex w lands thin under each monotone map of
    ``keys``; a dimension that is thin throughout needs no look."""
    return all(len(thin[len(t) - 1]) == u.counts[len(t) - 1]
               or operate(u, n, w, t) in thin[len(t) - 1] for t in keys)


def face_tuples(u, n, js, keep=None):
    """Every tuple of (n-1)-simplices on the faces ``js`` (ascending) of the
    n-simplex that agree: d_i of the face at j is d_{j-1} of the face at i,
    for i < j.  ``keep(p, w)``, when given, may refuse w at position p.  A
    tuple is extended at face j only by the simplices whose faces i < j
    are the ones its chosen faces ask for."""
    # vertices have no faces, so for n = 1 every key is None
    rows = u.faces[n - 1] if n > 1 else None
    # per position, the simplices it may take by the entries the chosen
    # faces fix
    by_shared = [{} for _ in js]
    for p, group in enumerate(by_shared):
        for w in range(u.counts[n - 1]):
            if keep is None or keep(p, w):
                group.setdefault(rows and tuple(rows[w][i] for i in js[:p]),
                                 []).append(w)
    out = []

    def deeper(chosen):
        if len(chosen) == len(js):
            out.append(tuple(chosen))
            return
        j = js[len(chosen)]
        want = rows and tuple(rows[c][j - 1] for c in chosen)
        for w in by_shared[len(chosen)].get(want, ()):
            deeper(chosen + [w])

    deeper([])
    return out


def horn_tuples(u, k, n, thin=None):
    """The horns at k of the n-simplex in ``u``, by their faces j != k.  With
    ``thin`` (per dimension, the thin indexes), only the stratified maps
    from the k-complicial horn: each thin face of the horn, read through
    every horn face j that holds it, lands thin."""
    js = [j for j in range(n + 1) if j != k]
    if thin is None:
        return face_tuples(u, n, js)
    # per position, the thin faces of the horn inside face j, as monotone
    # maps into [n - 1]
    words = [[[v - (v > j) for v in t] for t in _faces_of(n)
              if j not in t and complicial_thin(k, n, t)] for j in js]
    return face_tuples(u, n, js, lambda p, w: _lands_thin(
        u, thin, n - 1, w, words[p]))


def fillers(x, k, n, faces):
    """The fillers of a stratified horn at k with ``faces`` on the faces
    j != k: the thin n-simplices with those faces, in the order of
    :func:`extensions` (by the k-th face, then ascending).  Outside the
    horn the k-complicial n-simplex has the top, which is thin, and the
    k-th face, which is not, so these are the stratified maps from it that
    extend the horn."""
    rows = x.underlying.faces[n]
    js = [j for j in range(n + 1) if j != k]
    return sorted((w for w in x.thin_indexes()[n]
                   if tuple(rows[w][j] for j in js) == tuple(faces)),
                  key=lambda w: (rows[w][k], w))


def family1(x, k, n):
    """Row (k, n) of family 1: the number of stratified horns at k of the
    n-simplex, and the horns, in order, without a filler."""
    u, js = x.underlying, [j for j in range(n + 1) if j != k]
    rows = u.faces[n]
    filled = {tuple(rows[w][j] for j in js) for w in x.thin_indexes()[n]}
    horns = horn_tuples(u, k, n, x.thin_indexes())
    return len(horns), [h for h in horns if h not in filled]


def verify_rows(x, bound):
    """The rows of ``verify_weak_complicial(x, bound)``, as (family, k, n,
    instances, failure details), by (family, n, k).  Family 1 is
    :func:`family1`.  Family 2: the maps from the primed simplex (an
    n-simplex whose complicial thin faces and faces j != k land thin), and
    those whose k-th face is not thin."""
    u, thin = x.underlying, x.thin_indexes()
    rows = []
    for n in range(1, bound + 1):
        for k in range(n + 1):
            instances, failed = family1(x, k, n)
            js = [j for j in range(n + 1) if j != k]
            rows.append((1, k, n, instances, [
                {"faces": {j: SimplexId(n - 1, w) for j, w in zip(js, h)}}
                for h in failed]))
    for n in range(2, bound + 1):
        for k in range(n + 1):
            primed = [t for t in _faces_of(n) if complicial_thin(k, n, t)
                      or (len(t) == n and k in t)]
            kth = [v for v in range(n + 1) if v != k]
            maps = [w for w in range(u.counts[n])
                    if _lands_thin(u, thin, n, w, primed)]
            rows.append((2, k, n, len(maps), [
                {"simplex": SimplexId(n, w), "missing_thin_face": k}
                for w in maps if not _lands_thin(u, thin, n, w, [kth])]))
    return rows


def horn_map(horn, x, faces):
    """The map from a complicial horn (a standard complex) whose face j is
    the (n-1)-simplex ``faces[j]`` of X, as assignment rows; or the error
    the package names it by: ``BoundaryMismatch`` when it does not commute,
    ``ThinnessViolation`` when it sends a thin simplex to a non-thin one.
    A simplex of the horn is read off a face j that holds its vertices."""
    hu, xu = horn.underlying, x.underlying
    n = len(faces)
    rows = tuple(tuple(operate(xu, n - 1, faces[j], [v - (v > j) for v in key])
                       for key in hu.keys[m]
                       for j in [min(j for j in faces if j not in key)])
                 for m in range(min(hu.dim_cap, xu.dim_cap) + 1))
    if not is_map(hu, xu, rows):
        return errors.BoundaryMismatch
    if not is_map(hu, xu, rows, (horn.thin_indexes(), x.thin_indexes())):
        return errors.ThinnessViolation
    return rows


# -- extensions ---------------------------------------------------------------

def extensions(b, x, pinned):
    """Every stratified map B -> X with the n-simplex i of B sent to
    ``pinned[n][i]`` where that is not None, as assignment rows.  The
    unknowns are the nondegenerate unpinned simplices in (dim, index)
    order, and each takes the X-simplices, ascending, whose faces are the
    images of its own (thin ones only where it is thin); a degenerate
    simplex s_j y takes s_j of the image of y.  Each full assignment is
    then checked to be a stratified map."""
    bu, xu = b.underlying, x.underlying
    b_thin, x_thin = b.thin_indexes(), x.thin_indexes()
    # a degenerate m-simplex as s_j of an (m-1)-simplex, the first in scan
    # order
    base = [{} for _ in range(b.cap + 1)]
    for m in range(1, b.cap + 1):
        for y in range(bu.counts[m - 1]):
            for j, z in enumerate(bu.degeneracies[m - 1][y]):
                base[m].setdefault(z, (y, j))
    chosen = [list(row) for row in pinned]

    def image(m, i):
        if chosen[m][i] is None and i in base[m]:
            y, j = base[m][i]
            return xu.degeneracies[m - 1][image(m - 1, y)][j]
        return chosen[m][i]

    unknowns = [(m, i) for m in range(b.cap + 1) for i in range(bu.counts[m])
                if pinned[m][i] is None and i not in base[m]]
    # the m-simplices of X by their faces, ascending
    by_faces = [{(): list(range(xu.counts[0]))}] + [{} for _ in range(b.cap)]
    for m in range(1, b.cap + 1):
        for w, row in enumerate(xu.faces[m]):
            by_faces[m].setdefault(row, []).append(w)
    out = []

    def deeper(p):
        if p == len(unknowns):
            rows = tuple(tuple(image(m, i) for i in range(c))
                         for m, c in enumerate(bu.counts))
            if is_map(bu, xu, rows, (b_thin, x_thin)):
                out.append(rows)
            return
        m, i = unknowns[p]
        want = tuple(image(m - 1, f) for f in bu.faces[m][i]) if m else ()
        for w in by_faces[m].get(want, ()):
            if i not in b_thin[m] or w in x_thin[m]:
                chosen[m][i] = w
                deeper(p + 1)
        chosen[m][i] = None

    deeper(0)
    return out


# -- nerves and monoids -------------------------------------------------------

def nerve(c, cap):
    """The nerve of the finite category ``c`` at ``cap``, built chain by
    chain: the n-simplices are the composable n-chains of morphisms,
    lexicographically by morphism index (for n = 0 the objects); d_0 and
    d_n drop an outer morphism, d_i composes the i-th pair ("f then g"),
    and s_i inserts an identity.  Keys are the chains, labels their names
    joined by ``|``."""
    chains = [[(o,) for o in range(len(c.objects))],
              [(m,) for m in range(len(c.morphisms))]][:cap + 1]
    for n in range(2, cap + 1):
        chains.append([ch + (m,) for ch in chains[n - 1]
                       for m in range(len(c.morphisms))
                       if c.src[m] == c.tgt[ch[-1]]])
    index = [{ch: i for i, ch in enumerate(per)} for per in chains]

    def face(n, ch, i):
        if n == 1:
            return (c.tgt[ch[0]] if i == 0 else c.src[ch[0]],)
        if i in (0, n):
            return ch[1:] if i == 0 else ch[:-1]
        return ch[:i - 1] + (c.comp[(ch[i - 1], ch[i])],) + ch[i + 1:]

    def degeneracy(n, ch, i):
        if n == 0:
            return (c.identities[ch[0]],)
        at = c.src[ch[i]] if i < n else c.tgt[ch[-1]]
        return ch[:i] + (c.identities[at],) + ch[i:]

    faces = [()] + [[[index[n - 1][face(n, ch, i)] for i in range(n + 1)]
                     for ch in chains[n]] for n in range(1, cap + 1)]
    degens = [[[index[n + 1][degeneracy(n, ch, i)] for i in range(n + 1)]
               for ch in chains[n]] for n in range(cap)] + [()]
    labels = [[c.objects[ch[0]] if n == 0
               else "|".join(c.morphisms[m] for m in ch) for ch in per]
              for n, per in enumerate(chains)]
    return build_sset(cap, list(map(len, chains)), faces, degens,
                      keys=chains, labels=labels)


def street_nerve(add, n, cap):
    """The Street nerve of the n-fold suspension of the commutative monoid
    ``add`` (for n = 1, of any monoid), a table on 0..|M|-1 with unit 0, at
    ``cap``.  An m-simplex is a value in M for each (n+1)-subset of [m],
    the subsets taken lexicographically, such that on each (n+2)-subset the
    sum over its even faces is the sum over its odd ones; the m-simplices
    come in the lexicographic order of their values.  A monotone map
    [k] -> [m] pulls an m-simplex back: a subset gets the value of its
    image, or 0 where the map is not injective on it.  Thin: the
    n-simplices valued 0 and every simplex above n."""
    def total(values):
        out = 0
        for v in values:
            out = add[out][v]
        return out

    subsets = [list(combinations(range(m + 1), n + 1)) for m in range(cap + 1)]
    position = [{s: i for i, s in enumerate(per)} for per in subsets]
    simplices, index = [], []
    for m, per in enumerate(subsets):
        # per (n+2)-subset, the positions of its faces
        sums = [[position[m][s[:j] + s[j + 1:]] for j in range(n + 2)]
                for s in combinations(range(m + 1), n + 2)]
        found = [v for v in product(range(len(add)), repeat=len(per))
                 if all(total(v[f] for f in faces[0::2])
                        == total(v[f] for f in faces[1::2]) for faces in sums)]
        simplices.append(found)
        index.append({v: i for i, v in enumerate(found)})

    def pull(m, k, values, theta):
        # the m-simplex ``values`` along theta: [k] -> [m], given by its
        # values
        return index[k][tuple(
            values[position[m][image]] if len(set(image)) == n + 1 else 0
            for s in subsets[k] for image in [tuple(theta[t] for t in s)])]

    faces = [()] + [[[pull(m, m - 1, v, [t + (t >= j) for t in range(m)])
                      for j in range(m + 1)] for v in simplices[m]]
                    for m in range(1, cap + 1)]
    degens = [[[pull(m, m + 1, v, [t - (t > j) for t in range(m + 2)])
                for j in range(m + 1)] for v in simplices[m]]
              for m in range(cap)] + [()]
    u = build_sset(cap, list(map(len, simplices)), faces, degens)
    return make_stratified(u, [
        SimplexId(m, i) for m in range(n, cap + 1)
        for i, v in enumerate(simplices[m]) if m > n or v == (0,)])


def monoids(order):
    """Every monoid of ``order`` elements up to isomorphism, as tables
    ``table[a][b]`` on 0..order-1 with unit 0: each associative table, kept
    in the least relabelling that fixes 0.  There are 1, 2 and 7 of orders
    1, 2 and 3."""
    found = set()
    free = list(product(range(1, order), repeat=2))
    for values in product(range(order), repeat=len(free)):
        table = [[a or b for b in range(order)] for a in range(order)]
        for (a, b), v in zip(free, values):
            table[a][b] = v
        if associative(table):
            found.add(min(
                tuple(tuple(p[table[a][b]] for b in q) for a in q)
                for rest in permutations(range(1, order))
                for p in [(0,) + rest]
                for q in [sorted(range(order), key=lambda a: p[a])]))
    return sorted(found)


def associative(table):
    """Whether a table is associative, by every triple."""
    size = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in size for b in size for c in size)


def is_group(table, unit):
    """Whether a table is associative and each element has a two-sided
    inverse, by every pair."""
    size = range(len(table))
    return associative(table) and all(
        any(table[a][b] == unit == table[b][a] for b in size) for a in size)


# -- homotopy monoids ---------------------------------------------------------

Tau = namedtuple("Tau", "elements related flags witnesses classes unit "
                        "products first cells")


@lru_cache(maxsize=None)
def _cylinder(n):
    """Delta[n] x Delta_t[1] at cap n + 1, its m-simplices the pairs of
    monotone maps [m] -> [n] and [m] -> [1], lexicographically: thin where
    the first is degenerate and the second is too or is (0, 1)."""
    keys = [list(product(_monotone(m, n), _monotone(m, 1)))
            for m in range(n + 2)]
    index = [{key: i for i, key in enumerate(per)} for per in keys]

    def table(m, d, op):
        return [[index[d][tuple(op(t, j) for t in key)] for j in range(m + 1)]
                for key in keys[m]]

    u = build_sset(n + 1, list(map(len, keys)), [()] + [
        table(m, m - 1, lambda t, j: t[:j] + t[j + 1:])
        for m in range(1, n + 2)], [
        table(m, m + 1, lambda t, j: t[:j + 1] + t[j:])
        for m in range(n + 1)] + [()], keys=keys)

    def degenerate(t):
        return len(set(t)) < len(t)

    return make_stratified(u, [
        SimplexId(m, i) for m in range(1, n + 2)
        for i, (a, b) in enumerate(keys[m])
        if degenerate(a) and (degenerate(b) or b == (0, 1))])


def closure(related):
    """The classes of the equivalence relation that the boolean matrix
    ``related`` generates, each ascending and ordered by least member, and
    whether ``related`` is reflexive, symmetric and transitive."""
    size = range(len(related))
    reach = [{q for q in size if related[p][q] or related[q][p]} | {p}
             for p in size]
    for _ in size:
        reach = [set().union(*(reach[q] for q in r)) for r in reach]
    return sorted({tuple(sorted(r)) for r in reach}), (
        all(related[p][p] for p in size),
        all(related[p][q] == related[q][p] for p in size for q in size),
        all(related[p][r] or not (related[p][q] and related[q][r])
            for p in size for q in size for r in size))


def homotopies(x, base, n, p, q):
    """Every stratified map out of Delta[n] x Delta_t[1] (:func:`_cylinder`)
    that is the n-simplex p at time 0, q at time 1 and constant at the
    vertex ``base`` over the boundary of Delta[n], by :func:`extensions`."""
    u, cylinder = x.underlying, _cylinder(n)
    return extensions(cylinder, x, [[
        operate(u, n, (p, q)[b[0]], a) if len(set(b)) == 1
        else None if len(set(a)) == n + 1
        else operate(u, 0, base, [0] * len(a))
        for a, b in cylinder.underlying.keys[m]] for m in range(n + 2)])


def tau(x, base, n):
    """tau_n of X at the vertex ``base`` (an index), by brute force.

    ``elements``: the n-simplices with every face constant at ``base``.
    ``related[p][q]``: whether p and q have :func:`homotopies`;
    ``witnesses[(p, q)]``: the images of the cylinder's nondegenerate top
    simplices under the first; ``flags``: whether the relation is
    reflexive, symmetric, transitive.
    ``classes``: the positions in ``elements`` of the classes of the
    equivalence it generates, ordered by least member; ``unit``: the class
    of the constant.  ``products[i][j]``: the classes of d_n of every
    filler of the product horn (constant but for p on face n - 1 and q on
    face n + 1) of the least members p and q of classes i and j;
    ``first[i][j]``: the first of those fillers, or None; ``cells[i][j]``:
    the classes over every member of both, or None if a horn has no filler.
    """
    u = x.underlying
    constant = [operate(u, 0, base, [0] * (m + 1)) for m in range(n + 2)]
    elements = [e for e in range(u.counts[n])
                if set(u.faces[n][e]) == {constant[n - 1]}]
    tops = [i for i, (a, b) in enumerate(_cylinder(n).underlying.keys[n + 1])
            if len(set(zip(a, b))) == n + 2]
    related, witnesses = [], {}
    for p in elements:
        related.append([])
        for q in elements:
            found = homotopies(x, base, n, p, q)
            related[-1].append(bool(found))
            if found:
                witnesses[(p, q)] = tuple(found[0][n + 1][i] for i in tops)
    classes, flags = closure(related)
    class_of = {elements[p]: i for i, c in enumerate(classes) for p in c}

    def found(p, q):
        faces = [constant[n]] * (n + 1)
        faces[n - 1], faces[n] = p, q
        return fillers(x, n, n + 1, faces)

    def results(ps, qs):
        each = [{class_of[u.faces[n + 1][w][n]] for w in found(p, q)}
                for p in ps for q in qs]
        return set().union(*each) if all(each) else None

    members = [[elements[p] for p in c] for c in classes]
    return Tau(elements, related, flags, witnesses, classes,
               class_of[constant[n]],
               [[results(ci[:1], cj[:1]) or set() for cj in members]
                for ci in members],
               [[(found(ci[0], cj[0]) or [None])[0] for cj in members]
                for ci in members],
               [[results(ci, cj) for cj in members] for ci in members])
