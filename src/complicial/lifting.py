"""Horn instances, horn filling, and the weak complicial verifier.

A horn instance is a stratified map from a complicial horn to X, and its
fillers are looked up, not searched for (see "Verdicts" below).  Everything
runs on plain simplex indexes, and maps are built from index columns
(:func:`_generated_rows`).

What is validated, and where:

* Horns, at enumeration.  Horn instances are enumerated a face at a
  time by hash join (:func:`_horn_rows`): each face's candidates are
  first cut to those that land thin wherever the horn is thin, then
  grouped by their own face-row entries shared with the earlier faces,
  and a partial tuple is extended by one lookup of the entries its chosen
  faces ask for.  So an instance is enumerated exactly when its faces are
  compatible and thin where they must be: it is a stratified map from the
  horn.
* Maps, in batches.  Every map is checked by one validator,
  ``core._map_fault``, which ``strat.make_stratified_maps`` runs on a
  batch of index assignments B -> X and ``make_simplicial_map`` and
  ``make_stratified_map`` on a batch of one.  It reads the batch as one
  map out of a disjoint union of copies of B: the shapes are tested over
  the concatenated rows, and each face or degeneracy operator and each
  dimension's thinness is one column compared over the whole batch.  The
  first mismatch of each column names a map and a simplex, and the least
  one raises, so the first invalid map raises the error it raises alone.
* Results.  Every map returned to a caller (a horn map, and the
  homotopy module's classifying maps and sphere witnesses) is built from
  its index rows, and all the maps of one call are validated as one batch.
* Verdicts.  A stratified map from the complicial simplex at cap n is one
  n-simplex of X, and of the simplices outside the horn only the top is
  thin; so a horn instance is filled exactly by a thin n-simplex whose
  faces j != k are the horn's (:func:`_batch_fillers`, which groups the
  thin n-simplices by whole face rows, k-th entry left out, and looks
  each horn up there).
  Family 1 decides each (k, n) row against one projection set, built
  once: the face rows of the thin n-simplices with their k-th entry left
  out, so an instance passes exactly when its faces are in it.  Where the
  face-row map onto compatible boundaries is a bijection in dimensions
  n - 1 and n (:func:`_boundaries_bijective`, computed once per dimension
  and never assumed), every horn has exactly one simplicial filler, so the
  row joins no horns: its instances are the n-simplices that pass the
  horn's thinness cut, and its failures those of them that are not thin
  (:func:`_coskeletal_row`).  Nerves of categories are 2-coskeletal, so
  on a nerve every row with n >= 4 is decided so.  ``assert_kan`` and
  ``assert_quasicategory`` run the same row check on the maximal
  stratification, stopped at the first failure.  Family 2
  takes the column of all n-simplex indexes, maps it through the face
  word of each thin key of the primed simplex (``TruncatedSSet.act``)
  and keeps the simplices whose images are in the thin index sets; those
  are the instances, and one more column, the k-th faces, gives the
  failures.
  A thinness pass over a dimension of X that is wholly thin can remove
  nothing, so it is skipped, here and in the horn cut
  (:func:`_wholly_thin`); on a ``th0`` no pass runs at all.  A pass rests
  on these rules.  A row's family-1 instances without a filler are
  checked, before the failures are recorded, to be stratified maps from
  the horn (:func:`_require_horns`, which the homotopy module's horn
  fillers also call): the face identities and the thin images are
  compared a whole column at a time (:func:`_stratified_horn_tuples`).
  Only if that check fails are their horn maps built and validated as
  one batch (:func:`_horn_maps`, which :func:`assemble_horn_map` runs on
  one instance), so the error is the one the first bad map raises alone.
  A row keeps its failures as index columns (:class:`VerificationRow`);
  its :class:`FailedInstance` witnesses, and the simplex ids in them, are
  made only when an API caller first reads ``failures``.  The CLI writes
  its document from the columns (``documents.verify_pieces``).

Verification of the weak complicial lifting conditions is bounded by the
cap: a truncated complex can never certify conditions above it, so the
report records the bound actually covered and all downstream claims are
relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import Row, SimplexId, TruncatedSSet, _require_int
from .errors import (
    BoundaryMismatch,
    BoundExceedsCap,
    CapTooSmall,
    InvalidInput,
    KOutOfRange,
    NotWellDefined,
)
from .standard import (
    _horn_generators, complicial_horn, complicial_thin_key, in_horn_key,
)
from .strat import StratifiedMap, StratifiedSSet, make_stratified_maps


def _generated_rows(
    bu: TruncatedSSet, xu: TruncatedSSet,
    image: Callable[[int, int], Sequence[int]],
) -> Iterator[list[Sequence[int]]]:
    """Unvalidated rows B -> X, up to the smaller cap, one set per instance.

    ``image(m, i)`` lists, per instance, the image of the nondegenerate
    m-simplex i of B, so each is computed for all instances at once; a
    degenerate s_j b takes s_j of b's image.  Horn maps, classifying maps
    and sphere witnesses all build their rows here.
    """
    depth = min(bu.dim_cap, xu.dim_cap)
    witness = bu.deg_witness
    columns = [[image(m, i) if w is None else None
                for i, w in enumerate(witness[m])]
               for m in range(depth + 1)]
    for r, vertices in enumerate(zip(*columns[0])):
        rows: list[Sequence[int]] = [vertices]
        for m in range(1, depth + 1):
            below, degs = rows[-1], xu.degeneracy_columns[m - 1]
            rows.append([
                degs[w[1]][below[w[0]]] if column is None else column[r]
                for column, w in zip(columns[m], witness[m])
            ])
        yield rows


def assemble_horn_map(
    horn: StratifiedSSet,
    face_assignments: Mapping[int, SimplexId],
    x: StratifiedSSet,
) -> StratifiedMap:
    """The stratified map from a horn determined by its generating faces.

    ``face_assignments`` maps each face index j (j != k) of the horn of the
    n-simplex to an (n-1)-simplex of X, and ``horn`` must be that
    k-complicial horn (:func:`complicial_horn`, at any cap from n).  Every
    simplex of the horn is an iterated face of some generating face, so the
    assignment determines the map; boundary compatibility and thinness
    preservation are verified.
    """
    js = sorted(face_assignments)
    n = len(js)
    missing = [j for j in range(n + 1) if j not in face_assignments]
    if len(missing) != 1:
        raise InvalidInput(
            f"assignments {js} are not the faces of a horn of the {n}-simplex"
        )
    k = missing[0]
    if horn.cap < n or horn != complicial_horn(k, n, horn.cap)[0]:
        raise InvalidInput(
            f"{horn!r} is not the {k}-complicial horn of the {n}-simplex")
    for j, img in face_assignments.items():
        if img.dim != n - 1:
            raise InvalidInput(f"face {j} image {img!r} must have dim {n - 1}")
    columns = [[face_assignments[j].index] for j in js]
    return _horn_maps(horn, k, n, x, columns)[0]


def _horn_maps(
    horn: StratifiedSSet, k: int, n: int, x: StratifiedSSet,
    columns: Sequence[Sequence[int]],
) -> list[StratifiedMap]:
    """The maps from a horn of the n-simplex at k, one per instance.

    ``columns[p]`` lists the (n-1)-simplex of X on the p-th face j != k of
    each instance.  A nondegenerate simplex of the horn is read off its
    generating face (``standard._horn_generators``), one ``act`` over the
    whole column (:func:`_generated_rows`).  The instances are validated
    as one batch (``strat.make_stratified_maps``); the first invalid one,
    in instance order, raises :class:`BoundaryMismatch` for faces that do
    not match, or :class:`ThinnessViolation`.
    """
    hu, xu = horn.underlying, x.underlying
    plan = _horn_generators(k, n)
    on_face = dict(zip([j for j in range(n + 1) if j != k], columns))

    def image(m: int, i: int) -> Sequence[int]:
        j, word = plan[hu.keys[m][i]]
        return xu.act(n - 1, word, on_face[j])

    try:
        return make_stratified_maps(horn, x,
                                    list(_generated_rows(hu, xu, image)))
    except NotWellDefined as exc:
        raise BoundaryMismatch(str(exc)) from exc


def _wholly_thin(x: StratifiedSSet, m: int) -> bool:
    """Whether every m-simplex of X is thin, so no thinness pass over
    dimension m can remove anything.  Exact, since the thin index sets
    are validated where the stratification is made."""
    return len(x.thin_indexes()[m]) == x.underlying.counts[m]


def _landing_thin(x: StratifiedSSet, n: int, keys: Iterable[Sequence[int]]
                  ) -> Sequence[int]:
    """The n-simplices of X, ascending, that each monotone map of ``keys``
    sends thin: one ``act`` pass per key but of wholly thin dimensions."""
    column: Sequence[int] = range(x.underlying.counts[n])
    for key in keys:
        if not _wholly_thin(x, len(key) - 1):
            thin_m = x.thin_indexes()[len(key) - 1]
            column = [w for w, v in zip(column, x.underlying.act(
                n, key, column)) if v in thin_m]
    return column


def _horn_thin_words(
    x: StratifiedSSet, k: int, n: int
) -> Iterator[tuple[int, Sequence[int], frozenset[int]]]:
    """The thinness conditions on a stratified map from the k-complicial
    horn of the n-simplex to X, as (position p, word, thin set).

    The map sends the face at the p-th j != k, through ``act`` of the
    word, to a simplex that must lie in the thin set.  Each thin simplex
    of the horn is read off its generating face; the k-th face is never
    thin, so every thin key lies in the horn.  Keys of a wholly thin
    dimension of X (:func:`_wholly_thin`) ask nothing and are left out.
    """
    js = [j for j in range(n + 1) if j != k]
    thin = x.thin_indexes()
    for key, (j, word) in _horn_generators(k, n).items():
        if not _wholly_thin(x, len(key) - 1) and complicial_thin_key(k, n, key):
            yield js.index(j), word, thin[len(key) - 1]


def _horn_rows(
    xu: TruncatedSSet, js: Sequence[int], n: int, x: StratifiedSSet | None
) -> Iterator[tuple[int, ...]]:
    """Compatible tuples of (n-1)-simplices on the faces ``js`` of the
    n-simplex (n >= 2, or n = 1 with one position) in ``xu``.

    ``js`` lists face positions, ascending, and a tuple lists the index of
    the (n-1)-simplex on each; tuples come in lexicographic order.  Faces
    i < j are compatible when d_i of the face at j is d_{j-1} of the face
    at i.  With every position but k the tuples are the simplicial horns
    at k; with every position, the compatible boundaries of the n-simplex.
    The tuples are built a position at a time, by hash join: position p
    (face j) gets one dict from a candidate's own face-row entries at the
    earlier positions to the candidates with those entries, ascending, and
    each partial tuple is extended by one lookup, keyed on entry j - 1 of
    its chosen faces.  So every kept candidate matches every chosen face.
    All positions but the last are built in full when called; the last is
    streamed, so a caller may stop at the first tuple it wants.
    With a stratification ``x`` of ``xu``, ``js`` must be the faces j != k
    of a horn, and only stratified maps from the k-complicial horn are
    listed.  Each thin simplex of the horn lies in some face j != k and
    its image is read off the face chosen there, so thinness is a
    condition on single faces: per position, the candidates are cut down
    once, a whole column per thin simplex, to those whose images land thin
    (:func:`_horn_thin_words`).  A thin simplex whose dimension is wholly
    thin in ``x`` cuts nothing and is skipped, so on a ``th0`` no cut is
    made at all.
    """
    top = n - 1
    # allowed[p] lists, ascending, the candidates for the face at js[p]
    allowed: list[Sequence[int]] = [range(xu.counts[top])] * len(js)
    if x is not None:
        k = next(j for j in range(n + 1) if j not in js)
        for p, word, thin_m in _horn_thin_words(x, k, n):
            images = xu.act(top, word, allowed[p])
            allowed[p] = [w for w, v in zip(allowed[p], images)
                          if v in thin_m]
    tuples: Iterable[tuple[int, ...]] = [(w,) for w in allowed[0]]
    faces = xu.face_columns[top]
    for p in range(1, len(js)):
        # a candidate's entries at js[:p] (a bare entry for p == 1), and
        # entry j - 1 of every (n-1)-simplex, which a chosen face at i < j
        # asks of the face at j
        ws, j = allowed[p], js[p]
        entries = [map(faces[i].__getitem__, ws) for i in js[:p]]
        by_key: dict = {}
        for key, w in zip(zip(*entries) if p > 1 else entries[0], ws):
            by_key.setdefault(key, []).append(w)
        tuples = _join(tuples, by_key, faces[j - 1])
        if p < len(js) - 1:
            tuples = list(tuples)
    return iter(tuples)


def _join(tuples: Iterable[tuple[int, ...]], by_key: dict,
          wanted: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each tuple extended by each candidate its chosen faces ask for."""
    get = by_key.get
    for t in tuples:
        for w in get(itemgetter(*t)(wanted), ()):
            yield t + (w,)


def horn_instances(
    k: int, n: int, x: StratifiedSSet
) -> Iterator[dict[int, SimplexId]]:
    """All stratified maps from the k-complicial horn of the n-simplex to X.

    Maps are given by their generating-face assignments, in lexicographic
    order of assigned indices.  They are built a face at a time by hash
    join on the shared faces, from candidates already cut to those whose
    images land thin wherever the horn is thin (see :func:`_horn_rows`).
    """
    _require_int("k", k)
    _require_int("n", n)
    if n < 1:
        raise InvalidInput("horns need n >= 1")
    if not 0 <= k <= n:
        raise KOutOfRange(f"k = {k} outside [{n}]")
    if n - 1 > x.cap:
        raise CapTooSmall(f"horns of the {n}-simplex need cap >= {n - 1}")
    js = [j for j in range(n + 1) if j != k]
    ids = x.underlying.ids[n - 1]
    for row in _horn_rows(x.underlying, js, n, x):
        yield {j: ids[w] for j, w in zip(js, row)}


@dataclass(frozen=True)
class FailedInstance:
    """Witness of one unfillable instance."""

    family: int
    k: int
    n: int
    detail: dict

    def describe(self) -> str:
        return f"family {self.family} (k, n) = ({self.k}, {self.n}): {self.detail}"


@dataclass(frozen=True)
class VerificationRow:
    """One (family, k, n) row: how many instances it decided, and its
    failures, kept as index columns of the ``underlying`` complex.

    Family 1 has one column per face j != k, ascending, listing the
    (n-1)-simplex each unfilled horn has on that face; family 2 has one
    column, of the failing n-simplices.  The i-th failure reads the i-th
    entry of every column.  ``failures`` is made from the columns on first
    access and kept.
    """

    family: int
    k: int
    n: int
    instances: int
    columns: tuple[Sequence[int], ...]
    underlying: TruncatedSSet = field(repr=False, compare=False)

    @property
    def failed(self) -> int:
        """The number of failures."""
        return len(self.columns[0])

    @property
    def ok(self) -> bool:
        return not self.failed

    @cached_property
    def failures(self) -> tuple[FailedInstance, ...]:
        k, n = self.k, self.n
        if self.family == 2:
            ids = self.underlying.ids[n] if self.failed else ()
            return tuple(
                FailedInstance(2, k, n,
                               {"simplex": ids[w], "missing_thin_face": k})
                for w in self.columns[0])
        js = [j for j in range(n + 1) if j != k]
        ids = self.underlying.ids[n - 1] if self.failed else ()
        return tuple(
            FailedInstance(1, k, n,
                           {"faces": {j: ids[w] for j, w in zip(js, faces)}})
            for faces in zip(*self.columns))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the bounded weak-complicial verification."""

    checked_dims: int
    rows: tuple[VerificationRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> list[FailedInstance]:
        return [f for row in self.rows for f in row.failures]


def _batch_fillers(x: StratifiedSSet, k: int, n: int,
                   rows: Sequence[Row]) -> list[list[int]]:
    """The fillers of each horn of ``rows``, in order.

    A row lists a horn's faces j != k in ascending j, as indexes of
    (n-1)-simplices.  By the Yoneda lemma a map from the complicial simplex
    at cap n is one n-simplex of X, and of its simplices outside the horn
    only the top is thin; so the fillers are the thin n-simplices whose
    face row, with its k-th entry left out, is the horn's row.
    The thin n-simplices whose first face j != k some row asks for are
    sorted once by (index of face k, index): the order of an extension
    search that picks the face k and then the top, each ascending
    (``tests/reference.py::fillers``).  They are grouped in that order by
    their face row with the k-th entry left out, and each horn is then
    one lookup of its whole row.
    """
    columns = x.underlying.face_columns[n]
    rest = [column for j, column in enumerate(columns) if j != k]
    wanted = {row[0] for row in rows}
    ws = [w for w in x.thin_indexes()[n] if rest[0][w] in wanted]
    # ascending first, so the stable sort by face k keeps ties ascending
    ws = sorted(sorted(ws), key=columns[k].__getitem__)
    found: dict[Row, list[int]] = {}
    for key, w in zip(zip(*[map(c.__getitem__, ws) for c in rest]), ws):
        found.setdefault(key, []).append(w)
    return [found.get(row, []) for row in rows]


def _boundaries_bijective(xu: TruncatedSSet, m: int) -> bool:
    """Whether the face-row map from the m-simplices (m >= 1) of ``xu`` to
    the compatible boundaries of the m-simplex is a bijection.

    It is injective when the face rows are distinct, one set over the
    columns.  Given that, it is onto when there are no more compatible
    boundaries than m-simplices.  For m = 1 a boundary is any pair of
    vertices.  Above, the boundaries are joined on every position
    (:func:`_horn_rows`), stopping at the first past the count; but where
    the map is a bijection in dimension m - 1 too, a horn at m extends to
    exactly one boundary, so the horns at m are joined instead, one level
    fewer.  Computed at most once per dimension and kept on ``xu``.
    """
    known = xu._boundary_bijective
    if known[m] is None:
        count = xu.counts[m]
        if len(set(zip(*xu.face_columns[m]))) != count:
            known[m] = False
        elif m == 1:
            known[m] = xu.counts[0] ** 2 == count
        else:
            js = range(m if _boundaries_bijective(xu, m - 1) else m + 1)
            known[m] = sum(1 for _ in islice(_horn_rows(xu, js, m, None),
                                             count + 1)) == count
    return known[m]


def _coskeletal_row(k: int, n: int, x: StratifiedSSet
                    ) -> tuple[int, list[tuple[int, ...]]]:
    """The instance count and the unfilled horns of family-1 row (k, n),
    where the face-row map is a bijection in dimensions n - 1 and n.

    Then every horn has exactly one simplicial filler: its missing face is
    the one (n-1)-simplex with the boundary the horn fixes, and that
    completes a boundary of the n-simplex, which one n-simplex has.  So
    the horns are the n-simplices, each its face row with the k-th entry
    left out.  A horn is stratified when the images of its thin simplices
    are thin (:func:`_landing_thin`), and those left that are not thin
    are the unfilled horns, in the join's lexicographic order.
    """
    faces = x.underlying.face_columns[n]
    js = [j for j in range(n + 1) if j != k]
    column = _landing_thin(x, n, [key for key in _horn_generators(k, n)
                                  if complicial_thin_key(k, n, key)])
    if _wholly_thin(x, n):
        return len(column), []
    thin = x.thin_indexes()[n]
    failed = [w for w in column if w not in thin]
    return len(column), sorted(zip(*[list(map(faces[j].__getitem__, failed))
                                     for j in js]))


def _check_family1(k: int, n: int, x: StratifiedSSet,
                   limit: int | None = None) -> VerificationRow:
    """Decide every stratified horn of row (k, n), keeping the first
    ``limit`` failures (None: all).

    Where the face-row map is a bijection in dimensions n - 1 and n
    (:func:`_boundaries_bijective`, n >= 2), the horns are the n-simplices
    and the row is decided by columns (:func:`_coskeletal_row`).
    Elsewhere the horns are joined (:func:`_horn_rows`) and decided
    against one projection set: the face rows, k-th entry left out, of the
    thin n-simplices, so an instance is filled exactly when its faces are
    in it (the rule of :func:`_batch_fillers`).  With a limit the join
    stops at the limit-th failure, and the count is of the horns seen.
    The failures are checked to be stratified maps from the horn
    (:func:`_require_horns`) before they are recorded, so a bad one raises
    the error :func:`assemble_horn_map` raises on it.  They are kept as
    columns, one per face j != k.
    """
    xu = x.underlying
    js = [j for j in range(n + 1) if j != k]
    if n >= 2 and _boundaries_bijective(xu, n - 1) \
            and _boundaries_bijective(xu, n):
        instances, unfilled = _coskeletal_row(k, n, x)
        unfilled = unfilled[:limit]
    else:
        rest = [xu.face_columns[n][j] for j in js]
        if not _wholly_thin(x, n):
            ws = list(x.thin_indexes()[n])
            rest = [list(map(c.__getitem__, ws)) for c in rest]
        filled = set(zip(*rest))
        instances = 0
        unfilled = []
        for instances, faces in enumerate(_horn_rows(xu, js, n, x), 1):
            if faces not in filled:
                unfilled.append(faces)
                if len(unfilled) == limit:
                    break
    columns = tuple(zip(*unfilled)) or ((),) * n
    if unfilled:
        _require_horns(x, k, n, columns)
    return VerificationRow(1, k, n, instances, columns, xu)


def _stratified_horn_tuples(x: StratifiedSSet, k: int, n: int,
                            columns: Sequence[Sequence[int]]) -> bool:
    """Whether every face tuple is a stratified map from the k-complicial
    horn of the n-simplex to X.

    ``columns[p]`` lists the (n-1)-simplex on the p-th face j != k of
    each tuple, as for :func:`_horn_maps`.  A tuple is a simplicial map
    from the horn exactly when d_i of its face at j is d_{j-1} of its
    face at i, for i < j both != k; it is stratified when, besides, the
    image of each thin simplex of the horn is thin
    (:func:`_horn_thin_words`).  Both are one comparison over whole
    columns.
    """
    xu = x.underlying
    js = [j for j in range(n + 1) if j != k]
    faces = xu.face_columns[n - 1]
    for (p, i), (q, j) in combinations(enumerate(js), 2):
        if (list(map(faces[i].__getitem__, columns[q]))
                != list(map(faces[j - 1].__getitem__, columns[p]))):
            return False
    return all(v in thin_m
               for p, word, thin_m in _horn_thin_words(x, k, n)
               for v in xu.act(n - 1, word, columns[p]))


def _require_horns(x: StratifiedSSet, k: int, n: int,
                   columns: Sequence[Sequence[int]]) -> None:
    """Raise unless every face tuple is a stratified map from the
    k-complicial horn of the n-simplex to X.

    ``columns`` is as for :func:`_horn_maps`.  The tuples are checked a
    column at a time (:func:`_stratified_horn_tuples`); only if that check
    fails are their horn maps built, as one batch, so the error is the one
    :func:`assemble_horn_map` raises on the first bad tuple.
    """
    if not _stratified_horn_tuples(x, k, n, columns):
        _horn_maps(complicial_horn(k, n, n)[0], k, n, x, columns)
        raise AssertionError("no invalid horn")  # pragma: no cover


def _delta_prime_thin_keys(k: int, n: int) -> list[tuple[int, ...]]:
    """The nondegenerate thin simplices of :func:`~.standard.delta_prime`.

    Keys are vertex lists, by dimension and then lexicographically: the
    k-complicial thin faces and the (n-1)-faces other than the k-th.
    """
    return [
        t for m in range(n + 1) for t in combinations(range(n + 1), m + 1)
        if complicial_thin_key(k, n, t) or (m == n - 1 and in_horn_key(k, n, t))
    ]


def _check_family2(k: int, n: int, x: StratifiedSSet) -> VerificationRow:
    """Thinness-extension check: the inclusion is the identity underneath.

    A map from the primed complex is an n-simplex of X whose images of the
    primed thin simplices are all thin; lifting along the identity-on-
    underlying inclusion asks exactly that the k-th face also lands thin.
    The n-simplices are filtered by :func:`_landing_thin`, and their k-th
    faces, unless wholly thin, are one more column; the failures are kept
    as the column of their n-simplices.
    """
    xu = x.underlying
    column = _landing_thin(x, n, _delta_prime_thin_keys(k, n))
    failed: list[int] = []
    if not _wholly_thin(x, n - 1):
        kth = [v for v in range(n + 1) if v != k]
        failed = [w for w, v in zip(column, xu.act(n, kth, column))
                  if v not in x.thin_indexes()[n - 1]]
    return VerificationRow(2, k, n, len(column), (failed,), xu)


def verify_weak_complicial(x: StratifiedSSet, bound: int) -> VerificationReport:
    """Check both anodyne families on every instance up to ``bound``.

    Family 1 covers the horn inclusions for 1 <= n <= bound and k in [n];
    family 2 the thinness extensions for 2 <= n <= bound and k in [n].  The
    report's rows are ordered by (family, n, k).
    """
    _require_int("bound", bound)
    if bound > x.cap:
        raise BoundExceedsCap(f"bound {bound} exceeds cap {x.cap}")
    if bound < 0:
        raise InvalidInput("bound must be a natural number")
    rows = [_check_family1(k, n, x)
            for n in range(1, bound + 1) for k in range(n + 1)]
    rows += [_check_family2(k, n, x)
             for n in range(2, bound + 1) for k in range(n + 1)]
    return VerificationReport(bound, tuple(rows))
