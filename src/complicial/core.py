"""Dimension-truncated simplicial sets presented by explicit tables.

A complex stores, for every dimension ``n`` up to a cap ``D``, the number
of its n-simplices (degenerate ones included) and its face (``n >= 1``) and
degeneracy (``n < D``) tables, kept as columns: one tuple of indexes per
operator and dimension, which every reader in the package reads.  The
rest is made per dimension on first use, one store each (:class:`_PerDim`):
keys and labels by the makers a constructor hands over; ids, the key
index, the face-row index and degeneracy witnesses; and rows, for API
callers only.
Tables are checked once, where they come in: :func:`build_sset` checks the
shapes, ranges, keys and labels of tables an API caller gives as rows, and
``documents.doc_to_complex`` those of a document.  Behind them one core,
:func:`_sset`, makes every complex, from columns it trusts, and checks
every simplicial identity that is expressible inside the cap, for every
complex; every map is checked by one validator (:func:`_map_fault`), so
downstream code can rely on the tables unconditionally.  Counts, table
entries and assignments must be of type ``int``.  Instances are immutable
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter
from types import NoneType
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    CapExceeded,
    ComplicialError,
    DanglingReference,
    IdentityViolation,
    IndexOutOfRange,
    InvalidInput,
    NotWellDefined,
    ThinnessViolation,
)


@dataclass(frozen=True, order=True, slots=True)
class SimplexId:
    """Identifier of one simplex: its dimension and position within it.

    The optional label is display metadata and takes no part in equality,
    ordering or hashing.
    """

    dim: int
    index: int
    label: str | None = field(default=None, compare=False)

    def __repr__(self) -> str:
        if self.label is not None:
            return f"<{self.dim}:{self.index} {self.label}>"
        return f"<{self.dim}:{self.index}>"


Row = tuple[int, ...]
Table = tuple[tuple[Row, ...], ...]
Columns = tuple[tuple[int, ...], ...]


class _PerDim:
    """A read-only sequence with one entry per dimension n, made by
    ``make(n)`` (0 <= n < len) on first use and kept in ``slots``.  Each
    slot is assigned once, fully built, so concurrent first uses at worst
    build it twice.
    It compares equal to another such sequence, or a tuple, with the same
    entries, and is unhashable like a list."""

    __slots__ = ("_slots", "_make")

    def __init__(self, slots: list, make):
        self._slots = slots
        self._make = make

    def __getitem__(self, n):
        if type(n) is slice:
            return tuple(map(self.__getitem__, range(len(self._slots))[n]))
        got = self._slots[n]
        if got is None:
            got = self._slots[n] = self._make(n % len(self._slots))
        return got

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(len(self._slots)))

    def __eq__(self, other):
        if isinstance(other, (_PerDim, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


def _rows(columns: Columns) -> tuple[Row, ...]:
    """The rows of ``faces[n]`` or ``degeneracies[n]``, from the columns."""
    return tuple(zip(*columns))


def _first_witnesses(columns: Columns, count: int) -> tuple:
    """Per simplex of the dimension the degeneracy columns lead to, the
    first (b, j) in row order with s_j b = it, or None if there is none."""
    witness: list[tuple[int, int] | None] = [None] * count
    for b, row in enumerate(zip(*columns)):
        for j, target in enumerate(row):
            if witness[target] is None:
                witness[target] = (b, j)
    return tuple(witness)


def _by_face_row(columns: Columns) -> dict[Row, tuple[int, ...]]:
    """The simplices grouped by the rows the columns spell, ascending."""
    grouped: dict[Row, list[int]] = {}
    for i, row in enumerate(zip(*columns)):
        grouped.setdefault(row, []).append(i)
    return {row: tuple(ixs) for row, ixs in grouped.items()}


class TruncatedSSet:
    """A simplicial set truncated at ``dim_cap``, presented by index tables.

    The tables are kept as columns: ``face_columns[n][j][i]`` is the index
    (in dimension ``n-1``) of the j-th face of the i-th n-simplex, and
    ``degeneracy_columns[n][j][i]`` the index (in dimension ``n+1``) of its
    j-th degeneracy.  ``faces[n][i]`` and ``degeneracies[n][i]`` are the
    same tables as rows, zipped from the columns per dimension on first
    use for API callers; the package reads only the columns.  ``faces[0]``
    and ``degeneracies[dim_cap]`` are empty.  Simplices may carry hashable
    keys (unique per dimension) used by constructors to identify simplices
    structurally, and labels; both are metadata and are ignored by
    equality.  Everything but the columns is made per dimension on first
    use.
    """

    __slots__ = (
        "dim_cap",
        "counts",
        "face_columns",
        "degeneracy_columns",
        "faces",
        "degeneracies",
        "keys",
        "_labels",
        "ids",
        "_key_index",
        "deg_witness",
        "_by_faces",
        "_boundary_bijective",
        "__weakref__",
    )

    def __init__(
        self,
        dim_cap: int,
        counts: tuple[int, ...],
        face_columns: tuple[Columns, ...],
        degeneracy_columns: tuple[Columns, ...],
        keys: Callable[[int], tuple[Hashable, ...]] | None,
        labels: Callable[[int], tuple[str | None, ...]] | None,
    ):
        """The columns are tuples whose shapes and ranges are right; only
        :func:`_sset` calls this, after checking the simplicial identities.
        ``keys`` and ``labels`` are None or makers: ``make(n)`` is the
        n-simplices' keys, or labels, as a tuple; a constructor's keys are
        unique by construction.  Keys and no labels label a simplex by
        ``str`` of its key.  Makers close over columns and counts, never
        over the complex, so that it holds no cycle."""
        self.dim_cap = dim_cap
        self.counts = counts
        self.face_columns = face_columns
        self.degeneracy_columns = degeneracy_columns

        def per_dim(make) -> _PerDim:
            return _PerDim([None] * (dim_cap + 1), make)

        self.faces = per_dim(lambda n: _rows(face_columns[n]))
        self.degeneracies = per_dim(lambda n: _rows(degeneracy_columns[n]))
        self.keys = key_store = None if keys is None else per_dim(keys)
        if labels is None and keys is not None:
            labels = lambda n: tuple(map(str, key_store[n]))  # noqa: E731
        self._labels = label_store = None if labels is None \
            else per_dim(labels)
        self._key_index = None if keys is None else per_dim(
            lambda n: dict(zip(key_store[n], range(counts[n]))))
        # ids[n][i] is the id of the i-th n-simplex
        self.ids = per_dim(lambda n: tuple(map(
            SimplexId, repeat(n), range(counts[n]),
            repeat(None) if label_store is None else label_store[n])))
        # deg_witness[n][i] is the first (b, j) in row order with s_j b = i,
        # or None when the n-simplex i is nondegenerate
        self.deg_witness = per_dim(lambda n: _first_witnesses(
            degeneracy_columns[n - 1], counts[n]) if n else (None,) * counts[0])
        self._by_faces = per_dim(lambda n: _by_face_row(face_columns[n]))
        # per dimension, whether the face-row map onto the compatible
        # boundaries is a bijection (lifting._boundaries_bijective)
        self._boundary_bijective: list[bool | None] = [None] * (dim_cap + 1)

    # -- basic access ------------------------------------------------------

    def label_column(self, n: int) -> tuple[str | None, ...] | None:
        """The labels of the n-simplices in index order (None where a
        simplex has none), or None when the complex carries no labels."""
        return None if self._labels is None else self._labels[n]

    def simplices(self, n: int) -> tuple[SimplexId, ...]:
        _require_dim(n, self.dim_cap)
        return self.ids[n]

    def all_simplices(self) -> Iterator[SimplexId]:
        for per_dim in self.ids:
            yield from per_dim

    def id_at(self, dim: int, index: int) -> SimplexId:
        """The id of the index-th dim-simplex; :class:`IndexOutOfRange`
        outside the cap or the dimension's count."""
        _require_dim(dim, self.dim_cap)
        if not 0 <= index < self.counts[dim]:
            raise IndexOutOfRange(
                f"index {index} outside 0..{self.counts[dim] - 1} at "
                f"dimension {dim}")
        return self.ids[dim][index]

    def id_for_key(self, dim: int, key: Hashable) -> SimplexId:
        """The id of the dim-simplex keyed ``key``; :class:`InvalidInput`
        when no simplex of the dimension has that key."""
        if self._key_index is None:
            raise InvalidInput("complex carries no simplex keys")
        _require_dim(dim, self.dim_cap)
        try:
            return self.ids[dim][self._key_index[dim][key]]
        except (KeyError, TypeError):
            raise InvalidInput(
                f"no {dim}-simplex has the key {key!r}") from None

    def key_of(self, x: SimplexId) -> Hashable:
        if self.keys is None:
            raise InvalidInput("complex carries no simplex keys")
        require_simplex(self, x)
        return self.keys[x.dim][x.index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSSet):
            return NotImplemented
        return (
            self.dim_cap == other.dim_cap
            and self.counts == other.counts
            and self.face_columns == other.face_columns
            and self.degeneracy_columns == other.degeneracy_columns
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TruncatedSSet(cap={self.dim_cap}, counts={self.counts})"

    # -- structure maps ----------------------------------------------------

    def face(self, x: SimplexId, i: int) -> SimplexId:
        """The i-th face of ``x`` (table lookup)."""
        require_simplex(self, x)
        n = x.dim
        if n < 1:
            raise IndexOutOfRange(f"{x!r} is a vertex and has no faces")
        if not 0 <= i <= n:
            raise IndexOutOfRange(f"face index {i} outside 0..{n}")
        return self.ids[n - 1][self.face_columns[n][i][x.index]]

    def degeneracy(self, x: SimplexId, i: int) -> SimplexId:
        """The i-th degeneracy of ``x``; fails loudly at the cap."""
        require_simplex(self, x)
        n = x.dim
        if n >= self.dim_cap:
            raise CapExceeded(
                f"degeneracy of {x!r} would exceed the cap {self.dim_cap}"
            )
        if not 0 <= i <= n:
            raise IndexOutOfRange(f"degeneracy index {i} outside 0..{n}")
        return self.ids[n + 1][self.degeneracy_columns[n][i][x.index]]

    def is_degenerate(self, x: SimplexId) -> bool:
        """True iff ``x`` appears in some degeneracy-table row."""
        require_simplex(self, x)
        if x.dim < 1:
            raise InvalidInput("degeneracy is undefined for vertices")
        return self.deg_witness[x.dim][x.index] is not None

    def nondegenerate(self, n: int) -> tuple[SimplexId, ...]:
        ids = self.simplices(n)
        witness = self.deg_witness[n]
        return tuple(x for x in ids if witness[x.index] is None)

    def degeneracy_witness(self, x: SimplexId) -> tuple[SimplexId, int]:
        """Some ``(y, i)`` with ``s_i y = x``, for degenerate ``x``."""
        require_simplex(self, x)
        got = self.deg_witness[x.dim][x.index]
        if got is None:
            raise InvalidInput(f"{x!r} is not degenerate")
        return self.id_at(x.dim - 1, got[0]), got[1]

    def face_index(self, n: int) -> dict[Row, tuple[int, ...]]:
        """The n-simplices (n >= 1) grouped by face row, indexes ascending."""
        return self._by_faces[n]

    def const(self, x: SimplexId, m: int) -> SimplexId:
        """The constant m-simplex at the vertex ``x`` (iterated s_0)."""
        require_simplex(self, x, 0)
        if m < 0:
            raise InvalidInput(f"constant {m}-simplex: m must be >= 0")
        if m > self.dim_cap:
            raise CapExceeded(f"constant {m}-simplex exceeds cap {self.dim_cap}")
        y = x
        for _ in range(m):
            y = self.degeneracy(y, 0)
        return y

    def apply_monotone(self, y: SimplexId, values: Sequence[int]) -> SimplexId:
        """Image of ``y`` under the operator induced by a monotone map.

        ``values`` lists a weakly increasing map [m] -> [dim y]; the result is
        the m-simplex obtained by the face word for the missed vertices
        followed by the degeneracy word for the repeats (see :meth:`act`).
        """
        require_simplex(self, y)
        p = y.dim
        m = len(values) - 1
        if m < 0 or any(values[i] > values[i + 1] for i in range(m)):
            raise InvalidInput(f"{values!r} is not weakly increasing")
        if values[0] < 0 or values[-1] > p:
            raise InvalidInput(f"{values!r} out of range for [{p}]")
        if m > self.dim_cap:
            raise CapExceeded(f"result dimension {m} exceeds cap {self.dim_cap}")
        return self.id_at(m, self.act(p, values, [y.index])[0])

    def act(self, n: int, values: Sequence[int],
            column: Sequence[int]) -> Sequence[int]:
        """The images of the n-simplices ``column`` under a monotone operator.

        ``values`` lists a weakly increasing map [m] -> [n] with m within
        the cap; it is not checked.  The vertices it misses are deleted from
        the top down, one face pass over the column each; then each repeat
        ``values[t] == values[t + 1]`` applies s_t, in ascending t, one
        degeneracy pass each.
        """
        d = n
        for j in range(n, -1, -1):
            if j not in values:
                column = list(map(self.face_columns[d][j].__getitem__,
                                  column))
                d -= 1
        for t in range(len(values) - 1):
            if values[t] == values[t + 1]:
                column = list(map(
                    self.degeneracy_columns[d][t].__getitem__, column))
                d += 1
        return column


def _require_dim(n: int, cap: int) -> None:
    if not 0 <= n <= cap:
        raise IndexOutOfRange(f"dimension {n} outside 0..{cap}")


def _require_int(name: str, value: object) -> None:
    """Raise :class:`InvalidInput` naming ``name`` unless ``value`` is of
    type ``int`` (so no ``bool``)."""
    if type(value) is not int:
        raise InvalidInput(f"{name} must be an integer, not {value!r}")


# The most simplices a builder makes, and the highest cap it builds to.  A
# complex past either would take gigabytes or hours to build (th0 of the S4
# nerve at cap 4, 346,201 simplices, peaks at about 450 MB when verified),
# so a builder counts its simplices first, and a document past either is
# refused when it is read (:func:`_require_buildable`).
# The largest complexes the tests, CI and the benchmark build have 519,121
# simplices (N S6 at cap 2) and cap 7.
MAX_SIMPLICES = 2_000_000
MAX_CAP = 24


def _require_buildable(what: str, cap: int, counts: Iterable[int]) -> None:
    """Raise :class:`InvalidInput` naming the count unless ``what``, with
    ``counts`` simplices in dimensions 0, 1, ... up to ``cap``, is within
    :data:`MAX_SIMPLICES` and :data:`MAX_CAP`.  The counts are read only
    until their total passes the ceiling, and never past :data:`MAX_CAP`,
    so a builder may refuse before it allocates anything."""
    total = 0
    for m, count in enumerate(islice(counts, min(cap, MAX_CAP) + 1)):
        total += count
        if total > MAX_SIMPLICES:
            raise InvalidInput(
                f"{what} has {total} simplices up to dimension {m}, more "
                f"than the {MAX_SIMPLICES} a complex may have")
    if cap > MAX_CAP:
        raise InvalidInput(f"cap {cap} is above {MAX_CAP}, the highest cap "
                           "a complex may have")


def require_simplex(x: TruncatedSSet, s: SimplexId, dim: int | None = None
                    ) -> None:
    """Raise :class:`InvalidInput` naming ``s`` unless it is a simplex of
    ``x``, of dimension ``dim`` when that is given."""
    if not (0 <= s.dim <= x.dim_cap and 0 <= s.index < x.counts[s.dim]
            and dim in (None, s.dim)):
        what = ("simplex" if dim is None else "vertex" if dim == 0
                else f"{dim}-simplex")
        raise InvalidInput(f"{s!r} is not a {what} of the complex")


def _as_table(raw, what: str) -> Table:
    """The table as tuples, each entry of type ``int`` (so no ``bool``)."""
    try:
        table = tuple(tuple(map(tuple, per_dim)) for per_dim in raw)
    except TypeError as exc:
        raise InvalidInput(f"malformed {what} table: {exc}") from exc
    for n, per_dim in enumerate(table):
        entries = list(chain.from_iterable(per_dim))
        if not set(map(type, entries)) <= {int}:
            e = next(e for e in entries if type(e) is not int)
            raise InvalidInput(
                f"{what} table at dim {n} has an entry that is not an int: "
                f"{e!r}")
    return table


def _checked_columns(rows: Sequence[Row], n: int, count: int, bound: int,
                     what: str, target_dim: int) -> Columns:
    """The columns of the dimension-n table, ``columns[j][x] == rows[x][j]``.

    Checks first that there are ``count`` rows, each of n + 1 entries in
    0..bound-1, over the whole table at once; on failure the first bad row
    or entry, in row order, is reported.
    """
    if len(rows) != count:
        raise InvalidInput(f"{what} table at dim {n} is not index-complete")
    width = n + 1
    flat = list(chain.from_iterable(rows))
    if set(map(len, rows)) <= {width} and (
            not flat or (min(flat) >= 0 and max(flat) < bound)):
        return tuple(tuple(flat[j::width]) for j in range(width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InvalidInput(f"{what} row {n}:{i} must have {width} entries")
        for e in row:
            if not 0 <= e < bound:
                raise DanglingReference(
                    f"{what} entry {n}:{i} -> {target_dim}:{e} does not exist"
                )
    raise AssertionError("no bad row")  # pragma: no cover


def _compose(column: Sequence[int], at: Sequence[int]) -> tuple[int, ...]:
    """``column[v]`` for each v of ``at``, in one C-level pass."""
    if len(at) > 1:
        return itemgetter(*at)(column)
    return tuple(column[v] for v in at)  # itemgetter of one returns no tuple


def _least_mismatch(sides) -> tuple[int, int, int] | None:
    """The least ``(x, j, i)`` with ``lhs[x] != rhs[x]``, or None.

    ``sides`` yields ``(j, i, lhs, rhs)``: the two sides of one identity,
    each a tuple over all simplices x of a dimension.
    """
    least = None
    for j, i, lhs, rhs in sides:
        if lhs != rhs:
            x = next(x for x, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            if least is None or (x, j, i) < least:
                least = (x, j, i)
    return least


def build_sset(
    dim_cap: int,
    counts: Sequence[int],
    face_table: Sequence[Sequence[Sequence[int]]],
    degeneracy_table: Sequence[Sequence[Sequence[int]]],
    *,
    keys: Sequence[Sequence[Hashable]] | None = None,
    labels: Sequence[Sequence[str | None]] | None = None,
) -> TruncatedSSet:
    """Validate tables and return the presented complex.

    ``face_table`` and ``degeneracy_table`` are indexed by dimension
    (``face_table[0]`` and ``degeneracy_table[dim_cap]`` must be empty).
    All simplicial identities that can be stated inside the cap are checked
    eagerly.  Each identity is compared column-wise, for all simplices of a
    dimension at once; the first violation in the order (identity family,
    dimension, simplex, operator indexes) is reported with the identity's
    name, the dimension and the least offending simplex.  Every count and
    table entry must be of type ``int``.
    """
    if callable(keys) or callable(labels):
        raise InvalidInput("keys and labels must be given per dimension")
    if type(dim_cap) is not int or dim_cap < 0:
        raise InvalidInput(f"dim_cap must be a natural number, not {dim_cap!r}")
    counts = tuple(counts)
    for n, c in enumerate(counts):
        if type(c) is not int:
            raise InvalidInput(f"count at dim {n} must be an int, not {c!r}")
    if len(counts) != dim_cap + 1 or any(c < 0 for c in counts):
        raise InvalidInput(f"counts must list dimensions 0..{dim_cap}")
    faces = _as_table(face_table, "face")
    degens = _as_table(degeneracy_table, "degeneracy")
    if len(faces) != dim_cap + 1 or len(degens) != dim_cap + 1:
        raise InvalidInput("tables must be indexed by dimension 0..dim_cap")
    if faces[0] != () or degens[dim_cap] != ():
        raise InvalidInput("faces[0] and degeneracies[dim_cap] must be empty")
    fc = [()] + [
        _checked_columns(faces[n], n, counts[n], counts[n - 1], "face", n - 1)
        for n in range(1, dim_cap + 1)
    ]
    dg = [
        _checked_columns(degens[n], n, counts[n], counts[n + 1],
                         "degeneracy", n + 1)
        for n in range(dim_cap)
    ] + [()]
    if keys is not None:
        keys = tuple(map(tuple, keys))
        if tuple(map(len, keys)) != counts:
            raise InvalidInput("keys must cover every simplex")
        if any(len(set(per_dim)) != len(per_dim) for per_dim in keys):
            raise InvalidInput("keys must be unique within a dimension")
        keys = keys.__getitem__
    if labels is not None:
        labels = tuple(map(tuple, labels))
        if tuple(map(len, labels)) != counts:
            raise InvalidInput("labels must cover every simplex")
        if not all(map(isinstance, chain.from_iterable(labels),
                       repeat((str, NoneType)))):
            raise InvalidInput("labels must be strings or None")
        labels = labels.__getitem__
    return _sset(dim_cap, counts, fc, dg, keys, labels)


def _sset(dim_cap: int, counts: Sequence[int],
          face_columns: Sequence[Sequence[Sequence[int]]],
          degeneracy_columns: Sequence[Sequence[Sequence[int]]],
          keys, labels) -> TruncatedSSet:
    """The complex of the given columns, as tuples, after checking every
    simplicial identity: every complex is made here.

    ``face_columns[n][j][x]`` is the j-th face of the n-simplex x, and
    ``degeneracy_columns[n][j][x]`` its j-th degeneracy.  Their shapes and
    ranges are trusted: for n >= 1, and for n < dim_cap, respectively, n + 1
    columns of ``counts[n]`` entries in range, and none otherwise.
    :func:`build_sset` and ``documents.doc_to_complex`` check what they are
    given; the constructors' columns are right by construction.  ``keys``
    and ``labels`` are None or makers (see :class:`TruncatedSSet`).
    """
    counts = tuple(counts)
    fc = tuple(tuple(map(tuple, per_dim)) for per_dim in face_columns)
    dg = tuple(tuple(map(tuple, per_dim)) for per_dim in degeneracy_columns)
    # d_i d_j = d_{j-1} d_i  (i < j)
    for n in range(2, dim_cap + 1):
        if not counts[n]:
            continue
        f, g = fc[n], fc[n - 1]
        bad = _least_mismatch(
            (j, i, _compose(g[i], f[j]), _compose(g[j - 1], f[i]))
            for j in range(1, n + 1) for i in range(j)
        )
        if bad is not None:
            x, j, i = bad
            raise IdentityViolation(
                f"d_{i} d_{j} != d_{j - 1} d_{i} at dim {n} simplex {x}"
            )
    # s_i s_j = s_{j+1} s_i  (i <= j)
    for n in range(dim_cap - 1):
        if not counts[n]:
            continue
        d, e = dg[n], dg[n + 1]
        bad = _least_mismatch(
            (j, i, _compose(e[i], d[j]), _compose(e[j + 1], d[i]))
            for j in range(n + 1) for i in range(j + 1)
        )
        if bad is not None:
            x, j, i = bad
            raise IdentityViolation(
                f"s_{i} s_{j} != s_{j + 1} s_{i} at dim {n} simplex {x}"
            )
    # mixed identities, stated for x of dimension n with s_j x of dim n+1:
    # d_i s_j = s_{j-1} d_i (i < j), id (i = j, j+1), s_j d_{i-1} (i > j+1)
    for n in range(dim_cap):
        if not counts[n]:
            continue
        d, f1 = dg[n], fc[n + 1]
        everything = tuple(range(counts[n]))

        def want(i: int, j: int) -> tuple[int, ...]:
            if i < j:
                return _compose(dg[n - 1][j - 1], fc[n][i])
            if i in (j, j + 1):
                return everything
            return _compose(dg[n - 1][j], fc[n][i - 1])

        bad = _least_mismatch(
            (j, i, _compose(f1[i], d[j]), want(i, j))
            for j in range(n + 1) for i in range(n + 2)
        )
        if bad is not None:
            x, j, i = bad
            if i < j:
                name = f"d_{i} s_{j} != s_{j - 1} d_{i}"
            elif i in (j, j + 1):
                name = f"d_{i} s_{j} != id"
            else:
                name = f"d_{i} s_{j} != s_{j} d_{i - 1}"
            raise IdentityViolation(f"{name} at dim {n} simplex {x}")

    return TruncatedSSet(dim_cap, counts, fc, dg, keys, labels)


class SimplicialMap:
    """A simplicial map given per dimension by index assignment.

    ``assign[n][i]`` is the target index of the i-th source n-simplex, for
    every ``n`` up to the smaller of the two caps.  Build instances through
    :func:`make_simplicial_map` or :func:`build_map`, which verify
    commutation with every face and degeneracy in range.
    """

    __slots__ = ("source", "target", "assign")

    def __init__(self, source: TruncatedSSet, target: TruncatedSSet,
                 assign: tuple[Row, ...]):
        self.source = source
        self.target = target
        self.assign = assign

    @property
    def depth(self) -> int:
        return len(self.assign) - 1

    def __call__(self, x: SimplexId) -> SimplexId:
        """The image of ``x``; :class:`IndexOutOfRange` unless ``x`` is a
        simplex of the source up to the map's depth."""
        _require_dim(x.dim, self.depth)
        if not 0 <= x.index < self.source.counts[x.dim]:
            raise IndexOutOfRange(f"{x!r} is not a simplex of the source")
        return self.target.ids[x.dim][self.assign[x.dim][x.index]]

    def then(self, other: "SimplicialMap") -> "SimplicialMap":
        """Composite ``other after self`` (validated inputs stay valid).

        Like every map it must cover the smaller of its two ends' caps, so
        a composite through a complex of a smaller cap is refused.
        """
        if other.source is not self.target and other.source != self.target:
            raise InvalidInput("maps are not composable")
        depth = min(self.depth, other.depth)
        ends = (self.source.dim_cap, other.target.dim_cap)
        if depth < min(ends):
            raise InvalidInput(
                f"the composite passes through cap {self.target.dim_cap}, "
                f"below the caps {ends[0]} and {ends[1]} of its ends")
        assign = tuple(
            tuple(other.assign[n][e] for e in self.assign[n])
            for n in range(depth + 1)
        )
        return SimplicialMap(self.source, other.target, assign)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.assign == other.assign
            and self.source == other.source
            and self.target == other.target
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SimplicialMap(depth={self.depth})"


def _gather(rows: Iterable[Sequence[int]], at: Sequence[int]
            ) -> tuple[int, ...]:
    """``row[i]`` for each row of ``rows`` and then each i of ``at``, flat."""
    if len(at) == 1:  # itemgetter of one index returns the entry, no tuple
        return tuple(map(itemgetter(at[0]), rows))
    return tuple(chain.from_iterable(map(itemgetter(*at), rows))) if at \
        else ()


def _shape_fault(source: TruncatedSSet, target: TruncatedSSet,
                 assign: tuple[Row, ...], depth: int) -> ComplicialError | None:
    """The first fault of one assignment's shape: its depth, then per
    dimension its row length, its entries' type ``int`` and their range."""
    if len(assign) != depth + 1:
        return InvalidInput("assignment must cover min of the two caps")
    for n, row in enumerate(assign):
        if len(row) != source.counts[n]:
            return InvalidInput(f"assignment at dim {n} is not index-complete")
        if not set(map(type, row)) <= {int}:
            e = next(e for e in row if type(e) is not int)
            return InvalidInput(
                f"assignment at dim {n} has an entry that is not an int: "
                f"{e!r}")
        if row and (min(row) < 0 or max(row) >= target.counts[n]):
            e = next(e for e in row if not 0 <= e < target.counts[n])
            return DanglingReference(f"assigned target {n}:{e} does not exist")
    return None


def _map_fault(source: TruncatedSSet, target: TruncatedSSet,
               batch: Sequence[tuple[Row, ...]],
               thin: tuple[Sequence[frozenset[int]],
                           Sequence[frozenset[int]]] | None = None
               ) -> ComplicialError | None:
    """The error of the first bad assignment of ``batch``, or None.

    An assignment's faults come in this order: its shape
    (:func:`_shape_fault`); a face, then a degeneracy, it does not commute
    with, by dimension, simplex and operator; with ``thin`` given as the
    source's and the target's thin index sets, a thin simplex sent to a
    non-thin one, by dimension and simplex.  Shapes are tested over the
    whole batch, and the maps are walked only when that fails, up to the
    first bad shape.  The maps before it are read as one map out of copies
    of the source: each operator, and each dimension's thinness, is one
    column over every copy, whose first mismatch (:func:`_least_mismatch`)
    names a map and a simplex; the least (map, fault) is reported.
    """
    depth = min(source.dim_cap, target.dim_cap)

    def stacked(maps):
        # per dimension the maps' rows, and their concatenation
        rows = [[assign[n] for assign in maps] for n in range(depth + 1)]
        return rows, [list(chain.from_iterable(per_n)) for per_n in rows]

    fault = None
    fits = all(len(assign) == depth + 1 for assign in batch)
    if fits:
        rows, flat = stacked(batch)
        fits = all(
            set(map(len, per_n)) <= {source.counts[n]}
            and set(map(type, column)) <= {int} and (not column or (
                min(column) >= 0 and max(column) < target.counts[n]))
            for n, (per_n, column) in enumerate(zip(rows, flat)))
    if not fits:
        shaped, fault = next(
            (b, got) for b, got in enumerate(
                _shape_fault(source, target, assign, depth)
                for assign in batch) if got is not None)
        rows, flat = stacked(batch[:shaped])
    # per kind of fault (0 faces, 1 degeneracies, 2 thinness) and
    # dimension, the least as (map, kind, dim, simplex, operator)
    least = []
    for kind, ops, target_ops, dims, m in (
            (0, source.face_columns, target.face_columns,
             range(1, depth + 1), -1),
            (1, source.degeneracy_columns, target.degeneracy_columns,
             range(depth), 1)):
        for n in dims:
            # op_j f(x) = f(op_j x) for the n-simplices x
            bad = _least_mismatch(
                (j, 0, _compose(t, flat[n]), _gather(rows[n + m], s))
                for j, (s, t) in enumerate(zip(ops[n], target_ops[n])))
            if bad is not None:
                least.append((bad[0] // source.counts[n], kind, n,
                              bad[0] % source.counts[n], bad[1]))
    for n in range(depth + 1 if thin is not None else 0):
        at = sorted(thin[0][n])
        images = _gather(rows[n], at)
        if not thin[1][n].issuperset(images):
            bad = _least_mismatch([(0, 0, tuple(map(
                thin[1][n].__contains__, images)), (True,) * len(images))])
            least.append((bad[0] // len(at), 2, n, at[bad[0] % len(at)], 0))
    if not least:
        return fault
    b, kind, n, i, j = min(least)
    if kind == 2:
        return ThinnessViolation(f"thin {source.ids[n][i]!r} maps to non-thin "
                                 f"{target.ids[n][batch[b][n][i]]!r}")
    return NotWellDefined(f"{('face', 'degeneracy')[kind]} mismatch at dim "
                          f"{n} simplex {i}, {'ds'[kind]}_{j}")


def make_simplicial_map(source: TruncatedSSet, target: TruncatedSSet,
                        assign: Sequence[Sequence[int]]) -> SimplicialMap:
    """Wrap a full index assignment as a map, after validating it
    (:func:`_map_fault`); every entry must be of type ``int``."""
    assign = tuple(map(tuple, assign))
    fault = _map_fault(source, target, [assign])
    if fault is not None:
        raise fault
    return SimplicialMap(source, target, assign)


def build_map(
    source: TruncatedSSet,
    target: TruncatedSSet,
    assignments: Mapping[SimplexId, SimplexId],
) -> SimplicialMap:
    """Extend generator assignments to a validated simplicial map.

    Assignments must be given at least on every nondegenerate simplex of the
    source (up to the shared cap); images of degenerate simplices are
    propagated through the degeneracy tables, and any conflict or remaining
    gap is reported with a witness.
    """
    depth = min(source.dim_cap, target.dim_cap)
    work: list[list[int | None]] = [
        [None] * source.counts[n] for n in range(depth + 1)
    ]
    for x, y in assignments.items():
        if x.dim != y.dim:
            raise InvalidInput(f"{x!r} and {y!r} differ in dimension")
        if x.dim > depth:
            raise InvalidInput(f"{x!r} lies above the shared cap {depth}")
        work[x.dim][x.index] = y.index
    for n in range(depth):
        for i in range(source.counts[n]):
            img = work[n][i]
            if img is None:
                continue
            for j in range(n + 1):
                si = source.degeneracy_columns[n][j][i]
                want = target.degeneracy_columns[n][j][img]
                current = work[n + 1][si]
                if current is not None and current != want:
                    raise NotWellDefined(
                        f"degeneracy propagation conflict at dim {n + 1} "
                        f"simplex {si} (s_{j} of {n}:{i})"
                    )
                work[n + 1][si] = want
    for n in range(depth + 1):
        for i in range(source.counts[n]):
            if work[n][i] is None:
                raise NotWellDefined(
                    f"no assignment reaches dim {n} simplex {i}; generators "
                    "must cover all nondegenerate simplices"
                )
    return make_simplicial_map(source, target, work)  # type: ignore[arg-type]


def identity_map(x: TruncatedSSet) -> SimplicialMap:
    return SimplicialMap(
        x, x, tuple(tuple(range(c)) for c in x.counts)
    )
