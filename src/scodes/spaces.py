"""
Exact linear algebra over GF(q): matrices, reduced row echelon form,
subspaces with canonical generators, distances, duals, pivot vectors,
Ferrers diagrams, and deterministic Grassmannian enumeration.

A subspace's identity is its unique RREF generator matrix.  A `Subspace`
holds those rows themselves, as a tuple of row tuples (`entries`); its
hash and equality go through them and the field, and its pivot columns
are read off them.  `Subspace.rref` is a derived, read-only `MatGF` view
of the rows, built on each read; nothing in the package reads it.  Rows
are checked where they enter a `Subspace` and nowhere after:
`from_matrix` puts any generator through `rref`, and `from_rref` raises
ValueError unless its rows are the RREF generator.  `from_rref` and the
`.scode` reader share one shape check, `Subspace._if_rref`, on the rows'
leads (`_unit_lead`): rows whose leads strictly increase and are each 1, with
every earlier row zero at every later lead, are in RREF, which is unique.
Builders whose rows are RREF by construction (`_lifted_span`,
`subspace_from_filling`, `enumerate_grassmannian`, `zero`, `full`, and the
lifts, embeddings and coset words of `constructions`) use the private,
unchecked `Subspace._trusted`, passing the pivots where they know them;
only the exact scan in `verify` checks stored rows again.

Linear codes are enumerated by the one span builder, `_span`, which lives
here because it is plain GF(q) linear algebra; `rankmetric` and
`constructions` import it.  `_lifted_span` is the one layout from
Ferrers-diagram cells to subspace rows: it lays a basis over the cells of
a pivot vector's diagram into that vector's rows and spans it from the
pivots' unit rows, so every lifted MRD code and multilevel diagram code
comes straight from its basis.  When the basis shows that rows repeat
across words, each distinct row is built once and the words hold it
shared.  `rankmetric._diagram_words` is its rank-metric counterpart: the
same cells laid out as matrices.

Distances need the rank of U and W stacked: each RREF row of W is reduced
against U's RREF rows, and the rows kept so far, at their pivot columns
with `FieldSpec.rowop`, and an optional rank cap stops the reduction once
the rank reaches it.  There is no q-specific path.

Every row operation (a - f*b while eliminating or subtracting, f*a while
normalizing a pivot) is one `FieldSpec.rowop` call.  For
q*q <= 2^16 it runs on the row tables the field built at construction, so
an eliminated entry costs one add[x][negmul[f][y]] lookup; larger fields
run the same loop on the per-element methods.  RREF checks that every
entry lies in [0, q) and keeps the rows that no operation touches as the
tuples they were.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Iterator, Optional, Sequence

from .gfq import GF, FieldSpec
from .qcombi import gauss_binomial

_ENUM_CAP = 10**7


class MatGF:
    """Immutable matrix over a FieldSpec; entries are int encodings."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence[int]], cols: Optional[int] = None):
        rows = tuple(map(tuple, entries))  # rows that are tuples already are kept, not copied
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if rows and set(map(len, rows)) != {cols}:
            raise ValueError("ragged matrix")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    @classmethod
    def _trusted(cls, field: FieldSpec, rows: tuple[tuple[int, ...], ...], cols: int) -> "MatGF":
        """The matrix of `rows`, a tuple of tuples of `cols` entries each,
        taken as it is: nothing is copied or checked."""
        M = object.__new__(cls)
        M.field, M.rows, M.cols, M.entries = field, len(rows), cols, rows
        return M

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "MatGF":
        return cls(field, [(0,) * cols] * rows, cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatGF":
        return cls(field, [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)], n)

    def vstack(self, other: "MatGF") -> "MatGF":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return MatGF(self.field, self.entries + other.entries, self.cols)

    def sub(self, other: "MatGF") -> "MatGF":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ValueError("shape or field mismatch")
        rowop = self.field.rowop
        return MatGF(self.field, [rowop(ra, 1, rb) for ra, rb in zip(self.entries, other.entries)], self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatGF)
            and self.field == other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "\n".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"MatGF({self.field}, {self.rows}x{self.cols})\n{body}"


def _check_entries(rows: Sequence[Sequence[int]], q: int) -> None:
    """ValueError unless every entry of `rows`, rows of one length, lies in
    [0, q); `rref` and `Subspace.from_rref` check their input with it."""
    if rows and rows[0] and (min(map(min, rows)) < 0 or max(map(max, rows)) >= q):
        raise ValueError(f"matrix entry outside [0, {q})")


def rref(M: MatGF) -> tuple[MatGF, list[int]]:
    """Reduced row echelon form and pivot column indices (deterministic).

    Raises ValueError for an entry outside [0, q).  Rows are eliminated
    with `FieldSpec.rowop`; a row that no operation touches stays the tuple
    it was in M.  The result is built once, through `MatGF._trusted`."""
    F = M.field
    rows: list[Sequence[int]] = list(M.entries)
    nrows, ncols = M.rows, M.cols
    _check_entries(rows, F.q)
    rowop = F.rowop
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for sel in range(r, nrows):
            if rows[sel][c]:
                break
        else:
            continue
        lead = rows[sel]
        if sel != r:
            rows[sel] = rows[r]
        if lead[c] != 1:
            lead = rowop(lead, F.inv(lead[c]))
        rows[r] = lead
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = rowop(row, row[c], lead)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return MatGF._trusted(F, tuple(map(tuple, rows)), ncols), pivots


def rank(M: MatGF) -> int:
    return len(rref(M)[1])


def _unit_lead(row: Sequence[int]) -> Optional[int]:
    """The column of row's first nonzero entry when that entry is 1; None
    when it is not 1 or the row is zero, since no RREF row is like that."""
    for j, x in enumerate(row):
        if x:
            return j if x == 1 else None
    return None


@dataclass(frozen=True)
class FerrersDiagram:
    """Right-justified dot diagram; row_lengths top to bottom, weakly
    decreasing and >= 0 (ValueError otherwise), as `ferrers_of` derives
    them from a pivot vector."""

    row_lengths: tuple[int, ...]

    def __post_init__(self):
        r = self.row_lengths
        if any(a < b for a, b in zip(r, r[1:])) or (r and r[-1] < 0):
            raise ValueError(f"row lengths must be weakly decreasing and >= 0, got {r}")

    @property
    def num_rows(self) -> int:
        return len(self.row_lengths)

    @property
    def num_cols(self) -> int:
        return max(self.row_lengths, default=0)

    def dot_count(self) -> int:
        return sum(self.row_lengths)

    def cells(self) -> list[tuple[int, int]]:
        """Dot coordinates (row, col) in the num_rows x num_cols bounding
        box; row i occupies the rightmost row_lengths[i] columns."""
        m = self.num_cols
        return [(i, j) for i, l in enumerate(self.row_lengths) for j in range(m - l, m)]

    def rectangular(self) -> bool:
        """Whether the nonzero rows share one length (zero rows are ignored),
        so the dots fill a rectangle; the diagram-code constructions of
        `rankmetric` and the multilevel bound of `bounds` all use this test."""
        return len(set(self.row_lengths) - {0}) <= 1


class Subspace:
    """A k-subspace of GF(q)^n held by its canonical RREF generator rows,
    `entries`, a tuple of k row tuples of n entries each, built through
    `from_matrix` or `from_rref` (see the module docstring).  Equality and
    the hash go through `entries`; `rref` is a derived read-only view of
    them as a `MatGF`, built on each read.  Its pivot columns are kept as a
    tuple (`pivot_positions()`), which the distance kernel, `dual` and
    `contains_vector` read; the 0/1 `pivot` vector is computed from them on
    read."""

    __slots__ = ("field", "ambient_n", "k", "entries", "_pivots", "_hash")

    @classmethod
    def _trusted(cls, field: FieldSpec, ambient_n: int, rows: Sequence[tuple[int, ...]],
                 pivots: Optional[Sequence[int]] = None) -> "Subspace":
        """The subspace whose RREF generator is `rows`, row tuples with
        ambient_n entries each, kept as their tuple: no row is copied or
        checked (a list row makes the hash raise TypeError at once).
        `pivots`, the rows' pivot columns, is read off the rows unless the
        caller knows it: lifts, Construction D words, Ferrers fillings,
        `from_matrix`, and `_if_rref` once the rows pass its shape check
        (the `.scode` reader sends a word that fails it to `from_matrix`)."""
        rows = tuple(rows)  # a tuple is kept as it is
        U = object.__new__(cls)
        U.field, U.ambient_n, U.entries, U.k = field, ambient_n, rows, len(rows)
        U._pivots = tuple([row.index(1) for row in rows] if pivots is None else pivots)
        U._hash = hash((field._hash, ambient_n, rows))
        return U

    @property
    def rref(self) -> MatGF:
        """The RREF generator as a matrix: a view of `entries`, not stored."""
        return MatGF._trusted(self.field, self.entries, self.ambient_n)

    @classmethod
    def from_matrix(cls, M: MatGF) -> "Subspace":
        E, pivots = rref(M)
        # the zero rows follow the pivot rows; a full-rank slice is the tuple itself
        return cls._trusted(M.field, M.cols, E.entries[: len(pivots)], pivots)

    @classmethod
    def from_rref(cls, field: FieldSpec, ambient_n: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """The subspace whose RREF generator is `rows`; ValueError unless
        the rows are exactly that (no zero row, entries in [0, q))."""
        E = MatGF(field, rows, ambient_n).entries
        _check_entries(E, field.q)
        U = cls._if_rref(field, ambient_n, E, [_unit_lead(row) for row in E])
        if U is None:
            raise ValueError("rows are not in RREF")
        return U

    @classmethod
    def _if_rref(cls, field: FieldSpec, ambient_n: int, rows: tuple[tuple[int, ...], ...],
                 leads: Sequence[Optional[int]]) -> Optional["Subspace"]:
        """The subspace whose RREF generator is `rows`, or None when the rows
        are not in RREF.  `leads` are the rows' `_unit_lead`s.  The rows are
        in RREF when every lead is set, the leads strictly increase and each
        earlier row is zero at every later lead; RREF is unique, so they are
        then the generator and `leads` its pivots.  Entries are not checked:
        `from_rref` and the `.scode` reader check them first."""
        last = -1
        for i, p in enumerate(leads):
            if p is None or p <= last:
                return None
            for row in rows[:i]:
                if row[p]:
                    return None
            last = p
        return cls._trusted(field, ambient_n, rows, leads)

    @classmethod
    def zero(cls, field: FieldSpec, ambient_n: int) -> "Subspace":
        return cls._trusted(field, ambient_n, ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_n: int) -> "Subspace":
        return cls._trusted(field, ambient_n, MatGF.identity(field, ambient_n).entries)

    def pivot_positions(self) -> tuple[int, ...]:
        return self._pivots

    @property
    def pivot(self) -> tuple[int, ...]:
        """The pivot vector v(U): 1 at each pivot column, 0 elsewhere."""
        v = [0] * self.ambient_n
        for p in self._pivots:
            v[p] = 1
        return tuple(v)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        """Whether vec lies in the subspace; ValueError unless vec has
        ambient_n entries, each in [0, q)."""
        v = list(vec)
        if len(v) != self.ambient_n or (v and (min(v) < 0 or max(v) >= self.field.q)):
            raise ValueError(f"not a vector of GF({self.field.q})^{self.ambient_n}")
        rowop = self.field.rowop
        for row, p in zip(self.entries, self._pivots):
            if v[p]:
                v = rowop(v, v[p], row)
        return not any(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.field is other.field or self.field == other.field)
            and self.ambient_n == other.ambient_n
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim {self.k} of {self.field}^{self.ambient_n}, pivot {''.join(map(str, self.pivot))})"


def subspace_distance(U: Subspace, W: Subspace) -> int:
    """dim(U+W) - dim(U∩W) = 2 rank(stack) - dim U - dim W."""
    _check_same_ambient(U, W)
    return 2 * _stack_rank(U, W) - U.k - W.k


def subspace_distance_capped(U: Subspace, W: Subspace, cap_distance: int) -> int:
    """Like subspace_distance but may return early with any value
    >= cap_distance once the distance is known to reach it."""
    _check_same_ambient(U, W)
    return 2 * _stack_rank(U, W, cap=(cap_distance + U.k + W.k + 1) // 2) - U.k - W.k


def injection_distance(U: Subspace, W: Subspace) -> int:
    _check_same_ambient(U, W)
    return _stack_rank(U, W) - min(U.k, W.k)


def _check_same_ambient(U: Subspace, W: Subspace) -> None:
    if U.ambient_n != W.ambient_n or (U.field is not W.field and U.field != W.field):
        raise ValueError("ambient space mismatch")


def _stack_rank(U: Subspace, W: Subspace, cap: Optional[int] = None) -> int:
    """Rank of U's rows stacked on W's, or some value >= cap once the rank
    reaches cap.

    Each RREF row of W is reduced at the pivot columns of U's rows and of
    the rows kept so far; a nonzero remainder is scaled to a leading 1 and
    kept.  A kept row is zero at every pivot before its own, so one pass in
    order clears them all."""
    F = U.field
    rowop, inv = F.rowop, F.inv
    basis = list(zip(U._pivots, U.entries))
    r = U.k
    for w in W.entries:
        if cap is not None and r >= cap:
            break
        for p, row in basis:
            if w[p]:
                w = rowop(w, w[p], row)
        x = next(filter(None, w), 0)
        if not x:
            continue
        basis.append((w.index(x), rowop(w, inv(x)) if x != 1 else w))
        r += 1
    return r


def dual(U: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    n = U.ambient_n
    return Subspace.from_matrix(MatGF(U.field, _null_space(U.field, U.entries, U._pivots, n), n))


def _null_space(F: FieldSpec, rows: Sequence[Sequence[int]], pivots: Sequence[int], n: int) -> list[list[int]]:
    """Basis of {x in GF(q)^n : row . x = 0 for every row}, for `rows` in
    RREF with these pivot columns: e_f - sum_p row[f] e_p for each free
    column f, in column order."""
    pivset = set(pivots)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = F.neg(row[f])
        basis.append(v)
    return basis


def hamming_distance(v: Sequence[int], w: Sequence[int]) -> int:
    if len(v) != len(w):
        raise ValueError("length mismatch")
    return sum(1 for a, b in zip(v, w) if a != b)


def ferrers_of(v: Sequence[int]) -> FerrersDiagram:
    """Diagram of free entries: row per pivot, one dot per later zero."""
    n = len(v)
    zeros_after = 0
    lengths_rev = []
    for j in range(n - 1, -1, -1):
        if v[j]:
            lengths_rev.append(zeros_after)
        else:
            zeros_after += 1
    return FerrersDiagram(tuple(reversed(lengths_rev)))


def subspace_from_filling(field: FieldSpec, v: Sequence[int], filling: Sequence[Sequence[int]]) -> Subspace:
    """
    Build the subspace with pivot vector v whose free entries are given by
    a right-justified filling of the Ferrers diagram of v.

    `filling` is a num_rows x num_cols matrix (row lengths per the diagram,
    left cells outside the diagram ignored/zero).  Raises ValueError for a
    diagram entry outside [0, q).
    """
    entries = [filling[i][j] for i, j in ferrers_of(v).cells()]
    if entries and (min(entries) < 0 or max(entries) >= field.q):
        raise ValueError(f"filling entry outside [0, {field.q})")
    return _lifted_span(field, v, [], entries)[0]


def _span(field: FieldSpec, basis: Sequence[Sequence[int]],
          origin: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """Every GF(q)-combination of `basis`, plus `origin` (the zero vector
    when None), in itertools.product order over the coefficient tuples
    (basis[0]'s coefficient varies slowest); an empty basis gives the
    origin alone.

    The basis is taken last vector first (`_extend`): the words so far are
    followed by each of them plus c*b, for c = 1..q-1 in turn.  So each
    word costs one vector addition, made by `map` at C speed on the
    field's addition table rows (add[y][x] = x + y) when the field has
    them."""
    span = [(0,) * (len(basis[0]) if basis else 0) if origin is None else tuple(origin)]
    return _extend(span, [_shifts(field, b) for b in basis])


def _shifts(field: FieldSpec, b: Sequence[int]) -> list[tuple]:
    """For c = 1..q-1 in turn, a (function, operands) pair such that
    tuple(map(function, operands, v)) is v + c*b."""
    add = field._rows[0] if field._rows else None
    return [(getitem, [add[y] for y in cb]) if add else (field.add, cb)
            for cb in [field.rowop(b, c) for c in range(1, field.q)]]


def _extend(span: list[tuple], steps: Sequence[Sequence[tuple]]) -> list[tuple]:
    """`span` followed by its images under each step list, last list first:
    for each (function, operands) pair of a list in turn, every vector v so
    far gives tuple(map(function, operands, v)).  `_span` spans vectors
    with it and `_lifted_span` spans row indices."""
    for vec_steps in reversed(steps):
        span += [tuple(map(f, s, v)) for f, s in vec_steps for v in span]
    return span


def _lifted_span(field: FieldSpec, v: Sequence[int], basis: Sequence[Sequence[int]],
                 origin: Sequence[int] | None = None) -> tuple[Subspace, ...]:
    """The subspaces with pivot vector v whose free entries, read at the
    cells of `ferrers_of(v)` in `FerrersDiagram.cells()` order, are
    `origin` (zero when None) plus each vector of the `_span` of `basis`,
    in `_span` order.

    Cell c of row i is laid at the c-th free column after pivot p_i, and
    row i starts from the unit row at p_i plus the laid-out origin; every
    word shares one pivots tuple.  Row i of the words runs over its start
    row plus the span of the basis restricted to row i, q^r_i rows for
    r_i that restriction's rank.  When the rows repeat, that is when
    sum_i q^r_i * dim * (q-1) < q^dim for a basis of dim vectors, each
    row position's q^r_i rows are built once, in `_span` order from its
    start row, and the words' row indices are spanned instead (`_extend`),
    through one permutation table per basis vector, coefficient and
    position: every word is a tuple of shared row tuples.  Otherwise each
    span vector is one word's k rows end to end, freed as its word is
    built."""
    n, q, dim = len(v), field.q, len(basis)
    pivots = tuple(j for j, b in enumerate(v) if b)
    free = [[j for j in range(p + 1, n) if not v[j]] for p in pivots]

    def rows_of(vec: Sequence[int]) -> list[list[int]]:
        cells, rows = iter(vec), [[0] * n for _ in pivots]
        for row, cols in zip(rows, free):
            for j, x in zip(cols, cells):  # zip asks `cols` first, so no cell is lost
                row[j] = x
        return rows

    start = rows_of(origin or ())  # the origin's cells are free columns
    for row, p in zip(start, pivots):
        row[p] = 1
    laid = [rows_of(b) for b in basis]
    reduced = [rref(MatGF(field, [b[i] for b in laid], n)) for i in range(len(pivots))]
    if sum(q ** len(piv) for _, piv in reduced) * dim * (q - 1) >= q ** dim:
        words = _span(field, [[x for row in b for x in row] for b in laid], [x for row in start for x in row])
        cuts = [slice(i * n, (i + 1) * n) for i in range(len(pivots))]
        for i, w in enumerate(words):  # in place: each span vector is freed as its word is built
            words[i] = Subspace._trusted(field, n, tuple(map(w.__getitem__, cuts)), pivots)
        return tuple(words)
    distinct = []  # per position: its rows, in `_span` order from its start row
    tables = []  # per position, basis vector and coefficient: where adding c*b sends each row
    for i, (E, piv) in enumerate(reduced):
        rows = _span(field, E.entries[: len(piv)], start[i])
        where = {row: x for x, row in enumerate(rows)}
        distinct.append(rows)
        tables.append([[[where[tuple(map(f, s, row))] for row in rows] for f, s in _shifts(field, b[i])]
                       for b in laid])
    steps = [[(getitem, [t[j][c] for t in tables]) for c in range(q - 1)] for j in range(dim)]
    words = _extend([(0,) * len(pivots)], steps)
    for i, w in enumerate(words):  # in place: each index tuple is freed as its word is built
        words[i] = Subspace._trusted(field, n, tuple(map(getitem, distinct, w)), pivots)
    return tuple(words)


def enumerate_grassmannian(q: int, n: int, k: int) -> Iterator[Subspace]:
    """
    All k-subspaces of GF(q)^n, each exactly once, in canonical order:
    pivot supports in lexicographic order, then free entries counted base q.
    Raises ValueError above _ENUM_CAP subspaces.
    """
    total = gauss_binomial(n, k, q)
    if total > _ENUM_CAP:
        raise ValueError(f"Grassmannian size {total} exceeds cap {_ENUM_CAP}")
    field = GF(q)
    for rows in _grassmannian_rows(q, n, k):
        yield Subspace._trusted(field, n, rows)


def _grassmannian_rows(q: int, n: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The RREF rows of every k-subspace of GF(q)^n, in the order of
    `enumerate_grassmannian`, with no cap and no `Subspace` built."""
    for piv in itertools.combinations(range(n), k):  # k = 0 gives one empty support: the zero space
        free_cells = [(i, j) for i, p in enumerate(piv) for j in range(p + 1, n) if j not in piv]
        units = [[int(j == p) for j in range(n)] for p in piv]
        for counter in range(q ** len(free_cells)):
            rows = [u.copy() for u in units]
            c = counter
            for (i, j) in free_cells:
                rows[i][j] = c % q
                c //= q
            yield tuple(map(tuple, rows))


def permute_columns(U: Subspace, perm: Sequence[int]) -> Subspace:
    """Apply a column permutation; perm[j] = image of column j (0-based)."""
    n = U.ambient_n
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the columns")
    rows = []
    for row in U.entries:
        new = [0] * n
        for j, x in enumerate(row):
            new[perm[j]] = x
        rows.append(new)
    return Subspace.from_matrix(MatGF(U.field, rows, n))
