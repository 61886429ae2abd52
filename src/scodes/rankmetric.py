"""
Rank-metric code machinery: maximum-size bounds, the evaluation-code
construction of linear MRD codes, rank distributions of additive MRD codes,
rank-restricted codes, MRD coset partitions, sum-rank codes, and
Ferrers-diagram rank-metric codes.

Explicit codes are materialized as tuples of matrices; a construction that
would exceed `MATERIALIZE_CAP` words, the one materialization limit, raises
instead of thrashing.  Which code a Ferrers diagram gets, and whether it
meets the dot-count bound without search (`_fdrm_meets_bound`), is decided
here alone; `bounds` books multilevel sizes through the same predicate.  Linear
codes are enumerated by the one span builder, `spaces._span`, so only their
basis words need field products: a Gabidulin code costs m*n*k
extension-field products in all, not m*k per word.

Every rank-metric code built here is GF(q)-linear and given by a basis
over the cells of a Ferrers diagram in `FerrersDiagram.cells()` order, and
one function, `_diagram_words`, lays its span vectors out as matrices: row
i of a word is the next row_lengths[i] entries, right-justified.  A
rows x cols MRD code (`rect_mrd`, and `gabidulin` with it) is the span of
the rectangle's Gabidulin basis from `_fdrm_rect_subcode`, transposed when
rows > cols.  A diagram code's basis comes from `_fdrm_basis`: the unit
vectors at delta = 1, the Gabidulin basis of the best rectangle, the
delta = 2 kernel (`_fdrm_delta2`) or the greedy basis (`_fdrm_greedy`),
and no vector for the single zero word.  `constructions` lays the same
bases out in a pivot vector's rows with `spaces._lifted_span`, whose rows
are RREF by construction, so its subspaces come straight from the span
vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .gfq import GF, ExtField, FieldSpec
from .qcombi import gauss_binomial
from .spaces import FerrersDiagram, MatGF, _null_space, _span, rank, rref

MATERIALIZE_CAP = 1 << 21


@dataclass(frozen=True)
class RankCode:
    """A set of m x n matrices over GF(q) with declared min rank distance d."""

    field: FieldSpec
    m: int
    n: int
    d: int
    words: tuple[MatGF, ...]

    def __len__(self) -> int:
        return len(self.words)


def rank_distance(A: MatGF, B: MatGF) -> int:
    return rank(A.sub(B))


def mrd_size(q: int, m: int, n: int, d: int) -> int:
    """Largest possible cardinality of an (m x n, d) rank-metric code."""
    if min(m, n, d) < 1:
        raise ValueError("m, n, d must be >= 1")
    if d > min(m, n):
        return 1
    return q ** (max(m, n) * (min(m, n) - d + 1))


def gabidulin(q: int, n: int, m: int, d: int) -> RankCode:
    """
    Linear MRD code of m x n matrices over GF(q) with min rank distance d,
    1 <= d <= m <= n: `rect_mrd(q, m, n, d)`.

    Words are the evaluations of the polynomials sum_j f_j z^(q^j) of
    q-degree <= m-d at the first m monomials of the polynomial basis of
    GF(q^n) over GF(q); each value's coefficient tuple is one matrix row.
    They come in itertools.product order over the coefficient tuples
    (f_0, ..., f_(k-1)), each f_j in `ExtField.elements()` order, so
    f_(k-1) varies fastest; `mrd_coset_partition` slices the words by that
    order.
    """
    if not (1 <= d <= m <= n):
        raise ValueError(f"need 1 <= d <= m <= n, got d={d} m={m} n={n}")
    return rect_mrd(q, m, n, d)


def _gabidulin_basis(q: int, n: int, m: int, d: int) -> list[list[int]]:
    """The n*k basis words of `gabidulin(q, n, m, d)`, k = m-d+1, each an
    m x n matrix with its rows laid end to end: the evaluations of
    x^t z^(q^j) for j = 0..k-1 and, within each j, t = n-1 down to 0, so
    f_0's top digit comes first.  Needs 1 <= d <= m <= n; ValueError for
    a code over `MATERIALIZE_CAP` words."""
    k = m - d + 1
    if q ** (n * k) > MATERIALIZE_CAP:  # before the field: its modulus search costs more as n grows
        raise ValueError(f"code size {q}^{n * k} exceeds materialization cap {MATERIALIZE_CAP}")
    E = ExtField(GF(q), n)
    conj = [[E.basis(i) for i in range(m)]]
    while len(conj) < k:
        conj.append([E.frobenius_q(z) for z in conj[-1]])
    return [[c for z in zs for c in E.mul(E.basis(t), z)] for zs in conj for t in reversed(range(n))]


def rect_mrd(q: int, rows: int, cols: int, d: int) -> RankCode:
    """MRD code of rows x cols matrices: the `_diagram_words` of the span of
    the rectangle's `_fdrm_rect_subcode` basis, the Gabidulin basis laid
    out transposed when rows > cols.

    For d > min(rows, cols) the only possibility is a single word."""
    field = GF(q)
    if d > min(rows, cols):
        return RankCode(field, rows, cols, d, (MatGF.zero(field, rows, cols),))
    F = FerrersDiagram((cols,) * rows)
    return RankCode(field, rows, cols, d, _diagram_words(field, F, _span(field, _fdrm_rect_subcode(F, d, q))))


def rank_distribution(q: int, m: int, n: int, d: int, r: int) -> int:
    """Number of words of rank r in an additive MRD (m x n, d) code."""
    lo, hi = min(m, n), max(m, n)
    if r == 0:
        return 1
    if r < 0 or r > lo:
        return 0
    if r < d:
        return 0
    total = 0
    for s in range(r - d + 1):
        term = (-1) ** s * q ** comb(s, 2) * gauss_binomial(r, s, q) * (q ** (hi * (r - d - s + 1)) - 1)
        total += term
    return gauss_binomial(lo, r, q) * total


def restricted_rank_code(q: int, m: int, n: int, d: int, R: Iterable[int]) -> RankCode:
    """Materialize a rank-restricted code by filtering an explicit MRD code
    (size permitting); its size is the sum of `rank_distribution` over R."""
    R = frozenset(R)
    base_code = rect_mrd(q, m, n, d)
    words = tuple(w for w in base_code.words if rank(w) in R)
    return RankCode(base_code.field, m, n, d, words)


def mrd_coset_partition(q: int, m: int, n: int, d: int, dprime: int) -> list[RankCode]:
    """
    Partition a distance-d linear MRD code of m x n matrices (m <= n) into
    cosets of its distance-d' subcode: each coset keeps min distance >= d',
    distinct cosets stay >= d apart, and the union is the whole code.
    """
    if not (1 <= d <= dprime <= m <= n):
        raise ValueError("need 1 <= d <= d' <= m <= n")
    # `gabidulin` enumerates coefficient tuples with the highest q-degree
    # varying fastest, so the words sharing their d'-d highest coefficients
    # (one coset of the q-degree <= m-d' subcode) are every stride-th word.
    code = gabidulin(q, n, m, d)
    stride = q ** (n * (dprime - d))
    return [RankCode(code.field, m, n, dprime, code.words[h::stride]) for h in range(stride)]


# -- sum-rank codes ----------------------------------------------------------


@dataclass(frozen=True)
class SumRankCode:
    field: FieldSpec
    shapes: tuple[tuple[int, int], ...]
    d: int
    words: tuple[tuple[MatGF, ...], ...]

    def __len__(self) -> int:
        return len(self.words)


def sum_rank(word: Sequence[MatGF]) -> int:
    return sum(rank(m) for m in word)


def sumrank_distance(x: Sequence[MatGF], y: Sequence[MatGF]) -> int:
    return sum(rank(a.sub(b)) for a, b in zip(x, y))


def two_block_sumrank_code(q: int) -> SumRankCode:
    """
    A ((3x3, 3x3), distance-3) sum-rank code with all sum-ranks <= 3 and
    cardinality q^5 + q^4 + 2q^3 - q^2 - q, assembled from three pieces:

      * the zero tuple;
      * all rank-1 left blocks index-paired with the rank-2 words of an
        additive (3x3, 2) MRD code;
      * the q^3 - 1 invertible multiplication matrices paired with zero,
        topped up by (0, D) for a rank-3 word D of the same MRD code.

    The final word replaces the zero word that a plain product with the
    full multiplication-matrix code would duplicate; D's membership in the
    distance-2 MRD code keeps it >= 2 away from every rank-2 right block.
    """
    base = GF(q)
    zero3 = MatGF.zero(base, 3, 3)

    # rank-1 matrices: outer products of projective u with nonzero v
    rank_one = []
    vecs = [v for v in itertools.product(range(q), repeat=3) if any(v)]
    proj = [v for v in vecs if v[next(i for i, x in enumerate(v) if x)] == 1]
    for u in proj:
        for v in vecs:
            rank_one.append(MatGF(base, [base.rowop(v, a) for a in u], 3))

    mrd2 = gabidulin(q, 3, 3, 2)
    rank_two = [w for w in mrd2.words if rank(w) == 2]
    assert len(rank_one) == len(rank_two)

    mono = gabidulin(q, 3, 3, 3)
    invertible = tuple(w for w in mono.words if rank(w) == 3)
    d_word = next(w for w in mrd2.words if rank(w) == 3)

    words = [(zero3, zero3)]
    # index-paired blocks at rank distances >= 1 and >= 2: sum-rank distance >= 3
    words.extend(zip(rank_one, rank_two))
    words.extend((w, zero3) for w in invertible)
    words.append((zero3, d_word))
    return SumRankCode(base, ((3, 3), (3, 3)), 3, tuple(words))


# -- Ferrers-diagram rank-metric codes ---------------------------------------


def fdrm_upper_bound(F: FerrersDiagram, delta: int, q: int) -> int:
    """q to the minimum, over 0 <= i < delta, of the number of dots neither
    in the first i rows nor in the last delta-1-i columns."""
    return q ** _fdrm_exponent(F.row_lengths, delta)


def _fdrm_exponent(row_lengths: Sequence[int], delta: int) -> int:
    """The exponent of `fdrm_upper_bound` for a diagram with these row
    lengths (top to bottom, right-justified): t columns trimmed and
    delta-1-t rows skipped, minimized over t."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return min([sum([l - t for l in row_lengths[delta - 1 - t:] if l > t]) for t in range(delta)])


def _diagram_words(field: FieldSpec, F: FerrersDiagram, vectors: Iterable[tuple[int, ...]]) -> tuple[MatGF, ...]:
    """The num_rows x num_cols matrices whose cells of F, in
    `FerrersDiagram.cells()` order, hold each vector's entries: row i is
    the next row_lengths[i] entries, right-justified.  Every rank-metric
    code here is laid out by this one function; its callers pass span
    vectors or all fillings, entries in [0, q) by construction, so
    nothing is checked."""
    cuts = list(itertools.accumulate(F.row_lengths, initial=0))
    rows = [((0,) * (F.num_cols - l), a, b) for l, a, b in zip(F.row_lengths, cuts, cuts[1:])]
    return tuple([MatGF._trusted(field, tuple([pad + v[a:b] for pad, a, b in rows]), F.num_cols)
                  for v in vectors])


def _fdrm_delta2(F: FerrersDiagram, q: int) -> list[list[int]]:
    """
    Basis of a distance-2 code meeting the dot-count bound: the kernel of
    one GF(q^t)-valued check, t = max(top row, last column).

    Cell (i, j) gets coefficient x^i * g_j in GF(q^t) with g_j = x^j; the
    g_j are independent over GF(q), so a rank-one filling u v^T maps to
    u * sum_j v_j g_j != 0 and is excluded, while the check is onto.
    """
    field = GF(q)
    cells = F.cells()
    t = max(F.num_cols, len(F.row_lengths) - F.row_lengths.count(0))
    if q ** (len(cells) - t) > MATERIALIZE_CAP:  # the check is onto: the kernel has this size
        raise ValueError("distance-2 diagram code too large to materialize")
    E = ExtField(field, t)
    coeff = []
    for (i, j) in cells:
        coeff.append(E.mul(E.basis(i), E.basis(j)))
    # t x #dots system over GF(q)
    A = MatGF(field, [[c[s] for c in coeff] for s in range(t)], len(cells))
    Ech, pivots = rref(A)
    assert len(pivots) == t, "check map unexpectedly not onto"
    return _null_space(field, Ech.entries, pivots, len(cells))


def _fdrm_rect_subcode(F: FerrersDiagram, delta: int, q: int) -> list[list[int]]:
    """Basis of an MRD code on the best rectangular sub-diagram (top r rows
    times the r-th row length, right justified) -- the whole diagram when
    it is rectangular, and the cheap all-purpose fallback otherwise.  A
    zero row scores 1 and is never chosen.

    The `_gabidulin_basis` words are laid into the diagram's cells,
    transposed when r > width; on a rectangle this basis is `rect_mrd`'s,
    and a rectangle of one word gives no basis vector."""
    best = (1, 1, F.num_cols)
    for r, width in enumerate(F.row_lengths, 1):
        size = mrd_size(q, r, width, delta) if width else 1
        if size > best[0]:
            best = (size, r, width)
    size, r, width = best
    if size == 1:
        return []
    # entry (i, j) of the r x width rectangle is cell ends[i] - width + j
    ends = list(itertools.accumulate(F.row_lengths[:r]))
    if r <= width:
        at = [ends[i] - width + j for i in range(r) for j in range(width)]
        inner = _gabidulin_basis(q, width, r, delta)
    else:  # entry (j, i) of a width x r word, transposed
        at = [ends[i] - width + j for j in range(width) for i in range(r)]
        inner = _gabidulin_basis(q, r, width, delta)
    basis = [[0] * F.dot_count() for _ in inner]
    for vec, word in zip(basis, inner):
        for c, x in zip(at, word):
            vec[c] = x
    return basis


def _fdrm_greedy(F: FerrersDiagram, delta: int, q: int) -> list[tuple[int, ...]]:
    """Basis of a greedy linear code over the fillings of a diagram with at
    most 2^16 of them, or the rectangular sub-MRD basis when that is
    longer.

    Candidates come in counter order (the first cell is the least
    significant base-q digit).  A candidate c joins the basis unless c +
    span holds a filling of rank < delta, that is unless c lies in
    `blocked` = span + {fillings of rank < delta}; each filling is ranked
    once.  The basis is returned last candidate first."""
    rect = _fdrm_rect_subcode(F, delta, q)
    dots = F.dot_count()
    if q**dots > 1 << 16:
        return rect
    field = GF(q)
    rowop, minus_one = field.rowop, field.neg(1)  # b + c is b - (-1)*c
    fillings = [p[::-1] for p in itertools.product(range(q), repeat=dots)]
    blocked = {v for v, w in zip(fillings, _diagram_words(field, F, fillings)) if rank(w) < delta}
    basis = []
    for cand in fillings[1:]:
        if cand not in blocked:
            basis.append(cand)
            multiples = [rowop(cand, c) for c in range(1, q)]
            blocked |= {tuple(rowop(b, minus_one, cm)) for b in blocked for cm in multiples}
    return rect if len(rect) > len(basis) else basis[::-1]


def _fdrm_meets_bound(F: FerrersDiagram, delta: int) -> bool:
    """Whether `fdrm_construct` meets `fdrm_upper_bound` without search:
    all fillings (delta 1), the kernel check (delta 2), or an MRD code on
    a rectangular diagram."""
    return delta <= 2 or F.rectangular()


def _fdrm_basis(F: FerrersDiagram, delta: int, q: int) -> list[Sequence[int]]:
    """A basis, over the cells of F in `FerrersDiagram.cells()` order, of
    the GF(q)-linear diagram code `fdrm_construct` builds: no vector when
    the bound is one word, the unit vectors (every filling, in counter
    order) at delta = 1, the MRD basis on a rectangular diagram, the
    kernel basis at delta = 2, and the greedy basis otherwise."""
    if fdrm_upper_bound(F, delta, q) == 1:
        return []
    if delta == 1:
        if q ** F.dot_count() > MATERIALIZE_CAP:
            raise ValueError("full diagram space too large to materialize")
        return [[int(c == j) for c in range(F.dot_count())] for j in range(F.dot_count())]
    if F.rectangular():
        return _fdrm_rect_subcode(F, delta, q)
    if delta == 2:
        return _fdrm_delta2(F, q)
    return _fdrm_greedy(F, delta, q)


def fdrm_construct(F: FerrersDiagram, delta: int, q: int) -> RankCode:
    """
    Construct a diagram-supported code with min rank distance >= delta: its
    words are num_rows x num_cols matrices supported inside the
    (right-justified) diagram.

    Meets the dot-count upper bound wherever `_fdrm_meets_bound` holds: all
    fillings for delta = 1, an MRD code (transposed as needed) on a
    rectangular diagram, the kernel-check construction for delta = 2.
    Otherwise returns the better of a greedy search over small diagrams and
    an MRD code on a rectangular sub-diagram.  Every one of these codes is
    GF(q)-linear: its words are the `_diagram_words` of the `_span` of its
    `_fdrm_basis`, started at the zero vector of `dot_count()` entries so
    that a one-word code keeps its full shape.
    """
    field = GF(q)
    words = _diagram_words(field, F, _span(field, _fdrm_basis(F, delta, q), (0,) * F.dot_count()))
    return RankCode(field, F.num_rows, F.num_cols, delta, words)
