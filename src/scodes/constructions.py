"""
Explicit constant-dimension codes: lifting, the linkage family, the
multilevel (skeleton/diagram) construction, partial spreads, the coset
construction with packing inputs, block-inserting variants, and the
combination rules that glue subcodes together.

Every constructor materializes actual subspaces; declared distances are
meant to be re-checked independently (see scodes.verify).  Each code
records its rule and block parameters as provenance, for the reader only:
`combine` certifies a union of subcodes from their words (pivot vectors,
then an exact cross scan), never from provenance.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .gfq import GF
from .qcombi import gauss_binomial
from .rankmetric import RankCode, SumRankCode, _fdrm_basis, _fdrm_rect_subcode, rank, sum_rank
from .spaces import (
    FerrersDiagram,
    MatGF,
    Subspace,
    _lifted_span,
    _span,
    enumerate_grassmannian,
    ferrers_of,
    hamming_distance,
    subspace_distance_capped,
)

@dataclass(frozen=True)
class Cdc:
    """A constant-dimension code with its construction provenance."""

    q: int
    n: int
    k: int
    d: int
    words: tuple[Subspace, ...]
    provenance: tuple = ("explicit", ())

    def __len__(self) -> int:
        return len(self.words)

    @property
    def rule(self) -> str:
        return self.provenance[0]

    def check_shape(self) -> None:
        for w in self.words:
            if w.ambient_n != self.n or w.k != self.k:
                raise ValueError("codeword outside declared ambient/dimension")


def _mk(q, n, k, d, words, rule, **params) -> Cdc:
    words = tuple(words)
    if len(set(words)) != len(words):
        raise ValueError(f"{rule}: duplicate codewords produced")
    code = Cdc(q, n, k, d, words, (rule, tuple(sorted(params.items()))))
    code.check_shape()
    return code


@dataclass(frozen=True)
class DPacking:
    """Pairwise-disjoint subcodes, each of inner minimum distance >= d_inner.

    d_ambient is the guaranteed minimum distance between words of
    *different* parts (2 for packings of a full Grassmannian)."""

    q: int
    n: int
    k: int
    d_inner: int
    parts: tuple[tuple[Subspace, ...], ...]
    d_ambient: int = 2

    def __len__(self) -> int:
        return len(self.parts)


# -- lifting and the linkage family ------------------------------------------


def lift(M: MatGF) -> Subspace:
    """The row space of [I_k | M] in ambient k + cols; the pivots are the
    first k columns."""
    k = M.rows
    eye = MatGF.identity(M.field, k).entries
    return Subspace._trusted(M.field, k + M.cols, [er + mr for er, mr in zip(eye, M.entries)], range(k))


def lifted_mrd(q: int, n: int, k: int, d: int) -> Cdc:
    """Lift a k x (n-k) MRD code of rank distance d/2: the words are the
    `lift`s of the words of `rect_mrd(q, k, n-k, d/2)`, in their order.

    They are the `_lifted_span` on the pivot vector 1^k 0^(n-k) of the
    k x (n-k) rectangle's basis from `rankmetric._fdrm_rect_subcode`, the
    Gabidulin basis laid into the diagram's cells (transposed when
    k > n-k, as `rect_mrd` does).  When d/2 > min(k, n-k) the basis is
    empty and the code is [I_k | 0] alone."""
    _check_cdc_params(q, n, k, d)
    basis = _fdrm_rect_subcode(FerrersDiagram((n - k,) * k), d // 2, q)
    words = _lifted_span(GF(q), (1,) * k + (0,) * (n - k), basis)
    return _mk(q, n, k, d, words, "lifted_mrd", n1=k, n2=n - k)


def _check_cdc_params(q, n, k, d):
    if d % 2 or d < 2:
        raise ValueError("subspace distance must be a positive even integer")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")


def _prefix_embed(U: Subspace, left_zeros: int, total: int) -> Subspace:
    left, right = (0,) * left_zeros, (0,) * (total - left_zeros - U.ambient_n)
    return Subspace._trusted(U.field, total, [left + r + right for r in U.entries])


def single_codeword(q: int, n: int, k: int, d: int, position: str = "right") -> Cdc:
    """The one-word code spanned by unit vectors at the left or right end."""
    _check_cdc_params(q, n, k, d)  # the rows below are RREF only for 0 <= k <= n
    if position not in ("left", "right"):
        raise ValueError(f"position must be 'left' or 'right', not {position!r}")
    off = 0 if position == "left" else n - k
    U = Subspace._trusted(GF(q), n, [tuple(1 if j == off + i else 0 for j in range(n)) for i in range(k)])
    return _mk(q, n, k, d, [U], "single", position=position)


def _join_rows(joined: dict, lefts: Sequence[tuple], rights: Sequence[tuple]) -> list[tuple]:
    """The rows left + right of one word.  A builder keeps one `joined`
    (left row -> right row -> the joined row) for the length of a call:
    rows repeat across its words, so each distinct pair is joined once and
    every word holding it shares the tuple."""
    rows = []
    for left, right in zip(lefts, rights):
        tail = joined.get(left)
        if tail is None:
            tail = joined[left] = {}
        row = tail.get(right)
        if row is None:
            row = tail[right] = left + right
        rows.append(row)
    return rows


def construction_d(C: Cdc, M: RankCode) -> Cdc:
    """Append every rank-code word to every codeword generator, each
    distinct pair of codeword row and rank-code row joined once
    (`_join_rows`)."""
    if M.m != C.k:
        raise ValueError("rank-code row count must equal codeword dimension")
    if 2 * M.d < C.d:
        raise ValueError(f"rank distance {M.d} too small for subspace distance {C.d}")
    n = C.n + M.n
    joined: dict = {}
    words = [Subspace._trusted(U.field, n, _join_rows(joined, U.entries, w.entries), U.pivot_positions())
             for U in C.words for w in M.words]
    return _mk(C.q, n, C.k, C.d, words, "construction_d", n1=C.n, n2=M.n)


def linkage(C1: Cdc, C2: Cdc, M: RankCode) -> Cdc:
    """Prefix subcode C1 x M plus zero-prefixed C2."""
    return _linkage(C1, C2, M, 0, "linkage")


def improved_linkage(C1: Cdc, C2: Cdc, M: RankCode) -> Cdc:
    """Like linkage but C2 lives in n2 + k - d/2 columns, overlapping the
    rank-code block by k - d/2; by 0 above the diameter, d > 2k, where
    `_linkage` leaves C2 out."""
    d = min(C1.d, C2.d, 2 * M.d)
    return _linkage(C1, C2, M, max(C1.k - d // 2, 0), "improved_linkage")


def _linkage(C1: Cdc, C2: Cdc, M: RankCode, overlap: int, rule: str) -> Cdc:
    """Construction D of C1 with M, plus C2 zero-prefixed into the last
    n2 + overlap columns, so it overlaps the rank-code block by `overlap`.

    Above the diameter, d > 2 min(k, n-k), no two k-spaces are d apart, so
    the code is the construction-D part alone, one word as `lifted_mrd`
    builds it: a C2 word would lie within the diameter of it."""
    if C1.k != C2.k or C1.q != C2.q:
        raise ValueError("component codes incompatible")
    if C2.n != M.n + overlap:
        raise ValueError(f"C2 ambient must be n2 + {overlap} = {M.n + overlap}")
    prefix = C1.n - overlap
    if prefix < 0:
        raise ValueError("zero prefix width underflow")
    n, k, d = C1.n + M.n, C1.k, min(C1.d, C2.d, 2 * M.d)
    words = list(construction_d(C1, M).words)
    if d <= 2 * min(k, n - k):
        words += [_prefix_embed(W, prefix, n) for W in C2.words]
    return _mk(C1.q, n, k, d, words, rule, n1=C1.n, n2=M.n)


def generalized_linkage(C1: Cdc, C2: Cdc, M1: RankCode, M2: RankCode) -> Cdc:
    """Two mixed-prefix subcodes; M2's word ranks must stay <= k - d/2."""
    k = C1.k
    d = min(C1.d, C2.d, 2 * M1.d, 2 * M2.d)
    if C2.n != M1.n or C1.n != M2.n:
        raise ValueError("block widths inconsistent")
    limit = k - d // 2
    for w in M2.words:
        if rank(w) > limit:
            raise ValueError(f"left rank-code word of rank > {limit}")
    n = C1.n + C2.n
    words = list(construction_d(C1, M1).words)
    for W in C2.words:
        for w in M2.words:
            rows = [mr + r for mr, r in zip(w.entries, W.entries)]
            words.append(Subspace.from_matrix(MatGF(W.field, rows, n)))
    return _mk(C1.q, n, k, d, words, "generalized_linkage", n1=C1.n, n2=C2.n)


# -- multilevel construction ---------------------------------------------------


def echelon_ferrers(skeleton: Sequence[Sequence[int]], q: int, d: int) -> Cdc:
    """Union of lifted diagram codes, one per skeleton vector: the
    `_lifted_span` on v of the basis of `fdrm_construct(ferrers_of(v),
    d/2, q)` (`rankmetric._fdrm_basis`), so each word comes straight from
    one span vector.  The pivot vectors must have 0/1 entries, share one
    length and weight and lie at pairwise Hamming distance >= d
    (ValueError otherwise)."""
    vectors = tuple(tuple(v) for v in skeleton)
    if not vectors:
        raise ValueError("empty skeleton")
    n = len(vectors[0])
    k = sum(vectors[0])
    for v in vectors:
        if set(v) - {0, 1}:
            raise ValueError(f"skeleton entry {min(set(v) - {0, 1})} is not 0 or 1")
        if len(v) != n or sum(v) != k:
            raise ValueError("skeleton vectors must share length and weight")
    _check_cdc_params(q, n, k, d)
    for a, b in itertools.combinations(vectors, 2):
        if hamming_distance(a, b) < d:
            raise ValueError("skeleton distance violated")
    field = GF(q)
    words = []
    for v in vectors:
        words += _lifted_span(field, v, _fdrm_basis(ferrers_of(v), d // 2, q))
    return _mk(q, n, k, d, words, "echelon_ferrers",
               skeleton=tuple("".join(map(str, v)) for v in vectors))


def skeleton_greedy(q: int, n: int, k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """
    Greedy skeleton, a tuple of 0/1 pivot vectors at pairwise Hamming
    distance >= d: vectors considered in descending diagram-bound order
    (ties lexicographic), seeded with the all-left vector 1^k 0^(n-k).
    The order does not depend on q; `_skeleton` runs the greedy.
    """
    return tuple(_pivot_vector(u, n) for u in _skeleton(n, k, d)[0])


def _pivot_vector(u: int, n: int) -> tuple[int, ...]:
    """The 0/1 vector of length n whose position 0 is the top bit of u."""
    return tuple(map(int, bin(u | 1 << n)[3:]))


def _skeleton(n: int, k: int, d: int) -> tuple[list[int], list[int]]:
    """
    The vectors `skeleton_greedy` chooses, in order, as ints with position
    0 as the top bit, and the exponent nu of each one's diagram bound
    q^nu at distance d // 2.

    Int order is the vectors' lexicographic order.  `_pivot_scores` gives
    each candidate the sort key (k(n-k) - nu) << n | bits; q^nu is
    monotone in nu, so one sort puts the keys in the greedy's order, and a
    bisection finds where each run of one nu ends.  The seed's diagram is
    the whole k x (n-k) rectangle, which holds every other diagram, so its
    nu is the greatest: its key goes first.  Two weight-k vectors that
    differ in s one-for-one swaps are at distance 2s, so a chosen vector
    blocks every weight-k vector within fewer than ceil(d/2) swaps of it,
    and `filterfalse` drops a run's blocked candidates in C, reading the
    set as it grows, so each candidate meets every vector chosen before
    it.  The cost is the C(n, k) keys and the sort plus one ball of
    sum_(s < d/2) C(k, s) C(n-k, s) vectors per chosen vector, its
    one-swap shell built from the vector's ones and zeros directly; no
    pair of vectors is compared.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if d < 2:
        raise ValueError(f"need d >= 2, got d = {d}")
    keys = _pivot_scores(n, k, d // 2)
    keys.sort()
    keys.insert(0, keys[0] >> n << n | ((1 << k) - 1) << (n - k))  # the seed 1^k 0^(n-k)
    top, low = k * (n - k), (1 << n) - 1
    units = [1 << j for j in range(n)]
    reach = min((d - 1) // 2, k, n - k)  # the most swaps that stay under d
    chosen: list[int] = []
    nus: list[int] = []
    blocked: set[int] = set()
    start = 0
    while start < len(keys):
        gap = keys[start] >> n
        end = bisect.bisect_left(keys, (gap + 1) << n, start)
        for bits in itertools.filterfalse(blocked.__contains__, map(low.__and__, keys[start:end])):
            chosen.append(bits)
            nus.append(top - gap)
            blocked.add(bits)
            ones, zeros = [], []
            for u in units:
                (ones if bits & u else zeros).append(u)
            outs, ins = [bits ^ u for u in ones], zeros  # the one-swap shell
            for s in range(1, reach + 1):
                if s > 1:
                    outs = [bits ^ sum(c) for c in itertools.combinations(ones, s)]
                    ins = list(map(sum, itertools.combinations(zeros, s)))
                blocked.update([x ^ i for x in outs for i in ins])
        start = end
    return chosen, nus


def _pivot_scores(n: int, k: int, delta: int) -> list[int]:
    """
    For every weight-k 0/1 vector of length n, in no set order, its sort
    key (k(n-k) - nu) << n | bits: nu the exponent that
    `rankmetric._fdrm_exponent` gives its Ferrers diagram at distance
    delta >= 1, bits the vector as an int (position 0 the top bit).

    Row r at pivot p has n-k+r-p dots.  A sum holds one (w+n)-bit slot per
    t < delta; slot t holds (k(n-k) - f) << n | bits, f the sum of
    max(n-k+r-p-t, 0) over the rows r >= delta-1-t: the delta terms that
    nu is the minimum of.  No f exceeds k(n-k) < 2^w and each row adds one
    pivot bit, so no slot borrows from or carries into the next, and the
    greatest slot is the key.  The sums are built row by row, each prefix
    of pivots extended by every later pivot.
    """
    top = k * (n - k)
    width = max(top, 1).bit_length() + n
    each = sum(1 << t * width for t in range(delta))  # a 1 in each slot
    # dots[l]: a row of l dots, max(l - t, 0) << n in slot t
    dots = [sum(max(length - t, 0) << t * width for t in range(delta)) << n for length in range(n - k + 1)]
    ends = {-1: [(top << n) * each]}  # row sums of the pivot prefixes so far, by last pivot
    for r in range(k):
        below: list[int] = []
        grown = {}
        rows = -1 << max(delta - 1 - r, 0) * width  # the slots that count row r
        for p in range(r, n - k + r + 1):
            below += ends.get(p - 1, ())
            cell = (each << (n - 1 - p)) - (dots[n - k + r - p] & rows)
            grown[p] = list(map(cell.__add__, below))
        ends = grown
    sums = list(itertools.chain.from_iterable(ends.values()))
    slot = (1 << width) - 1
    keys = [s & slot for s in sums]
    for shift in range(width, delta * width, width):
        keys = [a if a > b else b for a, s in zip(keys, sums) for b in (s >> shift & slot,)]
    return keys


def partial_spread(q: int, n: int, k: int) -> Cdc:
    """
    Block-skeleton multilevel code with pairwise trivial intersections:
    cardinality (q^n - q^k (q^(n mod k) - 1) - 1) / (q^k - 1); a full
    spread when k divides n.
    """
    if k < 1 or 2 * k > n:
        raise ValueError("need 1 <= k <= n/2")
    t = n // k
    vectors = []
    for i in range(t):
        vectors.append(tuple(1 if i * k <= j < (i + 1) * k else 0 for j in range(n)))
    code = echelon_ferrers(vectors, q, 2 * k)
    expected = (q**n - q**k * (q ** (n % k) - 1) - 1) // (q**k - 1)
    assert len(code) == expected, (len(code), expected)
    return Cdc(q, n, k, 2 * k, code.words, ("partial_spread", (("n", n), ("k", k))))


# -- parallelisms and the coset construction -----------------------------------


def find_parallelism(q: int, n: int, k: int) -> DPacking:
    """
    Partition of the full Grassmannian into spreads, by exact-cover
    backtracking: the parallelisms of PG(3, q) for q = 2 and 3, (q, n, k)
    = (2, 4, 2) and (3, 4, 2); ValueError for any other parameters.
    """
    if (q, n, k) not in ((2, 4, 2), (3, 4, 2)):
        raise ValueError(f"no built-in parallelism search for (q, n, k) = ({q}, {n}, {k})")
    lines = list(enumerate_grassmannian(q, n, k))
    spread_size = (q**n - 1) // (q**k - 1)
    # a line's nonzero vectors stand for its points, for any q: two lines
    # meet exactly when these sets meet, and lines whose sets cover every
    # nonzero vector cover every point
    point_sets = [frozenset(filter(any, _span(w.field, w.entries))) for w in lines]
    all_points = sorted({p for ps in point_sets for p in ps})

    def spreads_using(first: int, available: list[int]):
        """All spreads (as index lists) containing `first`, generated once
        each by always branching on the least uncovered point."""
        out = []

        def grow(chosen, covered, cands):
            if len(chosen) == spread_size:
                out.append(list(chosen))
                return
            target = next((p for p in all_points if p not in covered), None)
            if target is None:
                return
            for i in cands:
                if target in point_sets[i]:
                    grow(chosen + [i], covered | point_sets[i],
                         [j for j in cands if point_sets[j].isdisjoint(point_sets[i])])

        grow([first], point_sets[first],
             [i for i in available if i != first and point_sets[i].isdisjoint(point_sets[first])])
        return out

    num_classes = gauss_binomial(n, k, q) // spread_size

    def solve(remaining: frozenset[int], acc: list[list[int]]):
        if not remaining:
            return acc
        first = min(remaining)
        avail = sorted(remaining)
        for spread in spreads_using(first, avail):
            res = solve(remaining - frozenset(spread), acc + [spread])
            if res is not None:
                return res
        return None

    solution = solve(frozenset(range(len(lines))), [])
    if solution is None or len(solution) != num_classes:
        raise RuntimeError("parallelism search failed")  # pragma: no cover
    parts = tuple(tuple(lines[i] for i in idxs) for idxs in solution)
    return DPacking(q, n, k, 2 * k, parts)


def _pivot_embedding(M: MatGF, G: Subspace, n2: int) -> tuple[tuple[int, ...], ...]:
    """Insert zero columns into M at the pivot positions of E(G)."""
    piv = set(G.pivot_positions())
    free = [j for j in range(n2) if j not in piv]
    rows = []
    for r in M.entries:
        row = [0] * n2
        for x, j in zip(r, free):
            row[j] = x
        rows.append(tuple(row))
    return tuple(rows)


def _coset_family(pack1: DPacking, pack2: DPacking, M: RankCode, d1: int, d2: int,
                  rule: str, rmc_shape: tuple[int, int],
                  word: Callable[[Subspace, Subspace, MatGF], Subspace]) -> Cdc:
    """Checks, word loop and provenance shared by both coset layouts;
    word(U1, U2, Mw) places one rank-code word between two packing words."""
    if len(pack1) != len(pack2):
        raise ValueError("packings must have the same number of parts")
    d = d1 + d2
    if pack1.d_inner < d or pack2.d_inner < d:
        raise ValueError("packing inner distance below d1 + d2")
    if pack1.d_ambient < d1 or pack2.d_ambient < d2:
        raise ValueError("ambient packing distance below the declared split")
    if (M.m, M.n) != rmc_shape:
        raise ValueError(f"rank code must be {rmc_shape[0]} x {rmc_shape[1]}")
    if 2 * M.d < d:
        raise ValueError("rank distance too small")
    words = []
    for part1, part2 in zip(pack1.parts, pack2.parts):
        for U1 in part1:
            for U2 in part2:
                for Mw in M.words:
                    words.append(word(U1, U2, Mw))
    n1, n2 = pack1.n, pack2.n
    k1, k2 = pack1.k, pack2.k
    return _mk(pack1.q, n1 + n2, k1 + k2, d, words, rule,
               n1=n1, n2=n2, d1=d1, d2=d2, k1=k1, k2=k2)


def coset_construction(pack1: DPacking, pack2: DPacking, M: RankCode,
                       d1: int, d2: int) -> Cdc:
    """
    Stack matched packing parts with an embedded rank-code block:

        [ E(U1)  phi(M) ]
        [   0    E(U2)  ]

    using the pivot-column embedding; distance d1 + d2.  Each distinct
    pair of rows is joined once (`_join_rows`).
    """
    field = GF(pack1.q)
    n1, n2 = pack1.n, pack2.n
    zeros = [(0,) * n1] * pack2.k
    joined: dict = {}

    def word(U1: Subspace, U2: Subspace, Mw: MatGF) -> Subspace:
        rows = _join_rows(joined, U1.entries, _pivot_embedding(Mw, U2, n2))
        rows += _join_rows(joined, zeros, U2.entries)
        return Subspace._trusted(field, n1 + n2, rows)

    return _coset_family(pack1, pack2, M, d1, d2, "coset", (pack1.k, n2 - pack2.k), word)


def mirrored_coset_construction(pack1: DPacking, pack2: DPacking, M: RankCode,
                                d1: int, d2: int) -> Cdc:
    """
    Column-block mirror of the coset construction:

        [ E(U1)    0   ]
        [ phi(M) E(U2) ]

    with the rank block now under the first packing's columns.  The two
    layouts share pivot vectors and can share words (the zero rank-code
    word gives [E(U1) 0; 0 E(U2)] in both), so `combine` checks a standard
    + mirrored pair by an exact cross scan and refuses it when they do.
    """
    field = GF(pack1.q)
    n1, n2 = pack1.n, pack2.n

    def word(U1: Subspace, U2: Subspace, Mw: MatGF) -> Subspace:
        # the generator is not in RREF, so canonicalize it
        bottom_left = _pivot_embedding(Mw, U1, n1)
        rows = [r + (0,) * n2 for r in U1.entries]
        rows += [bl + r for bl, r in zip(bottom_left, U2.entries)]
        return Subspace.from_matrix(MatGF(field, rows, n1 + n2))

    return _coset_family(pack1, pack2, M, d1, d2, "mirrored_coset", (pack2.k, n1 - pack1.k), word)


# -- block inserting ------------------------------------------------------------


def block_inserting_I(dims: tuple[int, int, int, int], d1: int, d2: int,
                      C1: Cdc, C2: Cdc, M3: RankCode, M4: RankCode,
                      pack1: Sequence[RankCode], pack2: Sequence[RankCode]) -> Cdc:
    """
    Two-row-block generator with matched rank-code packings:

        [ G1  M1   0  M3 ]
        [ 0   M4  G2  M2 ]

    M1 parts run over pack1, M2 parts over pack2 (equal length, index
    matched); M3 and M4 are rank-bounded by k_i - d/2.
    """
    n1, n2, n3, n4 = dims
    d = d1 + d2
    k1, k2 = C1.k, C2.k
    if len(pack1) != len(pack2):
        raise ValueError("packings must be index matched")
    if (M3.m, M3.n) != (k1, n4) or (M4.m, M4.n) != (k2, n2):
        raise ValueError("M3/M4 shapes inconsistent with the layout")
    for w in M3.words:
        if rank(w) > k1 - d // 2:
            raise ValueError("M3 rank restriction violated")
    for w in M4.words:
        if rank(w) > k2 - d // 2:
            raise ValueError("M4 rank restriction violated")
    field = GF(C1.q)
    n = n1 + n2 + n3 + n4
    words = []
    for P1, P2 in zip(pack1, pack2):
        if (P1.m, P1.n) != (k1, n2) or (P2.m, P2.n) != (k2, n4):
            raise ValueError("packed rank-code shapes inconsistent")
        for U1 in C1.words:
            for M1w in P1.words:
                for M3w in M3.words:
                    top = [
                        tuple(g) + tuple(m1) + (0,) * n3 + tuple(m3)
                        for g, m1, m3 in zip(U1.entries, M1w.entries, M3w.entries)
                    ]
                    for U2 in C2.words:
                        for M4w in M4.words:
                            for M2w in P2.words:
                                bottom = [
                                    (0,) * n1 + tuple(m4) + tuple(g) + tuple(m2)
                                    for m4, g, m2 in zip(M4w.entries, U2.entries, M2w.entries)
                                ]
                                words.append(Subspace.from_matrix(MatGF(field, top + bottom, n)))
    return _mk(C1.q, n, k1 + k2, d, words, "block_inserting_I",
               n1=n1, n2=n2, n3=n3, n4=n4, d1=d1, d2=d2, k1=k1, k2=k2)


def block_inserting_II(dims: tuple[int, int, int, int], d: int,
                       M: SumRankCode, C1: Cdc, C2: Cdc) -> Cdc:
    """
    Sum-rank-driven two-block generator:

        [ M1  G1  0   0  ]
        [ 0   0   M2  G2 ]

    with (M1, M2) running over a sum-rank code of distance >= d/2 whose
    sum-ranks stay <= k1 + k2 - d/2.
    """
    n1, n2, n3, n4 = dims
    k1, k2 = C1.k, C2.k
    if M.shapes != ((k1, n1), (k2, n3)):
        raise ValueError("sum-rank shapes inconsistent with the layout")
    if 2 * M.d < d:
        raise ValueError("sum-rank distance too small")
    for w in M.words:
        if sum_rank(w) > k1 + k2 - d // 2:
            raise ValueError("sum-rank restriction violated")
    field = GF(C1.q)
    n = n1 + n2 + n3 + n4
    words = []
    for (M1w, M2w) in M.words:
        for U1 in C1.words:
            top = [
                tuple(m1) + tuple(g) + (0,) * (n3 + n4)
                for m1, g in zip(M1w.entries, U1.entries)
            ]
            for U2 in C2.words:
                bottom = [
                    (0,) * (n1 + n2) + tuple(m2) + tuple(g)
                    for m2, g in zip(M2w.entries, U2.entries)
                ]
                words.append(Subspace.from_matrix(MatGF(field, top + bottom, n)))
    return _mk(C1.q, n, k1 + k2, d, words, "block_inserting_II",
               n1=n1, n2=n2, n3=n3, n4=n4, k1=k1, k2=k2)


# -- combining subcodes ----------------------------------------------------------


# Cross products `combine` scans exactly for one pair of subcodes that the
# pivot structure does not separate; a larger pair is refused.
_SCAN_CAP = 2_000_000


def combine(subcodes: Sequence[Cdc]) -> Cdc:
    """
    Union of subcodes, certifying the cross distance of each pair one way.

    A pair passes if the Hamming distance between any pivot vector of one
    subcode and any of the other is at least d, since d_S(U, W) >=
    d_H(v(U), v(W)) (Etzion and Silberstein, IEEE T-IT 2009).  Otherwise
    every cross product is checked exactly, up to _SCAN_CAP products; a
    pair above the cap is refused.
    """
    if not subcodes:
        raise ValueError("nothing to combine")
    if len(subcodes) == 1:
        return subcodes[0]
    q, n, k = subcodes[0].q, subcodes[0].n, subcodes[0].k
    d = min(c.d for c in subcodes)
    for c in subcodes:
        if (c.q, c.n, c.k) != (q, n, k):
            raise ValueError("subcodes live in different spaces")
    # d_H of two pivot vectors is |P ^ Q| for their pivot-column sets P, Q
    pivots = [set(map(frozenset, {w.pivot_positions() for w in c.words})) for c in subcodes]
    certificates = []
    for (A, pa), (B, pb) in itertools.combinations(zip(subcodes, pivots), 2):
        if min((len(a ^ b) for a in pa for b in pb), default=d) >= d:
            certificates.append("pivot-structure Hamming distance")
            continue
        if len(A.words) * len(B.words) > _SCAN_CAP:
            raise ValueError(f"pivot structure does not separate {A.rule} and {B.rule}, "
                             f"and their cross product is too large to scan")
        for u in A.words:
            for w in B.words:
                if subspace_distance_capped(u, w, d) < d:
                    raise ValueError(f"cross distance violation between {A.rule} and {B.rule}")
        certificates.append("brute force")
    # a word shared by two subcodes is refused by `_mk`'s duplicate check
    return _mk(q, n, k, d, (w for c in subcodes for w in c.words), "combine",
               pieces=tuple(c.rule for c in subcodes), certificates=tuple(certificates))


def auto_cdc(q: int, n: int, d: int, k: int) -> Cdc:
    """Best materializable code for the parameters, used for component
    codes: a single word when forced, a partial spread at maximum
    distance, otherwise greedy multilevel."""
    _check_cdc_params(q, n, k, d)
    if d > 2 * min(k, n - k):
        return single_codeword(q, n, k, d, position="left")
    if d == 2 * k and 2 * k <= n:
        return partial_spread(q, n, k)
    return echelon_ferrers(skeleton_greedy(q, n, k, d), q, d)
