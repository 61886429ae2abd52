"""
Independent brute-force verification of emitted codes: the certified
minimum subspace distance with a witness pair, point-coverage checks for
partial spreads, and an exhaustive optimum search for tiny parameter sets.
A sampled scan over seeded random pairs, which certifies nothing, serves
library callers that want a quick estimate; the command line has none.

Nothing here trusts construction-time declarations; distances are
recomputed from generator matrices.  The exact scan takes
constant-dimension codes only and shares no rank or RREF code with the
constructions.  Two k-spaces meet in a t-space exactly when their
subspace distance is at most 2(k - t), so a code has d_S >= d exactly when
no t-space, t = k - d/2 + 1, lies in two of its words (the packing-design
view of Etzion and Vardy, "Error-correcting codes in projective space",
IEEE T-IT 2011).  The exact scan walks the levels from t0 = k - d/2 + 1 in
one loop, indexing every word's t-subspaces in a dict from each key to
the first word that holds it.  No key seen twice at t0 certifies d; the
walk then goes down to the first level with a collision, so a code that
meets d visits levels 1..t0 only.  A collision means d is not met; the
walk then goes up to the last level with one.  The highest level t with a
collision gives the minimum 2(k - t), and a code with none at level 1 has
minimum 2k.

A key needs no rank or RREF routine.  With G a word's RREF generator and
A an RREF t x k matrix, A·G is in RREF: column p_r of G is the unit vector
e_r, so the column of A·G at the pivot p_a of G's row a, for a a pivot of
A's row i, is column a of A, the unit vector e_i; and row i of A·G is zero
before p_a, since A's row i is zero before a and G's rows from a on are
zero before p_a.  As A runs over the [k t]_q RREF t x k matrices (the
templates), A·G runs over the word's t-subspaces, each once.  Column j of
A·G is A times column j of G, so one dict per level maps a column of G to
its codes (base q) over every template, filled on first use and shared by
the level's passes.  It is the only place the scan does field arithmetic,
and it does it a whole row at a time: column r of every template, laid end
to end, is one vector V_r, and a column c's entries in every A·G are the
one row sum_r c_r·V_r, summed with `FieldSpec.rowop`, which is gfq's field
arithmetic, not the rank or RREF code of `spaces`.

A level whose index would outgrow _INDEX_BYTES_CAP is indexed in passes,
as few as keep each within it, pass r taking the keys whose hash is r
modulo their number; the least pair that shares a key in any pass is the
witness.

The point count counts (pair, shared point) incidences on the level-1
keys, the points of PG(n-1, q): two k-spaces share [t]_q = (q^t - 1)/(q - 1)
points exactly when they meet in a t-space, and a shared count that is no
[t]_q is an error.  It runs first when the search's first level needs more
than one pass, and gives up for the search once it has walked more
incidences than those passes would hash keys.  It runs in place of the
search when some level 1..t0 fits in no number of passes, because the
column table, which every pass keeps, would outgrow the budget alone, and
after the search when the walk up of a code that misses d reaches a level
above t0 that fits in none.  Where the count's own index would outgrow it
(large fields), pairs are compared one by one on stacked rank, as in
sampled mode.  Words with 2k > n are scanned as their orthogonal
complements, which have fewer subspaces of each dimension.  Each way gives
the minimum and the witness, the first pair in `itertools.combinations`
order that attains it.

The spread checks (`is_partial_spread`, `spread_summary`) read points off
the level-1 keys of the words themselves, never of their complements.  The
exhaustive optimum search uses the same view: a code with d_S >= d is a
set of words whose keys at level t = k - d/2 + 1 are pairwise disjoint,
so it branches over the lowest key not yet resolved (some chosen word
holds it, or none does) and needs no distance routine; at d = 2k it
searches partial spreads on the points.  It recurses once per key, so it
raises ValueError past the recursion limit.

`spaces` checks rows where they enter a `Subspace`: `from_matrix` through
`rref`, and `from_rref` and the `.scode` reader through one RREF shape
check, the reader sending any word that fails it to `from_matrix`;
builders whose rows are RREF by construction use the unchecked
`Subspace._trusted`.  The exact scan and the spread checks trust none of
these and check every word again with their own `_check_words` (one
ambient space and dimension, RREF, entries in [0, q); the checks on one row
alone run once per distinct row); sampled mode checks only that every
word, drawn or not, lies in one ambient space.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .constructions import Cdc
from .qcombi import gauss_binomial, gauss_int
from .spaces import Subspace, _grassmannian_rows, _null_space, enumerate_grassmannian, subspace_distance_capped

INFINITE = "infinite"
# The number of pairs a sampled scan draws by default.
DEFAULT_SAMPLE_COUNT = 20000
# The most bytes one pass over a level's index may take, as `_index_bytes`
# estimates it.  The 16384-word lifted MRD code of 7-spaces in GF(2)^14
# needs 23 MB for the point count at level 1 and 17 passes at level 2.
_INDEX_BYTES_CAP = 512 << 20


@dataclass
class VerificationReport:
    """What a scan found.  `kernel` is "subspaces" for the t-subspace
    collision search, "points" for the level-1 incidence count and "rank"
    for pairs compared by stacked rank (sampled mode, or exact mode where
    the count would outgrow the index budget); the module docstring says
    when each runs.  `level` is the first level indexed: for "subspaces"
    t = k - d/2 + 1, clamped to 1..k (0 for k = 0), with k of the
    complements for words with 2k > n; 1 for "points"; None for "rank".
    `keys` counts the (word, t-subspace) keys hashed over every level and
    pass, by a point count that gave up or a search that fell back too.
    `certifies` follows from `mode`: an exact report certifies, at any
    number of words, and a sampled one does not."""

    code_size: int
    declared_d: Optional[int]
    min_distance: object  # int or the string "infinite"
    mode: str  # "exact" | "sampled"
    witness: Optional[tuple[int, int]] = None
    seed: Optional[int] = None
    kernel: Optional[str] = None  # None when no pair was compared
    level: Optional[int] = None
    keys: int = 0

    def ok(self) -> bool:
        if self.declared_d is None:
            return True
        if self.min_distance == INFINITE:
            return True
        return self.min_distance >= self.declared_d

    @property
    def certifies(self) -> bool:
        return self.mode == "exact"


def min_distance(C: Cdc, mode: str = "exact", sample_count: int = DEFAULT_SAMPLE_COUNT,
                 seed: int = 0) -> VerificationReport:
    """
    Minimum pairwise subspace distance of a code.

    Exact mode covers all pairs, at any number of words, and certifies the
    result: by the t-subspace collision search from the level t0 of the
    declared distance (d = 0 when C.d is None), run when levels 1..t0 fit
    the index, by the level-1 point count or on stacked rank, as the module
    docstring says.  It raises ValueError for an unknown mode, words of
    different dimensions or ambient spaces and rows not in RREF.  Sampled
    mode, a library estimate that the command line does not offer, draws
    sample_count >= 1 seeded random pairs of any dimensions and certifies
    nothing; it raises ValueError when any word lies in another ambient
    space, whether or not a pair draws it.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    words = list(C.words)
    if mode == "sampled" and sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    if len(words) < 2:
        return VerificationReport(len(words), C.d, INFINITE, "exact")

    if mode == "sampled":
        _check_ambient(words)
        best, witness = _pair_scan(words, _sampled_pairs(len(words), sample_count, seed))
        return VerificationReport(len(words), C.d, best, "sampled", witness, seed=seed, kernel="rank")

    _check_words(words)
    n, k = words[0].ambient_n, words[0].k
    if 2 * k > n:
        words, k = [_reversed_dual(w) for w in words], n - k
    # the level whose collisions decide d_S >= d, clamped to 1..k (0 for k = 0)
    t0 = min(max(k - ((C.d or 0) + 1) // 2 + 1, 1), k)
    search = all(_passes(words, t) for t in range(1, t0 + 1))
    passes = _passes(words, t0) if search and t0 else 1  # level 0 is never indexed
    best = witness = None
    keys = 0
    if search and passes > 1 and _passes(words, 1, holders=True) == 1:
        # the count gives up past the keys the search's passes would hash
        budget = passes * len(words) * gauss_binomial(k, t0, words[0].field.q)
        kernel, level = "points", 1
        best, witness, keys = _point_scan(words, budget)
    if best is None and search:
        kernel, level = "subspaces", t0
        best, witness, more = _subspace_search(words, t0)
        keys += more
    if best is None and _passes(words, 1, holders=True) == 1:  # no search, or its walk up left the index
        kernel, level = "points", 1
        best, witness, more = _point_scan(words, math.inf)
        keys += more
    if best is None:
        pairs = itertools.combinations(range(len(words)), 2)
        kernel, level = "rank", None
        best, witness = _pair_scan(words, pairs)
    return VerificationReport(len(words), C.d, best, "exact", witness, kernel=kernel, level=level, keys=keys)


def _subspace_search(words: Sequence[Subspace], t0: int):
    """The minimum distance, its witness and the keys hashed, by one walk of
    collision scans from level t0: down to the first level with a collision
    or up to the last.  Levels 1..t0 fit the index; a level above that fits
    in no number of passes ends the walk with None for both."""
    k, t, step, keys = words[0].k, t0, 0, 0
    while t <= t0 or _passes(words, t):
        found, more = _collision(words, t)
        keys += more
        step = step or (1 if found else -1)
        if found:
            top, witness = t, found
        if (found is None) == (step > 0) or t + step > k:
            return 2 * (k - top), witness, keys
        t += step
    return None, None, keys


def _collision(words: Sequence[Subspace], t: int):
    """The first pair (i, j) in `itertools.combinations` order whose words
    share a t-space, or None, and the keys hashed.  Each of the `_passes`
    passes indexes the keys whose hash is its number modulo their count
    (one pass indexes them all).  In a pass, each word's keys map to the
    first word that holds them, so the least value its keys find is the
    least i that shares an indexed t-space with word j; the least (i, j)
    over every pass is the witness.  A pass stops at the j of a witness
    with i = 0 and goes on past one with i > 0, since a later j may have a
    smaller i."""
    if t == 0:
        return (0, 1), 0  # every pair shares the zero space
    passes = _passes(words, t)
    columns = _Columns(words[0].field, words[0].k, t)
    best = None
    scanned = 0
    for r in range(passes):
        first: dict[tuple, int] = {}
        for j, word_keys in enumerate(_level_keys(words, t, columns)):
            if passes > 1:
                word_keys = [key for key in word_keys if hash(key) % passes == r]
            i = min(map(first.setdefault, word_keys, itertools.repeat(j)), default=j)
            if i < j and (best is None or (i, j) < best):
                best = (i, j)
            if best is not None and best[0] == 0 and best[1] <= j:
                break
        scanned += j + 1
    return best, scanned * gauss_binomial(words[0].k, t, words[0].field.q)


class _Columns(dict):
    """A column of a word's generator -> its codes in A·G over every RREF
    t x k template A, each column c of A·G read as the base-q int
    c_0 + c_1 q + ...; filled on first use.  Column r of every template,
    laid end to end, is one vector V_r, so a column c's entries in every
    A·G are the one row sum_r c_r V_r, t entries per template."""

    def __init__(self, F, k: int, t: int):
        super().__init__()
        templates = list(_grassmannian_rows(F.q, k, t))
        self.F, self.t = F, t
        self.vectors = [[row[r] for A in templates for row in A] for r in range(k)]
        self.zero = (0,) * len(templates)

    def __missing__(self, col):
        F, t, q = self.F, self.t, self.F.q
        flat = None
        for c, v in zip(col, self.vectors):
            if c:
                flat = F.rowop(v, c) if flat is None else F.rowop(flat, F.neg(c), v)
        if flat is None:
            codes = self.zero
        else:
            codes = flat[t - 1::t]
            for i in range(t - 2, -1, -1):
                codes = [code * q + e for code, e in zip(codes, flat[i::t])]
        codes = self[col] = tuple(codes)
        return codes


def _level_keys(words: Sequence[Subspace], t: int,
                columns: Optional[_Columns] = None) -> Iterator[Iterator[tuple]]:
    """For each word, the keys of its t-subspaces: A·G for every RREF t x k
    template A, column by column, for G the word's RREF rows.  A level's
    passes share one column table."""
    if columns is None:
        columns = _Columns(words[0].field, words[0].k, t)
    for w in words:
        yield zip(*map(columns.__getitem__, zip(*w.entries)))


def _point_scan(words: Sequence[Subspace], budget: float):
    """Exact scan over k-spaces through a point -> earlier-words dict on
    the level-1 keys, the points of PG(n-1, q), which need RREF rows: the
    caller has checked them (or, for complements, built them so).  Gives
    up, with None for the minimum, once it has walked more than budget
    (pair, shared point) incidences.  Also returns the keys hashed."""
    q, k = words[0].field.q, words[0].k
    dim_of = {gauss_int(t, q): t for t in range(k + 1)}
    holders: dict[tuple, list[int]] = {}
    best = (2 * k + 1, 0, 0)  # (distance, i, j) of the witness so far
    walked = 0
    for j, points in enumerate(_level_keys(words, 1)):
        lists = [holders.setdefault(p, []) for p in points]
        walked += sum(map(len, lists))
        if walked > budget:
            return None, None, (j + 1) * gauss_int(k, q)
        counts = Counter(itertools.chain.from_iterable(lists))
        for held in lists:
            held.append(j)
        bad = set(counts.values()).difference(dim_of)
        if bad:
            raise ValueError(f"{min(bad)} shared points is not a point count [t]_{q}")
        # the distance falls as the count grows; no shared point means 2k
        c = max(counts.values(), default=0)
        dist = 2 * (k - dim_of[c])
        if j and (dist, 0) < best[:2]:
            i = min(h for h, ch in counts.items() if ch == c) if c else 0
            best = min(best, (dist, i, j))
    return best[0], best[1:], len(words) * gauss_int(k, q)


def _passes(words: Sequence[Subspace], t: int, holders: bool = False) -> Optional[int]:
    """The fewest passes that keep each pass's index at level t within
    _INDEX_BYTES_CAP, or None when what every pass keeps outgrows it
    alone.  holders=True sizes the point count, whose index is level 1's
    with a holder list per point."""
    w = words[0]
    keys, kept = _index_bytes(len(words), w.field.q, w.ambient_n, w.k, t, holders)
    room = _INDEX_BYTES_CAP - kept
    return max(1, -(-keys // room)) if room > 0 else None


def _index_bytes(m: int, q: int, n: int, k: int, t: int, holders: bool = False) -> tuple[int, int]:
    """Peak memory of one level's index over m k-spaces of GF(q)^n at level
    t, fitted with tracemalloc on 64-bit CPython 3.11: the bytes of its
    distinct keys, which passes divide among themselves, and the bytes
    every pass keeps.  A distinct key (a tuple of n ints and its dict slot)
    takes 90 + 8n bytes, of which there are at most min([n t]_q, m·[k t]_q).
    With holders (the point count, at t = 1), the holder lists add 70
    bytes per distinct key and 9 per (word, point) entry.  Every pass keeps a
    word's index, which its keys share, 32, and the column table: a
    distinct column (a k-tuple, its dict slot and its [k t]_q codes, each
    an int object of 32 bytes when it may exceed 256) takes 100 + 8k bytes
    plus 8 or 40 per code, and a word in RREF has k unit columns, so there
    are at most min(q^k, k + m(n - k))."""
    per_word = gauss_binomial(k, t, q)
    entries = m * per_word
    keys = min(gauss_binomial(n, t, q), entries) * (90 + 8 * n + (70 if holders else 0))
    per_code = 8 if q**t <= 257 else 40
    columns = min(q**k, k + m * (n - k)) * (100 + 8 * k + per_code * per_word)
    return keys + (9 * entries if holders else 0), columns + 32 * m


def _reversed_dual(w: Subspace) -> Subspace:
    """U⊥ with its columns reversed, which keeps every distance, built with
    no rank code: the null-space basis e_f - sum_p row[f]·e_p is in RREF once
    the columns are reversed and the vectors taken from the last free column f."""
    basis = _null_space(w.field, w.entries, w.pivot_positions(), w.ambient_n)
    return Subspace._trusted(w.field, w.ambient_n, [tuple(v[::-1]) for v in reversed(basis)])


def _sampled_pairs(m: int, count: int, seed: int) -> Iterator[tuple[int, int]]:
    """count seeded pairs (i, j) of distinct indices below m: i and then
    j' below m - 1, j = j' moved past i, each drawn from one
    `random.Random(seed)` by CPython 3.11's `randrange` algorithm
    (getrandbits of the bound's bit length until a draw is below it), so a
    seed draws the pairs it drew through two `randrange` calls a pair."""
    bits = random.Random(seed).getrandbits
    wide, narrow = m.bit_length(), (m - 1).bit_length()
    for _ in range(count):
        i = bits(wide)
        while i >= m:
            i = bits(wide)
        j = bits(narrow)
        while j >= m - 1:
            j = bits(narrow)
        yield i, j + (j >= i)


def _pair_scan(words: Sequence[Subspace], pairs: Iterable[tuple[int, int]]):
    """The least stacked-rank distance over the given pairs of word indices
    and the first pair that attains it.  A pair stops once it cannot lower
    the best so far."""
    best = witness = None
    for i, j in pairs:
        dist = subspace_distance_capped(words[i], words[j], 1 << 30 if best is None else best)
        if best is None or dist < best:
            best, witness = dist, (i, j)
    return best, witness


def _check_ambient(words: Sequence[Subspace]) -> None:
    """Raise ValueError unless the words share one field and one ambient n."""
    F, n = words[0].field, words[0].ambient_n
    if any((w.field is not F and w.field != F) or w.ambient_n != n for w in words):
        raise ValueError("ambient space mismatch")


def _check_words(words: Sequence[Subspace]) -> None:
    """Raise ValueError unless the words share one ambient space and one
    dimension and each word's stored rows are in RREF over GF(q): each
    row's first nonzero entry is a 1, pivots strictly increase, each pivot
    column is zero in every other row, and every entry lies in [0, q).

    Rows repeat across words, so the checks on one row alone run once per
    distinct row of this call (`_Rows`), which packs the row's lead and
    its other nonzero columns into one int.  A word's packed rows sum to
    per-column counts of its leads and of its other nonzero entries; it
    passes when no column holds two leads or a lead and another nonzero
    entry, and its rows strictly decrease, which for distinct leads means
    the leads increase.  A word that fails is walked row by row to name
    its first bad row."""
    F, n, k = words[0].field, words[0].ambient_n, words[0].k
    _check_ambient(words)
    if any(w.k != k for w in words):
        raise ValueError("words must share one dimension")
    packed = _Rows(F.q, n, k)
    shift, fmax, excess = packed.shift, packed.fmax, packed.excess
    for w in words:
        rows = w.entries
        total = sum(map(packed.__getitem__, rows))
        leads = total >> shift
        if leads & excess or total & leads * fmax or not all(map(operator.gt, rows, rows[1:])):
            last = -1
            for r, p in enumerate(map(packed.lead, rows)):
                if p <= last or [o[p] for o in rows].count(0) != k - 1:
                    raise ValueError(f"codeword rows are not in RREF over GF({F.q}) (row {r}): {w!r}")
                last = p


class _Rows(dict):
    """Row -> its columns packed in one int, a field of W = bit_length(2k)
    bits per column in each half: 1 in field p of the upper half for its
    lead p and 1 in field j of the lower half for each other nonzero column
    j.  A row with no lead (its first nonzero entry is no 1, some entry
    lies outside [0, q), or it is not n long) packs 2 in field 0 of the
    upper half, more than a passing word can hold there.  A sum of k packed
    rows takes at most 2k in a field, so no field carries into the next.
    Each row is looked at on its first lookup only."""

    def __init__(self, q: int, n: int, k: int):
        super().__init__()
        width = (2 * k).bit_length()
        self.q, self.n, self.shift, self.fmax = q, n, width * n, (1 << width) - 1
        self.fields = [1 << width * j for j in range(n)]
        self.excess = sum(self.fields) * (self.fmax - 1)  # every bit of a field but its lowest

    def lead(self, row: tuple[int, ...]) -> int:
        """The row's lead, or -1 when it has none or is not n long."""
        p = row.index(1) if 1 in row else -1
        bad = p < 0 or len(row) != self.n or any(row[:p]) or min(row) < 0 or max(row) >= self.q
        return -1 if bad else p

    def __missing__(self, row: tuple[int, ...]) -> int:
        p = self.lead(row)
        if p < 0:
            v = 2 << self.shift
        else:
            lead = self.fields[p]
            v = sum(itertools.compress(self.fields, row)) - lead + (lead << self.shift)
        self[row] = v
        return v


def is_partial_spread(C: Cdc) -> tuple[bool, dict]:
    """Every point covered at most once?  Returns the full coverage map,
    point -> words holding it; ValueError for words the exact scan rejects."""
    coverage: dict[tuple, int] = {}
    if C.words:
        _check_words(C.words)
        coverage = dict(Counter(itertools.chain.from_iterable(_level_keys(C.words, 1))))
    ok = all(v <= 1 for v in coverage.values())
    return ok, coverage


def spread_summary(C: Cdc) -> dict:
    ok, coverage = is_partial_spread(C)
    total_points = gauss_int(C.n, C.q)
    covered = sum(1 for v in coverage.values() if v >= 1)
    return {
        "is_partial_spread": ok,
        "points_covered": covered,
        "holes": total_points - covered,
        "max_multiplicity": max(coverage.values(), default=0),
    }


def max_code_exhaustive(q: int, n: int, k: int, d: int) -> int:
    """
    Exhaustively computed maximum size of a code in the Grassmannian with
    pairwise distance >= d (branch and bound).  Only intended for tiny
    parameters; used as an independent optimality oracle.  Any two distinct
    k-spaces lie at least 2 apart, so d <= 2 admits every k-space, and no
    two lie further apart than 2*min(k, n-k), so a larger d admits one word.
    For 2k > n it searches the (n-k)-spaces instead: taking orthogonal
    complements maps the k-spaces onto them and keeps every distance.
    Otherwise it searches packings (`_max_packing`), which raises
    ValueError where its recursion would pass the recursion limit.
    """
    if k < 0 or k > n:
        return 0  # no k-space
    if d > 2 * min(k, n - k):
        return 1
    if 2 * k > n:
        return max_code_exhaustive(q, n, n - k, d)
    words = list(enumerate_grassmannian(q, n, k))
    if d <= 2:
        return len(words)
    return _max_packing(words, d)


def _max_packing(words: Sequence[Subspace], d: int) -> int:
    """The most words, word 0 among them, pairwise >= d apart, for
    2 < d <= 2k: no two of them hold a common t-space, t = k - ceil(d/2) + 1,
    the level whose collisions decide d in `min_distance`.  Branch over the
    lowest unresolved t-space: either a chosen word holds it or it is
    declared a hole.  Key sets are bitmasks; every word holds [k t]_q keys,
    which bounds the words that the unresolved keys can still take."""
    k = words[0].k
    t = k - (d + 1) // 2 + 1
    holders: dict[tuple, list[int]] = {}  # key -> the words that hold it
    for wi, keys in enumerate(_level_keys(words, t)):
        for key in keys:
            holders.setdefault(key, []).append(wi)
    by_key = list(holders.values())  # key b is bit b of a word's mask
    word_masks = [0] * len(words)
    for b, held in enumerate(by_key):
        for wi in held:
            word_masks[wi] |= 1 << b
    total_keys = len(by_key)
    if total_keys > sys.getrecursionlimit() - sum(1 for _ in traceback.walk_stack(None)):
        raise ValueError(f"{total_keys} keys at level {t} would recurse past the recursion limit")
    full = (1 << total_keys) - 1
    per_word = gauss_binomial(k, t, words[0].field.q)
    best = 0

    def grow(done: int, used_count: int):
        # done = held-or-banned mask; banned contributes no words
        nonlocal best
        remaining = total_keys - done.bit_count()
        if used_count + remaining // per_word <= best:
            return
        if done == full:
            best = max(best, used_count)
            return
        b = (~done & (done + 1)).bit_length() - 1  # lowest unresolved key
        for wi in by_key[b]:
            mask = word_masks[wi]
            if mask & done:
                continue
            grow(done | mask, used_count + 1)
        grow(done | (1 << b), used_count)

    # GL(n, q) is transitive on k-spaces, so some optimum contains word 0:
    # start from it instead of branching at the root.
    grow(word_masks[0], 1)
    return best
