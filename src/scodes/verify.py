"""
Independent brute-force verification of emitted codes: exact or sampled
minimum subspace distance with witness pairs, point-coverage checks for
partial spreads, and an exhaustive optimum search for tiny parameter sets.

Nothing here trusts construction-time declarations; distances are
recomputed from generator matrices.  The exact scan takes
constant-dimension codes only and runs one point-incidence kernel for
every q, sharing no rank or RREF code with the constructions: two k-spaces
share [t]_q = (q^t - 1)/(q - 1) points of PG(n-1, q) exactly when they
meet in a t-space, at d_S = 2(k - t).  A dict from each point to the
earlier words that hold it makes the cost the (pair, shared point)
incidences, not |C|^2 pairs; a shared count that is no [t]_q is an error.
Words with 2k > n are scanned as their orthogonal complements, which hold
fewer points.  A code whose index would outgrow _INDEX_BYTES_CAP (large
fields) is compared pair by pair on stacked rank, as in sampled mode.
Both give the minimum, the witness (the first pair in
`itertools.combinations` order that attains it) and the histogram.

`spaces` checks rows where they enter a `Subspace` (`from_matrix`, which
every `.scode` read uses, and `from_rref`); builders whose rows are RREF by
construction use the unchecked `Subspace._trusted`.  The exact scan trusts
neither and checks every word again (RREF, entries in [0, q)) before the
kernel runs; sampled mode does not re-check.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .constructions import Cdc
from .qcombi import gauss_int
from .spaces import Subspace, _null_space, enumerate_grassmannian, subspace_distance_capped

INFINITE = "infinite"
# The most words an exact scan takes by default, and the default number of
# pairs a sampled scan draws; the CLI's --verify-cap defaults to it too.
DEFAULT_PAIR_CAP = 20000
# The most bytes the exact scan's point index may take, as `_index_bytes`
# estimates it; past this, exact mode compares pairs on stacked rank.  The
# 16384-word lifted MRD code of 7-spaces in GF(2)^14 needs 23 MB.
_INDEX_BYTES_CAP = 512 << 20


@dataclass
class VerificationReport:
    """What a scan found: `kernel` is "points" for the point index and
    "rank" for pairs compared by stacked rank (sampled mode, or exact mode
    past the index cap); only exact mode `certifies`."""

    code_size: int
    declared_d: Optional[int]
    min_distance: object  # int or the string "infinite"
    mode: str  # "exact" | "sampled"
    certifies: bool
    witness: Optional[tuple[int, int]] = None
    histogram: Optional[dict[int, int]] = None
    seed: Optional[int] = None
    kernel: Optional[str] = None  # None when no pair was compared

    def ok(self) -> bool:
        if self.declared_d is None:
            return True
        if self.min_distance == INFINITE:
            return True
        return self.min_distance >= self.declared_d


def min_distance(C: Cdc, mode: str = "exact", sample_count: int = DEFAULT_PAIR_CAP,
                 seed: int = 0, cap: int = DEFAULT_PAIR_CAP,
                 histogram: bool = False) -> VerificationReport:
    """
    Minimum pairwise subspace distance of a code.

    Exact mode covers all pairs on the point index (past its memory cap,
    on stacked rank) and certifies the result; it raises ValueError for
    more than cap words, words of different dimensions or ambient spaces,
    and rows not in RREF.  Sampled mode draws sample_count >= 1 seeded
    random pairs of any dimensions and is explicitly non-certifying.
    """
    words = list(C.words)
    if mode == "sampled" and sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    if len(words) < 2:
        return VerificationReport(len(words), C.d, INFINITE, "exact", True)

    if mode == "sampled":
        rng, m = random.Random(seed), len(words)
        draws = ((rng.randrange(m), rng.randrange(m - 1)) for _ in range(sample_count))
        best, witness, _ = _pair_scan(words, ((i, j + (j >= i)) for i, j in draws), False)
        return VerificationReport(m, C.d, best, "sampled", False, witness, seed=seed, kernel="rank")

    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    n_pairs = len(words) * (len(words) - 1) // 2
    if n_pairs > cap * (cap - 1) // 2:
        raise ValueError(f"{n_pairs} pairs exceed the exact-mode cap; raise cap or sample")

    F, n, k = words[0].field, words[0].ambient_n, words[0].k
    if any(w.field != F or w.ambient_n != n for w in words):
        raise ValueError("ambient space mismatch")
    if any(w.k != k for w in words):
        raise ValueError("exact mode takes words of one dimension")
    for w in words:
        _check_rref(w)
    if 2 * k > n:
        words, k = [_reversed_dual(w) for w in words], n - k
    if _index_bytes(len(words), F.q, n, k) <= _INDEX_BYTES_CAP:
        kernel, (best, witness, hist) = "points", _point_scan(words, histogram)
    else:
        pairs = itertools.combinations(range(len(words)), 2)
        kernel, (best, witness, hist) = "rank", _pair_scan(words, pairs, histogram)
    return VerificationReport(len(words), C.d, best, "exact", True, witness,
                              hist or None, kernel=kernel)


def _point_scan(words: Sequence[Subspace], histogram: bool):
    """Exact scan over k-spaces through a point -> earlier-words dict.  Uses
    no rank or RREF code, but `Subspace.points` needs RREF rows, which the
    caller has checked (or, for complements, built so)."""
    q, k = words[0].field.q, words[0].k
    dim_of = {gauss_int(t, q): t for t in range(k + 1)}
    holders: dict[tuple, list[int]] = {}
    shared: Counter = Counter()  # pairs by shared point count
    best = (2 * k + 1, 0, 0)  # (distance, i, j) of the witness so far
    for j, w in enumerate(words):
        lists = [holders.setdefault(p, []) for p in w.points()]
        counts = Counter(itertools.chain.from_iterable(lists))
        for held in lists:
            held.append(j)
        bad = set(counts.values()).difference(dim_of)
        if bad:
            raise ValueError(f"{min(bad)} shared points is not a point count [t]_{q}")
        if histogram:
            shared.update(counts.values())
            shared[0] += j - len(counts)
        # the distance falls as the count grows; no shared point means 2k
        c = max(counts.values(), default=0)
        dist = 2 * (k - dim_of[c])
        if j and (dist, 0) < best[:2]:
            i = min(h for h, ch in counts.items() if ch == c) if c else 0
            best = min(best, (dist, i, j))
    hist = {2 * (k - dim_of[c]): m for c, m in shared.items() if m}
    return best[0], best[1:], hist


def _index_bytes(m: int, q: int, n: int, k: int) -> int:
    """Peak memory of `_point_scan` over m k-spaces of GF(q)^n, measured on
    64-bit CPython 3.11: 9 bytes per (word, point) entry and 160 + 8n per
    distinct point (key tuple, list, dict slot), of which there are at most
    min([n]_q, m·[k]_q)."""
    entries = m * gauss_int(k, q)
    return 9 * entries + (160 + 8 * n) * min(gauss_int(n, q), entries)


def _reversed_dual(w: Subspace) -> Subspace:
    """U⊥ with its columns reversed, which keeps every distance, built with
    no rank code: the null-space basis e_f - sum_p row[f]·e_p is in RREF once
    the columns are reversed and the vectors taken from the last free column f."""
    basis = _null_space(w.field, w.rref.entries, w.pivot_positions(), w.ambient_n)
    return Subspace._trusted(w.field, w.ambient_n, [v[::-1] for v in reversed(basis)])


def _pair_scan(words: Sequence[Subspace], pairs: Iterable[tuple[int, int]], histogram: bool):
    """The least stacked-rank distance over the given pairs of word
    indices, the first pair that attains it and, on request, the histogram.
    Without a histogram a pair stops once it cannot lower the minimum."""
    hist: Counter = Counter()
    best = witness = None
    for i, j in pairs:
        cap = 1 << 30 if histogram or best is None else best
        dist = subspace_distance_capped(words[i], words[j], cap)
        if histogram:
            hist[dist] += 1
        if best is None or dist < best:
            best, witness = dist, (i, j)
    return best, witness, dict(hist)


def _check_rref(w: Subspace) -> None:
    """Raise ValueError unless the stored rows are in RREF over GF(q): each
    row's first nonzero entry is a 1, pivots strictly increase, each pivot
    column is zero in every other row, and every entry lies in [0, q)."""
    rows = w.rref.entries
    q, others, last = w.field.q, len(rows) - 1, -1
    for r, row in enumerate(rows):
        p = row.index(1) if 1 in row else -1
        if (p <= last or any(row[:p]) or [o[p] for o in rows].count(0) != others
                or min(row) < 0 or max(row) >= q):
            raise ValueError(f"codeword rows are not in RREF over GF({q}) (row {r}): {w!r}")
        last = p


def is_partial_spread(C: Cdc) -> tuple[bool, dict]:
    """Every point covered at most once?  Returns the full coverage map."""
    coverage: dict[tuple, int] = {}
    for w in C.words:
        for p in w.points():
            coverage[p] = coverage.get(p, 0) + 1
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
    parameters; used as an independent optimality oracle.
    """
    words = list(enumerate_grassmannian(q, n, k))
    if d >= 2 * k:
        return _max_partial_spread(q, n, k, words)
    m = len(words)
    compat = []
    for i in range(m):
        row = set()
        for j in range(i + 1, m):
            if subspace_distance_capped(words[i], words[j], d) >= d:
                row.add(j)
        compat.append(row)
    best = 0

    def grow(cands: set[int], size: int):
        nonlocal best
        if size + len(cands) <= best:
            return
        if not cands:
            best = max(best, size)
            return
        rest = set(cands)
        while rest:
            if size + len(rest) <= best:
                return
            i = min(rest)
            rest.discard(i)
            grow(rest & compat[i], size + 1)

    grow(set(range(m)), 0)
    return best


def _max_partial_spread(q: int, n: int, k: int, words: Sequence[Subspace]) -> int:
    """Branch over the lowest uncovered point: either a chosen word covers
    it or it is declared a hole.  Point sets are bitmasks."""
    if len(words) <= 1:  # k > n or k = 0: no search, and no point to branch on
        return len(words)
    holders: dict[tuple, list[int]] = {}  # point -> the words that hold it
    for wi, w in enumerate(words):
        for p in w.points():
            holders.setdefault(p, []).append(wi)
    by_point = list(holders.values())  # point b is bit b of a word's mask
    word_masks = [0] * len(words)
    for b, held in enumerate(by_point):
        for wi in held:
            word_masks[wi] |= 1 << b
    total_points = len(by_point)
    full = (1 << total_points) - 1
    per_word = gauss_int(k, q)
    best = 0

    def grow(done: int, used_count: int):
        # done = covered-or-banned mask; banned contributes no words
        nonlocal best
        remaining = total_points - done.bit_count()
        if used_count + remaining // per_word <= best:
            return
        if done == full:
            best = max(best, used_count)
            return
        p = (~done & (done + 1)).bit_length() - 1  # lowest unresolved point
        for wi in by_point[p]:
            mask = word_masks[wi]
            if mask & done:
                continue
            grow(done | mask, used_count + 1)
        grow(done | (1 << p), used_count)

    # GL(n, q) is transitive on k-spaces, so some optimum contains word 0:
    # start from it instead of branching at the root.
    grow(word_masks[0], 1)
    return best
