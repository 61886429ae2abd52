"""
Independent brute-force verification of emitted codes: exact or sampled
minimum subspace distance with witness pairs, point-coverage checks for
partial spreads, and an exhaustive optimum search for tiny parameter sets.

Nothing here trusts construction-time declarations; distances are
recomputed from generator matrices.  The exact scan runs one
point-incidence kernel for every q, sharing no rank or RREF code with the
constructions: each word becomes a bitmask over the points of PG(n-1, q)
it contains, and a pair's intersection has dimension t where its masks
share [t]_q = (q^t - 1)/(q - 1) points.  A shared count that is no [t]_q
is an error.  When the masks would exceed a fixed memory cap the scan
falls back to the stacked-rank kernel; `VerificationReport.kernel` names
the kernel that ran ("points" or "rank"; sampled mode always uses
"rank").  Both kernels report the same minimum, witness (the first pair
in `itertools.combinations` order that attains it) and histogram.

`spaces` checks rows where they enter a `Subspace` (`from_matrix`, which
every `.scode` read uses, and `from_rref`); builders whose rows are RREF by
construction use the unchecked `Subspace._trusted`.  The exact scan trusts
neither and checks every word again (RREF, entries in [0, q)) before
either kernel runs; sampled mode does not certify and does not re-check.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .constructions import Cdc
from .qcombi import gauss_int
from .spaces import Subspace, enumerate_grassmannian, subspace_distance, subspace_distance_capped

INFINITE = "infinite"
# The most words an exact scan takes by default, and the default number of
# pairs a sampled scan draws; the CLI's --verify-cap defaults to it too.
DEFAULT_PAIR_CAP = 20000
# Exact scans whose point masks would take more than this many bytes
# (|C| words times at most min([n]_q, sum of [k]_q) points, one bit each)
# run on the rank kernel instead.
_MASK_BYTES_CAP = 64 << 20


@dataclass
class VerificationReport:
    code_size: int
    declared_d: Optional[int]
    min_distance: object  # int or the string "infinite"
    mode: str  # "exact" | "sampled"
    certifies: bool
    witness: Optional[tuple[int, int]] = None
    histogram: Optional[dict[int, int]] = None
    seed: Optional[int] = None
    kernel: Optional[str] = None  # "points" | "rank"; None when no pair was compared

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

    Exact mode scans all pairs on the point-incidence kernel (or, above the
    mask memory cap, the rank kernel) and certifies the result; sampled
    mode draws sample_count >= 1 seeded random pairs and is explicitly
    non-certifying.
    """
    words = list(C.words)
    if mode == "sampled" and sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    if len(words) < 2:
        return VerificationReport(len(words), C.d, INFINITE, "exact", True)

    if mode == "sampled":
        rng = random.Random(seed)
        best = witness = None
        m = len(words)
        for _ in range(sample_count):
            i = rng.randrange(m)
            j = rng.randrange(m - 1)
            if j >= i:
                j += 1
            dist = subspace_distance(words[i], words[j])
            if best is None or dist < best:
                best, witness = dist, (i, j)
        return VerificationReport(m, C.d, best, "sampled", False, witness, seed=seed, kernel="rank")

    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    n_pairs = len(words) * (len(words) - 1) // 2
    if n_pairs > cap * (cap - 1) // 2:
        raise ValueError(f"{n_pairs} pairs exceed the exact-mode cap; raise cap or sample")

    F, n = words[0].field, words[0].ambient_n
    if any(w.field != F or w.ambient_n != n for w in words):
        raise ValueError("ambient space mismatch")
    for w in words:
        _check_rref(w)
    points_bound = min(gauss_int(n, F.q), sum(gauss_int(w.k, F.q) for w in words))
    if len(words) * points_bound // 8 <= _MASK_BYTES_CAP:
        kernel, scan = "points", _point_scan
    else:
        kernel, scan = "rank", _rank_scan
    best, witness, hist = scan(words, histogram)
    return VerificationReport(len(words), C.d, best, "exact", True, witness,
                              hist or None, kernel=kernel)


def _point_scan(words: Sequence[Subspace], histogram: bool):
    """Exact scan by point incidence: dim(U∩W) = t where [t]_q points of
    PG(n-1, q) lie in both U and W.  Uses no rank or RREF computation;
    `Subspace.points` relies on the rows being in RREF, which the caller
    has checked."""
    q = words[0].field.q
    dim_of = {gauss_int(t, q): t for t in range(words[0].ambient_n + 1)}
    masks = _point_masks(words)
    ks = [w.k for w in words]
    const_dim = len(set(ks)) == 1
    best = witness = None
    hist: dict[int, int] = {}
    for i in range(len(words) - 1):
        mi, ki = masks[i], ks[i]
        counts = [(mi & mj).bit_count() for mj in masks[i + 1:]]
        bad = set(counts).difference(dim_of)
        if bad:
            raise ValueError(f"{min(bad)} shared points is not a point count [t]_{q}")
        if const_dim and not histogram:
            # the distance 2(k - dim_of[c]) falls as the count c grows
            c = max(counts)
            dist, j = 2 * (ki - dim_of[c]), counts.index(c)
        else:
            dists = [ki + kj - 2 * dim_of[c] for kj, c in zip(ks[i + 1:], counts)]
            if histogram:
                for d, cnt in Counter(dists).items():
                    hist[d] = hist.get(d, 0) + cnt
            dist = min(dists)
            j = dists.index(dist)
        if best is None or dist < best:
            best, witness = dist, (i, i + 1 + j)
    return best, witness, hist


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


def _point_masks(words: Sequence[Subspace]) -> list[int]:
    """Each word's bitmask over the projective points it contains; a point
    gets the next index the first time it is seen."""
    index: dict[tuple, int] = {}
    masks = []
    for w in words:
        mask = 0
        for p in w.points():
            mask |= 1 << index.setdefault(p, len(index))
        masks.append(mask)
    return masks


def _rank_scan(words: Sequence[Subspace], histogram: bool):
    """Exact scan by stacked rank.  Without a histogram each pair stops
    early once it can no longer lower the current minimum, and distances at
    or above the reported minimum are not recorded."""
    hist: dict[int, int] = {}
    best = witness = None
    for i, j in itertools.combinations(range(len(words)), 2):
        if histogram:
            dist = subspace_distance(words[i], words[j])
            hist[dist] = hist.get(dist, 0) + 1
        else:
            dist = subspace_distance_capped(words[i], words[j], best if best is not None else 1 << 30)
        if best is None or dist < best:
            best, witness = dist, (i, j)
    return best, witness, hist


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
    word_masks = _point_masks(words)
    by_point: dict[int, list[int]] = {}
    for wi, mask in enumerate(word_masks):
        m = mask
        while m:
            low = m & -m
            by_point.setdefault(low.bit_length() - 1, []).append(wi)
            m ^= low
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
