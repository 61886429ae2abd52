"""Kernel probes: fixed-size, seeded calls to one public function each.

Each probe times a loop over pre-generated operands (the loop's own cost is
included) and reports the median of REPEATS repetitions.  Probes also check
their results, and every check counts as one operation of the run.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 5
FIELDS = (2, 3, 4, 8, 9)
ARITH_OPS = 20000
EXT_OPS = 2000
RANK_SHAPE = (6, 10)
RANK_MATRICES = 200
PAIR_SHAPE = (3, 8)  # k-subspaces of GF(q)^n
PAIR_WORDS = 60
PAIR_COUNT = 1500
LP_QUERY = (2, 14, 6, 7)


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_op(fn, ops, scale):
    """Median time of one call of fn, divided by the operations it makes."""
    return _median_time(fn) / ops * scale


def _random_matrix(rng, q, rows, cols):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def run(lib, golden, rng, rnd):
    """Run every probe; returns {metric name: (value, unit)}."""
    GF, ExtField = lib.gfq.GF, lib.gfq.ExtField
    MatGF, Subspace = lib.spaces.MatGF, lib.spaces.Subspace
    rank, subspace_distance = lib.spaces.rank, lib.spaces.subspace_distance

    out = {}
    for q in FIELDS:
        F = GF(q)
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(ARITH_OPS)]
        firsts = [a for a, _ in pairs]
        mul, inv, sub = F.mul, F.inv, F.sub
        out[f"gfq.mul_ns.q{q}"] = (_per_op(lambda: [mul(a, b) for a, b in pairs], ARITH_OPS, 1e9), "ns")
        out[f"gfq.inv_ns.q{q}"] = (_per_op(lambda: [inv(a) for a in firsts], ARITH_OPS, 1e9), "ns")
        out[f"gfq.sub_ns.q{q}"] = (_per_op(lambda: [sub(a, b) for a, b in pairs], ARITH_OPS, 1e9), "ns")
        with rnd.op(f"probe gfq q={q}") as op:
            op.require(all(mul(a, inv(a)) == 1 and sub(a, a) == 0 for a in firsts[:500]),
                       "a * a^-1 != 1 or a - a != 0")

    for q, m in ((2, 5), (3, 4)):
        E = ExtField(GF(q), m)
        elems = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(2 * EXT_OPS)]
        pairs = list(zip(elems[::2], elems[1::2]))
        out[f"gfq.ext_mul_us.q{q}m{m}"] = (_per_op(lambda: [E.mul(a, b) for a, b in pairs], EXT_OPS, 1e6), "us")
        with rnd.op(f"probe ext q={q} m={m}") as op:
            a, b = pairs[0]
            op.require(E.mul(a, b) == E.mul(b, a) and E.mul(a, E.one) == a, "extension field axioms")

    rows, cols = RANK_SHAPE
    k, n = PAIR_SHAPE
    for q in FIELDS:
        F = GF(q)
        mats = [MatGF(F, _random_matrix(rng, q, rows, cols), cols) for _ in range(RANK_MATRICES)]
        out[f"spaces.rank_us.q{q}"] = (_per_op(lambda: [rank(M) for M in mats], RANK_MATRICES, 1e6), "us")
        words = []
        while len(words) < PAIR_WORDS:
            U = Subspace.from_matrix(MatGF(F, _random_matrix(rng, q, k, n), n))
            if U.k == k:
                words.append(U)
        pairs = [tuple(rng.sample(words, 2)) for _ in range(PAIR_COUNT)]
        pair_s = _per_op(lambda: [subspace_distance(U, W) for U, W in pairs], PAIR_COUNT, 1)
        out[f"spaces.pairs_per_s.q{q}"] = (1 / pair_s, "pairs/s")
        with rnd.op(f"probe spaces q={q}") as op:
            op.require(all(subspace_distance(U, U) == 0 and subspace_distance(U, W) == subspace_distance(W, U)
                           for U, W in pairs[:100]), "distance is not a symmetric metric")

    out["bounds.lp_bound_ms"] = (_per_op(lambda: lib.bounds.lp_bound(*LP_QUERY), 1, 1e3), "ms")
    with rnd.op("probe lp_bound") as op:
        op.require(lib.bounds.lp_bound(*LP_QUERY).value == golden["lp_bound"],
                   "lp_bound value differs from golden")
    return out
