"""
The golden acceptance suite: every criterion asserts exact values (no
tolerances anywhere; all arithmetic is integral) and prints one pass/fail
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
from contextlib import contextmanager

import pytest

from scodes.bounds import (
    BoundEngine,
    anticode,
    lp_bound,
    lp_witness_feasible,
    partial_spread_lower,
    partial_spread_upper,
    singleton,
    sphere_packing,
)
from scodes.constructions import (
    coset_construction,
    combine,
    echelon_ferrers,
    find_parallelism,
    lifted_mrd,
    linkage,
    single_codeword,
)
from scodes.divisible import sharp_ceil, sharp_floor, sqr_bases, sqr_expand
from scodes.qcombi import gauss_binomial
from scodes.rankmetric import (
    gabidulin,
    mrd_size,
    rank_distance,
    rank_distribution,
    rect_mrd,
    sum_rank,
    sumrank_distance,
    two_block_sumrank_code,
)
from scodes.spaces import (
    dual,
    enumerate_grassmannian,
    hamming_distance,
    rank,
    subspace_distance,
)
from scodes.verify import is_partial_spread, max_code_exhaustive, min_distance


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{description}]: FAIL")
        raise
    print(f"criterion {num:2d} [{description}]: PASS")


@pytest.fixture(scope="module")
def engine():
    return BoundEngine()


def test_criterion_01_gaussian_binomials():
    with criterion(1, "Gaussian binomials"):
        assert gauss_binomial(8, 4, 2) == 200787
        assert gauss_binomial(6, 4, 2) == 651
        assert gauss_binomial(7, 3, 2) == 11811


def test_criterion_02_johnson_chain(engine):
    with criterion(2, "plain/improved Johnson chain"):
        facts = [f for f in engine.facts.lookup(2, 8, 6, 3, ("exact",))]
        assert facts, "A_2(8,6;3) = 34 must be an injected fact"
        assert engine.best_upper(2, 8, 6, 3).value == 34
        assert engine.johnson_II(2, 9, 6, 4).value == 1158
        assert engine.johnson_II_improved(2, 9, 6, 4).value == 1156
        assert engine.best_upper(2, 13, 10, 5).value == 259  # injected
        assert engine.johnson_II_improved(2, 14, 10, 6).value == 67349


def test_criterion_03_divisible_expansions():
    with criterion(3, "base-sequence expansions and bracket"):
        assert sqr_bases(2, 3) == (15, 14, 12, 8)
        assert sqr_expand(11, 2, 2) == (1, 0, 1)
        assert sqr_expand(9, 2, 2) == (1, 1, -1)
        assert sqr_expand(19, 2, 3)[-1] == -1
        assert sqr_expand(34, 2, 3) == (0, 1, 1, 1)
        assert sqr_expand(137, 3, 3)[-1] == -2
        assert sharp_floor(17374, 15, 2, 3) == 1156


def test_criterion_04_sphere_packing_vs_singleton():
    with criterion(4, "sphere-packing vs Singleton"):
        assert sphere_packing(2, 8, 6, 4).value == 200787 // 451 == 445
        assert singleton(2, 8, 6, 4).value == 651
        for n in (8, 10, 12):
            assert sphere_packing(2, n, 6, n // 2).value < singleton(2, n, 6, n // 2).value
        for q in (2, 3):
            for n in range(4, 13):
                for k in range(2, n // 2 + 1):
                    for d in range(4, 2 * k + 1, 2):
                        strict = sphere_packing(q, n, d, k).value < singleton(q, n, d, k).value
                        assert strict == (q == 2 and n == 2 * k and d == 6)


def test_criterion_05_anticode_and_best_bounds(engine):
    with criterion(5, "anticode / iterated Johnson at (2,7,4;3)"):
        assert anticode(2, 7, 4, 3).value == 381
        assert engine.johnson_II_improved(2, 7, 4, 3).value == 381
        assert engine.best_upper(2, 7, 4, 3).value == 381
        assert engine.best_lower(2, 7, 4, 3).value == 333


def test_criterion_06_constructed_codes():
    with criterion(6, "constructed codes, exact verification"):
        one = single_codeword(2, 4, 4, 6, position="left")
        lk = linkage(one, one, rect_mrd(2, 4, 4, 3))
        assert len(lk) == 257
        assert min_distance(lk, "exact").min_distance == 6

        ef = echelon_ferrers([(1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 1)], 2, 6)
        assert len(ef) == 17
        assert min_distance(ef, "exact").min_distance == 6

        from scodes.constructions import partial_spread

        ps = partial_spread(2, 7, 3)
        assert len(ps) == 17
        ok, _ = is_partial_spread(ps)
        assert ok

        par = find_parallelism(2, 4, 2)
        w2 = coset_construction(par, par, rect_mrd(2, 2, 2, 2), 2, 2)
        assert len(w2) == 700
        w1 = lifted_mrd(2, 8, 4, 4)
        w3 = single_codeword(2, 8, 4, 4, position="right")
        assembly = combine([w1, w2, w3])
        assert len(assembly) == 4797
        report = min_distance(assembly, "exact")
        assert report.min_distance == 4


def test_criterion_07_rank_metric():
    with criterion(7, "rank metric: MRD, distribution, sum-rank"):
        code = gabidulin(2, 4, 4, 3)
        assert len(code) == 256
        mind = min(rank_distance(a, b) for a, b in itertools.combinations(code.words, 2))
        assert mind == 3

        for q in (2, 3):
            total = sum(rank_distribution(q, 4, 4, 2, r) for r in range(5))
            assert total == q**12 == mrd_size(q, 4, 4, 2)
        partial = lambda R: sum(rank_distribution(2, 4, 4, 2, r) for r in R)
        assert partial(range(3)) == 526
        assert partial(range(4)) == 2776
        assert partial(range(5)) == 4096

        sr = two_block_sumrank_code(2)
        assert len(sr) == 58
        assert all(sum_rank(w) <= 3 for w in sr.words)
        mind = min(sumrank_distance(a, b) for a, b in itertools.combinations(sr.words, 2))
        assert mind == 3


def test_criterion_08_partial_spread_uppers():
    with criterion(8, "partial-spread upper bounds"):
        assert partial_spread_upper(5, 16, 6).value == 9765941
        assert partial_spread_upper(5, 15, 6).value == 1953186
        assert partial_spread_upper(3, 15, 6).value == 19695
        assert partial_spread_upper(2, 11, 4).value == 2**4 * 8 + 4 == 132
        assert partial_spread_lower(2, 11, 4).value == 2**4 * 8 + 1 == 129


def test_criterion_09_lp_equals_anticode():
    with criterion(9, "LP bound == anticode bound on the grid"):
        findings = []
        for q in (2, 3):
            for n in range(4, 11):
                for k in range(2, n // 2 + 1):
                    for d in range(4, 2 * k + 1, 2):
                        if lp_bound(q, n, d, k).value != anticode(q, n, d, k).value:
                            findings.append(("optimum", q, n, d, k))
                        if not lp_witness_feasible(q, n, d, k):
                            findings.append(("witness", q, n, d, k))
        assert findings == [], f"audit findings: {findings}"


# Tiny (q, n, k, d) cells with their optima; the oracle finishes each
# within a second.
ORACLE_CELLS = [
    (2, 4, 2, 4, 5), (2, 5, 2, 4, 9), (2, 6, 3, 6, 9), (2, 4, 2, 2, 35), (2, 5, 2, 2, 155),
    (2, 6, 2, 2, 651), (2, 6, 2, 4, 21), (2, 6, 3, 2, 1395), (2, 6, 4, 4, 21), (3, 4, 2, 2, 130),
    (3, 4, 2, 4, 10), (4, 4, 2, 4, 17), (5, 4, 2, 4, 26), (3, 5, 1, 2, 121), (2, 5, 4, 2, 31),
    (2, 5, 3, 4, 9),
]


def test_criterion_10_tiny_exact_oracles(engine):
    with criterion(10, "exhaustive-search optimality oracles"):
        pure = BoundEngine(use_facts=False)
        for (q, n, k, d, v) in ORACLE_CELLS:
            oracle = max_code_exhaustive(q, n, k, d)
            for bounds in (engine, pure):
                lo, hi = bounds.bounds(q, n, d, k)
                assert lo.value == oracle == hi.value == v, (q, n, k, d, bounds.use_facts)


def test_criterion_10_oracle_shares_no_rank_distance(monkeypatch):
    # the oracle decides distances on t-subspace keys, never on the rank
    # routine that the constructions use
    def refuse(*args):
        raise AssertionError("the oracle called subspace_distance_capped")

    monkeypatch.setattr("scodes.verify.subspace_distance_capped", refuse)
    assert [max_code_exhaustive(q, n, k, d) for q, n, k, d, _ in ORACLE_CELLS] \
        == [v for *_, v in ORACLE_CELLS]


def test_criterion_11_property_suites():
    with criterion(11, "metric and expansion property suites"):
        spaces = []
        for k in range(5):
            spaces.extend(enumerate_grassmannian(2, 4, k))
        assert len(spaces) == 67
        dist = {}
        for i, U in enumerate(spaces):
            for j, W in enumerate(spaces):
                dist[i, j] = subspace_distance(U, W)
        for i in range(67):
            assert dist[i, i] == 0
            for j in range(67):
                assert dist[i, j] == dist[j, i]
                if i != j:
                    assert dist[i, j] > 0
        for i, j, k in itertools.product(range(67), repeat=3):
            assert dist[i, k] <= dist[i, j] + dist[j, k]

        lines5 = list(enumerate_grassmannian(2, 5, 2))
        for U, W in itertools.combinations(lines5, 2):
            stacked = U.rref.vstack(W.rref)
            dim_sum = rank(stacked)
            meet = U.k + W.k - dim_sum
            ds = subspace_distance(U, W)
            assert ds == U.k + W.k - 2 * meet == 2 * dim_sum - U.k - W.k
            assert ds >= hamming_distance(U.pivot, W.pivot)

        lines4 = list(enumerate_grassmannian(2, 4, 2))
        for U, W in itertools.combinations(lines4, 2):
            assert subspace_distance(dual(U), dual(W)) == subspace_distance(U, W)

        for q in (2, 3, 4, 5):
            for r in range(5):
                bases = sqr_bases(q, r)
                for n in range(-500, 501):
                    exp = sqr_expand(n, q, r)
                    assert sum(a * s for a, s in zip(exp, bases)) == n
        for q in (2, 3):
            for a in range(0, 100, 9):
                for b in (7, 15):
                    floors = [sharp_floor(a, b, q, r) for r in range(4)]
                    ceils = [sharp_ceil(a, b, q, r) for r in range(4)]
                    assert floors[0] == a // b <= -((-a) // b) == ceils[0]
                    for r in range(3):
                        assert floors[r + 1] <= floors[r]
                        assert ceils[r + 1] >= ceils[r]


def test_criterion_12_curated_facts_cited(engine):
    with criterion(12, "ILP-scale values consumed as cited facts"):
        cases = [
            (2, 7, 4, 3, "lower", 333),
            (2, 8, 4, 4, "lower", 4802),
            (2, 6, 4, 3, "exact", 77),
            (2, 8, 6, 4, "exact", 257),
        ]
        for q, n, d, k, kind, value in cases:
            res = engine.best_lower(q, n, d, k) if kind == "lower" else engine.best_upper(q, n, d, k)
            assert res.value == value
            node = next(c for c in res.walk() if c.rule.startswith("fact"))
            assert node.citation, "fact nodes must carry a citation"
            assert "injected table fact" in node.assumptions
        # the engine never recomputes these: without facts the values move
        bare = BoundEngine(use_facts=False)
        assert bare.best_lower(2, 7, 4, 3).value < 333
        assert bare.best_upper(2, 8, 6, 4).value > 257
