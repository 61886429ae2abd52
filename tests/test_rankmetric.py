import hashlib
import itertools
from collections import Counter

import pytest

from scodes.bounds import _ef_achievable_size
from scodes.constructions import skeleton_greedy
from scodes.gfq import GF, ExtField
from scodes.rankmetric import (
    _fdrm_greedy,
    _fdrm_meets_bound,
    _fdrm_rect_subcode,
    _gabidulin_basis,
    _span,
    fdrm_construct,
    fdrm_upper_bound,
    gabidulin,
    mrd_coset_partition,
    mrd_size,
    rank_distance,
    rank_distribution,
    rect_mrd,
    restricted_rank_code,
    sum_rank,
    sumrank_distance,
    two_block_sumrank_code,
)
from scodes.spaces import FerrersDiagram, MatGF, ferrers_of, rank

F2 = GF(2)


def all_matrices(q, m, n):
    field = GF(q)
    for vals in itertools.product(range(q), repeat=m * n):
        yield MatGF(field, [vals[i * n:(i + 1) * n] for i in range(m)], n)


def test_rank_distance_basics():
    A = MatGF.identity(F2, 3)
    Z = MatGF.zero(F2, 3, 3)
    assert rank_distance(A, A) == 0
    assert rank_distance(A, Z) == 3
    with pytest.raises(ValueError):
        rank_distance(A, MatGF.zero(F2, 2, 3))


def test_rank_distance_triangle_like_bounds():
    import random

    rng = random.Random(5)
    mats = [MatGF(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(4)]) for _ in range(40)]
    for A, B in itertools.combinations(mats, 2):
        d = rank_distance(A, B)
        assert abs(rank(A) - rank(B)) <= d <= rank(A) + rank(B)


def test_rank_metric_axioms_2x2_exhaustive():
    mats = list(all_matrices(2, 2, 2))
    assert len(mats) == 16
    for A in mats:
        assert rank_distance(A, A) == 0
    for A, B in itertools.combinations(mats, 2):
        assert rank_distance(A, B) == rank_distance(B, A) > 0
    for A, B, C in itertools.product(mats, repeat=3):
        assert rank_distance(A, C) <= rank_distance(A, B) + rank_distance(B, C)


def test_mrd_size():
    assert mrd_size(2, 4, 4, 2) == 4096
    assert mrd_size(2, 4, 5, 3) == 1024
    assert mrd_size(3, 2, 7, 5) == 1  # d > min(m, n)
    with pytest.raises(ValueError):
        mrd_size(2, 0, 3, 1)


@pytest.mark.parametrize("q,n,m,d", [(2, 3, 3, 2), (2, 4, 4, 2), (2, 4, 4, 3), (3, 3, 3, 2), (257, 1, 1, 1)])
def test_gabidulin_is_mrd(q, n, m, d):
    code = gabidulin(q, n, m, d)
    assert len(code) == q ** (n * (m - d + 1))
    # the words are the span of the basis; a span from an origin is that
    # origin plus each of them, in the same order
    field, basis = GF(q), _gabidulin_basis(q, n, m, d)
    span = _span(field, basis)
    assert [tuple(x for row in w.entries for x in row) for w in code.words] == span
    origin = [(3 * i + 1) % q for i in range(m * n)]
    assert _span(field, basis, origin) == [tuple(map(field.add, origin, v)) for v in span]
    assert _span(field, [], origin) == [tuple(origin)]
    assert len(set(code.words)) == len(code)
    # additive code: min distance = min nonzero rank
    mind = min(rank(w) for w in code.words if any(any(r) for r in w.entries))
    assert mind == d


def test_gabidulin_full_space_and_invertible():
    full = gabidulin(2, 3, 3, 1)
    assert len(full) == 512
    assert len(set(full.words)) == 512
    inv = gabidulin(2, 4, 4, 4)
    assert len(inv) == 16
    for w in inv.words:
        if any(any(r) for r in w.entries):
            assert rank(w) == 4


def test_gabidulin_punctured_rows():
    code = gabidulin(2, 4, 3, 2)  # 3 x 4 words
    assert len(code) == 2 ** (4 * 2)
    assert all((w.rows, w.cols) == (3, 4) for w in code.words)
    mind = min(rank(w) for w in code.words if any(any(r) for r in w.entries))
    assert mind == 2


# SHA-256 digests of the word lists (entries and order) frozen from the
# per-word linearized-polynomial evaluator and the incremental greedy span
# that preceded the span builder.  Gabidulin: every 1 <= d <= m <= n <= 8
# with at most 4096 words, per q.
GABIDULIN_WORDS_SHA256 = {
    2: "a61c2851fb4d2ee09f75064999cd22a77272ece6d8b0d27bc67fa9a9d6b67d33",
    3: "5d68e414255a3feaaae7ee45ff4d200f60077d4505743216929c5dbfb5b2b68b",
    4: "42ba1b7386f6d3a312e5d2f585eb6b8e4c9aec7d724867c0951f804376ef03b2",
    8: "9ced6a8cc9b2ba5aa20d22f8953f483e93e8fd1f28cf71e8b6da71bfe4ec8217",
    9: "b83e26f149389c906611cf402a79ea96b11657ca671712c2070cb9d5a4dba46c",
}
# rect_mrd: every 1 <= rows, cols <= 6 and 1 <= d <= min(rows, cols) + 1
# with at most 4096 words, per q, so transposed (rows > cols) and one-word
# (d > min) shapes occur; frozen when rect_mrd transposed each word of
# `gabidulin(q, rows, cols, d)` for rows > cols, an independent layout.
RECT_MRD_WORDS_SHA256 = {
    2: "fa75625d6a1ec753499c1cccb43c1545385169c085b9cb420e36557f747cbadf",
    3: "5c6c0e5c1065069346704c1ceff4708920ff596524cef3717f5faabfae9521ca",
    4: "3904cd8e5d6aaca531f5befcda1641824dcb8b9863a9204b674c4e8725ae1a61",
}
COSET_PARTITION_SHA256 = "1dab7f57624625612f4048c4001d22fd69584852ea1338ee4874d4149df77e11"
# (delta, q, n_max): every non-rectangular diagram of a pivot vector of
# length n <= n_max, built by the kernel check (delta 2) or greedy (delta 3)
FDRM_WORDS_SHA256 = {
    (2, 2, 7): "1705455d0329cc70d4ed88beeabbec88cd3516cf2afe0bba4ce941eea75cba33",
    (2, 3, 7): "6b3eaee085eed5737ebfb3cd99b0bb3881fb76d4b8b1f27c41d33163aef1d537",
    (3, 2, 7): "9f5b7087754e9aa0fb3b30e0f8c416d3c0e8885982e3631918063768f8a61333",
    (3, 3, 6): "996002732794f610f1466a57cf69871f255b7c46877850e21effb55387323b64",
}


def _words_digest(h, key, words):
    h.update(repr((key, [w.entries for w in words])).encode())


def _gabidulin_digest(q):
    h = hashlib.sha256()
    for n in range(1, 9):
        for m in range(1, n + 1):
            for d in range(1, m + 1):
                if q ** (n * (m - d + 1)) <= 4096:
                    _words_digest(h, (n, m, d), gabidulin(q, n, m, d).words)
    return h.hexdigest()


def _rect_mrd_digest(q):
    h = hashlib.sha256()
    for rows in range(1, 7):
        for cols in range(1, 7):
            for d in range(1, min(rows, cols) + 2):
                if mrd_size(q, rows, cols, d) <= 4096:
                    _words_digest(h, (rows, cols, d), rect_mrd(q, rows, cols, d).words)
    return h.hexdigest()


def _coset_partition_digest():
    h = hashlib.sha256()
    for args in [(2, 3, 4, 1, 2), (2, 3, 5, 2, 3), (2, 4, 4, 2, 3), (3, 2, 3, 1, 2),
                 (4, 2, 3, 1, 2), (8, 2, 2, 1, 2), (9, 2, 2, 1, 2)]:
        for part in mrd_coset_partition(*args):
            _words_digest(h, args, part.words)
    return h.hexdigest()


def _fdrm_digest(delta, q, n_max):
    h = hashlib.sha256()
    for n in range(3, n_max + 1):
        for k in range(2, n - 1):
            for support in itertools.combinations(range(n), k):
                F = ferrers_of(tuple(1 if j in support else 0 for j in range(n)))
                if not F.rectangular():
                    _words_digest(h, support, fdrm_construct(F, delta, q).words)
    return h.hexdigest()


@pytest.mark.parametrize("q", sorted(GABIDULIN_WORDS_SHA256))
def test_gabidulin_words_match_golden_digest(q):
    assert _gabidulin_digest(q) == GABIDULIN_WORDS_SHA256[q]


@pytest.mark.parametrize("q", sorted(RECT_MRD_WORDS_SHA256))
def test_rect_mrd_words_match_golden_digest(q):
    assert _rect_mrd_digest(q) == RECT_MRD_WORDS_SHA256[q]


def test_mrd_coset_partition_matches_golden_digest():
    assert _coset_partition_digest() == COSET_PARTITION_SHA256


@pytest.mark.parametrize("delta,q,n_max", sorted(FDRM_WORDS_SHA256))
def test_fdrm_construct_matches_golden_digest(delta, q, n_max):
    assert _fdrm_digest(delta, q, n_max) == FDRM_WORDS_SHA256[(delta, q, n_max)]


@pytest.mark.parametrize("args", [(2, 6, 3, 2), (3, 4, 3, 2)])
def test_gabidulin_extension_products_do_not_grow_with_code_size(monkeypatch, args):
    # thousands of words, but only the n*k basis words (and the Frobenius
    # powers behind them) need extension-field products
    calls = 0
    real_mul = ExtField.mul

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return real_mul(self, a, b)

    monkeypatch.setattr(ExtField, "mul", counting_mul)
    code = gabidulin(*args)
    assert len(code) >= 4096
    assert calls < 100


def test_rank_distribution_worked_values():
    assert rank_distribution(2, 4, 4, 2, 2) == 525
    assert rank_distribution(2, 4, 4, 2, 0) == 1
    assert rank_distribution(2, 4, 4, 2, 1) == 0
    assert rank_distribution(2, 5, 5, 2, 1) == 0
    # factored form (q^2+q+1)(q^2+1)^2(q+1)(q-1) at q=2
    assert rank_distribution(2, 4, 4, 2, 2) == 7 * 25 * 3 * 1


def test_rank_distribution_sums_to_mrd_size():
    for q in (2, 3):
        for m in range(1, 6):
            for n in range(m, 6):
                for d in range(1, min(m, 3) + 1):
                    total = sum(rank_distribution(q, m, n, d, r) for r in range(min(m, n) + 1))
                    assert total == mrd_size(q, m, n, d), (q, m, n, d)


@pytest.mark.parametrize("q,d", [(2, 2), (2, 3)])
def test_rank_distribution_matches_gabidulin_histogram(q, d):
    code = gabidulin(q, 4, 4, d)
    hist = Counter(rank(w) for w in code.words)
    for r in range(5):
        assert hist.get(r, 0) == rank_distribution(q, 4, 4, d, r)


def test_restricted_rank_code_materialized():
    # its size is the partial sum of the additive rank distribution
    for R, size in [([0, 1, 2], 526), ([0, 1, 2, 3], 2776), ([0, 1, 2, 3, 4], 4096)]:
        assert sum(rank_distribution(2, 4, 4, 2, r) for r in R) == size
        assert len(restricted_rank_code(2, 4, 4, 2, R)) == size
    code = restricted_rank_code(2, 4, 4, 2, [0, 2])
    assert len(code) == 526
    for w in code.words:
        assert (w.rows, w.cols) == (4, 4)
        assert rank(w) in (0, 2)


def test_mrd_coset_partition_small_exhaustive():
    parts = mrd_coset_partition(2, 2, 2, 1, 2)
    assert len(parts) == 4 and all(len(p) == 4 for p in parts)
    union = [w for p in parts for w in p.words]
    assert len(set(union)) == 16  # all 2x2 matrices
    for p in parts:
        for a, b in itertools.combinations(p.words, 2):
            assert rank_distance(a, b) >= 2
    for p1, p2 in itertools.combinations(parts, 2):
        for a in p1.words:
            for b in p2.words:
                assert rank_distance(a, b) >= 1


def test_mrd_coset_partition_4x4():
    parts = mrd_coset_partition(2, 4, 4, 2, 3)
    assert len(parts) == 2**4 and all(len(p) == 2**8 for p in parts)
    union = set()
    for p in parts:
        union.update(p.words)
    assert len(union) == 2**12
    # sampled distance checks
    import random

    rng = random.Random(1)
    for _ in range(60):
        p = rng.choice(parts)
        a, b = rng.sample(list(p.words), 2)
        assert rank_distance(a, b) >= 3
    for _ in range(60):
        p1, p2 = rng.sample(parts, 2)
        assert rank_distance(rng.choice(p1.words), rng.choice(p2.words)) >= 2


def test_coset_partition_degenerate():
    parts = mrd_coset_partition(2, 3, 3, 2, 2)
    assert len(parts) == 1
    assert len(parts[0]) == mrd_size(2, 3, 3, 2)


def test_sumrank_pair_and_product():
    # index-paired words of codes at rank distances 1 and 2 are >= 3 apart in
    # sum-rank, as `two_block_sumrank_code` pairs its middle words; all pairs
    # of a distance-3 code with one word stay >= 3 apart
    a = gabidulin(2, 3, 3, 1)
    b = gabidulin(2, 3, 3, 2)
    pair = list(zip(a.words, b.words))
    assert len(pair) == min(len(a), len(b))
    for x, y in itertools.combinations(pair, 2):
        assert sumrank_distance(x, y) >= 3
    zero = MatGF.zero(F2, 3, 3)
    prod = list(itertools.product(gabidulin(2, 3, 3, 3).words, [zero]))
    assert len(prod) == 8
    for x, y in itertools.combinations(prod, 2):
        assert sumrank_distance(x, y) >= 3
        assert sum_rank(x) + sum_rank(y) >= sumrank_distance(x, y)


@pytest.mark.parametrize("q", [2, 3])
def test_two_block_sumrank_code(q):
    code = two_block_sumrank_code(q)
    expected = q**5 + q**4 + 2 * q**3 - q**2 - q
    assert len(code) == expected
    assert len(set(code.words)) == expected
    for w in code.words:
        assert sum_rank(w) <= 3
    if q == 2:
        assert expected == 58
        for x, y in itertools.combinations(code.words, 2):
            assert sumrank_distance(x, y) >= 3
    else:
        import random

        rng = random.Random(4)
        words = list(code.words)
        for _ in range(400):
            x, y = rng.sample(words, 2)
            assert sumrank_distance(x, y) >= 3


def test_fdrm_upper_bound_examples():
    F = ferrers_of((1, 0, 1, 1, 0, 1, 0, 0, 0))
    assert fdrm_upper_bound(F, 3, 2) == 2**7
    assert fdrm_upper_bound(F, 1, 2) == 2**16
    rect = FerrersDiagram((4, 4, 4))
    assert fdrm_upper_bound(rect, 3, 2) == 16
    # rectangular k x m meets the MRD exponent
    for k, m, delta in [(3, 4, 3), (2, 5, 2), (4, 4, 2)]:
        assert fdrm_upper_bound(FerrersDiagram((m,) * k), delta, 2) == mrd_size(2, k, m, delta)


def test_fdrm_construct_trivial_cases():
    two_dots = FerrersDiagram((1, 1))
    code = fdrm_construct(two_dots, 1, 2)
    assert len(code) == 4
    single = FerrersDiagram((1,))
    assert len(fdrm_construct(single, 1, 3)) == 3
    assert len(fdrm_construct(two_dots, 3, 2)) == 1  # bound collapses to one word


def test_fdrm_construct_rectangular():
    rect = FerrersDiagram((4, 4, 4))
    code = fdrm_construct(rect, 3, 2)
    assert len(code) == 16
    for a, b in itertools.combinations(code.words, 2):
        assert rank_distance(a, b) >= 3
    for w in code.words:
        assert (w.rows, w.cols) == (3, 4)


@pytest.mark.parametrize("rows,size", [((6, 6, 5), 32), ((5, 5, 4, 3), 16)])
def test_fdrm_greedy_takes_the_rectangle_past_2_16_fillings(rows, size):
    # 17 dots give 2^17 fillings, too many for the greedy search, so the
    # diagram gets its rectangular sub-MRD basis; the code is linear, so
    # its minimum distance is the least rank of a nonzero word
    F = FerrersDiagram(rows)
    assert not F.rectangular() and 2 ** F.dot_count() > 1 << 16
    assert _fdrm_greedy(F, 3, 2) == _fdrm_rect_subcode(F, 3, 2)
    code = fdrm_construct(F, 3, 2)
    assert len(code) == size
    assert min(rank(w) for w in code.words if any(map(any, w.entries))) >= 3


@pytest.mark.parametrize("pivot", [
    (1, 0, 1, 1, 0, 1, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0),
    (1, 0, 1, 0, 1, 0, 0),
    (0, 1, 1, 0, 1, 0, 0, 1),
])
def test_fdrm_delta2_meets_bound(pivot):
    F = ferrers_of(pivot)
    code = fdrm_construct(F, 2, 2)
    assert len(code) == fdrm_upper_bound(F, 2, 2)
    cells = set(F.cells())
    for w in code.words:
        for i in range(w.rows):
            for j in range(w.cols):
                if w.entries[i][j]:
                    assert (i, j) in cells
    import random

    rng = random.Random(9)
    words = list(code.words)
    sample = words if len(words) <= 64 else rng.sample(words, 64)
    for a, b in itertools.combinations(sample, 2):
        assert rank_distance(a, b) >= 2


def test_fdrm_delta2_q3():
    F = ferrers_of((1, 0, 1, 1, 0, 0))
    code = fdrm_construct(F, 2, 3)
    assert len(code) == fdrm_upper_bound(F, 2, 3)
    for a, b in itertools.combinations(code.words, 2):
        assert rank_distance(a, b) >= 2


@pytest.mark.parametrize("q, n_max", [(2, 7), (3, 6)])
def test_fdrm_sizes_agree_with_bound_and_booked_sizes(q, n_max):
    """Every pivot vector of length <= n_max and delta in {1, 2, 3}: the
    built code has between 1 and fdrm_upper_bound words, exactly the bound
    where `_fdrm_meets_bound` holds, and the multilevel lower bound never
    books more than echelon_ferrers builds on the same greedy skeleton."""
    built = {}
    for n in range(1, n_max + 1):
        for v in itertools.product((0, 1), repeat=n):
            F = ferrers_of(v)
            for delta in (1, 2, 3):
                size, bound = len(fdrm_construct(F, delta, q)), fdrm_upper_bound(F, delta, q)
                assert 1 <= size <= bound
                assert size == bound or not _fdrm_meets_bound(F, delta)
                built[v, delta] = size
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            for delta in (1, 2, 3):
                skeleton = skeleton_greedy(q, n, k, 2 * delta)
                assert _ef_achievable_size(q, n, k, 2 * delta) <= sum(built[v, delta] for v in skeleton)


@pytest.mark.parametrize("row_lengths", [(1, 3), (0, 2), (1, 3, 3), (2, -1)],
                         ids=["rising", "zero-top-row", "rising-then-flat", "negative"])
def test_ferrers_diagram_rejects_rows_out_of_order(row_lengths):
    # "top r rows times the r-th row length" is a sub-diagram only when the
    # rows weakly decrease: unchecked, (1, 3, 3) at delta 3 gave 8 words
    # (bound 4) with entries off its dots
    with pytest.raises(ValueError, match="weakly decreasing"):
        FerrersDiagram(row_lengths)


def test_rectangular_ignores_zero_rows():
    assert FerrersDiagram((3, 3, 0, 0)).rectangular()
    assert FerrersDiagram(()).rectangular() and FerrersDiagram((0, 0)).rectangular()
    assert not FerrersDiagram((3, 2, 0)).rectangular()


def test_fdrm_greedy_fallback():
    # small non-rectangular diagram at delta 3: best effort, support + distance hold
    F = FerrersDiagram((3, 3, 2))
    code = fdrm_construct(F, 3, 2)
    assert len(code) >= 1
    cells = set(F.cells())
    for w in code.words:
        for i in range(w.rows):
            for j in range(w.cols):
                if w.entries[i][j]:
                    assert (i, j) in cells
    for a, b in itertools.combinations(code.words, 2):
        assert rank_distance(a, b) >= 3
