import hashlib
import itertools
import operator
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scodes import constructions
from scodes.cli import read_code_file, write_code_file
from scodes.constructions import (
    Cdc,
    DPacking,
    _prefix_embed,
    auto_cdc,
    block_inserting_I,
    block_inserting_II,
    combine,
    construction_d,
    coset_construction,
    echelon_ferrers,
    find_parallelism,
    generalized_linkage,
    improved_linkage,
    lift,
    lifted_mrd,
    linkage,
    load_packing,
    mirrored_coset_construction,
    partial_spread,
    single_codeword,
    skeleton_greedy,
)
from scodes.gfq import GF
from scodes.rankmetric import (
    RankCode,
    _fdrm_exponent,
    fdrm_construct,
    gabidulin,
    mrd_coset_partition,
    rect_mrd,
    two_block_sumrank_code,
)
from scodes.spaces import (
    MatGF,
    Subspace,
    enumerate_grassmannian,
    ferrers_of,
    hamming_distance,
    rref,
    subspace_distance,
    subspace_from_filling,
)
from scodes.verify import is_partial_spread, min_distance, spread_summary

F2 = GF(2)


def exact_min(code):
    return min_distance(code, "exact").min_distance


def test_lift():
    M = MatGF(F2, [[1, 0], [1, 1]])
    U = lift(M)
    assert U.ambient_n == 4 and U.k == 2
    assert U.pivot == (1, 1, 0, 0)
    Z = MatGF.zero(F2, 3, 2)
    assert lift(Z).rref.entries == Subspace.from_matrix(
        MatGF(F2, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])).rref.entries


# (q, largest n): every k and every even d up to 2 * min(k, n-k) + 2, so
# k = 0, k = n, k > n-k and the one-word codes with d/2 > min(k, n-k) occur
LIFTED_SIZES = {2: 6, 3: 5, 4: 4, 8: 3, 9: 3}


@pytest.mark.parametrize("q", sorted(LIFTED_SIZES))
def test_lifted_mrd_words_are_the_lifted_rect_mrd_words(q):
    for n in range(1, LIFTED_SIZES[q] + 1):
        for k in range(n + 1):
            for d in range(2, 2 * min(k, n - k) + 3, 2):
                got = lifted_mrd(q, n, k, d).words
                want = [lift(w) for w in rect_mrd(q, k, n - k, d // 2).words]
                assert [w.rref.entries for w in got] == [w.rref.entries for w in want], (q, n, k, d)
                assert [w.pivot_positions() for w in got] == [w.pivot_positions() for w in want]
                assert [hash(w) for w in got] == [hash(w) for w in want]


def test_lifted_mrd_small():
    code = lifted_mrd(2, 4, 2, 4)
    assert len(code) == 4
    assert exact_min(code) == 4
    big = lifted_mrd(2, 8, 4, 6)
    assert len(big) == 256
    assert {w.pivot for w in big.words} == {(1, 1, 1, 1, 0, 0, 0, 0)}


def test_lifted_span_frees_each_span_vector_as_its_word_is_built():
    # holding the whole span list until the last word is built costs about
    # half the code's size again (a peak of 1.53 times the bytes kept)
    lifted_mrd(2, 10, 3, 4)  # fills the field and modulus caches
    tracemalloc.start()
    try:
        code = lifted_mrd(2, 10, 3, 4)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(code) == 2**14
    assert peak / kept <= 1.25


@pytest.mark.parametrize("args", [(2, 9, 3, 4), (2, 8, 4, 4)])
def test_lifted_mrd_holds_one_object_per_distinct_row(args):
    rows = [r for w in lifted_mrd(*args).words for r in w.entries]
    assert len({id(r) for r in rows}) == len(set(rows)) < len(rows) // 8


def test_lifted_mrd_words_share_their_rows_in_memory():
    # 548 bytes a word when every word held rows of its own
    lifted_mrd(2, 10, 3, 4)  # fills the field and modulus caches
    tracemalloc.start()
    try:
        code = lifted_mrd(2, 10, 3, 4)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept / len(code) < 260


def test_construction_d_joins_each_distinct_row_pair_once():
    C, M = auto_cdc(2, 6, 4, 3), rect_mrd(2, 3, 6, 2)
    words = construction_d(C, M).words
    rows = [r for w in words for r in w.entries]
    pairs = {(r, mr) for U in C.words for w in M.words for r, mr in zip(U.entries, w.entries)}
    assert len({id(r) for r in rows}) == len(set(rows)) == len(pairs) < len(rows) // 8
    assert [w.entries for w in words] == [
        tuple(r + mr for r, mr in zip(U.entries, w.entries)) for U in C.words for w in M.words]


def test_construction_d():
    C = single_codeword(2, 4, 4, 6, position="left")
    M = rect_mrd(2, 4, 4, 3)
    W = construction_d(C, M)
    assert len(W) == 256
    assert exact_min(W) == 6
    # pivot structure confined to the first block
    for v in {w.pivot for w in W.words}:
        assert sum(v[4:]) == 0
    # degenerate factors
    zero = RankCode(F2, 4, 3, 3, (MatGF.zero(F2, 4, 3),))
    emb = construction_d(C, zero)
    assert len(emb) == 1 and emb.n == 7


def test_linkage_257():
    C1 = single_codeword(2, 4, 4, 6, position="left")
    M = rect_mrd(2, 4, 4, 3)
    code = linkage(C1, C1, M)
    assert len(code) == 257
    assert exact_min(code) == 6


def test_linkage_sizes_general():
    # |C1| * |M| + |C2| at q = 3
    C1 = single_codeword(3, 4, 4, 6, position="left")
    M = rect_mrd(3, 4, 4, 3)
    code = linkage(C1, C1, M)
    assert len(code) == 3**8 + 1


def test_improved_linkage_1025():
    q, d, k = 2, 6, 4
    C1 = auto_cdc(q, 4, d, k)
    C2 = auto_cdc(q, 5 + k - d // 2, d, k)  # ambient 6: rank block width 5 plus overlap 1
    M = rect_mrd(q, k, 5, d // 2)
    code = improved_linkage(C1, C2, M)
    assert code.n == 9
    assert len(code) == 2**10 + 1 == 1025
    assert exact_min(code) == 6


def test_linkage_family_keeps_its_rule_names():
    q, d, k = 2, 6, 4
    C1 = auto_cdc(q, 4, d, k)
    plain = linkage(C1, auto_cdc(q, 5, d, k), rect_mrd(q, k, 5, d // 2))
    improved = improved_linkage(C1, auto_cdc(q, 6, d, k), rect_mrd(q, k, 5, d // 2))
    assert (plain.rule, improved.rule) == ("linkage", "improved_linkage")
    assert dict(plain.provenance[1]) == dict(improved.provenance[1]) == {"n1": 4, "n2": 5}
    # C2 must fill the rank-code block plus the overlap, 0 or k - d/2
    with pytest.raises(ValueError, match="ambient"):
        linkage(C1, auto_cdc(q, 6, d, k), rect_mrd(q, k, 5, d // 2))
    with pytest.raises(ValueError, match="ambient"):
        improved_linkage(C1, auto_cdc(q, 5, d, k), rect_mrd(q, k, 5, d // 2))


def test_improved_linkage_at_least_linkage():
    for (q, n, d, k) in [(2, 8, 4, 3), (2, 9, 6, 4), (2, 8, 6, 4)]:
        n1 = k
        n2 = n - n1
        C1 = auto_cdc(q, n1, d, k)
        plain = linkage(C1, auto_cdc(q, n2, d, k), rect_mrd(q, k, n2, d // 2))
        improved = improved_linkage(C1, auto_cdc(q, n2 + k - d // 2, d, k),
                                    rect_mrd(q, k, n2, d // 2))
        assert len(improved) >= len(plain)


def test_generalized_linkage_brute():
    q, d, k = 2, 4, 4
    C1 = auto_cdc(q, 4, d, k)
    C2 = auto_cdc(q, 4, d, k)
    M1 = rect_mrd(q, k, 4, d // 2)
    # small explicit rank-restricted code on the left block
    from scodes.rankmetric import restricted_rank_code

    M2 = restricted_rank_code(q, k, 4, d // 2, range(0, k - d // 2 + 1))
    code = generalized_linkage(C1, C2, M1, M2)
    assert len(code) == len(C1) * len(M1) + len(C2) * len(M2)
    assert exact_min(code) == 4
    # rank restriction is enforced
    bad = RankCode(F2, 4, 4, 2, (MatGF.identity(F2, 4),))
    with pytest.raises(ValueError):
        generalized_linkage(C1, C2, M1, bad)


def test_echelon_ferrers_17():
    code = echelon_ferrers([(1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 1)], 2, 6)
    assert len(code) == 17
    assert exact_min(code) == 6
    # output pivots stay inside the skeleton
    assert {w.pivot for w in code.words} <= {(1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 1)}


def test_echelon_ferrers_rejects_bad_skeleton():
    with pytest.raises(ValueError):
        echelon_ferrers([(1, 1, 1, 0, 0, 0, 0), (1, 1, 0, 1, 0, 0, 0)], 2, 6)


def test_ef_size_equals_sum_of_diagram_codes():
    from scodes.rankmetric import fdrm_construct

    vectors = [(1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 1)]
    code = echelon_ferrers(vectors, 2, 6)
    total = sum(len(fdrm_construct(ferrers_of(v), 3, 2)) for v in vectors)
    assert len(code) == total


def test_skeleton_greedy():
    sk = skeleton_greedy(2, 7, 3, 6)
    assert (1, 1, 1, 0, 0, 0, 0) in sk
    assert len(sk) == 2
    code = echelon_ferrers(sk, 2, 6)
    assert len(code) == 17
    # maximal-distance case: only block-disjoint supports qualify
    sk2 = skeleton_greedy(2, 8, 4, 8)
    assert set(sk2) == {(1, 1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1)}


# SHA-256 over repr(((q, n, k, d), skeleton_greedy(q, n, k, d))) for
# every q in {2, 3}, n <= 10, 1 <= k <= n - 1 and even 2 <= d <= 2 min(k, n - k),
# frozen from the tuple-comparing greedy loop that preceded the popcount one.
SKELETON_GREEDY_SHA256 = "75db4f89feb51219b7d15c5248fdf0d3f6cee7a2b280a258d5ae1ef4e04d9757"


def test_skeleton_greedy_golden_digest():
    h = hashlib.sha256()
    count = 0
    for q in (2, 3):
        for n in range(2, 11):
            for k in range(1, n):
                for d in range(2, 2 * min(k, n - k) + 1, 2):
                    h.update(repr(((q, n, k, d), skeleton_greedy(q, n, k, d))).encode())
                    count += 1
    assert count == 190
    assert h.hexdigest() == SKELETON_GREEDY_SHA256


# The same digest over every q in {2, 3, 4}, 1 <= n <= 13, 0 <= k <= n and even
# 2 <= d <= 2 min(k, n - k) + 2 (921 skeletons), frozen while candidates were
# still scored by building a Ferrers diagram and its bound q^nu.
SKELETON_GREEDY_WIDE_SHA256 = "d0e34db70745a48aeb11daeb95517c0fe15ac6a5cae152f7f245823d038c35e0"


def test_skeleton_greedy_wide_golden_digest():
    h = hashlib.sha256()
    count = 0
    for q in (2, 3, 4):
        for n in range(1, 14):
            for k in range(n + 1):
                for d in range(2, 2 * min(k, n - k) + 3, 2):
                    h.update(repr(((q, n, k, d), skeleton_greedy(q, n, k, d))).encode())
                    count += 1
    assert count == 921
    assert h.hexdigest() == SKELETON_GREEDY_WIDE_SHA256


@pytest.mark.parametrize("k", [5, -1])
def test_skeleton_greedy_rejects_dimension_outside_ambient(k):
    with pytest.raises(ValueError, match=r"need 0 <= k <= n"):
        skeleton_greedy(2, 3, k, 2)


def test_skeleton_greedy_keeps_odd_distance():
    # only k is checked up front: library callers may still ask for odd d;
    # weight-2 vectors at Hamming distance >= 3 are at distance 4
    assert skeleton_greedy(2, 4, 2, 3) == ((1, 1, 0, 0), (0, 0, 1, 1))


@pytest.mark.parametrize("d", [1, 0, -2])
def test_skeleton_greedy_rejects_distance_below_2(d):
    with pytest.raises(ValueError, match=rf"need d >= 2, got d = {d}$"):
        skeleton_greedy(2, 4, 2, d)


def reference_skeleton(n, k, d):
    """The popcount greedy: every weight-k vector as an int (position 0 the
    top bit), sorted by (-nu, int), kept when at distance >= d from every
    vector kept before it, after the seed 1^k 0^(n-k)."""
    scored = sorted((-_fdrm_exponent([n - k + r - p for r, p in enumerate(s)], d // 2),
                     sum(1 << (n - 1 - p) for p in s)) for s in itertools.combinations(range(n), k))
    chosen = [((1 << k) - 1) << (n - k)]
    for _, bits in scored:
        if min(map(int.bit_count, map(operator.xor, itertools.repeat(bits), chosen))) >= d:
            chosen.append(bits)
    return chosen


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_skeleton_greedy_matches_the_popcount_greedy(d):
    cells = [(n, k) for n in range(1, 14) for k in range(n + 1)]
    if d in (6, 8):
        cells.append((16, 8))
    for n, k in cells:
        chosen = reference_skeleton(n, k, d)
        expected = tuple(tuple((u >> (n - 1 - j)) & 1 for j in range(n)) for u in chosen)
        for q in (2, 3):
            assert skeleton_greedy(q, n, k, d) == expected, (q, n, k, d)
        # a packing, and maximal: every vector left out is within < d of one kept
        for i, u in enumerate(chosen):
            assert min(map(int.bit_count, map(operator.xor, itertools.repeat(u), chosen[i + 1:])),
                       default=d) >= d
        left = {sum(1 << (n - 1 - p) for p in s) for s in itertools.combinations(range(n), k)}
        for v in left.difference(chosen):
            assert min(map(int.bit_count, map(operator.xor, itertools.repeat(v), chosen))) < d


def pivot_scores(n, k, delta):
    """The nu and the vector of each of `_pivot_scores`'s sort keys
    (k(n-k) - nu) << n | bits."""
    keys = constructions._pivot_scores(n, k, delta)
    return [k * (n - k) - (key >> n) for key in keys], [key & ((1 << n) - 1) for key in keys]


def test_packed_pivot_scores_equal_the_diagram_exponent():
    for n in range(14):
        for k in range(n + 1):
            supports = list(itertools.combinations(range(n), k))
            for delta in range(1, 5):
                nus, vectors = pivot_scores(n, k, delta)
                assert sorted(vectors) == sorted(sum(1 << (n - 1 - p) for p in s) for s in supports)
                for nu, bits in zip(nus, vectors):
                    pivots = [p for p in range(n) if bits >> (n - 1 - p) & 1]
                    rows = [n - k + r - p for r, p in enumerate(pivots)]
                    assert nu == _fdrm_exponent(rows, delta), (n, k, delta, pivots)


def test_skeleton_scores_are_the_exponents_of_ferrers_of():
    # every support's nu, and the nu `_skeleton` returns for each chosen
    # vector (the seed included), is the exponent of its `ferrers_of` diagram
    for n in range(11):
        for k in range(n + 1):
            for delta in range(1, 5):
                nus, vectors = pivot_scores(n, k, delta)
                for nu, bits in zip(nus, vectors):
                    F = ferrers_of(constructions._pivot_vector(bits, n))
                    assert nu == _fdrm_exponent(F.row_lengths, delta), (n, k, delta, bits)
                score = dict(zip(vectors, nus))
                chosen, chosen_nus = constructions._skeleton(n, k, 2 * delta)
                assert chosen_nus == [score[u] for u in chosen], (n, k, delta)


def test_skeleton_greedy_2_8_4_4():
    code = echelon_ferrers(skeleton_greedy(2, 8, 4, 4), 2, 4)
    assert len(code) >= 4096


@pytest.mark.parametrize("q,n,k,expected", [(2, 7, 3, 17), (2, 6, 3, 9), (3, 8, 3, 244)])
def test_partial_spread_sizes(q, n, k, expected):
    code = partial_spread(q, n, k)
    assert len(code) == expected
    ok, coverage = is_partial_spread(code)
    assert ok


def test_partial_spread_coverage_details():
    summary = spread_summary(partial_spread(2, 7, 3))
    assert summary == {"is_partial_spread": True, "points_covered": 119, "holes": 8,
                       "max_multiplicity": 1}
    full = spread_summary(partial_spread(2, 6, 3))
    assert full["holes"] == 0 and full["points_covered"] == 63


def test_partial_spread_coverage_exhaustive_n8():
    for k in (2, 3, 4):
        ok, _ = is_partial_spread(partial_spread(2, 8, k))
        assert ok


def test_partial_spread_distance_sampled():
    import random

    code = partial_spread(3, 8, 3)
    rng = random.Random(6)
    words = list(code.words)
    for _ in range(300):
        a, b = rng.sample(words, 2)
        assert subspace_distance(a, b) == 6


def test_find_parallelism_2_4_2():
    par = find_parallelism(2, 4, 2)
    assert len(par) == 7 and all(len(p) == 5 for p in par.parts)
    par.validate_disjoint()
    assert sum(map(len, par.parts)) == 35
    for part in par.parts:
        cdc = Cdc(2, 4, 2, 4, tuple(part))
        assert exact_min(cdc) == 4
    with pytest.raises(ValueError):
        find_parallelism(2, 6, 2)


def test_load_packing_rejects_overlap():
    par = find_parallelism(2, 4, 2)
    bad = [list(par.parts[0]), list(par.parts[0])]
    with pytest.raises(ValueError):
        load_packing(2, 4, 2, 4, bad)


def test_coset_construction_700():
    par = find_parallelism(2, 4, 2)
    code = coset_construction(par, par, rect_mrd(2, 2, 2, 2), 2, 2)
    assert len(code) == 700
    assert exact_min(code) == 4
    # each distinct row is one object: its packing row and embedded
    # rank-code row are joined once
    rows = [r for w in code.words for r in w.entries]
    assert len({id(r) for r in rows}) == len(set(rows)) == 163 < len(rows) // 8
    # pivot structure: two ones in each half
    for v in {w.pivot for w in code.words}:
        assert sum(v[:4]) == 2 and sum(v[4:]) == 2


@pytest.mark.parametrize("builder", [coset_construction, mirrored_coset_construction],
                         ids=["standard", "mirrored"])
def test_coset_construction_singleton_part(builder):
    U = Subspace.from_matrix(MatGF(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    W = Subspace.from_matrix(MatGF(F2, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    p1 = DPacking(2, 4, 2, 4, ((U,),), d_ambient=4)
    p2 = DPacking(2, 4, 2, 4, ((W,),), d_ambient=4)
    zero = RankCode(F2, 2, 2, 2, (MatGF.zero(F2, 2, 2),))
    code = builder(p1, p2, zero, 2, 2)
    assert len(code) == 1
    assert code.words[0].k == 4
    # d1 above pack1.d_ambient is refused in either orientation
    near = DPacking(2, 4, 2, 4, ((U,),), d_ambient=2)
    with pytest.raises(ValueError, match="ambient"):
        builder(near, p2, zero, 4, 0)


def test_combine_4797():
    par = find_parallelism(2, 4, 2)
    w1 = lifted_mrd(2, 8, 4, 4)
    w2 = coset_construction(par, par, rect_mrd(2, 2, 2, 2), 2, 2)
    w3 = single_codeword(2, 8, 4, 4, position="right")
    code = combine([w1, w2, w3])
    assert len(code) == 4797
    poly = lambda q: q**12 + q**2 * (q**2 + q + 1) * (q**2 + 1) ** 2 + 1
    assert len(code) == poly(2)


def test_combine_single_and_detects_violation():
    w1 = lifted_mrd(2, 6, 3, 4)
    assert combine([w1]) is w1
    w_bad = single_codeword(2, 6, 3, 4, position="left")  # overlaps the lifted code's pivot block
    with pytest.raises(ValueError):
        combine([w1, w_bad])


def test_combine_refuses_a_scan_above_the_cap(monkeypatch):
    import scodes.constructions as constructions

    ef = echelon_ferrers(skeleton_greedy(2, 6, 3, 4), 2, 4)
    halves = [Cdc(2, 6, 3, 4, ef.words[i::2]) for i in (0, 1)]
    assert dict(combine(halves).provenance[1])["certificates"] == ("brute force",)
    monkeypatch.setattr(constructions, "_SCAN_CAP", len(halves[0]) * len(halves[1]) - 1)
    with pytest.raises(ValueError, match="too large to scan"):
        combine(halves)
    # an empty subcode needs no scan
    assert len(combine([halves[0], Cdc(2, 6, 3, 4, ())])) == len(halves[0])


def test_block_inserting_I_512():
    q = 2
    C = single_codeword(q, 3, 3, 6, position="left")
    zero = RankCode(GF(q), 3, 3, 3, (MatGF.zero(GF(q), 3, 3),))
    pack = mrd_coset_partition(q, 3, 3, 2, 3)
    code = block_inserting_I((3, 3, 3, 3), 2, 4, C, C, zero, zero, pack, pack)
    assert len(code) == 512
    assert exact_min(code) == 6


def test_block_inserting_II_58():
    q = 2
    C = single_codeword(q, 3, 3, 6, position="left")
    code = block_inserting_II((3, 3, 3, 3), 6, two_block_sumrank_code(q), C, C)
    assert len(code) == 58
    assert exact_min(code) == 6


def test_block_inserting_rank_restrictions_enforced():
    q = 2
    C = single_codeword(q, 3, 3, 6, position="left")
    pack = mrd_coset_partition(q, 3, 3, 2, 3)
    eye = RankCode(GF(q), 3, 3, 3, (MatGF.identity(GF(q), 3),))
    with pytest.raises(ValueError):
        block_inserting_I((3, 3, 3, 3), 2, 4, C, C, eye, eye, pack, pack)


def test_combined_12_6_6_reduced_scale():
    q = 2
    C6 = single_codeword(q, 6, 6, 6, position="left")
    M1 = gabidulin(q, 6, 6, 6)
    zero66 = RankCode(GF(q), 6, 6, 3, (MatGF.zero(GF(q), 6, 6),))
    w1 = generalized_linkage(C6, C6, M1, zero66)
    C3 = single_codeword(q, 3, 3, 6, position="left")
    zero33 = RankCode(GF(q), 3, 3, 3, (MatGF.zero(GF(q), 3, 3),))
    pack = mrd_coset_partition(q, 3, 3, 2, 3)
    w2 = block_inserting_I((3, 3, 3, 3), 2, 4, C3, C3, zero33, zero33, pack, pack)
    w3 = block_inserting_II((3, 3, 3, 3), 6, two_block_sumrank_code(q), C3, C3)
    code = combine([w1, w2, w3])
    assert len(code) == len(w1) + 512 + 58
    assert exact_min(code) == 6


@pytest.mark.parametrize("q, n, k", [(2, 5, 2), (3, 4, 2)])
def test_pivot_hamming_bound_against_verifier(q, n, k):
    # combine's one shortcut, d_S(U, W) >= d_H(v(U), v(W)), judged on every
    # pair of a Grassmannian by the verifier's exact scan
    words = list(enumerate_grassmannian(q, n, k))
    for U, W in itertools.combinations(words, 2):
        pair = Cdc(q, n, k, 2, (U, W))
        assert min_distance(pair, "exact").min_distance >= hamming_distance(U.pivot, W.pivot)


def _small_subcodes(q, n, k, d):
    ef = echelon_ferrers(skeleton_greedy(q, n, k, d), q, d)
    # the two halves of one code share pivot vectors, so only a scan passes them
    halves = [Cdc(q, n, k, d, ef.words[i::2], ("half", ())) for i in (0, 1)]
    m = n - k  # linkage: C1 in the first m columns, a k x k rank block
    return [
        lifted_mrd(q, n, k, d),
        single_codeword(q, n, k, d, position="left"),
        single_codeword(q, n, k, d, position="right"),
        ef,
        linkage(auto_cdc(q, m, d, k), auto_cdc(q, k, d, k), rect_mrd(q, k, k, d // 2)),
        *halves,
    ]


@pytest.mark.parametrize("q, n, k, d", [(2, 6, 3, 4), (2, 7, 3, 4), (3, 5, 2, 4), (2, 6, 2, 4)])
def test_combine_pairs_against_verifier(q, n, k, d):
    # combine either refuses a pair or returns a union the verifier passes
    outcomes = set()
    for A, B in itertools.combinations(_small_subcodes(q, n, k, d), 2):
        try:
            code = combine([A, B])
        except ValueError:
            outcomes.add("refused")
            continue
        assert exact_min(code) >= d
        outcomes.update(dict(code.provenance[1])["certificates"])
    assert outcomes == {"refused", "pivot-structure Hamming distance", "brute force"}


def test_auto_cdc_degenerate_and_spread():
    assert len(auto_cdc(2, 4, 10, 2)) == 1
    assert len(auto_cdc(2, 6, 6, 3)) == 9
    assert len(auto_cdc(2, 7, 6, 3)) == 17


def test_coset_sum_symmetric_roles():
    # seven disjoint partial line spreads of GF(2)^5, each line joining the
    # first class it stays 4 away from
    par = find_parallelism(2, 4, 2)
    classes: list[list[Subspace]] = []
    for U in enumerate_grassmannian(2, 5, 2):
        cls = next((c for c in classes if all(subspace_distance(U, W) >= 4 for W in c)), None)
        if cls is None:
            cls = []
            classes.append(cls)
        cls.append(U)
    firsts = load_packing(2, 5, 2, 4, classes[:7])
    # cardinalities of the two swapped coset constructions agree: both are the
    # sum over matched parts of |P_i| |P'_i|
    zero1 = RankCode(F2, 2, 3, 2, (MatGF.zero(F2, 2, 3),))
    zero2 = RankCode(F2, 2, 2, 2, (MatGF.zero(F2, 2, 2),))
    c1 = coset_construction(par, firsts, zero1, 2, 2)
    c2 = coset_construction(firsts, par, zero2, 2, 2)
    assert len(c1) == len(c2) == sum(len(a) * len(b) for a, b in zip(par.parts, firsts.parts))
    assert exact_min(c1) == 4 and exact_min(c2) == 4


def test_pivot_structure_lemmas():
    # construction-d pivots live in the first block; coset pivots split k1/k2
    C = auto_cdc(2, 5, 4, 2)
    M = rect_mrd(2, 2, 3, 2)
    W = construction_d(C, M)
    for v in {w.pivot for w in W.words}:
        assert sum(v[:5]) == 2 and sum(v[5:]) == 0


def test_echelon_ferrers_revalidates_passed_skeleton():
    # a skeleton built for distance 4 cannot be used at distance 6
    sk = skeleton_greedy(2, 9, 6, 4)
    with pytest.raises(ValueError):
        echelon_ferrers(sk, 2, 6)


def test_echelon_ferrers_2_9_4_6():
    code = echelon_ferrers(skeleton_greedy(2, 9, 4, 6), 2, 6)
    assert len(code) >= 1025
    assert min_distance(code, "exact").min_distance == 6


def test_echelon_ferrers_289_at_7_4_3():
    code = echelon_ferrers(skeleton_greedy(2, 7, 3, 4), 2, 4)
    assert len(code) == 289
    assert min_distance(code, "exact").min_distance == 4


def test_construction_d_distance_mismatch():
    C = single_codeword(2, 4, 4, 6, position="left")
    weak = rect_mrd(2, 4, 4, 2)  # rank distance 2 < 6/2
    with pytest.raises(ValueError):
        construction_d(C, weak)


def test_improved_linkage_width_underflow():
    q, d, k = 2, 8, 4
    C1 = single_codeword(q, 3, 3, 8, position="left")  # n1 = 3 < k - d/2 offset
    C2 = single_codeword(q, 4, 4, 8, position="left")
    M = rect_mrd(q, 3, 4, 4)
    with pytest.raises(ValueError):
        improved_linkage(C1, C2, M)


def test_lifted_mrd_rejects_odd_distance():
    with pytest.raises(ValueError):
        lifted_mrd(2, 8, 4, 3)


@pytest.mark.parametrize("n, k, d", [(3, 5, 2), (3, -1, 2), (3, 2, 3)], ids=["k-above-n", "k-negative", "d-odd"])
def test_single_codeword_checks_parameters(n, k, d):
    with pytest.raises(ValueError, match="need 0 <= k <= n|even"):
        single_codeword(2, n, k, d)


# -- builders on the unchecked Subspace._trusted path ------------------------


def _size(data, top):
    return data.draw(st.integers(0, top))


def _matrix(data, F, rows, cols):
    entry = st.integers(0, F.q - 1)
    return MatGF(F, data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows)), cols)


def _subspace(data, F):
    """A subspace of GF(q)^n, n <= 4, built through the checked path."""
    n = _size(data, 4)
    return Subspace.from_matrix(_matrix(data, F, _size(data, 3), n))


def _lift_words(data, F):
    return [lift(_matrix(data, F, _size(data, 3), _size(data, 3)))]


def _construction_d_words(data, F):
    U, m = _subspace(data, F), _size(data, 3)
    M = RankCode(F, U.k, m, 1, (_matrix(data, F, U.k, m),))
    return construction_d(Cdc(F.q, U.ambient_n, U.k, 2, (U,)), M).words


def _prefix_embed_words(data, F):
    U, left = _subspace(data, F), _size(data, 2)
    return [_prefix_embed(U, left, left + U.ambient_n + _size(data, 2))]


def _single_codeword_words(data, F):
    n = _size(data, 5)
    return single_codeword(F.q, n, _size(data, n), 2, data.draw(st.sampled_from(["left", "right"]))).words


def _coset_words(data, F):
    U1, U2 = _subspace(data, F), _subspace(data, F)
    p1 = DPacking(F.q, U1.ambient_n, U1.k, 4, ((U1,),))
    p2 = DPacking(F.q, U2.ambient_n, U2.k, 4, ((U2,),))
    cols = U2.ambient_n - U2.k
    return coset_construction(p1, p2, RankCode(F, U1.k, cols, 2, (_matrix(data, F, U1.k, cols),)), 2, 2).words


def _filling_words(data, F):
    v = data.draw(st.lists(st.integers(0, 1), max_size=6))
    D = ferrers_of(v)
    return [subspace_from_filling(F, v, _matrix(data, F, D.num_rows, D.num_cols).entries)]


def _grassmannian_words(data, F):
    n = _size(data, 4)
    return list(enumerate_grassmannian(F.q, n, _size(data, n)))


def _zero_and_full(data, F):
    n = _size(data, 4)
    return [Subspace.zero(F, n), Subspace.full(F, n)]


def _code_params(data):
    n = _size(data, 4)
    return n, _size(data, n), data.draw(st.sampled_from([2, 4, 6]))


def _lifted_mrd_words(data, F):
    return lifted_mrd(F.q, *_code_params(data)).words


def _echelon_ferrers_words(data, F):
    n, k, d = _code_params(data)
    return echelon_ferrers(skeleton_greedy(F.q, n, k, d), F.q, d).words


def _read_code_file_words(data, F):
    """The words of a code file read back, once as written and once with
    each word's rows in reverse order, so that words of two or more rows
    fail the reader's RREF shape check and go through `from_matrix`."""
    n, k, d = _code_params(data)
    code = echelon_ferrers(skeleton_greedy(F.q, n, k, d), F.q, d)
    words = []
    with tempfile.TemporaryDirectory() as tmp:
        path, reversed_path = os.path.join(tmp, "c.scode"), os.path.join(tmp, "r.scode")
        write_code_file(path, code)
        with open(path, encoding="utf-8") as fh:
            magic, header, body = fh.read().split("\n", 2)
        blocks = [block.split("\n")[::-1] for block in body.split("\n\n") if block]
        with open(reversed_path, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(["\n".join([magic, header])] + ["\n".join(b) for b in blocks]) + "\n")
        for p in (path, reversed_path):
            words += read_code_file(p).words
    assert len(words) == 2 * len(code.words)
    return words


TRUSTED_BUILDERS = {
    "lift": _lift_words,
    "construction_d": _construction_d_words,
    "prefix_embed": _prefix_embed_words,
    "single_codeword": _single_codeword_words,
    "coset": _coset_words,
    "subspace_from_filling": _filling_words,
    "enumerate_grassmannian": _grassmannian_words,
    "zero_and_full": _zero_and_full,
    "lifted_mrd": _lifted_mrd_words,
    "echelon_ferrers": _echelon_ferrers_words,
    "read_code_file": _read_code_file_words,
}


@pytest.mark.parametrize("builder", list(TRUSTED_BUILDERS.values()), ids=list(TRUSTED_BUILDERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trusted_builders_give_rref_rows(builder, data):
    F = GF(data.draw(st.sampled_from([2, 3, 4])))
    for U in builder(data, F):
        # the stored rows are a tuple of row tuples, and `rref` is their view
        assert type(U.entries) is tuple and all(type(row) is tuple for row in U.entries)
        M = MatGF(F, U.entries, U.ambient_n)  # ValueError unless every row has ambient_n entries
        assert U.rref == M
        assert U.entries == Subspace.from_matrix(M).entries
        assert U.pivot_positions() == tuple(rref(M)[1])
        checked = Subspace.from_rref(F, U.ambient_n, U.entries)
        assert U == checked and checked == U and hash(U) == hash(checked)


def _one_filling_at_a_time(field, v, fillings):
    """The subspaces with pivot vector v and these bounding-box fillings,
    each laid out on its own, cell by cell from the diagram of v, and built
    through the checked `Subspace.from_rref`."""
    n, pivots, cells = len(v), [j for j, b in enumerate(v) if b], ferrers_of(v).cells()
    words = []
    for filling in fillings:
        rows = [[int(j == p) for j in range(n)] for p in pivots]
        free = [iter([j for j in range(p + 1, n) if not v[j]]) for p in pivots]
        for i, j in cells:  # row by row, left to right
            rows[i][next(free[i])] = filling[i][j]
        words.append(Subspace.from_rref(field, n, rows))
    return words


def _same_words(words, reference):
    assert words == reference
    for U, V in zip(words, reference):
        assert U.pivot_positions() == V.pivot_positions() and hash(U) == hash(V)
        assert Subspace.from_rref(U.field, U.ambient_n, U.rref.entries) == U


FERRERS_SKELETONS = [
    (2, skeleton_greedy(2, 7, 3, 4), 4),
    (2, skeleton_greedy(2, 9, 4, 6), 6),  # non-rectangular diagrams at delta = 3
    (2, ((1, 1, 1, 0, 0, 0, 0, 0), (1, 0, 0, 1, 1, 0, 0, 0), (0, 1, 0, 1, 0, 1, 0, 0)), 4),
    (3, skeleton_greedy(3, 7, 3, 4), 4),
    (3, ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)), 4),  # a spread
]


@pytest.mark.parametrize("q, skeleton, d", FERRERS_SKELETONS)
def test_echelon_ferrers_lays_out_each_vector_once_with_the_same_words(q, skeleton, d):
    reference = []
    for v in skeleton:
        code = fdrm_construct(ferrers_of(v), d // 2, q)
        reference += _one_filling_at_a_time(GF(q), v, [w.entries for w in code.words])
    _same_words(echelon_ferrers(skeleton, q, d).words, tuple(reference))
