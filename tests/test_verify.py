import dataclasses
import itertools
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scodes import spaces, verify
from scodes.constructions import (Cdc, echelon_ferrers, lifted_mrd, partial_spread, single_codeword,
                                  skeleton_greedy)
from scodes.gfq import GF
from scodes.qcombi import gauss_binomial, gauss_int
from scodes.spaces import (MatGF, Subspace, dual, enumerate_grassmannian, permute_columns, rank,
                           subspace_distance)
from scodes.verify import (
    is_partial_spread,
    max_code_exhaustive,
    min_distance,
    spread_summary,
)

F2 = GF(2)
F3 = GF(3)

# Largest n per field for the property tests: n <= 6 and q^n <= 6561, so a
# brute-force walk over all vectors of a subspace stays small.
MAX_N = {2: 6, 3: 6, 4: 6, 8: 4, 9: 4}


@st.composite
def subspace_of(draw, q, n):
    """Row space of a random matrix with up to n rows: any dimension 0..n."""
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=n))
    return Subspace.from_matrix(MatGF(GF(q), rows, n))


@st.composite
def k_space_of(draw, q, n, k):
    """A random k-space: k pivot columns, random entries right of each
    pivot outside the pivot columns."""
    pivots = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    rows = [[1 if c == p else 0 if c < p or c in pivots else draw(st.integers(0, q - 1))
             for c in range(n)] for p in pivots]
    return Subspace.from_rref(GF(q), n, rows)


@st.composite
def field_and_length(draw, n_max=6):
    q = draw(st.sampled_from(sorted(MAX_N)))
    return q, draw(st.integers(1, min(n_max, MAX_N[q])))


@st.composite
def subspace_pairs(draw):
    q, n = draw(field_and_length())
    return q, n, draw(subspace_of(q, n)), draw(subspace_of(q, n))


@st.composite
def same_dimension_pairs(draw):
    q, n = draw(field_and_length())
    k = draw(st.integers(0, n))
    return q, n, draw(k_space_of(q, n, k)), draw(k_space_of(q, n, k))


@st.composite
def constant_dimension_codes(draw):
    """2 to 12 k-spaces drawn from a pool of at most 12, so words repeat."""
    q, n = draw(field_and_length(n_max=5))
    k = draw(st.integers(0, n))
    pool = draw(st.lists(k_space_of(q, n, k), min_size=1, max_size=12))
    words = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    return Cdc(q, n, k, 0, tuple(words))


def test_min_distance_exact_with_witness():
    code = lifted_mrd(2, 6, 3, 4)
    rep = min_distance(code, "exact")
    assert rep.min_distance == 4
    assert rep.certifies and rep.mode == "exact"
    i, j = rep.witness
    assert subspace_distance(code.words[i], code.words[j]) == 4
    assert rep.ok()


def test_min_distance_singleton_infinite():
    code = single_codeword(2, 5, 2, 4)
    rep = min_distance(code)
    assert rep.min_distance == "infinite"
    assert rep.ok()


def test_full_grassmannian_min_two():
    words = tuple(enumerate_grassmannian(2, 4, 2))
    code = Cdc(2, 4, 2, 2, words)
    rep = min_distance(code, "exact")
    assert rep.min_distance == 2


def test_min_distance_sampled_not_certifying():
    code = partial_spread(2, 8, 2)
    rep = min_distance(code, "sampled", sample_count=500, seed=42)
    assert not rep.certifies
    assert rep.mode == "sampled"
    with pytest.raises(AttributeError):  # read off the mode, never set
        rep.certifies = True
    assert rep.seed == 42
    assert rep.kernel == "rank"
    assert rep.min_distance >= 4
    rep2 = min_distance(code, "sampled", sample_count=500, seed=42)
    assert rep2.min_distance == rep.min_distance  # deterministic per seed


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sampled_mode_matches_a_stacked_rank_oracle_on_its_draws(q):
    # several pivot classes (an echelon-Ferrers code), a lifted MRD code of
    # 2-spaces and some points, shuffled together: mixed dimensions, so odd
    # distances occur; the oracle ranks each drawn pair's stacked RREF rows
    # from scratch and keeps the first pair that attains the minimum
    words = list(echelon_ferrers(skeleton_greedy(q, 6, 3, 4), q, 4).words)
    words += lifted_mrd(q, 6, 2, 4).words
    words += itertools.islice(enumerate_grassmannian(q, 6, 1), 0, None, 7)
    random.Random(q).shuffle(words)
    code, m = Cdc(q, 6, 3, 4, tuple(words)), len(words)
    for seed, count in ((0, 300), (1, 2000), (q + 10, 2000)):
        rng = random.Random(seed)
        draws = [(rng.randrange(m), rng.randrange(m - 1)) for _ in range(count)]
        pairs = [(i, j + (j >= i)) for i, j in draws]
        dist = [2 * rank(words[i].rref.vstack(words[j].rref)) - words[i].k - words[j].k for i, j in pairs]
        best = min(dist)
        rep = min_distance(code, "sampled", sample_count=count, seed=seed)
        assert (rep.min_distance, rep.witness) == (best, pairs[dist.index(best)])


def test_sampled_mode_checks_every_word_for_its_ambient_space():
    # the last word lies in GF(2)^7, and none of the drawn pairs holds it
    words = lifted_mrd(2, 6, 2, 4).words + (Subspace.from_rref(F2, 7, [[1, 0, 0, 0, 0, 0, 0]]),)
    m = len(words)
    assert all(m - 1 not in pair for pair in verify._sampled_pairs(m, 5, 1))
    with pytest.raises(ValueError, match="ambient space mismatch"):
        min_distance(Cdc(2, 6, 2, 4, words), "sampled", sample_count=5, seed=1)


@pytest.mark.parametrize("count", [0, -5])
def test_min_distance_sampled_needs_a_positive_count(count):
    with pytest.raises(ValueError, match="sample count"):
        min_distance(partial_spread(2, 6, 2), "sampled", sample_count=count)


def test_detects_distance_violation():
    words = tuple(itertools.islice(enumerate_grassmannian(2, 4, 2), 6))
    bad = Cdc(2, 4, 2, 4, words)
    rep = min_distance(bad, "exact")
    assert rep.min_distance == 2
    assert not rep.ok()


def test_is_partial_spread_positive_and_negative():
    ok, cov = is_partial_spread(partial_spread(2, 7, 3))
    assert ok and len(cov) == 119
    planes = [
        Subspace.from_matrix(MatGF(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])),
        Subspace.from_matrix(MatGF(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),
    ]
    bad = Cdc(2, 4, 3, 2, tuple(planes))
    ok, cov = is_partial_spread(bad)
    assert not ok
    shared = [p for p, mult in cov.items() if mult > 1]
    assert (1, 0, 0, 0) in shared


def test_spread_summary_full():
    s = spread_summary(partial_spread(2, 6, 3))
    assert s == {"is_partial_spread": True, "points_covered": 63, "holes": 0,
                 "max_multiplicity": 1}


def test_pivot_structure():
    code = lifted_mrd(2, 7, 3, 4)
    assert {w.pivot for w in code.words} == {(1, 1, 1, 0, 0, 0, 0)}


def test_max_code_exhaustive_general_distance():
    # distinct k-spaces lie at least 2 apart: d <= 2 takes the full Grassmannian
    assert max_code_exhaustive(2, 4, 2, 2) == 35
    assert max_code_exhaustive(2, 5, 2, 2) == 155
    assert max_code_exhaustive(2, 6, 3, 2) == 1395
    assert max_code_exhaustive(2, 4, 2, 4) == 5


@pytest.mark.parametrize("q, n, k, d", [
    (2, 6, 3, 4),  # t = 2
    (2, 6, 3, 6),  # t = 1
    (2, 7, 3, 4),  # t = 2
    (3, 4, 2, 4),  # t = 1
])
def test_max_packing_matches_brute_force_on_random_subsets(q, n, k, d):
    # the largest subset holding word 0 whose pairs all lie >= d apart,
    # against the packing search, which starts from word 0
    rng = random.Random(f"{q}-{n}-{k}-{d}")
    grassmannian = list(enumerate_grassmannian(q, n, k))
    for _ in range(40):
        words = rng.sample(grassmannian, 14)
        clash = [sum(1 << j for j, W in enumerate(words) if j != i and subspace_distance(U, W) < d)
                 for i, U in enumerate(words)]
        best = max(
            mask.bit_count() for mask in range(1, 1 << 14, 2)
            if not any(mask >> i & 1 and clash[i] & mask for i in range(14)))
        assert verify._max_packing(words, d) == best


def test_max_code_exhaustive_degenerate_dimensions():
    assert max_code_exhaustive(2, 4, -1, 2) == 0  # no (-1)-space
    assert max_code_exhaustive(2, 3, 4, 8) == 0  # no 4-space in GF(2)^3
    assert max_code_exhaustive(3, 3, 0, 0) == 1  # the zero space alone
    assert max_code_exhaustive(2, 3, 3, 6) == 1  # the whole space alone


def test_max_code_exhaustive_searches_complements_when_2k_exceeds_n():
    # planes of GF(2)^5 are the complements of its lines: the same optimum,
    # found as fast as the (2, 5, 2, 4) search
    assert max_code_exhaustive(2, 5, 3, 4) == max_code_exhaustive(2, 5, 2, 4) == 9


@pytest.mark.parametrize("q, n, k, d", [
    (2, 5, 3, 6),  # any two planes of GF(2)^5 meet: distance <= 4
    (2, 3, 2, 4),  # any two planes of GF(2)^3 meet in a line: distance 2
    (2, 6, 4, 6),  # 4-spaces of GF(2)^6 meet in a plane: distance <= 4
    (2, 4, 2, 6),  # lines of GF(2)^4 lie at most 4 apart
    (3, 4, 1, 4),  # points lie at most 2 apart
])
def test_max_code_exhaustive_admits_one_word_beyond_the_largest_distance(q, n, k, d):
    assert max_code_exhaustive(q, n, k, d) == 1


def test_exact_scan_of_a_large_partial_spread_is_fast():
    """8737 4-spaces of GF(2)^17 that share no point: the level-1 index
    meets no key twice (a scan over all 38 million pairs takes minutes)."""
    start = time.perf_counter()
    rep = min_distance(partial_spread(2, 17, 4), "exact")
    assert (rep.code_size, rep.min_distance, rep.witness, rep.kernel) == (8737, 8, (0, 1), "subspaces")
    assert (rep.level, rep.keys) == (1, 8737 * 15)
    assert time.perf_counter() - start < 30


def test_exact_scan_of_a_whole_grassmannian_is_fast():
    """All 11,811 3-spaces of GF(2)^7 at d = 2: level 3 (one key per word)
    certifies d, and level 2 stops at word 1, which shares a 2-space with
    word 0 (the point count walks 70 million pairs through shared points)."""
    start = time.perf_counter()
    rep = min_distance(Cdc(2, 7, 3, 2, tuple(enumerate_grassmannian(2, 7, 3))), "exact")
    assert (rep.code_size, rep.min_distance, rep.witness, rep.kernel) == (11811, 2, (0, 1), "subspaces")
    assert (rep.level, rep.keys) == (3, 11811 + 2 * 7)
    assert time.perf_counter() - start < 30


@given(same_dimension_pairs())
@settings(max_examples=150, deadline=None)
def test_point_kernel_agrees_with_rank_and_dual_formulas(pair):
    q, n, U, W = pair
    code = Cdc(q, n, U.k, 0, (U, W))
    rep = min_distance(code, "exact")
    with pytest.MonkeyPatch.context() as mp:
        only_points_fit(mp)
        counted = min_distance(code, "exact")
    assert (rep.kernel, counted.kernel) == ("subspaces", "points" if min(U.k, n - U.k) else "subspaces")
    # dim(U∩W) by duality, (U∩W)⊥ = U⊥ + W⊥, with no stack of U and W
    meet = n - rank(dual(U).rref.vstack(dual(W).rref))
    assert rep.min_distance == counted.min_distance == subspace_distance(U, W) == U.k + W.k - 2 * meet


@pytest.mark.parametrize("q", sorted(MAX_N))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_capped_distance_is_exact_below_the_cap(q, data):
    """The capped distance equals the distance when that is below the cap,
    and is at least the cap otherwise; mixed dimensions included."""
    n = data.draw(st.integers(1, MAX_N[q]))
    U, W = data.draw(subspace_of(q, n)), data.draw(subspace_of(q, n))
    dist = subspace_distance(U, W)
    for cap in range(2 * n + 1):
        capped = spaces.subspace_distance_capped(U, W, cap)
        assert capped == dist if dist < cap else capped >= cap


def brute_points(U):
    """The points of U: every nonzero combination of its rows, scaled to a
    leading 1."""
    F, n = U.field, U.ambient_n
    brute = set()
    for coeffs in itertools.product(range(F.q), repeat=U.k):
        v = [0] * n
        for c, row in zip(coeffs, U.rref.entries):
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
        if any(v):
            inv = F.inv(next(x for x in v if x))
            brute.add(tuple(F.mul(inv, x) for x in v))
    return brute


@given(field_and_length().flatmap(lambda qn: subspace_of(*qn)))
@settings(max_examples=150, deadline=None)
def test_points_match_normalize_and_dedup(U):
    pts = list(next(verify._level_keys([U], 1)))
    assert len(pts) == len(set(pts)) == gauss_int(U.k, U.field.q)
    assert set(pts) == brute_points(U)


@st.composite
def spread_check_codes(draw):
    """0 to 8 k-spaces of GF(q)^n, q in {2, 3, 4}, drawn from a pool of at
    most 4, so words repeat and distinct words share points."""
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    pool = draw(st.lists(k_space_of(q, n, k), min_size=1, max_size=4))
    return Cdc(q, n, k, 2 * k, tuple(draw(st.lists(st.sampled_from(pool), max_size=8))))


@given(spread_check_codes())
@example(Cdc(2, 3, 1, 2, ()))
@example(Cdc(3, 3, 0, 0, (Subspace.zero(F3, 3),) * 2))
@settings(max_examples=200, deadline=None)
def test_spread_checks_match_a_brute_force_count(code):
    counts = Counter(p for w in code.words for p in brute_points(w))
    top = max(counts.values(), default=0)
    assert is_partial_spread(code) == (top <= 1, dict(counts))
    assert spread_summary(code) == {"is_partial_spread": top <= 1, "points_covered": len(counts),
                                    "holes": gauss_int(code.n, code.q) - len(counts),
                                    "max_multiplicity": top}


def test_spread_checks_reject_mixed_words():
    line = Subspace.from_matrix(MatGF(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    plane = Subspace.from_matrix(MatGF(F2, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    wide = Subspace.from_matrix(MatGF(F2, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]))
    over_gf3 = Subspace.from_matrix(MatGF(F3, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    for words, message in (((line, plane), "one dimension"), ((line, wide), "ambient"),
                           ((line, over_gf3), "ambient")):
        for check in (is_partial_spread, spread_summary):
            with pytest.raises(ValueError, match=message):
                check(Cdc(2, 4, 2, 4, words))


def levels_need_passes(mp, passes=3, level_1=1):
    """Estimate level 1's index at `level_1` passes and every other
    level's at `passes`."""
    mp.setattr(verify, "_index_bytes", lambda m, q, n, k, t, holders=False:
               ((level_1 if t == 1 else passes) * verify._INDEX_BYTES_CAP, 0))


def only_points_fit(mp):
    """Estimate that what every pass of the search keeps outgrows the
    budget at each level, and that the point count fits in one pass: the
    point count then scans every code with k >= 1 (no level is indexed at
    k = 0)."""
    mp.setattr(verify, "_index_bytes", lambda m, q, n, k, t, holders=False:
               (0, 0 if holders else verify._INDEX_BYTES_CAP))


@given(constant_dimension_codes(), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_exact_scan_matches_a_brute_force_pair_loop(code, offset):
    dists = {(i, j): subspace_distance(U, W)
             for (i, U), (j, W) in itertools.combinations(enumerate(code.words), 2)}
    best = min(dists.values())
    # a declared distance below, at or above the minimum: the collision
    # search then goes down from its first level, or up
    code = dataclasses.replace(code, d=best + offset)
    k = min(code.k, code.n - code.k)  # words with 2k > n are scanned as complements
    t0 = min(max(k - (code.d + 1) // 2 + 1, 1), k)
    rep = min_distance(code, "exact")
    assert (rep.kernel, rep.level) == ("subspaces", t0)
    assert rep.certifies and rep.ok() == (best >= code.d)
    assert rep.min_distance == best
    assert rep.witness == next(pair for pair, dist in dists.items() if dist == best)
    # the search fits at no level: the point count scans the whole code
    with pytest.MonkeyPatch.context() as mp:
        only_points_fit(mp)
        points = min_distance(code, "exact")
    assert (points.kernel, points.level) == (("points", 1) if k else ("subspaces", 0))
    # levels above 1 in three passes: the point count runs first, unless
    # the search starts at level 1, and gives up for the sharded search once
    # it has walked more shared points than those passes would hash keys
    walked = sum(gauss_int(k - dist // 2, code.q) for dist in dists.values())
    budget = 3 * len(code.words) * gauss_binomial(k, t0, code.q)
    with pytest.MonkeyPatch.context() as mp:
        levels_need_passes(mp)
        counted = min_distance(code, "exact")
    assert counted.kernel == ("points" if t0 > 1 and walked <= budget else "subspaces")
    # level 1 in three passes too: every level of the search is sharded
    with pytest.MonkeyPatch.context() as mp:
        levels_need_passes(mp, level_1=3)
        sharded = min_distance(code, "exact")
    assert (sharded.kernel, sharded.level) == ("subspaces", t0)
    # what every pass keeps past the budget: the same pairs are compared one
    # by one (a k = 0 search indexes no level)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_INDEX_BYTES_CAP", -1)
        by_pairs = min_distance(code, "exact")
    assert by_pairs.kernel == ("rank" if k else "subspaces")
    for other in (points, counted, sharded, by_pairs):
        assert other.certifies
        assert (other.min_distance, other.witness) == (rep.min_distance, rep.witness)


def test_witness_is_the_first_pair_in_combinations_order():
    # lines of GF(2)^3: words 1 and 2 collide first, but (0, 3) comes first
    # in pair order
    F = GF(2)
    e0, e1 = Subspace.from_rref(F, 3, [[1, 0, 0]]), Subspace.from_rref(F, 3, [[0, 1, 0]])
    for d in (0, 2):
        rep = min_distance(Cdc(2, 3, 1, d, (e0, e1, e1, e0)), "exact")
        assert (rep.min_distance, rep.witness, rep.kernel) == (0, (0, 3), "subspaces")


def test_exact_scan_over_a_large_field_compares_pairs():
    # each line of GF(10^9 + 7)^4 holds 10^9 + 1 points: too many to index
    F = GF(1000000007)
    lines = [Subspace.from_rref(F, 4, rows) for rows in
             ([[1, 0, 5, 7], [0, 1, 1000000006, 3]], [[1, 0, 0, 0], [0, 1, 0, 0]],
              [[1, 0, 0, 0], [0, 0, 1, 0]])]
    rep = min_distance(Cdc(F.q, 4, 2, 2, tuple(lines)), "exact")
    assert (rep.min_distance, rep.witness, rep.kernel, rep.certifies) == (2, (1, 2), "rank", True)


@given(subspace_pairs())
@settings(max_examples=100, deadline=None)
def test_exact_mode_rejects_mixed_dimensions_and_sampled_mode_takes_them(pair):
    q, n, U, W = pair
    assume(U.k != W.k)
    code = Cdc(q, n, U.k, 0, (U, W))
    with pytest.raises(ValueError, match="one dimension"):
        min_distance(code, "exact")
    rep = min_distance(code, "sampled", sample_count=1)
    assert not rep.certifies and rep.kernel == "rank"
    meet = n - rank(dual(U).rref.vstack(dual(W).rref))
    assert rep.min_distance == U.k + W.k - 2 * meet


def test_point_kernel_calls_no_rank_code(monkeypatch):
    # the second code's 3-spaces of GF(3)^5 are scanned as their complements;
    # declared at d = 2 the search goes down from level 2, and the third
    # code (30 lines, some meeting) makes it go up from level 1
    lines = tuple(itertools.islice(enumerate_grassmannian(3, 5, 2), 30))
    codes = (lifted_mrd(3, 5, 2, 4), lifted_mrd(3, 5, 3, 4),
             dataclasses.replace(lifted_mrd(3, 5, 2, 4), d=2), Cdc(3, 5, 2, 4, lines))

    def forbidden(*args, **kwargs):
        raise AssertionError("rank code called by the exact scan")

    for name in ("rref", "rank", "_stack_rank", "subspace_distance", "subspace_distance_capped"):
        monkeypatch.setattr(spaces, name, forbidden)
    monkeypatch.setattr(verify, "subspace_distance_capped", forbidden)
    for code, kernel in itertools.product(codes, ("subspaces", "points")):
        with pytest.MonkeyPatch.context() as mp:
            if kernel == "points":
                only_points_fit(mp)
            rep = min_distance(code, "exact")
        assert rep.kernel == kernel
        assert rep.min_distance == (2 if code.words == lines else 4)


@given(field_and_length().flatmap(lambda qn: subspace_of(*qn)))
@settings(max_examples=100, deadline=None)
def test_reversed_dual_is_the_complement_with_columns_reversed(U):
    n = U.ambient_n
    # equal stored rows: the formula's rows are the canonical RREF
    assert verify._reversed_dual(U) == permute_columns(dual(U), range(n - 1, -1, -1))


# the 4-spaces of GF(2)^6 are indexed as their complements, 2-spaces,
# whose first level takes one pass at any budget that holds the point count
@pytest.mark.parametrize("k, indexed_k, counted", [(3, 3, "points"), (4, 2, "subspaces")], ids=["3-3", "4-2"])
def test_index_gate_sits_at_the_estimated_memory(monkeypatch, k, indexed_k, counted):
    code = lifted_mrd(2, 6, k, 4)
    words = [verify._reversed_dual(w) for w in code.words] if k > indexed_k else code.words
    m, t0 = len(words), indexed_k - 1  # d = 4
    one_pass = min_distance(code, "exact")
    # the search's first level takes one pass at its estimate and two a byte
    # below it; the point count, sized with its holder lists, takes level 1
    # in one pass before a search of several passes, or gives way to it
    for holders, level, kernel in ((False, t0, "subspaces"), (True, 1, counted)):
        need = sum(verify._index_bytes(m, 2, 6, indexed_k, level, holders=holders))
        reports = []
        for cap in (need, need - 1):
            monkeypatch.setattr(verify, "_INDEX_BYTES_CAP", cap)
            reports.append(min_distance(code, "exact"))
            assert verify._passes(words, level, holders=holders) == 1 + (cap < need)
        at, past = reports
        assert (at.min_distance, at.witness) == (past.min_distance, past.witness) == \
            (one_pass.min_distance, one_pass.witness)
        assert (at.kernel, past.kernel) == (kernel, "subspaces")


@pytest.mark.parametrize("m, q, n, k", [
    (16384, 2, 14, 7),  # lifted_mrd(2, 14, 7, 12)
    (8737, 2, 17, 4),  # partial_spread(2, 17, 4)
    (20000, 2, 12, 6), (20000, 4, 8, 4), (20000, 8, 6, 3), (20000, 3, 10, 5),
])
def test_codes_of_ordinary_fields_fit_the_index(m, q, n, k):
    # the point count, holder lists and all
    assert sum(verify._index_bytes(m, q, n, k, 1, holders=True)) <= verify._INDEX_BYTES_CAP


def test_a_level_past_the_cap_leaves_the_point_count():
    # lifted_mrd(2, 14, 7, 12) would index 16384 * 2667 keys at its first
    # level: 17 passes, against one for the point count at level 1
    word = Subspace.from_rref(F2, 14, [[int(c == r) for c in range(14)] for r in range(7)])
    assert verify._passes([word] * 16384, 2) == 17
    assert verify._passes([word] * 16384, 1, holders=True) == 1


def test_the_search_sizes_level_1_without_holder_lists():
    # lifted_mrd(3, 14, 7, 14): 2187 words of 1093 points each, about 502 MB
    # of keys and column table for the search, one pass; the point count's
    # holder lists would take it to two
    word = Subspace.from_rref(F3, 14, [[int(c == r) for c in range(14)] for r in range(7)])
    assert verify._passes([word] * 2187, 1) == 1
    assert verify._passes([word] * 2187, 1, holders=True) == 2


def test_passes_keep_the_index_within_the_budget(monkeypatch):
    """4096 4-spaces of GF(2)^8 at d = 4: a budget of a fifth of the first
    level's estimate takes six passes there, one for what every pass keeps,
    and the whole scan stays within it."""
    code = lifted_mrd(2, 8, 4, 4)
    one_pass = min_distance(code, "exact")
    budget = sum(verify._index_bytes(4096, 2, 8, 4, 3)) // 5
    monkeypatch.setattr(verify, "_INDEX_BYTES_CAP", budget)
    assert verify._passes(code.words, 3) == 6
    tracemalloc.start()
    try:
        rep = min_distance(code, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget
    assert (rep.kernel, rep.level, rep.min_distance, rep.witness) == \
        (one_pass.kernel, one_pass.level, one_pass.min_distance, one_pass.witness) == \
        ("subspaces", 3, 4, (0, 257))


def test_a_multi_pass_scan_fills_each_column_once_per_level(monkeypatch):
    """The passes of a level share its column table: with six passes at
    level 3, each distinct generator column is still filled once there,
    and once at each other level the scan visits (level 1 for the point
    count that gives up, then level 2)."""
    code = lifted_mrd(2, 8, 4, 4)
    monkeypatch.setattr(verify, "_INDEX_BYTES_CAP", sum(verify._index_bytes(4096, 2, 8, 4, 3)) // 5)
    assert verify._passes(code.words, 3) == 6
    fills = Counter()
    fill = verify._Columns.__missing__

    def counted(columns, col):
        fills[columns.t, col] += 1
        return fill(columns, col)

    monkeypatch.setattr(verify._Columns, "__missing__", counted)
    rep = min_distance(code, "exact")
    assert (rep.kernel, rep.level, rep.min_distance) == ("subspaces", 3, 4)
    cols = {col for w in code.words for col in zip(*w.entries)}
    levels = {t for t, _ in fills}
    assert {2, 3} <= levels  # level 3 has no collision, so the walk goes down to level 2
    assert set(fills.values()) == {1}
    assert all({col for t, col in fills if t == level} == cols for level in levels)


def _oracle_codes(F, templates, col):
    """Each template's code for one generator column, one entry at a time."""
    codes = []
    for A in templates:
        code = 0
        for row in reversed(A):
            entry = 0
            for a, c in zip(row, col):
                entry = F.add(entry, F.mul(a, c))
            code = code * F.q + entry
        codes.append(code)
    return tuple(codes)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 257])
def test_column_codes_match_entry_by_entry_arithmetic(q):
    # GF(257) has no row tables, so the row sums take rowop's per-element path
    F, rng = GF(q), random.Random(q)
    for k in range(1, 3 if q == 257 else 4):
        if q**k <= 1000:
            cols = list(itertools.product(range(q), repeat=k))
        else:
            cols = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(200)]
        for t in range(1, k + 1):
            templates = [A.entries for A in enumerate_grassmannian(q, k, t)]
            columns = verify._Columns(F, k, t)
            for col in cols:
                assert columns[col] == _oracle_codes(F, templates, col), (k, t, col)


@pytest.mark.parametrize("code, kernel", [
    # words that share no point: the point count walks no incidence
    (dataclasses.replace(partial_spread(2, 8, 4), d=6), "points"),
    # 256 words through each point: the count gives up for the passes
    (lifted_mrd(2, 8, 4, 4), "subspaces"),
], ids=["spread", "lifted-mrd"])
def test_point_count_runs_where_it_is_cheaper_than_passes(monkeypatch, code, kernel):
    t0 = code.k - code.d // 2 + 1
    need = {t: sum(verify._index_bytes(len(code.words), 2, 8, 4, t, holders=t == 1)) for t in (1, t0)}
    one_pass = min_distance(code, "exact")
    monkeypatch.setattr(verify, "_INDEX_BYTES_CAP", (need[1] + need[t0]) // 2)
    assert verify._passes(code.words, 1, holders=True) == 1 < verify._passes(code.words, t0)
    rep = min_distance(code, "exact")
    assert (rep.kernel, rep.level) == (kernel, 1 if kernel == "points" else t0)
    assert one_pass.kernel == "subspaces"
    assert (rep.min_distance, rep.witness) == (one_pass.min_distance, one_pass.witness)


NOT_RREF = {
    "pivot-column-not-cleared": [[1, 2, 0, 0], [0, 1, 0, 1]],
    "pivot-not-one": [[2, 0, 0, 0]],
    "pivot-not-one-before-a-one": [[0, 2, 1, 0]],
    "pivots-not-increasing": [[0, 1, 0, 0], [1, 0, 0, 0]],
    "zero-row": [[1, 0, 0, 0], [0, 0, 0, 0]],
    "entry-q": [[1, 0, 0, 3]],
}


@pytest.mark.parametrize("rows", list(NOT_RREF.values()), ids=list(NOT_RREF))
def test_exact_scan_rejects_rows_not_in_rref(rows):
    # no checked entry point makes such a word: overwrite a good word's
    # stored rows with these, so that only the verifier's own check can
    # catch them
    bad = Subspace.from_matrix(MatGF(F3, [[1, 0, 0, 0], [0, 1, 0, 0]][:len(rows)]))
    bad.entries = tuple(map(tuple, rows))
    good = Subspace.from_matrix(MatGF(F3, [[0, 0, 1, 0], [0, 0, 0, 1]][:len(rows)]))
    assert bad.k == good.k
    for words in ((good, bad), (bad, good)):
        with pytest.raises(ValueError, match="RREF"):
            min_distance(Cdc(3, 4, good.k, 2, words), "exact")
        with pytest.raises(ValueError, match="RREF"):
            is_partial_spread(Cdc(3, 4, good.k, 2, words))


def _is_rref(rows, q, n):
    """RREF over GF(q), row by row: rows n long, entries in [0, q), each
    row's first nonzero entry a 1, leads increasing, lead columns cleared."""
    leads = []
    for row in rows:
        if len(row) != n or not all(0 <= x < q for x in row) or not any(row):
            return False
        leads.append(next(j for j, x in enumerate(row) if x))
        if row[leads[-1]] != 1:
            return False
    return leads == sorted(set(leads)) and all(
        [row[p] for row in rows].count(0) == len(rows) - 1 for p in leads)


@given(st.sampled_from([2, 3, 4]), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_the_row_check_accepts_exactly_the_words_in_rref(q, k, data):
    # a word in RREF with up to two entries overwritten by -1..q, and a
    # row dropped, appended or cut short, or the last row moved first, now
    # and then; the second word reuses the first's rows, sorted
    n = k + 2
    rows = [list(row) for row in data.draw(subspace_of(q, n).filter(lambda U: U.k == k)).entries]
    for _ in range(data.draw(st.integers(0, 2))):
        rows[data.draw(st.integers(0, k - 1))][data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-1, q))
    change = data.draw(st.sampled_from(["none", "none", "drop", "append", "cut", "swap"]))
    if change == "swap":
        rows.insert(0, rows.pop())
    elif change == "drop":
        rows.pop()
    elif change == "append":
        rows.append([data.draw(st.integers(0, q - 1)) for _ in range(n)])
    elif change == "cut":
        rows[-1].pop()
    rows = tuple(map(tuple, rows))
    word, other = (Subspace._trusted(GF(q), n, r, [0] * len(r)) for r in (rows, sorted(rows, reverse=True)))
    for words in ([word], [other, word]):
        if all(_is_rref(w.entries, q, n) for w in words):
            verify._check_words(words)
        else:
            with pytest.raises(ValueError, match="RREF"):
                verify._check_words(words)


# (first word, second word): the first is in RREF and the second reuses its
# rows, each of which passed the checks on one row alone, with at most one
# other good row; the second word as a whole is not in RREF
REUSED_ROWS = {
    "pivots-out-of-order": ([(1, 0, 0, 1), (0, 1, 2, 0)], [(0, 1, 2, 0), (1, 0, 0, 1)]),
    "pivot-column-not-cleared": ([(1, 0, 2, 0), (0, 1, 0, 0)], [(1, 0, 2, 0), (0, 0, 1, 0)]),
}


@pytest.mark.parametrize("first,second", list(REUSED_ROWS.values()), ids=list(REUSED_ROWS))
def test_exact_scan_rechecks_each_word_whose_rows_passed_before(first, second):
    words = [Subspace._trusted(F3, 4, rows) for rows in (first, second)]
    with pytest.raises(ValueError, match=r"not in RREF over GF\(3\) \(row 1\): " + re.escape(repr(words[1]))):
        min_distance(Cdc(3, 4, len(first), 2, tuple(words)), "exact")
    words[1] = Subspace.from_matrix(MatGF(F3, second))  # the same rows, put in RREF
    assert min_distance(Cdc(3, 4, len(first), 2, tuple(words)), "exact").certifies


# a stored row that is not in RREF (its lead is 2) and holds an entry outside [0, 3)
BAD_WORD = Subspace._trusted(F3, 4, [(2, 0, 0, 7)], [0])


@pytest.mark.parametrize("others", [(), (Subspace.from_rref(F3, 4, [[1, 0, 0, 2]]),)],
                         ids=["alone", "beside-a-good-word"])
def test_exact_scan_checks_a_one_word_code_as_a_larger_one(others):
    with pytest.raises(ValueError, match=r"not in RREF over GF\(3\)"):
        min_distance(Cdc(3, 4, 1, 2, others + (BAD_WORD,)), "exact")
    rep = min_distance(Cdc(3, 4, 1, 2, others), "exact")
    assert (rep.code_size, rep.min_distance, rep.mode, rep.certifies) == (len(others), "infinite", "exact", True)


@pytest.mark.parametrize("words", [(), (BAD_WORD,)], ids=["empty", "one-word"])
def test_a_sampled_request_on_fewer_than_two_words_is_reported_as_sampled(words):
    rep = min_distance(Cdc(3, 4, 1, 2, words), "sampled", sample_count=5, seed=3)
    assert (rep.code_size, rep.min_distance, rep.mode, rep.seed) == (len(words), "infinite", "sampled", 3)
    assert not rep.certifies


@pytest.mark.parametrize("rows", [*NOT_RREF.values(), [[1, 0, 0]]], ids=[*NOT_RREF, "short-row"])
def test_from_rref_rejects_rows_not_in_rref(rows):
    with pytest.raises(ValueError):
        Subspace.from_rref(F3, 4, rows)


def test_from_rref_accepts_rref_rows():
    for rows in ([], [[1, 0, 2, 0]], [[1, 2, 0, 0], [0, 0, 1, 1]]):
        assert Subspace.from_rref(F3, 4, rows) == Subspace.from_matrix(MatGF(F3, rows, 4))


def test_every_shared_count_is_checked(monkeypatch):
    # word 2 shares 3 = [2]_2 points with word 0 and 2 points, no [t]_2, with
    # word 1: the bad count is not the largest
    planes = tuple(itertools.islice(enumerate_grassmannian(2, 6, 3), 3))
    fake = dict(zip(planes, ([(p,) for p in range(1, 8)], [(p,) for p in range(8, 15)],
                             [(p,) for p in (1, 2, 3, 8, 9, 20, 21)])))
    monkeypatch.setattr(verify, "_level_keys", lambda words, t: (iter(fake[w]) for w in words))
    for force in (levels_need_passes, only_points_fit):  # budgeted before passes, and in place of the search
        force(monkeypatch)
        with pytest.raises(ValueError, match="2 shared points is not a point count"):
            min_distance(Cdc(2, 6, 3, 2, planes), "exact")


def test_point_count_outside_gauss_integers_is_an_error(monkeypatch):
    lines = tuple(itertools.islice(enumerate_grassmannian(2, 4, 2), 2))
    # two points shared by every word: 2 is no [t]_2
    monkeypatch.setattr(verify, "_level_keys", lambda words, t: (iter([(1, 0, 0, 0), (0, 1, 0, 0)])
                                                                for _ in words))
    levels_need_passes(monkeypatch)
    with pytest.raises(ValueError, match="not a point count"):
        min_distance(Cdc(2, 4, 2, 2, lines), "exact")


def test_an_unknown_mode_is_refused_at_any_size():
    for code in (single_codeword(2, 5, 2, 4), Cdc(2, 5, 2, 4, ()), lifted_mrd(2, 4, 2, 4)):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            min_distance(code, "bogus")


def test_the_packing_search_refuses_a_level_past_the_recursion_limit():
    # 2667 2-spaces of GF(2)^7 at t = 2: one call deep per key
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2667 keys"):
        max_code_exhaustive(2, 7, 3, 4)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("level_1, fallback", [(1, "points"), (2, "rank")])
def test_the_search_is_gated_on_the_levels_it_visits(monkeypatch, level_1, fallback):
    # level 2 fits in no number of passes, level 1 in level_1 and level 3 in one
    cap = verify._INDEX_BYTES_CAP
    monkeypatch.setattr(verify, "_index_bytes", lambda m, q, n, k, t, holders=False:
                        (level_1 * cap, 0) if t == 1 else (0, cap) if t == 2 else (0, 0))
    spread = partial_spread(2, 6, 3)
    cases = [
        (spread, ("subspaces", 1)),  # d = 2k: t0 = 1, and only level 1 gates the search
        (dataclasses.replace(spread, d=2), None),  # t0 = 3 lies past level 2
        # d = 6 is missed: the walk goes up from level 1 and reaches level 2
        (dataclasses.replace(lifted_mrd(2, 6, 3, 4), d=6), None),
    ]
    for code, route in cases:
        dists = {(i, j): subspace_distance(U, W)
                 for (i, U), (j, W) in itertools.combinations(enumerate(code.words), 2)}
        best = min(dists.values())
        rep = min_distance(code, "exact")
        assert (rep.kernel, rep.level) == (route or (fallback, 1 if fallback == "points" else None))
        assert rep.certifies and rep.min_distance == best
        assert rep.witness == next(pair for pair, dist in dists.items() if dist == best)
