import itertools
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scodes import spaces, verify
from scodes.constructions import Cdc, lifted_mrd, partial_spread, single_codeword
from scodes.gfq import GF
from scodes.qcombi import gauss_int
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


def test_min_distance_histogram():
    code = partial_spread(2, 6, 3)
    rep = min_distance(code, "exact", histogram=True)
    assert rep.min_distance == 6
    assert sum(rep.histogram.values()) == 9 * 8 // 2
    assert set(rep.histogram) == {6}


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
    assert rep.seed == 42
    assert rep.kernel == "rank"
    assert rep.min_distance >= 4
    rep2 = min_distance(code, "sampled", sample_count=500, seed=42)
    assert rep2.min_distance == rep.min_distance  # deterministic per seed


@pytest.mark.parametrize("count", [0, -5])
def test_min_distance_sampled_needs_a_positive_count(count):
    with pytest.raises(ValueError, match="sample count"):
        min_distance(partial_spread(2, 6, 2), "sampled", sample_count=count)


def test_min_distance_cap():
    code = partial_spread(2, 8, 2)
    with pytest.raises(ValueError):
        min_distance(code, "exact", cap=10)


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
    # d < 2k branch: the full Grassmannian at distance 2
    assert max_code_exhaustive(2, 4, 2, 2) == 35
    assert max_code_exhaustive(2, 4, 2, 4) == 5


def test_max_code_exhaustive_degenerate_dimensions():
    assert max_code_exhaustive(2, 3, 4, 8) == 0  # no 4-space in GF(2)^3
    assert max_code_exhaustive(3, 3, 0, 0) == 1  # the zero space alone
    assert max_code_exhaustive(2, 3, 3, 6) == 1  # the whole space alone


def test_histogram_pair_count_random_code():
    import random

    rng = random.Random(0)
    words = rng.sample(list(enumerate_grassmannian(2, 5, 2)), 12)
    code = Cdc(2, 5, 2, 2, tuple(words))
    rep = min_distance(code, "exact", histogram=True)
    assert sum(rep.histogram.values()) == 12 * 11 // 2
    # histogram minimum agrees with the capped scan
    rep2 = min_distance(code, "exact")
    assert rep2.min_distance == rep.min_distance


def test_exact_scan_of_a_large_partial_spread_is_fast():
    """8737 4-spaces of GF(2)^17 that share no point: the scan meets no
    pair through a point (a scan over all 38 million pairs takes minutes)."""
    start = time.perf_counter()
    rep = min_distance(partial_spread(2, 17, 4), "exact")
    assert (rep.code_size, rep.min_distance, rep.witness, rep.kernel) == (8737, 8, (0, 1), "points")
    assert time.perf_counter() - start < 30


@given(same_dimension_pairs())
@settings(max_examples=150, deadline=None)
def test_point_kernel_agrees_with_rank_and_dual_formulas(pair):
    q, n, U, W = pair
    rep = min_distance(Cdc(q, n, U.k, 0, (U, W)), "exact")
    assert rep.kernel == "points"
    # dim(U∩W) by duality, (U∩W)⊥ = U⊥ + W⊥, with no stack of U and W
    meet = n - rank(dual(U).rref.vstack(dual(W).rref))
    assert rep.min_distance == subspace_distance(U, W) == U.k + W.k - 2 * meet


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


@given(field_and_length().flatmap(lambda qn: subspace_of(*qn)))
@settings(max_examples=150, deadline=None)
def test_points_match_normalize_and_dedup(U):
    F, n = U.field, U.ambient_n
    brute = set()
    for coeffs in itertools.product(range(F.q), repeat=U.k):
        v = [0] * n
        for c, row in zip(coeffs, U.rref.entries):
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
        if any(v):
            inv = F.inv(next(x for x in v if x))
            brute.add(tuple(F.mul(inv, x) for x in v))
    pts = list(U.points())
    assert len(pts) == len(set(pts)) == gauss_int(U.k, F.q)
    assert set(pts) == brute


@given(constant_dimension_codes(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_exact_scan_matches_a_brute_force_pair_loop(code, histogram):
    dists = {(i, j): subspace_distance(U, W)
             for (i, U), (j, W) in itertools.combinations(enumerate(code.words), 2)}
    best = min(dists.values())
    rep = min_distance(code, "exact", histogram=histogram)
    assert rep.kernel == "points" and rep.certifies
    assert rep.min_distance == best
    assert rep.witness == next(pair for pair, dist in dists.items() if dist == best)
    assert rep.histogram == (dict(Counter(dists.values())) if histogram else None)
    # past the index memory cap the same pairs are compared one by one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_INDEX_BYTES_CAP", -1)
        by_pairs = min_distance(code, "exact", histogram=histogram)
    assert by_pairs.kernel == "rank" and by_pairs.certifies
    assert (by_pairs.min_distance, by_pairs.witness, by_pairs.histogram) == \
        (rep.min_distance, rep.witness, rep.histogram)


def test_exact_scan_over_a_large_field_compares_pairs():
    # each line of GF(10^9 + 7)^4 holds 10^9 + 1 points: too many to index
    F = GF(1000000007)
    lines = [Subspace.from_rref(F, 4, rows) for rows in
             ([[1, 0, 5, 7], [0, 1, 1000000006, 3]], [[1, 0, 0, 0], [0, 1, 0, 0]],
              [[1, 0, 0, 0], [0, 0, 1, 0]])]
    rep = min_distance(Cdc(F.q, 4, 2, 2, tuple(lines)), "exact", histogram=True)
    assert (rep.min_distance, rep.witness, rep.kernel, rep.certifies) == (2, (1, 2), "rank", True)
    assert rep.histogram == {4: 2, 2: 1}


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
    # the second code's 3-spaces of GF(3)^5 are scanned as their complements
    codes = (lifted_mrd(3, 5, 2, 4), lifted_mrd(3, 5, 3, 4))

    def forbidden(*args, **kwargs):
        raise AssertionError("rank code called by the point kernel")

    for name in ("rref", "rank", "_stack_rank", "subspace_distance", "subspace_distance_capped"):
        monkeypatch.setattr(spaces, name, forbidden)
    monkeypatch.setattr(verify, "subspace_distance_capped", forbidden)
    for code, histogram in itertools.product(codes, (False, True)):
        rep = min_distance(code, "exact", histogram=histogram)
        assert rep.kernel == "points" and rep.min_distance == 4


@given(field_and_length().flatmap(lambda qn: subspace_of(*qn)))
@settings(max_examples=100, deadline=None)
def test_reversed_dual_is_the_complement_with_columns_reversed(U):
    n = U.ambient_n
    # equal stored rows: the formula's rows are the canonical RREF
    assert verify._reversed_dual(U) == permute_columns(dual(U), range(n - 1, -1, -1))


# the 4-spaces of GF(2)^6 are indexed as their complements, 2-spaces
@pytest.mark.parametrize("k, indexed_k", [(3, 3), (4, 2)])
def test_index_gate_sits_at_the_estimated_memory(monkeypatch, k, indexed_k):
    code = lifted_mrd(2, 6, k, 4)
    need = verify._index_bytes(len(code.words), 2, 6, indexed_k)
    reports = []
    for cap in (need, need - 1):
        monkeypatch.setattr(verify, "_INDEX_BYTES_CAP", cap)
        reports.append(min_distance(code, "exact", histogram=True))
    at, past = reports
    assert (at.kernel, past.kernel) == ("points", "rank")
    assert (at.min_distance, at.witness, at.histogram) == \
        (past.min_distance, past.witness, past.histogram)


@pytest.mark.parametrize("m, q, n, k", [
    (16384, 2, 14, 7),  # lifted_mrd(2, 14, 7, 12)
    (8737, 2, 17, 4),  # partial_spread(2, 17, 4)
    (20000, 2, 12, 6), (20000, 4, 8, 4), (20000, 8, 6, 3), (20000, 3, 10, 5),
])
def test_codes_of_ordinary_fields_fit_the_index(m, q, n, k):
    assert verify._index_bytes(m, q, n, k) <= verify._INDEX_BYTES_CAP


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
    # no checked entry point makes such a word: put the rows in place of a
    # good word's, so that only the verifier's own check can catch them
    bad = Subspace.from_matrix(MatGF(F3, [[1, 0, 0, 0], [0, 1, 0, 0]][:len(rows)]))
    bad.rref = MatGF(F3, rows)
    good = Subspace.from_matrix(MatGF(F3, [[0, 0, 1, 0], [0, 0, 0, 1]][:len(rows)]))
    assert bad.k == good.k
    for words in ((good, bad), (bad, good)):
        with pytest.raises(ValueError, match="RREF"):
            min_distance(Cdc(3, 4, good.k, 2, words), "exact")


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
    monkeypatch.setattr(Subspace, "points", lambda self: iter(fake[self]))
    for histogram in (False, True):
        with pytest.raises(ValueError, match="2 shared points is not a point count"):
            min_distance(Cdc(2, 6, 3, 2, planes), "exact", histogram=histogram)


def test_point_count_outside_gauss_integers_is_an_error(monkeypatch):
    lines = tuple(itertools.islice(enumerate_grassmannian(2, 4, 2), 2))
    # two points shared by every word: 2 is no [t]_2
    monkeypatch.setattr(Subspace, "points", lambda self: iter([(1, 0, 0, 0), (0, 1, 0, 0)]))
    with pytest.raises(ValueError, match="not a point count"):
        min_distance(Cdc(2, 4, 2, 2, lines), "exact")
