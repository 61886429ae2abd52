import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scodes import spaces, verify
from scodes.constructions import Cdc, lifted_mrd, partial_spread, single_codeword
from scodes.gfq import GF
from scodes.qcombi import gauss_int
from scodes.spaces import MatGF, Subspace, dual, enumerate_grassmannian, rank, subspace_distance
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
def field_and_length(draw, n_max=6):
    q = draw(st.sampled_from(sorted(MAX_N)))
    return q, draw(st.integers(1, min(n_max, MAX_N[q])))


@st.composite
def subspace_pairs(draw):
    q, n = draw(field_and_length())
    return q, n, draw(subspace_of(q, n)), draw(subspace_of(q, n))


@st.composite
def small_codes(draw):
    """Mixed-dimension codes, repeated words allowed."""
    q, n = draw(field_and_length(n_max=5))
    words = draw(st.lists(subspace_of(q, n), min_size=2, max_size=12))
    return Cdc(q, n, words[0].k, 0, tuple(words))


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


@given(subspace_pairs())
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


@given(small_codes(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_point_and_rank_kernels_report_the_same(code, histogram):
    by_points = min_distance(code, "exact", histogram=histogram)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_MASK_BYTES_CAP", -1)
        by_rank = min_distance(code, "exact", histogram=histogram)
    assert (by_points.kernel, by_rank.kernel) == ("points", "rank")
    assert by_points.min_distance == by_rank.min_distance
    assert by_points.witness == by_rank.witness
    assert by_points.histogram == by_rank.histogram


def test_point_kernel_calls_no_rank_code(monkeypatch):
    code = lifted_mrd(3, 5, 2, 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("rank code called by the point kernel")

    for name in ("rref", "rank", "_stack_rank", "subspace_distance", "subspace_distance_capped"):
        monkeypatch.setattr(spaces, name, forbidden)
    for name in ("subspace_distance", "subspace_distance_capped"):
        monkeypatch.setattr(verify, name, forbidden)
    for histogram in (False, True):
        rep = min_distance(code, "exact", histogram=histogram)
        assert rep.kernel == "points" and rep.min_distance == 4


NOT_RREF = {
    "pivot-column-not-cleared": [[1, 2, 0, 0], [0, 1, 0, 1]],
    "pivot-not-one": [[2, 0, 0, 0]],
    "pivot-not-one-before-a-one": [[0, 2, 1, 0]],
    "pivots-not-increasing": [[0, 1, 0, 0], [1, 0, 0, 0]],
    "zero-row": [[1, 0, 0, 0], [0, 0, 0, 0]],
    "entry-q": [[1, 0, 0, 3]],
}


@pytest.mark.parametrize("rows", list(NOT_RREF.values()), ids=list(NOT_RREF))
def test_exact_scan_rejects_rows_not_in_rref(rows, monkeypatch):
    # no checked entry point makes such a word: put the rows in place of a
    # good word's, so that only the verifier's own check can catch them
    bad = Subspace.from_matrix(MatGF(F3, [[1, 0, 0, 0], [0, 1, 0, 0]][:len(rows)]))
    bad.rref = MatGF(F3, rows)
    good = Subspace.from_matrix(MatGF(F3, [[0, 0, 1, 0]]))
    with pytest.raises(ValueError, match="RREF"):
        min_distance(Cdc(3, 4, 1, 1, (good, bad)), "exact")
    monkeypatch.setattr(verify, "_MASK_BYTES_CAP", -1)  # the rank kernel reduces at pivots too
    with pytest.raises(ValueError, match="RREF"):
        min_distance(Cdc(3, 4, 1, 1, (bad, good)), "exact")


@pytest.mark.parametrize("rows", [*NOT_RREF.values(), [[1, 0, 0]]], ids=[*NOT_RREF, "short-row"])
def test_from_rref_rejects_rows_not_in_rref(rows):
    with pytest.raises(ValueError):
        Subspace.from_rref(F3, 4, rows)


def test_from_rref_accepts_rref_rows():
    for rows in ([], [[1, 0, 2, 0]], [[1, 2, 0, 0], [0, 0, 1, 1]]):
        assert Subspace.from_rref(F3, 4, rows) == Subspace.from_matrix(MatGF(F3, rows, 4))


def test_point_count_outside_gauss_integers_is_an_error(monkeypatch):
    lines = tuple(itertools.islice(enumerate_grassmannian(2, 4, 2), 2))
    # two points shared by every word: 2 is no [t]_2
    monkeypatch.setattr(Subspace, "points", lambda self: iter([(1, 0, 0, 0), (0, 1, 0, 0)]))
    with pytest.raises(ValueError, match="not a point count"):
        min_distance(Cdc(2, 4, 2, 2, lines), "exact")
