import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scodes.gfq import GF
from scodes.qcombi import gauss_binomial
from scodes.rankmetric import _fdrm_basis
from scodes.spaces import (
    MatGF,
    Subspace,
    _lifted_span,
    _span,
    dual,
    enumerate_grassmannian,
    ferrers_of,
    hamming_distance,
    injection_distance,
    permute_columns,
    rank,
    rref,
    subspace_distance,
    subspace_from_filling,
)

F2 = GF(2)
F3 = GF(3)

UNIQUE_GEN_MATRIX = [
    [1, 0, 1, 1, 1, 0, 1, 0, 1],
    [1, 0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 1, 0, 1],
]
UNIQUE_GEN_RREF = [
    [1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 1, 0, 1],
]


def test_rref_worked_example():
    E, piv = rref(MatGF(F2, UNIQUE_GEN_MATRIX))
    assert piv == [0, 2, 3, 5]
    assert [list(r) for r in E.entries] == UNIQUE_GEN_RREF
    assert rank(MatGF(F2, UNIQUE_GEN_MATRIX)) == 4


def test_rref_identity_and_zero():
    I = MatGF.identity(F3, 4)
    E, piv = rref(I)
    assert E == I and piv == [0, 1, 2, 3]
    Z = MatGF.zero(F3, 3, 5)
    E, piv = rref(Z)
    assert E == Z and piv == []


def test_rank_transpose_oracle():
    rng = random.Random(7)
    for _ in range(100):
        M = MatGF(F3, [[rng.randrange(3) for _ in range(6)] for _ in range(4)])
        assert rank(M) == rank(MatGF(F3, list(zip(*M.entries))))


def test_pivot_vector_worked_example():
    U = Subspace.from_matrix(MatGF(F2, UNIQUE_GEN_MATRIX))
    assert "".join(map(str, U.pivot)) == "101101000"


def test_subspace_distance_gf3_example():
    U = Subspace.from_matrix(MatGF(F3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    W = Subspace.from_matrix(MatGF(F3, [[1, 0, 2, 1], [0, 1, 0, 1]]))
    assert U.pivot == (1, 1, 0, 0)
    assert W.pivot == (1, 1, 0, 0)
    assert hamming_distance(U.pivot, W.pivot) == 0
    assert subspace_distance(U, W) == 4
    # permuting with (13)(24) exposes the distance in the pivot vectors
    perm = [2, 3, 0, 1]
    pU, pW = permute_columns(U, perm), permute_columns(W, perm)
    assert pU.pivot == (0, 0, 1, 1)
    assert pW.pivot == (1, 1, 0, 0)
    assert hamming_distance(pU.pivot, pW.pivot) == 4
    assert subspace_distance(pU, pW) == 4


def test_distance_trivial_cases():
    U = Subspace.from_matrix(MatGF(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    W = Subspace.from_matrix(MatGF(F2, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    assert subspace_distance(U, U) == 0
    assert subspace_distance(U, W) == 4
    e1 = Subspace.from_matrix(MatGF(F2, [[1, 0, 0]]))
    e12 = Subspace.from_matrix(MatGF(F2, [[1, 0, 0], [0, 1, 0]]))
    assert injection_distance(e1, e12) == 1
    assert injection_distance(e1, e1) == 0


def all_subspaces(q, n):
    out = []
    for k in range(n + 1):
        out.extend(enumerate_grassmannian(q, n, k))
    return out


def test_metric_axioms_exhaustive_f2_4():
    spaces = all_subspaces(2, 4)
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


def test_three_distance_formulas_agree_g2_5_2():
    spaces = list(enumerate_grassmannian(2, 5, 2))
    for U, W in itertools.combinations(spaces, 2):
        stacked = U.rref.vstack(W.rref)
        dim_sum = rank(stacked)
        dim_meet = U.k + W.k - dim_sum
        by_meet = U.k + W.k - 2 * dim_meet
        by_join = 2 * dim_sum - U.k - W.k
        assert subspace_distance(U, W) == by_meet == by_join


def test_injection_vs_subspace_distance_equal_dims():
    spaces = list(enumerate_grassmannian(2, 4, 2))
    for U, W in itertools.product(spaces, repeat=2):
        assert 2 * injection_distance(U, W) == subspace_distance(U, W)


def test_pivot_hamming_lower_bound_g2_5_2():
    spaces = list(enumerate_grassmannian(2, 5, 2))
    for U, W in itertools.combinations(spaces, 2):
        assert subspace_distance(U, W) >= hamming_distance(U.pivot, W.pivot)


def test_permutation_bound_and_witness_g2_4_2():
    # For every permutation the pivot Hamming distance stays a lower bound;
    # equality is attainable for many pairs (see the GF(3) worked example)
    # but NOT for all: two disjoint non-coordinate lines can never reach
    # complementary pivot supports, since column permutations preserve
    # vector weights.  The witness search documents both.
    spaces = list(enumerate_grassmannian(2, 4, 2))
    rng = random.Random(3)
    pairs = [(rng.choice(spaces), rng.choice(spaces)) for _ in range(25)]
    attained = 0
    for U, W in pairs:
        target = subspace_distance(U, W)
        best = -1
        for perm in itertools.permutations(range(4)):
            pU, pW = permute_columns(U, perm), permute_columns(W, perm)
            assert subspace_distance(pU, pW) == target  # distance preserving
            dh = hamming_distance(pU.pivot, pW.pivot)
            assert dh <= target
            best = max(best, dh)
        if best == target:
            attained += 1
    assert attained >= len(pairs) // 2


def test_permutation_witness_counterexample():
    # distance-4 pair where no single column permutation attains equality
    U = Subspace.from_matrix(MatGF(F2, [[1, 0, 0, 1], [0, 1, 1, 1]]))
    W = Subspace.from_matrix(MatGF(F2, [[1, 0, 1, 0], [0, 1, 0, 1]]))
    assert subspace_distance(U, W) == 4
    best = max(
        hamming_distance(permute_columns(U, p).pivot, permute_columns(W, p).pivot)
        for p in itertools.permutations(range(4))
    )
    assert best == 2


def test_dual():
    e1 = Subspace.from_matrix(MatGF(F2, [[1, 0, 0]]))
    d = dual(e1)
    assert d.k == 2
    assert d.contains_vector((0, 1, 0)) and d.contains_vector((0, 0, 1))
    full = Subspace.full(F2, 3)
    assert dual(full).k == 0
    assert dual(dual(e1)) == e1


def test_dual_preserves_distance_g2_4_2():
    spaces = list(enumerate_grassmannian(2, 4, 2))
    for U, W in itertools.combinations(spaces, 2):
        assert subspace_distance(dual(U), dual(W)) == subspace_distance(U, W)
        assert dual(dual(U)) == U


def test_dual_dimension_general():
    for q, n, k in [(3, 4, 2), (2, 5, 3), (4, 3, 1)]:
        U = next(iter(enumerate_grassmannian(q, n, k)))
        assert dual(U).k == n - k


def test_ferrers_worked_example():
    v = (1, 0, 1, 1, 0, 1, 0, 0, 0)
    F = ferrers_of(v)
    assert F.row_lengths == (5, 4, 4, 3)
    assert F.dot_count() == 16
    # closed formula: sum over ones of later zeros
    n = len(v)
    formula = sum(v[i] * sum(1 - v[j] for j in range(i + 1, n)) for i in range(n))
    assert formula == 16


def test_ferrers_extremes():
    assert ferrers_of((1, 1, 0, 0, 0)).row_lengths == (3, 3)
    assert ferrers_of((1, 1, 0, 0, 0)).dot_count() == 6
    assert ferrers_of((0, 0, 0, 1, 1)).row_lengths == (0, 0)
    assert ferrers_of((0, 0, 0, 1, 1)).dot_count() == 0


def test_ferrers_closed_formula_grid():
    for v in itertools.product((0, 1), repeat=7):
        n = len(v)
        formula = sum(v[i] * sum(1 - v[j] for j in range(i + 1, n)) for i in range(n))
        assert ferrers_of(v).dot_count() == formula


def test_enumerate_grassmannian_counts():
    assert sum(1 for _ in enumerate_grassmannian(2, 4, 2)) == 35
    assert sum(1 for _ in enumerate_grassmannian(2, 6, 3)) == 1395
    assert sum(1 for _ in enumerate_grassmannian(3, 4, 0)) == 1
    for q, n in [(2, 5), (2, 6), (3, 4)]:
        for k in range(n + 1):
            seen = set(enumerate_grassmannian(q, n, k))
            assert len(seen) == gauss_binomial(n, k, q)


def test_enumerate_cap():
    with pytest.raises(ValueError):
        list(enumerate_grassmannian(2, 30, 15))


def test_permute_columns_identity_and_errors():
    U = Subspace.from_matrix(MatGF(F2, [[1, 0, 1, 0]]))
    assert permute_columns(U, [0, 1, 2, 3]) == U
    with pytest.raises(ValueError):
        permute_columns(U, [0, 0, 1, 2])


def test_row_space_drops_zero_rows():
    M = MatGF(F2, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    U = Subspace.from_matrix(M)
    assert U.k == 1


def test_canonical_equality_and_hash():
    A = Subspace.from_matrix(MatGF(F2, [[1, 1, 0], [0, 1, 1]]))
    B = Subspace.from_matrix(MatGF(F2, [[1, 0, 1], [0, 1, 1]]))
    assert A == B
    assert len({A, B}) == 1


# -- rref against a reference, a frozen digest and its input checks -----------

# GF(2^9) and GF(3^6) lie past the row-table limit (q*q > 2^16), so rref
# runs there on the per-element field methods.
RREF_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 27, 2**9, 3**6)


def reference_rref(F, rows, ncols):
    """Forward elimination to echelon form, then back substitution from the
    bottom pivot up, on F.add, F.mul and F.inv only."""
    minus_one = next(x for x in range(F.q) if F.add(1, x) == 0)

    def axpy(f, b, a):  # a + f*b
        return [F.add(x, F.mul(f, y)) for x, y in zip(a, b)]

    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(rows)) if rows[i][c]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        rows[r] = [F.mul(F.inv(rows[r][c]), x) for x in rows[r]]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                rows[i] = axpy(F.mul(minus_one, rows[i][c]), rows[r], rows[i])
        pivots.append(c)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        for i in range(r):
            if rows[i][c]:
                rows[i] = axpy(F.mul(minus_one, rows[i][c]), rows[r], rows[i])
    return [tuple(r) for r in rows], pivots


@st.composite
def field_matrices(draw):
    q = draw(st.sampled_from(RREF_FIELDS))
    F = GF(q)
    ncols = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("random", "random", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            fa, fb = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
            rows.append([F.add(F.mul(fa, x), F.mul(fb, y)) for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)))
    return MatGF(F, rows, ncols)


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_rref_matches_reference_elimination(M):
    E, pivots = rref(M)
    ref_rows, ref_pivots = reference_rref(M.field, M.entries, M.cols)
    assert pivots == ref_pivots
    assert list(E.entries) == ref_rows
    assert rank(M) == len(ref_pivots)


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_subspace_keeps_its_pivot_columns(M):
    # field_matrices draws zero rows and row combinations, so many inputs
    # are rank deficient
    U = Subspace.from_matrix(M)
    E, pivots = rref(M)
    assert U.pivot_positions() == tuple(j for j, b in enumerate(U.pivot) if b) == tuple(pivots)
    assert U.k == U.rref.rows == len(pivots)
    assert U.rref.entries == E.entries[: len(pivots)]


def seeded_matrices():
    rng = random.Random(20211222)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27):
        F = GF(q)
        for _ in range(60):
            nrows, ncols = rng.randint(0, 8), rng.randint(1, 10)
            density = rng.choice((0.25, 0.6, 1.0))
            rows = []
            for _ in range(nrows):
                kind = rng.random()
                if kind < 0.15:
                    rows.append([0] * ncols)
                elif kind < 0.35 and rows:
                    a, b = rng.choice(rows), rng.choice(rows)
                    fa, fb = rng.randrange(q), rng.randrange(q)
                    rows.append([F.add(F.mul(fa, x), F.mul(fb, y)) for x, y in zip(a, b)])
                else:
                    rows.append([rng.randrange(1, q) if rng.random() < density else 0 for _ in range(ncols)])
            yield MatGF(F, rows, ncols)


# SHA-256 over (q, RREF entries, pivots) of the 540 seeded matrices, frozen
# from the elimination that ran F.sub(x, F.mul(f, y)) per entry.
GOLDEN_RREF_SHA256 = "0c87681350a93a5cbabd358ead5f1f6521eed6b50ea6f97c9c1fb69acdef933d"


def test_rref_matches_golden_digest():
    h = hashlib.sha256()
    for M in seeded_matrices():
        E, pivots = rref(M)
        h.update(repr((M.field.q, E.entries, pivots)).encode())
    assert h.hexdigest() == GOLDEN_RREF_SHA256


@pytest.mark.parametrize("field, rows", [
    (F3, [[1, 0, 2], [0, 3, 1]]),
    (F3, [[1, 0, 2], [0, -1, 1]]),
    (F3, [[1, 7, 2]]),
    (F2, [[3, 0], [0, 0]]),
], ids=["entry-q", "entry-minus-1", "entry-7", "gf2-entry-3"])
def test_rref_rejects_entries_outside_field(field, rows):
    M = MatGF(field, rows)
    with pytest.raises(ValueError, match="outside"):
        rref(M)
    with pytest.raises(ValueError, match="outside"):
        rank(M)
    with pytest.raises(ValueError, match="outside"):
        Subspace.from_matrix(M)


@pytest.mark.parametrize("q, v, filling", [
    (3, (1, 0, 1, 0), [[1, 4], [0, 2]]),
    (257, (1, 1, 0), [[300], [5]]),
    (3, (1, 0, 0, 1), [[0, -1], [0, 0]]),
], ids=["gf3-entry-4", "gf257-entry-300", "entry-minus-1"])
def test_subspace_from_filling_rejects_entries_outside_field(q, v, filling):
    with pytest.raises(ValueError, match="outside"):
        subspace_from_filling(GF(q), v, filling)
    # the same diagram with the entry reduced into [0, q) is a subspace
    reduced = [[x % q for x in row] for row in filling]
    U = subspace_from_filling(GF(q), v, reduced)
    assert subspace_distance(U, U) == 0 and U.pivot == v


def test_matgf_rejects_ragged_rows_and_column_mismatch():
    with pytest.raises(ValueError, match="ragged matrix"):
        MatGF(F2, [[1, 0, 1], [1, 0]])
    with pytest.raises(ValueError, match="ragged matrix"):
        MatGF(F2, [[1, 0, 1], [1, 0, 1]], 4)
    assert MatGF(F2, [], 5).cols == 5 and MatGF(F2, []).cols == 0


def test_from_matrix_keeps_tuple_rows():
    row = (1, 0, 2, 1)
    U = Subspace.from_matrix(MatGF(F3, [row]))
    assert U.rref.entries[0] is row


@pytest.mark.parametrize("vec", [(1, 1), (1, 0, 0, 0, 5), (3, 0, 0, 0), (0, -1, 0, 0)],
                         ids=["short", "long", "entry-q", "entry-minus-1"])
def test_contains_vector_rejects_non_vectors(vec):
    U = Subspace.from_matrix(MatGF(F3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(ValueError):
        U.contains_vector(vec)


def test_contains_vector_gf3():
    U = Subspace.from_matrix(MatGF(F3, [[1, 0, 2, 0], [0, 1, 1, 1]]))
    for a, b in itertools.product(range(3), repeat=2):
        v = tuple((a * x + b * y) % 3 for x, y in zip((1, 0, 2, 0), (0, 1, 1, 1)))
        assert U.contains_vector(v)
    assert not U.contains_vector((0, 0, 1, 0))
    assert not U.contains_vector((0, 0, 0, 1))


def _lifted_oracle(F, v, basis, origin):
    """The words of `_lifted_span`, built one at a time from the flat span:
    diagram column c is the c-th zero of v after its first pivot, and each
    word goes through the RREF check of `from_rref`."""
    n = len(v)
    pivots = [j for j, b in enumerate(v) if b]
    zeros = [j for j in range(pivots[0], n) if not v[j]] if pivots else []
    cells = ferrers_of(v).cells()
    words = []
    for x in _span(F, basis, origin):
        rows = [[int(j == p) for j in range(n)] for p in pivots]
        for (i, c), val in zip(cells, x):
            rows[i][zeros[c]] = val
        words.append(Subspace.from_rref(F, n, rows))
    return words


def _repeats(F, v, basis):
    """Whether `_lifted_span` takes its row-index path on this basis: the
    sum over rows i of q^r_i * dim * (q-1) is below q^dim, r_i the rank of
    the basis restricted to row i's cells (0 for a row without cells)."""
    q, dim = F.q, len(basis)
    per_row = [[] for _ in range(sum(v))]
    for t, (i, _) in enumerate(ferrers_of(v).cells()):
        per_row[i].append(t)
    ranks = [rank(MatGF(F, [[b[t] for t in ts] for b in basis], len(ts))) for ts in per_row]
    return sum(q ** r for r in ranks) * dim * (q - 1) < q ** dim


# (q, pivot vector, basis kind, parameter): the `_fdrm_basis` of the
# diagram at distance delta = parameter, for rectangles and non-rectangular
# diagrams, or `parameter` random vectors (dependent ones included)
LIFTED_SPAN_CASES = [
    (2, (1, 1, 1, 0, 0, 0, 0), "fdrm", 1),
    (2, (1, 1, 1, 0, 0, 0, 0), "fdrm", 3),
    (2, (1, 1, 0, 0, 0, 0), "fdrm", 2),
    (2, (1, 0, 1, 0, 1, 0, 0), "fdrm", 1),
    (2, (1, 0, 1, 1, 0, 0, 0), "fdrm", 2),
    (2, (0, 1, 0, 1, 0, 0, 1), "random", 6),
    (3, (1, 1, 0, 0, 0), "fdrm", 1),
    (3, (1, 1, 0, 0, 0), "fdrm", 2),
    (3, (1, 0, 1, 0, 0), "fdrm", 1),
    (3, (1, 0, 0, 1, 0, 0), "random", 5),
    (4, (1, 1, 0, 0, 0), "fdrm", 2),
    (4, (1, 0, 1, 0, 0), "fdrm", 1),
    (4, (1, 1, 0, 0), "random", 5),
    (9, (1, 1, 0, 0), "fdrm", 1),
    (9, (1, 1, 0, 0), "fdrm", 2),
    (9, (1, 0, 1, 0), "random", 3),
    (2, (1, 1, 0, 0), "random", 0),
    (3, (0, 0, 0), "random", 0),
]


def _case_basis(q, v, kind, param, rng):
    if kind == "fdrm":
        return _fdrm_basis(ferrers_of(v), param, q)
    return [[rng.randrange(q) for _ in range(ferrers_of(v).dot_count())] for _ in range(param)]


@pytest.mark.parametrize("q, v, kind, param", LIFTED_SPAN_CASES)
@pytest.mark.parametrize("with_origin", [False, True], ids=["no-origin", "origin"])
def test_lifted_span_gives_the_flat_span_words_in_order(q, v, kind, param, with_origin):
    F = GF(q)
    rng = random.Random(f"{q}{v}{param}")
    basis = _case_basis(q, v, kind, param, rng)
    origin = [rng.randrange(q) for _ in range(ferrers_of(v).dot_count())] if with_origin else None
    words = _lifted_span(F, v, basis, origin)
    want = _lifted_oracle(F, v, basis, origin)
    assert isinstance(words, tuple)
    assert [w.entries for w in words] == [w.entries for w in want]
    assert [w.pivot_positions() for w in words] == [w.pivot_positions() for w in want]
    assert words == tuple(want)
    # on the row-index path each distinct row is one object; on the flat
    # path every word holds rows of its own
    rows = [r for w in words for r in w.entries]
    objects = len({id(r) for r in rows})
    assert objects == (len(set(rows)) if _repeats(F, v, basis) else len(rows))


def test_lifted_span_cases_cover_both_sides_of_the_repetition_test():
    sides = {kind: set() for _, _, kind, _ in LIFTED_SPAN_CASES}
    for q, v, kind, param in LIFTED_SPAN_CASES:
        basis = _case_basis(q, v, kind, param, random.Random(f"{q}{v}{param}"))
        sides[kind].add(_repeats(GF(q), v, basis))
    assert sides == {"fdrm": {False, True}, "random": {False, True}}
