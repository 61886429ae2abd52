"""Classical worked examples from the coding-theory literature, checked
verbatim against the library."""

import itertools

import pytest

from scodes.constructions import (
    Cdc,
    coset_construction,
    combine,
    construction_d,
    echelon_ferrers,
    find_parallelism,
    improved_linkage,
    lifted_mrd,
    linkage,
    mirrored_coset_construction,
    single_codeword,
)
from scodes.gfq import GF
from scodes.bounds import BoundEngine
from scodes.qcombi import gauss_binomial
from scodes.rankmetric import rank_distance, rect_mrd
from scodes.spaces import MatGF, Subspace, hamming_distance
from scodes.verify import min_distance

F2 = GF(2)

# explicit spanning matrices of a 3x4 diagram code with rank distance 3
EXPLICIT_FDRM_BASIS = [
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]],
    [[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]],
    [[0, 0, 0, 1], [1, 1, 0, 1], [1, 0, 1, 0]],
]


def test_explicit_fdrm_generators_span_a_witness():
    basis = [MatGF(F2, rows) for rows in EXPLICIT_FDRM_BASIS]
    span = []
    for coeffs in itertools.product((0, 1), repeat=4):
        acc = MatGF.zero(F2, 3, 4)
        for c, b in zip(coeffs, basis):
            if c:
                acc = MatGF(F2, [tuple(x ^ y for x, y in zip(ra, rb))
                                 for ra, rb in zip(acc.entries, b.entries)], 4)
        span.append(acc)
    assert len(set(span)) == 16
    for a, b in itertools.combinations(span, 2):
        assert rank_distance(a, b) >= 3


def test_skeleton_pair_hamming_distance():
    assert hamming_distance((1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 1)) == 6


def test_linkage_with_empty_second_code():
    one = single_codeword(2, 4, 4, 6, position="left")
    M = rect_mrd(2, 4, 4, 3)
    empty = Cdc(2, 4, 4, 6, ())
    code = linkage(one, empty, M)
    plain = construction_d(one, M)
    assert set(code.words) == set(plain.words)


def test_improved_linkage_reduces_to_linkage_at_k_half_d():
    # k = d/2: identical block widths, identical codes
    q, d, k = 2, 4, 2
    from scodes.constructions import auto_cdc

    C1 = auto_cdc(q, 3, d, k)
    C2 = auto_cdc(q, 3, d, k)
    M = rect_mrd(q, k, 3, d // 2)
    a = linkage(C1, C2, M)
    b = improved_linkage(C1, C2, M)
    assert set(a.words) == set(b.words)


def test_singleton_skeleton_equals_lifted_mrd():
    ef = echelon_ferrers([(1, 1, 1, 1, 0, 0, 0, 0)], 2, 4)
    lm = lifted_mrd(2, 8, 4, 4)
    assert set(ef.words) == set(lm.words)


def test_ahlswede_grid_point_equals_johnson_coform():
    # t=0, m=n-1 reduces to the co-dimension Johnson inequality
    engine = BoundEngine()
    q, n, d, k = 2, 8, 4, 3
    inner = engine.best_upper(q, n - 1, d, k).value
    point = gauss_binomial(n, k, q) * inner // gauss_binomial(n - 1, k, q)
    coform = (q**n - 1) * inner // (q ** (n - k) - 1)
    assert point == coform
    # t=1, m=n-1 rewrites to A(n-1, d-2, k-1)
    inner2 = engine.best_upper(q, n - 1, d - 2, k - 1).value
    denom = sum(
        q ** (i * (n - 1 + i - k)) * gauss_binomial(n - 1, k - i, q) * gauss_binomial(1, i, q)
        for i in range(2)
    )
    point2 = gauss_binomial(n, k, q) * inner2 // denom
    assert point2 == inner2


def test_mirrored_coset_construction():
    par = find_parallelism(2, 4, 2)
    M = rect_mrd(2, 2, 2, 2)
    mirrored = coset_words = mirrored_coset_construction(par, par, M, 2, 2)
    assert len(mirrored) == 700
    assert min_distance(mirrored, "exact").min_distance == 4


def test_combine_refuses_mixed_coset():
    par = find_parallelism(2, 4, 2)
    M = rect_mrd(2, 2, 2, 2)
    standard = coset_construction(par, par, M, 2, 2)
    mirrored = mirrored_coset_construction(par, par, M, 2, 2)
    with pytest.raises(ValueError, match="cross distance violation"):
        combine([standard, mirrored])


def test_equal_subspace_from_swapped_blocks():
    # the warning's witness: a standard-shape and a mirrored-shape generator
    # can span the same subspace, so cross-shape bookkeeping cannot certify
    H = MatGF(F2, [
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    ])
    Hp = MatGF(F2, [
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
    ])
    assert Subspace.from_matrix(H) == Subspace.from_matrix(Hp)
