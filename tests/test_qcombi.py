from fractions import Fraction

import pytest

from scodes.qcombi import (
    count_large_intersection,
    gauss_binomial,
    gauss_int,
    qpoly_eval,
    qpoly_parse,
)


def test_gauss_int():
    assert gauss_int(4, 2) == 15
    assert gauss_int(9, 2) == 511
    assert gauss_int(0, 3) == 0
    with pytest.raises(ValueError):
        gauss_int(3, 1)


def test_gauss_binomial_reference_values():
    assert gauss_binomial(8, 4, 2) == 200787
    assert gauss_binomial(6, 4, 2) == 651
    assert gauss_binomial(7, 3, 2) == 11811


def test_gauss_binomial_edges():
    assert gauss_binomial(5, -1, 2) == 0
    assert gauss_binomial(5, 6, 2) == 0
    assert gauss_binomial(0, 0, 2) == 1


def test_symmetry_and_pascal():
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                c = gauss_binomial(n, k, q)
                assert c == gauss_binomial(n, n - k, q)
                if n >= 1:
                    assert c == q**k * gauss_binomial(n - 1, k, q) + gauss_binomial(n - 1, k - 1, q)
                    assert c == gauss_binomial(n - 1, k, q) + q ** (n - k) * gauss_binomial(n - 1, k - 1, q)


def test_binomial_normalized_bracket():
    # 1 <= C(n,k)/q^(k(n-k)) <= 1/(1/q;1/q)_k, exact rationals
    for q in (2, 3):
        for n in range(1, 11):
            for k in range(n + 1):
                ratio = Fraction(gauss_binomial(n, k, q), q ** (k * (n - k)))
                assert ratio >= 1
                prod = Fraction(1)
                for i in range(1, k + 1):
                    prod *= 1 - Fraction(1, q**i)
                assert ratio * prod <= 1


def test_count_large_intersection_trailer_value():
    assert count_large_intersection(8, 4, 4, 1, 2) == 451


def test_count_large_intersection_degenerate():
    for q in (2, 3):
        for n in range(1, 6):
            for k in range(n + 1):
                assert count_large_intersection(n, n, k, 0, q) == gauss_binomial(n, k, q)
                assert count_large_intersection(n, n, k, k, q) == gauss_binomial(n, k, q)
    with pytest.raises(ValueError):
        count_large_intersection(4, 1, 3, 1, 2)


def test_count_large_intersection_vs_enumeration():
    # brute-force oracle over the Grassmannian for q=2, small n
    from scodes.spaces import Subspace, enumerate_grassmannian
    from scodes.gfq import GF
    from scodes.spaces import MatGF, rank

    q = 2
    for (n, m, k, t) in [(4, 2, 2, 1), (5, 3, 2, 1), (6, 3, 3, 1), (6, 4, 3, 2)]:
        field = GF(q)
        w_rows = [[1 if j == i else 0 for j in range(n)] for i in range(m)]
        W = Subspace.from_matrix(MatGF(field, w_rows, n))
        count = 0
        for U in enumerate_grassmannian(q, n, k):
            stacked = U.rref.vstack(W.rref)
            inter_dim = U.k + W.k - rank(stacked)
            if inter_dim >= k - t:
                count += 1
        assert count == count_large_intersection(n, m, k, t, q)


def test_qpoly_eval_and_parse():
    p = qpoly_parse("q^6+2q^2+2q+1")
    assert p == (1, 2, 2, 0, 0, 0, 1)
    assert qpoly_eval(p, 2) == 77
    assert qpoly_eval(qpoly_parse("q^8+1"), 2) == 257
    assert qpoly_eval((), 5) == 0
    neg = qpoly_parse("q^3-q-1")
    assert qpoly_eval(neg, 2) == 5
    assert qpoly_eval(qpoly_parse("-q^2+3"), 2) == -1
    # no trailing zeros: terms that cancel leave the shorter tuple
    assert qpoly_parse("q^2+q-q^2") == (0, 1)
    assert qpoly_parse("q-q") == ()
