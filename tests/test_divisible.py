import pytest

from scodes.divisible import (
    divisible_exists,
    sharp_ceil,
    sharp_floor,
    sqr_bases,
    sqr_expand,
)


def test_bases_values():
    assert sqr_bases(2, 3) == (15, 14, 12, 8)
    assert sqr_bases(2, 2) == (7, 6, 4)
    assert sqr_bases(3, 0) == (1,)


def test_expansions_worked_examples():
    assert sqr_expand(11, 2, 2) == (1, 0, 1)
    assert sqr_expand(9, 2, 2) == (1, 1, -1)
    assert sqr_expand(34, 2, 3) == (0, 1, 1, 1)
    assert sqr_expand(19, 2, 3)[-1] == -1
    assert sqr_expand(137, 3, 3)[-1] == -2


def test_round_trip():
    for q in (2, 3, 4, 5):
        for r in range(5):
            bases = sqr_bases(q, r)
            for n in range(-500, 501):
                exp = sqr_expand(n, q, r)
                assert sum(a * s for a, s in zip(exp, bases)) == n
                assert all(0 <= a < q for a in exp[:-1])


def test_divisible_exists():
    assert divisible_exists(34, 2, 3)
    assert not divisible_exists(19, 2, 3)
    assert divisible_exists(0, 5, 2)


def knapsack_realizable(n, q, r):
    """Bounded-coefficient brute force: is n a non-negative combination of
    the base numbers?"""
    bases = sqr_bases(q, r)
    reachable = {0}
    frontier = {0}
    while frontier:
        new = set()
        for v in frontier:
            for s in bases:
                w = v + s
                if w <= n and w not in reachable:
                    new.add(w)
        reachable |= new
        frontier = new
    return n in reachable


def test_divisible_vs_knapsack_oracle():
    for r in (1, 2, 3):
        for n in range(0, 201):
            assert divisible_exists(n, 2, r) == knapsack_realizable(n, 2, r)


def test_closed_under_addition_sampled():
    import random

    rng = random.Random(11)
    for q, r in [(2, 2), (2, 3), (3, 2)]:
        realizable = [n for n in range(300) if divisible_exists(n, q, r)]
        for _ in range(200):
            a, b = rng.choice(realizable), rng.choice(realizable)
            assert divisible_exists(a + b, q, r)


def test_sharp_floor_worked_examples():
    assert sharp_floor(17374, 15, 2, 3) == 1156
    assert sharp_floor(765, 7, 2, 2) == 107
    # 109 and 108 are rejected: remainders 2 and 9 are not realizable
    assert not divisible_exists(765 - 109 * 7, 2, 2)
    assert not divisible_exists(765 - 108 * 7, 2, 2)


def test_zero_brackets():
    for q, r in [(2, 1), (2, 3), (3, 2)]:
        assert sharp_floor(0, 5, q, r) == 0
        assert sharp_ceil(0, 5, q, r) == 0


def test_bracket_monotone_chain():
    for q in (2, 3):
        for a in range(0, 120, 7):
            for b in (3, 7, 15):
                floors = [sharp_floor(a, b, q, r) for r in range(4)]
                ceils = [sharp_ceil(a, b, q, r) for r in range(4)]
                assert floors[0] == a // b
                assert ceils[0] == -((-a) // b)
                for r in range(3):
                    assert floors[r + 1] <= floors[r]
                    assert ceils[r + 1] >= ceils[r]
                assert floors[0] <= ceils[0]


def test_brackets_match_definition():
    # both search paths (bisection for a realizable step b, linear scan
    # otherwise) against the definitions over a knapsack oracle
    for q in (2, 3):
        for r in range(4):
            bases = sqr_bases(q, r)
            limit = 6000
            reachable = [True] + [False] * limit
            for m in range(1, limit + 1):
                reachable[m] = any(s <= m and reachable[m - s] for s in bases)
            for a in range(0, 150, 11):
                for b in range(1, 20):
                    floor = max(n for n in range(-300, a // b + 1) if reachable[a - n * b])
                    ceil = min(n for n in range(-((-a) // b), a // b + 300) if reachable[n * b - a])
                    assert sharp_floor(a, b, q, r) == floor, (q, r, a, b)
                    assert sharp_ceil(a, b, q, r) == ceil, (q, r, a, b)


def test_bracket_rejects_bad_b():
    with pytest.raises(ValueError):
        sharp_floor(10, 0, 2, 2)
    with pytest.raises(ValueError):
        sharp_ceil(10, -3, 2, 2)
