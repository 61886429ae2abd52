"""
Digit expansions over the base sequence sigma_i = (q^(r+1) - q^i)/(q - 1)
and the sharpened floor/ceil brackets built on them.

The bases and an expansion are tuples of ints, (sigma_0, ..., sigma_r) and
(a_0, ..., a_r); the brackets return ints.  An integer n is the cardinality
of some q^r-divisible multiset of points over GF(q) exactly when the leading
coefficient of its expansion is non-negative; the brackets search for the
nearest realizable remainder and power the improved Johnson bound.  The
private helpers take (q, bases), with r = len(bases) - 1.  Pure functions
throughout.
"""

from __future__ import annotations


def sqr_bases(q: int, r: int) -> tuple[int, ...]:
    """(sigma_0, ..., sigma_r) with
    sigma_i = (q^(r+1) - q^i)/(q-1) = q^i + q^(i+1) + ... + q^r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if q < 2:
        raise ValueError("q must be >= 2")
    return tuple((q ** (r + 1) - q**i) // (q - 1) for i in range(r + 1))


def sqr_expand(n: int, q: int, r: int) -> tuple[int, ...]:
    """
    The unique expansion n = sum_i a_i sigma_i, as (a_0, ..., a_r), with
    a_0..a_(r-1) in [0, q) and integer leading coefficient a_r.
    """
    return _expand(n, q, sqr_bases(q, r))


def _expand(n: int, q: int, bases: tuple[int, ...]) -> tuple[int, ...]:
    # (q-1) sigma_i = q^(r+1) - q^i, so (q-1) n = q^(r+1) sum_i a_i - sum_i a_i q^i:
    # a_0..a_(r-1) are the base-q digits of -(q-1) n mod q^r (= sigma_r), and
    # a_r follows from them with a handful of big-int operations.
    top = bases[-1]
    low = -(q - 1) * n % top
    coeffs = []
    rest = low
    for _ in range(len(bases) - 1):
        rest, a = divmod(rest, q)
        coeffs.append(a)
    coeffs.append(((q - 1) * n + low - q * top * sum(coeffs)) // ((q - 1) * top))
    assert sum(a * s for a, s in zip(coeffs, bases)) == n, (n, coeffs, bases)
    return tuple(coeffs)


def divisible_exists(n: int, q: int, r: int) -> bool:
    """True iff a q^r-divisible multiset of points of cardinality n exists."""
    return _realizable(n, q, sqr_bases(q, r))


def _realizable(n: int, q: int, bases: tuple[int, ...]) -> bool:
    return _expand(n, q, bases)[-1] >= 0


def _first_realizable(x: int, b: int, q: int, bases: tuple[int, ...]) -> int:
    """The least j >= 0 such that x + j*b is a realizable cardinality.

    Every m >= threshold = (q-1) * sum_{i<r} sigma_i is realizable (digits
    bounded by q-1 force a non-negative leading coefficient), which bounds j.
    Realizable cardinalities are closed under addition (disjoint unions of
    divisible multisets), so when b is realizable the predicate can only
    turn true as j grows, and j is bisected; otherwise the scan is linear."""
    threshold = (q - 1) * sum(bases[:-1])
    hi = max(0, -((x - threshold) // b))  # the least j with x + j*b >= threshold
    if not _realizable(b, q, bases):
        return next(j for j in range(hi + 1) if _realizable(x + j * b, q, bases))
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _realizable(x + mid * b, q, bases):
            hi = mid
        else:
            lo = mid + 1
    return lo


def sharp_floor(a: int, b: int, q: int, r: int) -> int:
    """
    Largest n such that a - n*b is a realizable q^r-divisible cardinality;
    at most floor(a/b).  The fraction a/b is formal data: no reduction.
    """
    if b <= 0:
        raise ValueError("b must be a positive integer")
    n, x = divmod(a, b)
    return n - _first_realizable(x, b, q, sqr_bases(q, r))


def sharp_ceil(a: int, b: int, q: int, r: int) -> int:
    """Smallest n such that n*b - a is a realizable q^r-divisible
    cardinality; at least ceil(a/b)."""
    if b <= 0:
        raise ValueError("b must be a positive integer")
    n = -((-a) // b)
    return n + _first_realizable(n * b - a, b, q, sqr_bases(q, r))
