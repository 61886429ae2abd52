"""
Exact q-analogue combinatorics on arbitrary-precision integers.

Everything here is exact: Gaussian binomials, q-integers and intersection
counts are Python ints, and a polynomial in the field size q is its tuple
of int coefficients, low degree first, as in `gfq`.  All functions are pure
and safe for concurrent use.
"""

from __future__ import annotations

from typing import Sequence


def gauss_int(n: int, q: int) -> int:
    """[n]_q = (q^n - 1)/(q - 1), the number of points of PG(n-1, q)."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (q**n - 1) // (q - 1)


def gauss_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of an n-space over GF(q); 0 outside 0<=k<=n."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if k < 0 or n < 0 or k > n:
        return 0
    k = min(k, n - k)
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def count_large_intersection(n: int, m: int, k: int, t: int, q: int) -> int:
    """Number of k-spaces of GF(q)^n meeting a fixed m-space in dimension
    at least k - t."""
    if not (0 <= t <= k <= n and k - t <= m <= n):
        raise ValueError(f"invalid parameters n={n} m={m} k={k} t={t}")
    total = 0
    for i in range(t + 1):
        b = gauss_binomial(m, k - i, q) * gauss_binomial(n - m, i, q)
        if b:  # the binomial vanishes whenever the exponent would be negative
            total += q ** ((m + i - k) * i) * b
    return total


def qpoly_eval(coeffs: Sequence[int], q: int) -> int:
    """Exact Horner evaluation of the coefficient tuple (low degree first)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def qpoly_parse(text: str) -> tuple[int, ...]:
    """Parse compact sums like 'q^6+2q^2+2q+1' or '-q^3+q-2' into the
    coefficient tuple, low degree first, with no trailing zeros (() is 0)."""
    s = text.replace(" ", "").replace("-", "+-")
    coeffs: list[int] = []
    for t in s.split("+"):
        if not t:
            continue
        sign = 1
        if t.startswith("-"):
            sign = -1
            t = t[1:]
        if "q" in t:
            coeff_s, _, rest = t.partition("q")
            coeff = int(coeff_s) if coeff_s else 1
            if rest.startswith("^"):
                deg = int(rest[1:])
            elif rest == "":
                deg = 1
            else:
                raise ValueError(f"cannot parse term {t!r} in {text!r}")
        else:
            coeff = int(t)
            deg = 0
        coeffs += [0] * (deg + 1 - len(coeffs))
        coeffs[deg] += sign * coeff
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)
