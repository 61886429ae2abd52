"""
Exact arithmetic in GF(p^e) for any prime power, plus extension towers.

Field elements are encoded as integers in [0, q) whose base-p digits are the
coefficients of the residue polynomial in the basis {1, x, ..., x^(e-1)}.
For e = 1 the encoding is the residue class mod p.  When q <= 2^16 the field
precomputes log/antilog tables for O(1) multiplication and inversion; above
that it falls back to polynomial arithmetic.

When q^2 <= 2^16 the field also builds one set of row tables at
construction: q x q addition, negated-product and product tables.
`FieldSpec.rowop`, the one row operation of the linear algebra in `spaces`
(a - f*b or f*a on whole rows), runs on them, and so do `add` and `neg` of
odd-p extension fields.  Larger fields run the same loop on the
per-element methods, and their odd-p extension fields add digit by digit.

One set of polynomial routines over any `FieldSpec` (`poly_divmod`,
`poly_irreducible_over`, `find_irreducible_over`) both checks and searches
the moduli of `FieldSpec` over GF(p) and those of `ExtField`, which builds
GF(q^m) on top of an existing `FieldSpec` GF(q), with elements stored as
coefficient tuples over the base field.  This is the representation used
for linearized-polynomial evaluation, where the coefficient tuple doubles as
the expansion of the element over GF(q).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Optional, Sequence

_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _trim(poly: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zero coefficients (highest degrees)."""
    deg = len(poly) - 1
    while deg >= 0 and poly[deg] == 0:
        deg -= 1
    return tuple(poly[: deg + 1])


class FieldSpec:
    """
    GF(p^e) with a fixed monic irreducible modulus of degree e over GF(p);
    the modulus defaults to the first monic irreducible of degree e in
    `find_irreducible_over` order.

    Elements are plain ints in [0, q).  All operations take and return these
    int encodings.  Instances are immutable after construction and safe to
    share.  When q*q <= _TABLE_LIMIT the constructor builds the one set of
    row tables, add[x][y], negmul[f][y] = -(f*y) and mul[f][y], which
    `rowop` reads and `add`/`neg` of odd-p extension fields read too.
    """

    def __init__(self, p: int, e: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        if modulus is None:
            modulus = _smallest_irreducible(p, e)
        else:
            modulus = tuple(c % p for c in modulus)
            modulus = _trim(modulus)
            if len(modulus) != e + 1:
                raise ValueError(f"modulus must have degree {e}")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if e > 1 and not poly_irreducible_over(GF(p), modulus):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = tuple(modulus)
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        if 2 < self.q <= _TABLE_LIMIT:
            self._build_tables()
        # (add, negmul, mul), or () when q*q is too large
        self._rows = self._row_tables() if self.q * self.q <= _TABLE_LIMIT else ()

    # -- encoding ----------------------------------------------------------

    def coeffs(self, rep: int) -> tuple[int, ...]:
        """Base-p digits of rep, length e (low degree first)."""
        out = []
        for _ in range(self.e):
            out.append(rep % self.p)
            rep //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs: Iterable[int]) -> int:
        rep = 0
        for c in reversed(list(coeffs)):
            rep = rep * self.p + (c % self.p)
        return rep

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._rows:
            return self._rows[0][a][b]
        return self.from_coeffs(
            x + y for x, y in zip(self.coeffs(a), self.coeffs(b))
        )

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if self._rows:
            return self._rows[1][1][a]
        return self.from_coeffs(-x for x in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def rowop(self, a: Sequence[int], f: int, b: Optional[Sequence[int]] = None) -> list[int]:
        """a - f*b entrywise (zip stops at the shorter row), or f*a when b is
        None.  Entries must lie in [0, q); callers check them."""
        if self._rows:
            add, negmul, mul = self._rows
            if b is None:
                scaled = mul[f]
                return [scaled[x] for x in a]
            nf = negmul[f]
            return [add[x][nf[y]] for x, y in zip(a, b)]
        add, mul = self.add, self.mul
        if b is None:
            return [mul(f, x) for x in a]
        nf = self.neg(f)
        return [add(x, mul(nf, y)) for x, y in zip(a, b)]

    def _row_tables(self) -> tuple:
        p, els = self.p, range(self.q)
        # x + y digit by digit, without carries: each round puts one more
        # digit below those of the table built so far
        add = [[0]]
        for _ in range(self.e):
            add = [[(x0 + y0) % p + p * s for s in row for y0 in range(p)] for row in add for x0 in range(p)]
        mul = [[self.mul(f, y) for y in els] for f in els]
        neg = [row.index(0) for row in add]  # -x is the y with x + y = 0
        return add, [[neg[v] for v in row] for row in mul], mul

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.e == 1:
            return (a * b) % self.p
        return self._polymul_reduce(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        if a == 0:
            return 1 if k == 0 else 0
        k %= self.q - 1
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def frobenius(self, a: int, i: int, base: int) -> int:
        """a^(base^i) where base = p^d is a subfield size (d | e)."""
        p, d = self.p, 0
        b = base
        while b > 1 and b % p == 0:
            b //= p
            d += 1
        if b != 1 or d == 0 or self.e % d != 0:
            raise ValueError(f"{base} is not a subfield size of GF({self.q})")
        if a == 0:
            return 0
        return self.pow(a, pow(base, i, self.q - 1))

    def _polymul_reduce(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        for deg in range(2 * e - 2, e - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j in range(self.e):
                    prod[deg - self.e + j] = (prod[deg - self.e + j] - c * self.modulus[j]) % p
        return self.from_coeffs(prod[:e])

    def _build_tables(self) -> None:
        # If g^i != 1 for 1 <= i < q-1 then g generates the (cyclic)
        # multiplicative group, since any proper order would divide q-1.
        q = self.q
        for g in range(2, q):
            exp = [1] * (2 * q)
            x = 1
            ok = True
            for i in range(1, q - 1):
                x = self.mul(g, x)  # polynomial arithmetic: no log tables yet
                if x == 1:
                    ok = False
                    break
                exp[i] = x
            if ok:
                log = [0] * q
                for i in range(q - 1):
                    log[exp[i]] = i
                for i in range(q - 1, 2 * q):
                    exp[i] = exp[i - (q - 1)]
                self._exp, self._log = exp, log
                return
        raise RuntimeError(f"no generator found for GF({q})")  # pragma: no cover

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@lru_cache(maxsize=None)
def GF(q: int) -> FieldSpec:
    """The default field of order q (q a prime power)."""
    p, e = _factor_prime_power(q)
    return FieldSpec(p, e)


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; ValueError unless q is a prime power.  Trial
    division stops at isqrt(q): a q with no divisor up to it is prime."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    if e == 1:
        return (0, 1)  # the polynomial x; GF(p) itself is built with it
    return find_irreducible_over(GF(p), e)


# -- polynomials over a FieldSpec, coefficient tuples low-degree-first -------


def poly_mul(F: FieldSpec, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return _trim(prod)


def poly_divmod(F: FieldSpec, num: Sequence[int], den: Sequence[int]):
    num = list(num)
    den = _trim(den)
    dd = len(den) - 1
    inv_lead = F.inv(den[-1])
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = F.mul(num[i], inv_lead)
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] = F.sub(num[i - dd + j], F.mul(c, den[j]))
    return _trim(quot), _trim(num)


def poly_irreducible_over(F: FieldSpec, poly: Sequence[int]) -> bool:
    poly = _trim(poly)
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for digits in itertools.product(range(F.q), repeat=d):
            _, rem = poly_divmod(F, poly, digits[::-1] + (1,))
            if not rem:
                return False
    return True


def find_irreducible_over(F: FieldSpec, degree: int) -> tuple[int, ...]:
    """The first monic irreducible of the given degree, with the
    candidates (c_0, ..., c_(degree-1), 1) taken in the order of the base-q
    number sum c_i q^i: the constant term varies fastest."""
    if degree == 1:
        return (0, 1)
    for digits in itertools.product(range(F.q), repeat=degree):
        cand = digits[::-1] + (1,)
        if poly_irreducible_over(F, cand):
            return cand
    raise RuntimeError("no irreducible found")  # pragma: no cover


class ExtField:
    """
    GF(q^m) as polynomials over a base `FieldSpec` GF(q).

    Elements are tuples of m base-field encodings (low degree first); the
    tuple itself is the coordinate vector with respect to the polynomial
    basis (1, x, ..., x^(m-1)), which is what lifted matrix expansions use.
    """

    def __init__(self, base: FieldSpec, m: int, modulus: Optional[Sequence[int]] = None):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.m = m
        self.size = base.q**m
        if modulus is None:
            modulus = find_irreducible_over(base, m)
        else:
            modulus = tuple(modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not all(0 <= c < base.q for c in modulus) or not poly_irreducible_over(base, modulus):
                raise ValueError(f"modulus {list(modulus)} is not an irreducible polynomial over {base}")
        self.modulus = modulus
        self.zero = (0,) * m
        self.one = tuple([1] + [0] * (m - 1)) if m > 1 else (1,)

    def basis(self, i: int) -> tuple[int, ...]:
        """The basis monomial x^i, 0 <= i < m."""
        out = [0] * self.m
        out[i] = 1
        return tuple(out)

    def mul(self, a, b):
        prod = poly_mul(self.base, a, b)
        if len(prod) >= len(self.modulus):
            _, prod = poly_divmod(self.base, prod, self.modulus)
        return tuple(prod) + (0,) * (self.m - len(prod))

    def pow_int(self, a, k: int):
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def frobenius_q(self, a):
        """a^q, the base-field Frobenius of the extension."""
        return self.pow_int(a, self.base.q)

    def elements(self):
        return (t[::-1] for t in itertools.product(range(self.base.q), repeat=self.m))
