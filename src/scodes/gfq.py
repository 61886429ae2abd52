"""
Exact arithmetic in GF(p^e) for any prime power, plus extension towers.

Field elements are encoded as integers in [0, q) whose base-p digits are the
coefficients of the residue polynomial in the basis {1, x, ..., x^(e-1)}.
For e = 1 the encoding is the residue class mod p.  When q <= 2^16 the field
precomputes log/antilog tables for O(1) multiplication and inversion; above
that it multiplies with `poly_mul` and `poly_divmod` over GF(p).

When q^2 <= 2^16 the field also builds one set of row tables at
construction: q x q addition, negated-product and product tables.
`FieldSpec.rowop`, the one row operation of the linear algebra in `spaces`
(a - f*b or f*a on whole rows), runs on them, and so do `add` and `neg` of
odd-p extension fields.  Larger fields run the same loop on the
per-element methods, and their odd-p extension fields add digit by digit.

One set of polynomial routines over any `FieldSpec` (`poly_mul`,
`poly_divmod`, Rabin's `poly_irreducible_over`, `find_irreducible_over`)
multiplies in both field types and both checks and searches the moduli of
`FieldSpec` over GF(p) and those of `ExtField`, which builds
GF(q^m) on top of an existing `FieldSpec` GF(q), with elements stored as
coefficient tuples over the base field.  This is the representation used
for linearized-polynomial evaluation, where the coefficient tuple doubles as
the expansion of the element over GF(q).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

_TABLE_LIMIT = 1 << 16


# Miller-Rabin on the first 13 primes is exact below _MR_LIMIT (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2..41.  At or above
    _MR_LIMIT a base that witnesses compositeness still gives False; a
    number that passes every base there raises ValueError."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} passes Miller-Rabin on the bases 2..41 but lies above {_MR_LIMIT}, "
                         f"where that test is not known to be exact")
    return True


def _power(mul, one, a, k: int):
    """a^k (k >= 0) by square and multiply, for any associative `mul`."""
    result = one
    while k:
        if k & 1:
            result = mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return result


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
            modulus = (0, 1) if e == 1 else find_irreducible_over(GF(p), e)  # GF(p) is built with x
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
        self._hash = hash((p, e, self.modulus))  # every Subspace hash includes it
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        self._rows: tuple = ()  # (add, negmul, mul) once built, () when q*q is too large
        if 2 < self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self.q * self.q <= _TABLE_LIMIT:
            self._rows = self._row_tables()

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
        return self.from_coeffs(_poly_mulmod(GF(self.p), self.coeffs(a), self.coeffs(b), self.modulus))

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
        return _power(self.mul, 1, a, k % (self.q - 1))

    def _build_tables(self) -> None:
        # g generates the (cyclic) multiplicative group iff g^((q-1)/r) != 1
        # for every prime r dividing q - 1; for e > 1 no element of GF(p)
        # does, so the search starts at x.  Multiplying by g is GF(p)-linear,
        # so g·v is the sum of g times v's low and high base-p digits, each
        # looked up in a table of about sqrt(q) products.
        q, p, e = self.q, self.p, self.e
        cofactors = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        g = next(g for g in range(p if e > 1 else 2, q) if all(self.pow(g, c) != 1 for c in cofactors))
        low = p ** (e // 2)
        times_low = [self.mul(g, v) for v in range(low)]
        times_high = [self.mul(g, v * low) for v in range(q // low)]
        add = self.add
        exp, x = [1] * (2 * q), 1
        for i in range(1, q - 1):
            x = exp[i] = add(times_low[x % low], times_high[x // low])
        log = [0] * q
        for i in range(q - 1):
            log[exp[i]] = i
        for i in range(q - 1, 2 * q):
            exp[i] = exp[i - (q - 1)]
        self._exp, self._log = exp, log

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@lru_cache(maxsize=None)
def GF(q: int) -> FieldSpec:
    """The default field of order q (q a prime power)."""
    p, e = _factor_prime_power(q)
    return FieldSpec(p, e)


@lru_cache(maxsize=None)
def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; ValueError unless q is a prime power.  A prime
    power p^a is an exact e-th power only for e dividing a, so the root for
    the largest exact e is p when q is a prime power, and one `is_prime`
    call on that root decides."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for e in range(q.bit_length() - 1, 0, -1):
        p = _iroot(q, e)
        if p**e == q:
            if is_prime(p):
                return p, e
            break
    raise ValueError(f"{q} is not a prime power")


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1: integer Newton steps down from a power of
    two above the root, until a step stops decreasing."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


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


def _poly_mulmod(F: FieldSpec, a: Sequence[int], b: Sequence[int], mod: Sequence[int]) -> tuple[int, ...]:
    return poly_divmod(F, poly_mul(F, a, b), mod)[1]


def poly_irreducible_over(F: FieldSpec, poly: Sequence[int]) -> bool:
    """Rabin's test (SIAM J. Comput. 1980): f of degree e >= 2 over GF(q)
    is irreducible iff x^(q^e) = x mod f and gcd(x^(q^(e/r)) - x, f) = 1
    for every prime r dividing e."""
    poly = _trim(poly)
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    x = (0, 1)

    def x_power(i: int) -> tuple[int, ...]:
        """x^(q^i) mod f."""
        return _power(lambda a, b: _poly_mulmod(F, a, b, poly), (1,), x, F.q**i)

    if x_power(deg) != x:
        return False
    for r in range(2, deg + 1):
        if deg % r == 0 and is_prime(r):
            h = list(x_power(deg // r)) + [0, 0]
            h[1] = F.sub(h[1], 1)
            a, b = poly, _trim(h)
            while b:  # Euclid: a ends as gcd(h, f) up to a unit
                a, b = b, poly_divmod(F, a, b)[1]
            if len(a) > 1:
                return False
    return True


@lru_cache(maxsize=None)
def find_irreducible_over(F: FieldSpec, degree: int) -> tuple[int, ...]:
    """The first monic irreducible of the given degree, with the
    candidates (c_0, ..., c_(degree-1), 1) taken in the order of the base-q
    number sum c_i q^i: the constant term varies fastest.  Cached, so the
    moduli of `FieldSpec` and of each `ExtField` are searched once."""
    if degree == 1:
        return (0, 1)
    for number in range(F.q**degree):
        digits = []
        for _ in range(degree):
            number, c = divmod(number, F.q)
            digits.append(c)
        cand = tuple(digits) + (1,)
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
        return _power(self.mul, self.one, a, k)

    def frobenius_q(self, a):
        """a^q, the base-field Frobenius of the extension."""
        return self.pow_int(a, self.base.q)

    def elements(self):
        return (t[::-1] for t in itertools.product(range(self.base.q), repeat=self.m))
