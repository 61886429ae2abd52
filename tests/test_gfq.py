import hashlib
import itertools
import random
import time

import pytest

from scodes.gfq import (
    GF,
    ExtField,
    FieldSpec,
    _factor_prime_power,
    find_irreducible_over,
    is_prime,
    poly_irreducible_over,
)


def brute_irreducible(F, poly):
    """Exhaustive oracle over a field F: no monic divisor of degree 1 ..
    deg/2, found by long division on F's own element arithmetic."""
    deg = len(poly) - 1

    def remainder(num, den):
        num = list(num)
        dd = len(den) - 1
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]  # den is monic
            if c:
                for j in range(dd + 1):
                    num[i - dd + j] = F.sub(num[i - dd + j], F.mul(c, den[j]))
        return any(num)

    for d in range(1, deg // 2 + 1):
        for rep in range(F.q**d):
            cand = []
            r = rep
            for _ in range(d):
                cand.append(r % F.q)
                r //= F.q
            cand.append(1)
            if not remainder(poly, cand):
                return False
    return True


def test_prime_field_create():
    F = FieldSpec(2, 1)
    assert F.q == 2
    assert F.add(1, 1) == 0


def test_gf4_unique_modulus():
    F = FieldSpec(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1, the only degree-2 irreducible
    assert F.mul(2, 2) == 3  # x^2 = x + 1


def test_factor_prime_power_against_an_oracle():
    composites = {a * b for a in range(2, 45) for b in range(a, 2000 // a + 1)}
    primes = [p for p in range(2, 2000) if p not in composites]
    powers = {p**e: (p, e) for p in primes for e in range(1, 11) if p**e < 2000}
    for q in range(-1, 2000):
        if q in powers:
            assert _factor_prime_power(q) == powers[q]
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                _factor_prime_power(q)


@pytest.mark.parametrize("q, max_degree", [(2, 4), (3, 4), (4, 3), (5, 3)])
def test_rabin_irreducibility_against_divisor_search(q, max_degree):
    F = GF(q)
    for degree in range(1, max_degree + 1):
        for digits in itertools.product(range(q), repeat=degree):
            poly = digits + (1,)
            assert poly_irreducible_over(F, poly) == brute_irreducible(F, poly), poly


def test_is_prime_against_trial_division():
    for n in range(-2, 10**5):
        assert is_prime(n) == (n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))), n


def test_is_prime_on_strong_pseudoprimes_and_above_its_exact_range():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 31
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    # 2^89 - 1 is prime and above 3,317,044,064,679,887,385,961,981, where
    # Miller-Rabin on the bases 2..41 is not known to be exact
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)
    # a base that witnesses compositeness still decides above that bound
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_factor_prime_power_of_a_large_prime_is_fast():
    # one integer root per exponent and one Miller-Rabin test, however
    # large q's least prime factor is
    start = time.perf_counter()
    assert _factor_prime_power(1000000007) == (1000000007, 1)
    assert _factor_prime_power((10**9 + 7) ** 2) == (10**9 + 7, 2)
    assert _factor_prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert _factor_prime_power(2**40) == (2, 40)
    for q in [2 * 1000000007, (10**9 + 7) * (10**9 + 9), 3 * (2**61 - 1), 6**20]:
        with pytest.raises(ValueError, match="not a prime power"):
            _factor_prime_power(q)
    assert time.perf_counter() - start < 1


def test_gf5_inverse():
    assert GF(5).inv(2) == 3


def test_reducible_modulus_rejected():
    # x^2 + 2 has the root 1 over GF(3)
    assert not brute_irreducible(GF(3), (2, 0, 1))
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (2, 0, 1))
    # x^2 + 1 has no root mod 3, x^2 + x + 2 neither
    assert brute_irreducible(GF(3), (1, 0, 1))
    FieldSpec(3, 2, (1, 0, 1))
    FieldSpec(3, 2, (2, 1, 1))


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4, 1)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)


def test_default_moduli_are_irreducible():
    # the default is the first monic irreducible with the candidates
    # (c_0, ..., c_(e-1), 1) in the order of sum c_i p^i
    fields = [(2, e) for e in range(2, 10)] + [(3, e) for e in range(2, 7)] + [(5, 2), (5, 3), (7, 2)]
    for p, e in fields:
        F = FieldSpec(p, e)
        candidates = (tuple(r // p**i % p for i in range(e)) + (1,) for r in range(p**e))
        assert F.modulus == next(c for c in candidates if brute_irreducible(GF(p), c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    F = GF(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.sub(F.add(a, b), b) == a
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64])
def test_multiplicative_group_order(q):
    F = GF(q)
    for a in range(1, q):
        assert F.pow(a, q - 1) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16])
def test_frobenius_is_field_automorphism(q):
    F = GF(q)
    p = F.p
    for a in range(q):
        for b in range(q):
            # a -> a^p respects the addition and multiplication tables
            fa, fb = F.pow(a, p), F.pow(b, p)
            assert F.pow(F.add(a, b), p) == F.add(fa, fb)
            assert F.pow(F.mul(a, b), p) == F.mul(fa, fb)


def test_frobenius_examples():
    F4 = GF(4)
    # x^2 = x + 1 under the squaring map, and x^4 = x
    assert F4.pow(2, 2) == 3
    assert F4.pow(2, 4) == 2
    assert GF(2).pow(1, 2**5) == 1


def test_square_and_reduce_oracle():
    # squaring against explicit polynomial squaring mod x^2+x+1 over GF(2)
    F4 = GF(4)
    for a in range(4):
        c = F4.coeffs(a)
        # (c0 + c1 x)^2 = c0 + c1 x^2 = c0 + c1 (x+1)
        expected = F4.from_coeffs(((c[0] + c[1]) % 2, c[1]))
        assert F4.pow(a, 2) == expected


def test_felt_operators():
    # field arithmetic on the int encodings
    F = GF(9)
    a, b = 5, 7
    assert F.sub(F.add(a, b), b) == 5
    assert F.mul(a, F.inv(a)) == 1
    assert F.add(a, F.neg(a)) == 0
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_ext_field_tower():
    base = GF(2)
    E = ExtField(base, 3)
    assert poly_irreducible_over(base, E.modulus)
    one = E.one
    # multiplicative order of every nonzero element divides 7
    for el in E.elements():
        if any(el):
            assert E.pow_int(el, 7) == one
    # frobenius_q fixes exactly the base field
    fixed = [el for el in E.elements() if E.frobenius_q(el) == el]
    assert len(fixed) == 2


def test_modulus_search_is_cached():
    # each ExtField a Gabidulin code builds reuses its modulus search
    from scodes.constructions import lifted_mrd

    misses = find_irreducible_over.cache_info().misses
    first = lifted_mrd(3, 8, 2, 4)
    again = lifted_mrd(3, 8, 2, 4)
    assert find_irreducible_over.cache_info().misses - misses <= 1
    assert [w.rref.entries for w in first.words] == [w.rref.entries for w in again.words]


@pytest.mark.parametrize(
    "modulus",
    [(1, 0, 1), (0, 1, 1), (3, 1, 1), (-1, 1, 1)],
    ids=["reducible-x2+1", "reducible-x2+x", "coefficient-q", "coefficient-minus-1"],
)
def test_ext_field_rejects_bad_modulus(modulus):
    # x^2 + 1 = (x + 1)^2 over GF(2) would make (1, 1) a zero divisor
    with pytest.raises(ValueError):
        ExtField(GF(2), 2, modulus)
    E = ExtField(GF(2), 2, (1, 1, 1))
    assert E.mul((1, 1), (1, 1)) == (0, 1)


def test_ext_field_over_gf4():
    base = GF(4)
    E = ExtField(base, 2)  # GF(16) over GF(4)
    for el in E.elements():
        if any(el):
            assert E.pow_int(el, 15) == E.one
    fixed = [el for el in E.elements() if E.frobenius_q(el) == el]
    assert len(fixed) == 4


def test_felt_pow_and_frobenius_tower():
    F = GF(8)
    assert F.pow(5, 7) == 1
    assert F.pow(5, 0) == 1
    assert F.pow(5, -1) == F.inv(5)
    F9 = GF(9)
    assert F9.pow(5, 9) == 5  # x -> x^9 is the identity on GF(9)
    assert F9.pow(5, 3) != 5 and F9.pow(F9.pow(5, 3), 3) == 5  # x -> x^3 has order 2


def digits(F, a):
    return [a // F.p**i % F.p for i in range(F.e)]


def digits_to_rep(F, coeffs):
    return sum((c % F.p) * F.p**i for i, c in enumerate(coeffs))


def check_add_against_digits(F, a, b):
    da, db = digits(F, a), digits(F, b)
    expected = digits_to_rep(F, [x + y for x, y in zip(da, db)])
    assert F.add(a, b) == expected
    assert F.neg(a) == digits_to_rep(F, [-x for x in da])
    assert F.sub(expected, b) == a


@pytest.mark.parametrize("q", [9, 25, 27, 243])
def test_add_tables_match_digit_path(q):
    F = GF(q)
    for a, b in itertools.product(range(q), repeat=2):
        check_add_against_digits(F, a, b)


def test_large_odd_extension_field_adds_without_tables():
    F = GF(3**6)  # q * q is past the table limit
    rng = random.Random(6)
    pairs = [(0, F.q - 1), (F.q - 1, F.q - 1)] + [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(500)]
    for a, b in pairs:
        check_add_against_digits(F, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 243, 256, 2**9, 3**6])
def test_rowop_matches_elementwise_arithmetic(q):
    F = FieldSpec(*_factor_prime_power(q))  # a fresh instance, not the shared GF(q)
    # the row tables exist from construction on, exactly while q*q stays within the limit
    assert bool(F._rows) == (q * q <= 1 << 16)
    a = [(7 * i + 3) % q for i in range(q + 5)]
    b = [(5 * i + 1) % q for i in range(q + 5)]
    for f in {0, 1, q - 1, q // 2}:
        assert F.rowop(a, f) == [F.mul(f, x) for x in a]
        assert F.rowop(a, f, b) == [F.sub(x, F.mul(f, y)) for x, y in zip(a, b)]


# Every field size p^e <= 2^16 of the listed primes up to 13, a few larger
# p^2 and p^3, and prime fields from 3 to 65521: all build log tables.
TABLE_FIELDS = ([(2, e) for e in range(2, 17)] + [(3, e) for e in range(2, 11)]
                + [(5, e) for e in range(2, 7)] + [(7, e) for e in range(2, 6)]
                + [(p, e) for p in (11, 13) for e in (2, 3, 4)]
                + [(17, 3), (37, 3), (101, 2), (241, 2), (251, 2)]
                + [(p, 1) for p in (3, 5, 7, 251, 257, 4099, 65521)])
TABLE_FIELDS_DIGEST = "6f930c7b9f1c014a9ffd45f5e78e87b86c222943d4fdfb336c503a9b0131fb0e"


def test_table_fields_multiply_and_invert_as_recorded():
    """Golden SHA-256 of mul(a, b) and inv(a) over 300 seeded pairs in each
    field: the log tables hold the same field whichever primitive element
    the generator search finds, and however it steps through its powers."""
    h = hashlib.sha256()
    for p, e in TABLE_FIELDS:
        F = FieldSpec(p, e)  # a fresh instance, not the shared GF(q)
        rng = random.Random(p**e)
        for _ in range(300):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            h.update(f"{F.q} {a} {b} {F.mul(a, b)} {F.inv(a) if a else '-'}\n".encode())
    assert h.hexdigest() == TABLE_FIELDS_DIGEST


def test_the_largest_table_field_builds_fast():
    # x is not primitive under GF(2^16)'s default modulus (x^21845 = 1), so
    # its generator is x + 1, stepped through by two table lookups a power
    start = time.perf_counter()
    F = FieldSpec(2, 16)
    assert time.perf_counter() - start < 1.5
    assert F.pow(2, 21845) == 1 and F._exp[1] == 3
