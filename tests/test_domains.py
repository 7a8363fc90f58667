"""Domains: primality, random primes, cyclotomic arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from milnor.domains import (
    CyclotomicField,
    cyclotomic_polynomial,
    draw_distinct_primes,
    euler_phi,
    is_probable_prime,
    prime_factors,
    random_prime,
    random_prime_one_mod,
)
from milnor.poly import chebyshev_poly


def test_primality_small_exhaustive():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_probable_prime(n) == sieve[n]


def test_primality_known_large():
    assert is_probable_prime(2**31 - 1)
    assert not is_probable_prime(2**31)
    assert not is_probable_prime((2**15 - 19) * (2**16 + 1))
    assert is_probable_prime(1_000_000_007)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the Miller-Rabin test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_primality_four_bases_below_their_bound():
    # 3,215,031,751 = 151 * 751 * 28351, the least strong pseudoprime to
    # bases 2, 3, 5 and 7 together, is where those four stop deciding
    n = 3_215_031_751
    assert 151 * 751 * 28351 == n
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7))
    assert not is_probable_prime(n)
    # the primes drawn from [2^30, 2^31) get the verdicts of all twelve bases
    rng = random.Random(23)
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for _ in range(20000):
        n = rng.randrange((1 << 30) | 1, 1 << 31, 2)
        want = all(n % a for a in bases) and all(_strong_probable_prime(n, a) for a in bases)
        assert is_probable_prime(n) == want, n


def test_random_prime_windows_and_determinism():
    rng = random.Random(42)
    ps = draw_distinct_primes(rng, 5)
    assert len(set(ps)) == 5
    assert all(1 << 30 <= p < 1 << 31 for p in ps)
    assert ps == draw_distinct_primes(random.Random(42), 5)
    p = random_prime_one_mod(random.Random(1), 16)
    assert p % 16 == 1 and is_probable_prime(p)


def test_random_prime_basic():
    p = random_prime(random.Random(9), 100, 1000)
    assert 100 <= p < 1000 and is_probable_prime(p)


def test_euler_phi():
    known = {1: 1, 2: 1, 4: 2, 6: 2, 8: 4, 10: 4, 12: 4, 16: 8, 14: 6, 30: 8}
    for m, v in known.items():
        assert euler_phi(m) == v


def test_prime_factors_against_brute_force():
    for m in range(1, 201):
        want = [q for q in range(2, m + 1)
                if m % q == 0 and all(q % r for r in range(2, q))]
        assert prime_factors(m) == want, m
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        assert euler_phi(m) == phi, m


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first coefficient outside {0, +-1}


def test_cyclotomic_degree_is_phi():
    for m in range(1, 40):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_zeta_has_exact_order():
    for m in (4, 6, 8, 10, 12, 16):
        field = CyclotomicField(m)
        z = field.zeta()
        assert z**m == field.one()
        for k in range(1, m):
            assert z**k != field.one() or m % (m // math.gcd(m, k)) != 0
        # primitive: z^k = 1 only when m | k
        assert all(z**k != field.one() for k in range(1, m))


def test_cyclotomic_field_axioms():
    field = CyclotomicField(16)
    rng = random.Random(2)
    elems = [
        CyclotomicElement_random(field, rng) for _ in range(6)
    ]
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
    a = elems[0]
    assert a - a == field.zero()
    assert a * field.one() == a


def CyclotomicElement_random(field, rng):
    from milnor.domains import CyclotomicElement

    return CyclotomicElement(
        field, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.phi)]
    )


def test_cos_root_values():
    # cos(pi/3) = 1/2 exactly, inside Q(zeta_6) and any field containing it
    field = CyclotomicField(6)
    assert field.cos_root(1, 3) == Fraction(1, 2)
    field = CyclotomicField(12)
    assert field.cos_root(2, 6) == Fraction(1, 2)  # cos(pi/3) again
    assert field.cos_root(3, 6) == 0  # cos(pi/2)
    # cos(pi/4)^2 = 1/2
    c = CyclotomicField(8).cos_root(1, 4)
    assert c * c == Fraction(1, 2)


def test_cos_root_matches_float():
    for d in (3, 4, 5, 6, 7, 8):
        field = CyclotomicField(2 * d)
        for j in range(1, d):
            exact = field.cos_root(j, d)
            z = complex(math.cos(2 * math.pi / (2 * d)), math.sin(2 * math.pi / (2 * d)))
            approx = sum(float(c) * (z**i).real for i, c in enumerate(exact.coeffs))
            assert abs(approx - math.cos(j * math.pi / d)) < 1e-9


def test_cos_root_equals_halved_sum_by_division():
    # cos_root halves zeta^j + zeta^-j by a Fraction product; doubling it
    # back must give the sum exactly, with no division in the field
    for m in (6, 8, 10, 12, 16):
        field = CyclotomicField(m)
        for j in range(m):
            z = field.zeta(j)
            zbar = field.zeta(m - j)
            assert 2 * field.cos_root(j, m // 2) == z + zbar, (m, j)


def test_negative_power_refused():
    z = CyclotomicField(8).zeta()
    assert z**0 == 1
    with pytest.raises(ValueError, match="negative exponent"):
        z**-1


def test_chebyshev_critical_points_exact():
    # T_d(cos(j*pi/d)) = (-1)^j and T_d'(cos(j*pi/d)) = 0, exactly, for 0 < j < d
    for d in (3, 4, 5, 6):
        field = CyclotomicField(2 * d)
        td = chebyshev_poly(d)
        td_prime = td.partial_derivative(0)
        for j in range(1, d):
            lam = field.cos_root(j, d)
            assert td.evaluate([lam]) == (-1) ** j
            assert not td_prime.evaluate([lam])


def test_vector_text():
    field = CyclotomicField(8)
    e = field.zeta() + field.scalar(Fraction(1, 2))
    assert e.vector_text() == "[1/2, 1, 0, 0]"
