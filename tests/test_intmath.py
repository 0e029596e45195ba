"""Primality and factorization: exactness at the Miller-Rabin bound and beyond."""

import math

import pytest

import sys

from axkatz.intmath import (
    _strong_lucas_probable_prime,
    check_prime,
    factorize,
    is_prime,
    multiplicity,
    power_exceeds,
    power_text,
)

LIMIT = 2 * 10**4


def trial_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def trial_factorize(n):
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, LIMIT) if is_prime(n)] == [
        n for n in range(-3, LIMIT) if trial_is_prime(n)
    ]


def test_factorize_matches_trial_division():
    for n in range(1, LIMIT):
        fac = factorize(n)
        assert fac == trial_factorize(n)
        assert list(fac) == sorted(fac)
    with pytest.raises(ValueError):
        factorize(0)


def test_carmichael_numbers_are_composite():
    for n in (561, 41041, 825265):
        assert not is_prime(n)
        assert trial_factorize(n) == factorize(n)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases():
    # Passes Miller-Rabin for every base 2..37; base 41 exposes it.
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)


def test_strong_pseudoprime_at_the_thirteen_base_bound():
    # Passes every base 2..41 and sits exactly at the bound where the
    # thirteen-base test stops being exact, so only Baillie-PSW rejects it.
    n = 3317044064679887385961981
    assert not is_prime(n)
    assert factorize(n) == {1287836182261: 1, 2575672364521: 1}


def test_strong_lucas_test_on_small_odd_numbers():
    # Selfridge's strong Lucas pseudoprimes below 2*10^4 (OEIS A217255).
    passing = [
        n for n in range(3, LIMIT, 2)
        if math.isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)
    ]
    primes = [n for n in range(3, LIMIT, 2) if trial_is_prime(n)]
    assert sorted(set(passing) - set(primes)) == [5459, 5777, 10877, 16109, 18971]
    assert set(primes) <= set(passing)


def test_mersenne_primes():
    # 2^89 - 1 and 2^127 - 1 lie past the Miller-Rabin bound (Baillie-PSW).
    for e in (61, 89, 127):
        assert is_prime(2**e - 1)
        assert check_prime(2**e - 1) == 2**e - 1
        assert factorize(2**e - 1) == {2**e - 1: 1}
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert not is_prime((2**89 - 1) ** 2)


def test_factorize_splits_products_of_large_primes():
    # Cofactors past trial division need Pollard-Brent.
    assert factorize(1000000007 * 1000000009) == {1000000007: 1, 1000000009: 1}
    assert factorize(999999937 * 1000000007 * 12) == {
        2: 2, 3: 1, 999999937: 1, 1000000007: 1,
    }
    assert factorize(1000003**3) == {1000003: 3}
    # Cofactors just past the trial primes, and just past 1000^2.
    assert factorize(1009 * 1013) == {1009: 1, 1013: 1}
    assert factorize(1009**2 * 2) == {2: 1, 1009: 2}
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    assert factorize(2**67 - 1) == {193707721: 1, 761838257287: 1}
    assert factorize(10**20) == {2: 20, 5: 20}


def test_power_exceeds_matches_the_power():
    for base in (1, 2, 3, 7, 255, 256, 257, 10**20):
        for exponent in range(0, 40):
            for cap in (-5, 0, 1, 2, 255, 256, 10**9, 10**40, 2**200):
                assert power_exceeds(base, exponent, cap) == (base**exponent > cap)


def test_power_exceeds_and_text_never_form_a_huge_power():
    assert power_exceeds(7, 10**18, 10**6)
    assert power_exceeds(2, 10**100, 2**64)
    assert power_text(7, 10**18) == f"7^{10**18}"
    digits = sys.get_int_max_str_digits()
    assert power_text(10, digits - 1) == "1" + "0" * (digits - 1)
    assert power_text(10, digits) == f"10^{digits}"
    assert power_text(2, 10) == "1024"


def test_multiplicity_matches_repeated_division():
    # The squaring route takes O(log k) big divisions: a cofactor of p^30000
    # is valued at once, and random (base, n) agree with one division a step.
    import random
    import time

    def plain(base, n):
        k, n = 0, abs(n)
        while n % base == 0:
            n, k = n // base, k + 1
        return k

    start = time.perf_counter()
    assert multiplicity(7, 12 * 7**30000) == multiplicity(7, -(7**30000)) == 30000
    assert time.perf_counter() - start < 0.5
    rng = random.Random(21)
    for _ in range(2000):
        base = rng.choice([2, 3, 4, 6, 7, 10, 12, rng.randint(2, 10**6)])
        n = rng.randint(1, 10**6) * base ** rng.randint(0, 70) * rng.choice([1, -1])
        assert multiplicity(base, n) == plain(base, n), (base, n)
