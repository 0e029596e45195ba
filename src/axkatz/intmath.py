"""Exact integer helpers: primality, factorization, valuations, logs, binomials.

Everything here is unbounded-integer arithmetic; no floating point is used
anywhere, so correctness never depends on magnitudes staying small.

Primality is deterministic Miller-Rabin with the thirteen prime bases 2..41,
which is exact below 3,317,044,064,679,887,385,961,981 (Sorenson and Webster
2015); at and above that bound it is the Baillie-PSW test (a strong base-2
test plus a strong Lucas test with Selfridge's parameters), which has no
known counterexample.  Factorization divides out the primes below 1000 and
splits what is left with Pollard's rho in Brent's variant, so its cost grows
with the square root of the second-largest prime factor, not the largest.
"""

from __future__ import annotations

import math
import sys
from itertools import compress, count

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(n - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, n, q)))
    return tuple(compress(range(n), sieve))


_TRIAL_PRIMES = _primes_below(1000)


def _strong_probable_prime(n: int, base: int, d: int, s: int) -> bool:
    """Miller-Rabin round for odd n with n - 1 = d * 2^s, d odd."""
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n >= 1."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 1 not a square.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D / n) = -1,
    P = 1 and Q = (1 - D) / 4; with n + 1 = d * 2^s, d odd, a prime n has
    U_d = 0 or V_(d * 2^r) = 0 (mod n) for some 0 <= r < s.
    """
    d_param = 5
    while True:
        symbol = _jacobi(d_param, n)
        if symbol == -1:
            break
        if symbol == 0 and abs(d_param) != n:
            return False
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Binary ladder from U_1 = 1, V_1 = P = 1, Q^1 over the bits of d.
    u, v, qk = 1, 1, q_param % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (d_param * u + v) % n
            u = (u + n if u % 2 else u) // 2
            v = (v + n if v % 2 else v) // 2
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact primality: Miller-Rabin below 3.3e24, Baillie-PSW from there on."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, base, d, s) for base in _MR_BASES)
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):  # a float such as 2.0 is no prime
        raise ValueError(f"expected a prime, got {p}")
    return p


def check_integer(value: object, what: str) -> None:
    """Raise ValueError naming the value unless it is an int (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def check_tuple(value: object, what: str) -> None:
    """Raise ValueError naming the value unless it is a tuple."""
    if not isinstance(value, tuple):
        raise ValueError(f"{what} must be a tuple, got {value!r}")


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n with no prime factor below 1000.

    Pollard's rho on x -> x^2 + c with Brent's cycle detection, batching the
    gcds over 128 steps and backtracking one step at a time when a batch
    overshoots to n.  The constants c = 1, 2, ... are tried in turn, so the
    result is deterministic.
    """
    for c in count(1):
        y, r, product, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    product = product * abs(x - y) % n
                g = math.gcd(product, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, keys in increasing order.

    Trial division by the primes below 1000, then Pollard-Brent splitting of
    what is left.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    if n >= 10**6:
        for m in sorted(_large_prime_factors(n)):
            out[m] = out.get(m, 0) + 1
    elif n > 1:
        out[n] = 1  # no prime factor below min(1000, sqrt(n)) is left
    return out


def _large_prime_factors(n: int) -> list[int]:
    """Prime factors, with multiplicity, of n >= 10^6 free of primes below 1000."""
    pending, primes = [n], []
    while pending:
        m = pending.pop()
        # m has no prime factor below 1000, so below 1000^2 it is prime.
        if m < 10**6 or is_prime(m):
            primes.append(m)
        else:
            f = _pollard_brent(m)
            pending += [f, m // f]
    return primes


def multiplicity(base: int, n: int) -> int:
    """Largest k with base**k dividing n, for n != 0 and base >= 2, in
    O(log k) big divisions: n is divided by base, base^2, base^4, ... while
    they divide it, which leaves a multiplicity below the next exponent, and
    then by each of those powers once more, from the largest down, while
    base still divides what is left."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n == 0:
        raise ValueError("0 is divisible by every power; handle separately")
    n, k, power, step = abs(n), 0, base, 1
    while n % power == 0:
        n //= power
        k += step
        power, step = power * power, step * 2
    while step > 1 and n % base == 0:
        power, step = math.isqrt(power), step // 2
        if n % power == 0:
            n //= power
            k += step
    return k


def ilog(base: int, x: int) -> int:
    """floor(log_base(x)) for x >= 1, by repeated multiplication."""
    if base < 2 or x < 1:
        raise ValueError(f"ilog needs base >= 2 and x >= 1, got {base}, {x}")
    k = 0
    power = base
    while power <= x:
        k += 1
        power *= base
    return k


def power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """base**exponent > cap, for base >= 1 and exponent >= 0.

    base >= 2^(bits(base) - 1), so once exponent * (bits(base) - 1) reaches
    the bit length of cap the power is past it; otherwise the power has at
    most about twice cap's bit length and is formed.
    """
    if base > 1 and exponent * (base.bit_length() - 1) >= cap.bit_length():
        return True
    return base**exponent > cap


def power_text(base: int, exponent: int) -> str:
    """base**exponent in decimal when Python can print it, else 'base^exponent'."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if power_exceeds(base, exponent, 10**digits - 1):
        return f"{base}^{exponent}"
    return str(base**exponent)


def check_printable(p: int, exponent: int, what: str) -> None:
    """Reject an exponent e with p^(e - 1) past 10^(limit + 1), where limit
    is Python's digit limit for printing integers; no such power is formed.
    The margin of one digit keeps every printable output, and 10^(limit + 1)
    is formed only past 2^(3 limit + 3), below it."""
    limit = sys.get_int_max_str_digits()
    if (
        limit
        and (exponent - 1) * p.bit_length() > 3 * limit + 3
        and power_exceeds(p, exponent - 1, 10 ** (limit + 1))
    ):
        raise ValueError(f"{what} {exponent}: {too_long(limit)}")


def too_long(limit: int) -> str:
    """The message for an integer past Python's digit limit for printing."""
    return (
        f"the result holds an integer of more than {limit} digits, Python's limit"
        " for printing integers (PYTHONINTMAXSTRDIGITS=0 lifts it)"
    )


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a / b for positive b, exact for negative a as well."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -((-a) // b)


def binomial(x: int, n: int) -> int:
    """C(x, n) for any integer x and n >= 0; negative upper index reflects."""
    if n < 0:
        raise ValueError(f"lower index must be nonnegative, got {n}")
    if x >= 0:
        return math.comb(x, n)
    return (-1) ** (n & 1) * math.comb(n - x - 1, n)
