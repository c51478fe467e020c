import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmcurve.arith import (
    is_prime,
    legendre,
    smallest_nonresidue,
    sqrt_mod_p,
    task_rng,
)
from cmcurve.errors import NotASquare


_TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(m, bases):
    """Miller-Rabin: m passes every base, each taken mod m."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _twelve_base_rule(m):
    """Exact below 3.3 * 10^24 (Sorenson & Webster)."""
    if m < 2 or m in _TWELVE_BASES:
        return m in _TWELVE_BASES
    return _strong_probable_prime(m, _TWELVE_BASES)


def test_is_prime_known_values():
    assert is_prime(17)
    assert is_prime(1434707)
    assert is_prime(5417)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2)
    assert not is_prime(2 ** 67 - 1)
    assert is_prime(2 ** 89 - 1)
    # the last trial divisors, and the composites that pin each base set
    assert is_prime(53) and is_prime(59) and is_prime(61)
    assert _strong_probable_prime(3215031751, (2, 7))
    assert not _strong_probable_prime(3215031751, (61,))
    assert not is_prime(3215031751)
    assert 4759123141 == 48781 * 97561 and _strong_probable_prime(4759123141, (2, 7, 61))
    assert not is_prime(4759123141)  # the (2, 7, 61) bound is strict
    assert _strong_probable_prime(3825123056546413051, _TWELVE_BASES[:-1])
    assert not is_prime(3825123056546413051)


def test_is_prime_large_is_deterministic():
    m = 2 ** 127 - 1
    assert is_prime(m) and is_prime(m)
    assert not is_prime(2 ** 127 + 1)


def test_is_prime_small_range_oracle():
    def trial_division(n):
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    for n in range(2000):
        assert is_prime(n) == trial_division(n), n
    # every m < 2^16, then a seeded sample on both sides of 4,759,123,141,
    # where the bases switch from (2, 7, 61) to the first 12 primes
    rng = random.Random(4759123141)
    sample = [4759123141 + rng.randrange(-10**5, 10**5) for _ in range(2000)]
    for m in [*range(1 << 16), *sample]:
        assert is_prime(m) == _twelve_base_rule(m), m


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0
    squares_mod_5 = {x * x % 5 for x in range(1, 5)}
    assert 2 not in squares_mod_5
    assert legendre(2, 5) == -1
    assert legendre(4, 5) == 1


def _euler(a, p):
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_legendre_matches_euler_at_every_prime_below_600():
    # every residue class, reached from below 0 and above p as well
    for p in filter(is_prime, range(3, 600)):
        assert [legendre(a, p) for a in range(-p, 2 * p)] == [
            _euler(a, p) for a in range(-p, 2 * p)
        ], p


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_legendre_matches_euler_at_large_primes(bits):
    rng = random.Random(bits)
    primes = []
    while len(primes) < 4:
        m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime(m):
            primes.append(m)
    for p in primes:
        for a in [0, p, 2, p - 1] + [rng.randrange(p) for _ in range(100)]:
            assert legendre(a, p) == _euler(a, p), (p, a)


def test_legendre_counts_split_evenly():
    p = 1009
    vals = [legendre(a, p) for a in range(1, p)]
    assert vals.count(1) == vals.count(-1) == (p - 1) // 2


def test_sqrt_mod_p_examples():
    assert sqrt_mod_p(0, 7) == 0
    assert sqrt_mod_p(4, 7) == 2
    roots = [y for y in range(7) if y * y % 7 == 2]
    assert sqrt_mod_p(2, 7) == min(roots) == 3
    with pytest.raises(NotASquare):
        sqrt_mod_p(3, 7)


def test_sqrt_mod_p_random_primes():
    rng = random.Random(7)
    primes = []
    while len(primes) < 200:
        m = rng.randrange(5, 10 ** 6) | 1
        if is_prime(m):
            primes.append(m)
    for p in primes:
        a = rng.randrange(p)
        if legendre(a, p) == -1:
            a = a * a % p
        y = sqrt_mod_p(a, p)
        assert y * y % p == a % p
        assert y <= p - y or y == 0  # canonical smaller root


def test_sqrt_mod_p_every_residue_for_p_1_mod_4():
    # Tonelli-Shanks, including primes with a high power of 2 in p - 1
    for p in (13, 17, 41, 73, 97, 113, 257, 7681):
        squares = {y * y % p for y in range(p)}
        for a in range(p):
            if a in squares:
                y = sqrt_mod_p(a, p)
                assert y * y % p == a and y <= p - y
            else:
                with pytest.raises(NotASquare):
                    sqrt_mod_p(a, p)


@pytest.mark.guard
@pytest.mark.parametrize(
    "a, m", [(2, 9), (2, 25), (7, 21), (4, 15), (9, 15), (64, 1105), (4, 561)]
)
def test_sqrt_mod_p_refuses_a_composite_modulus(a, m):
    # 9 and 25 have no z with Jacobi symbol -1, so the search for a
    # non-residue must stop at m; at 21 the Tonelli-Shanks squarings never
    # reach 1, so they must stop after m of them; at 15 = 3 (mod 4),
    # y = a^4 has y^2 = 1 for a = 4 and y^2 = -a for a = 9, a non-unit;
    # at 1105 and 561 a square shows t of order 2^m after the first pass,
    # which a prime modulus never does
    with pytest.raises(ValueError, match=f"{m} is not an odd prime"):
        sqrt_mod_p(a, m)


def test_smallest_nonresidue_brute_force():
    for p in (3, 5, 7, 17, 41, 71, 73, 191, 311, 409, 1009, 3361):
        squares = {y * y % p for y in range(1, p)}
        assert smallest_nonresidue(p) == min(set(range(1, p)) - squares)


@pytest.mark.guard
@pytest.mark.parametrize("m", [9, 3**10, (2**61 - 1) ** 2], ids=["9", "3^10", "(2^61-1)^2"])
def test_smallest_nonresidue_refuses_a_square_without_a_search(m):
    # no z has Jacobi symbol -1 mod a square; a search would run to m
    with pytest.raises(ValueError, match=f"{m} is not an odd prime"):
        smallest_nonresidue(m)


def test_task_rng_is_stable_across_instances():
    a = [task_rng(1, "x", 5).randrange(10 ** 9) for _ in range(4)]
    b = [task_rng(1, "x", 5).randrange(10 ** 9) for _ in range(4)]
    assert a == b
    assert task_rng(1, "x", 5).random() != task_rng(2, "x", 5).random()

