"""Integer and modular arithmetic primitives.

Python's built-in int already provides arbitrary precision, so this module
is mostly thin, deterministic wrappers: primality testing, Legendre symbol,
modular square roots and a keyed RNG.
"""

from __future__ import annotations

import functools
import math
import random

from .errors import NotASquare

# Deterministic Miller-Rabin witness set, sufficient for all m < 3.3 * 10^24
# (in particular for everything below 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_PROBABLE_ROUNDS = 40  # error < 4^-40 = 2^-80 for m >= 2^64


def _miller_rabin(m: int, base: int) -> bool:
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def is_prime(m: int) -> bool:
    """Primality test: deterministic below 2^64, error < 2^-80 above."""
    if m < 2:
        return False
    for q in _SMALL_PRIMES:
        if m % q == 0:
            return m == q
    if m < 1 << 64:
        return all(_miller_rabin(m, a) for a in _MR_WITNESSES)
    # Bases are drawn from a generator seeded by m itself, so the answer is
    # still a deterministic function of m.
    rng = random.Random(f"is_prime:{m % (1 << 128)}")
    for _ in range(_PROBABLE_ROUNDS):
        if not _miller_rabin(m, rng.randrange(2, m - 1)):
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Jacobi symbol (a/p) for any odd modulus p, one of -1, 0, +1: the
    Legendre symbol for a prime p. smallest_nonresidue relies on it to
    refuse p = 9, where no z has symbol -1. No exponentiation: strip the
    factors of 2 by (2/p) = -1 for p = 3, 5 (mod 8), swap the pair by
    quadratic reciprocity and reduce, until a = 0.
    """
    a %= p
    s = 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and p & 7 in (3, 5):
            s = -s
        if a & p & 2:  # a = p = 3 (mod 4)
            s = -s
        a, p = p % a, a
    return s if p == 1 else 0


@functools.lru_cache(maxsize=8)
def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod an odd prime p, cached per p.

    Raises ValueError when no z < p has Jacobi symbol -1, as for p = 9.
    """
    for z in range(2, p):
        if legendre(z, p) == -1:
            return z
    raise ValueError(f"no quadratic non-residue mod {p}: {p} is not an odd prime")


@functools.lru_cache(maxsize=8)
def _tonelli_shanks_base(p: int) -> tuple[int, int, int]:
    """(q, s, z^q mod p) for p - 1 = q * 2^s, q odd, z the smallest
    non-residue: the per-prime part of Tonelli-Shanks, cached per p."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    return q, s, pow(smallest_nonresidue(p), q, p)


def sqrt_mod_p(a: int, p: int) -> int:
    """Square root of a modulo an odd prime p, canonical smaller root.

    Uses the direct exponentiation for p = 3 (mod 4) and Tonelli-Shanks
    otherwise. Raises NotASquare when (a/p) = -1, and ValueError when the
    exponentiation, the non-residue search or the Tonelli-Shanks loop
    shows p composite.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        y = pow(a, (p + 1) // 4, p)
        yy = y * y % p
        if yy == a:
            return min(y, p - y)
        # y^2 = a^((p+1)/2) is -a for a non-residue mod a prime; for a
        # composite p = 3 (mod 4) and a unit a it still proves a non-square,
        # since a = x^2 would make x^(p-1) = -1 a square
        if yy != p - a or math.gcd(a, p) > 1:
            raise ValueError(f"{p} is not an odd prime")
        raise NotASquare(f"{a} is not a square mod {p}")
    q, s, c = _tonelli_shanks_base(p)
    w = pow(a, (q - 1) // 2, p)
    y = a * w % p  # a^((q+1)/2)
    t = y * w % p  # a^q
    m = s
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            if i == m:  # t^(2^m) = 1 for every prime p
                raise ValueError(f"{p} is not an odd prime")
            t2 = t2 * t2 % p
            i += 1
        if i == m:  # t of order 2^m: only a non-residue a gets here
            raise NotASquare(f"{a} is not a square mod {p}")
        b = pow(c, 1 << (m - i - 1), p)
        y = y * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(y, p - y)


def task_rng(*parts) -> random.Random:
    """Deterministic, platform-independent RNG keyed on the given parts.

    String seeding hashes through SHA-512, so the stream is reproducible
    across processes and machines (unlike seeding with a hashable object).
    """
    return random.Random(":".join(str(p) for p in parts))
