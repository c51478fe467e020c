"""Integer and modular arithmetic primitives.

Python's built-in int already provides arbitrary precision, so this module
is mostly thin, deterministic wrappers: modular inverse, primality testing,
Legendre symbol, modular square roots, and a small fixed-point type used
wherever a real number has to be computed with an explicit error budget.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotASquare, NotInvertible

# Deterministic Miller-Rabin witness set, sufficient for all m < 3.3 * 10^24
# (in particular for everything below 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_PROBABLE_ROUNDS = 40  # error < 4^-40 = 2^-80 for m >= 2^64


def isqrt(m: int) -> int:
    """Floor of the integer square root."""
    if m < 0:
        raise ValueError("isqrt of negative value")
    return math.isqrt(m)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m). Raises NotInvertible if gcd != 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {m}") from None


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
    """Legendre symbol (a/p) for an odd prime p: one of -1, 0, +1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@functools.lru_cache(maxsize=8)
def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod an odd prime p, cached per p."""
    z = 2
    while legendre(z, p) != -1:
        z += 1
    return z


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
    otherwise. Raises NotASquare when (a/p) = -1.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        y = pow(a, (p + 1) // 4, p)
        if y * y % p != a:
            raise NotASquare(f"{a} is not a square mod {p}")
        return min(y, p - y)
    q, s, c = _tonelli_shanks_base(p)
    w = pow(a, (q - 1) // 2, p)
    y = a * w % p  # a^((q+1)/2)
    t = y * w % p  # a^q
    m = s
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
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


# ---------------------------------------------------------------------------
# Fixed-point reals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    """A real number represented as mantissa / 2^scale_bits.

    Arithmetic never hides its error: construction by from_ratio truncates
    toward -infinity (error < 1 ulp), add of equal-scale values is exact,
    and mul truncates the product (error < 1 ulp plus inherited error).
    Callers account for accumulated ulps explicitly.
    """

    mantissa: int
    scale_bits: int

    @classmethod
    def from_int(cls, v: int, scale_bits: int) -> "FixedPoint":
        return cls(v << scale_bits, scale_bits)

    @classmethod
    def from_ratio(cls, num: int, den: int, scale_bits: int) -> "FixedPoint":
        """num/den rounded down to the grid; error in [0, 1) ulp."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        return cls((num << scale_bits) // den, scale_bits)

    def add(self, other: "FixedPoint") -> "FixedPoint":
        if self.scale_bits != other.scale_bits:
            raise ValueError("scale mismatch")
        return FixedPoint(self.mantissa + other.mantissa, self.scale_bits)

    def mul(self, other: "FixedPoint") -> "FixedPoint":
        if self.scale_bits != other.scale_bits:
            raise ValueError("scale mismatch")
        return FixedPoint(
            (self.mantissa * other.mantissa) >> self.scale_bits, self.scale_bits
        )

    def to_float(self) -> float:
        return self.mantissa / (1 << self.scale_bits)

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.scale_bits)


_GUARD_BITS = 32


def _arctan_recip(x: int, scale_bits: int) -> int:
    # atan(1/x) = sum (-1)^k / ((2k+1) x^(2k+1)), mantissa at scale_bits
    acc, power, k = 0, x, 0
    while True:
        term = (1 << scale_bits) // ((2 * k + 1) * power)
        if term == 0:
            return acc
        acc += -term if k & 1 else term
        power *= x * x
        k += 1


def _artanh_recip(x: int, scale_bits: int) -> int:
    # atanh(1/x) = sum 1 / ((2k+1) x^(2k+1)), mantissa at scale_bits
    acc, power, k = 0, x, 0
    while True:
        term = (1 << scale_bits) // ((2 * k + 1) * power)
        if term == 0:
            return acc
        acc += term
        power *= x * x
        k += 1


def pi_fixed(scale_bits: int) -> int:
    """Mantissa of pi at the given scale (Machin's formula), error < 1 ulp."""
    s = scale_bits + _GUARD_BITS
    return (16 * _arctan_recip(5, s) - 4 * _arctan_recip(239, s)) >> _GUARD_BITS


def ln2_fixed(scale_bits: int) -> int:
    """Mantissa of ln 2 at the given scale, error < 1 ulp."""
    s = scale_bits + _GUARD_BITS
    return (2 * _artanh_recip(3, s)) >> _GUARD_BITS


def log_fixed(n: int, scale_bits: int) -> int:
    """Mantissa of ln n for a positive integer n, error < 1 ulp.

    Splits ln n = e ln 2 + ln r with r = n / 2^e in [1, 2), and evaluates
    ln r = 2 atanh((r-1)/(r+1)) as an integer series; the argument is at
    most 1/3 so the series converges by a factor of at least 9 per term.
    """
    if n < 1:
        raise ValueError("log_fixed needs a positive integer")
    if n == 1:
        return 0
    s = scale_bits + _GUARD_BITS
    e = n.bit_length() - 1
    u = (n << s) >> e  # mantissa of r in [1, 2)
    ynum, yden = u - (1 << s), u + (1 << s)
    y = (ynum << s) // yden
    y2 = (y * y) >> s
    acc, power, k = 0, y, 0
    while power:
        acc += power // (2 * k + 1)
        power = (power * y2) >> s
        k += 1
    ln2 = 2 * _artanh_recip(3, s)
    return (2 * acc + e * ln2) >> _GUARD_BITS


def sqrt_fixed(m: int, scale_bits: int) -> int:
    """Mantissa of sqrt(m) for a nonnegative integer m, error < 1 ulp."""
    if m < 0:
        raise ValueError("sqrt_fixed of negative value")
    return math.isqrt(m << (2 * scale_bits))
