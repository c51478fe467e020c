"""Reduced binary quadratic forms, class numbers and the coefficient bound.

A form (a, b, c) of discriminant D = b^2 - 4ac < 0 is reduced when
|b| <= a <= c with b >= 0 whenever |b| = a or a = c. The number of reduced
primitive forms is the class number h, and the natural log of the
coefficient bound B for the degree-h class polynomial is

    log B = log C(h, floor(h/2)) + pi * sqrt(d) * sum(1/a over forms)

with d = |D| <= MAX_D. discriminant(D) gives h, log B and the forms; they
are enumerated by a direct scan over a <= sqrt(d/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotFundamental, TooLarge

# discriminant(-9999991) takes 0.07 s on a 2-core VM (Python 3.11, best of
# 5), D = -832603 (the largest in use) 0.006 s; d above the cap is refused
# before any work
MAX_D = 10**7


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


@dataclass(frozen=True)
class Discriminant:
    """A validated fundamental discriminant, its forms and derived quantities."""

    D: int
    d: int
    h: int
    log_B: float
    forms: tuple[QuadForm, ...]


def is_fundamental(D: int) -> bool:
    """True when D < 0, D = 1 (mod 4) or 8, 12 (mod 16), and no odd prime
    squared divides D."""
    if D >= 0:
        return False
    if D % 4 != 1 and D % 16 not in (8, 12):
        return False
    d = -D
    while d % 2 == 0:
        d //= 2
    q = 3
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return False
        else:
            q += 2
    return True


def reduced_forms(D: int) -> list[QuadForm]:
    """All reduced primitive positive-definite forms of discriminant D,
    ordered by (a, b): for each a it scans the b >= 0 with b = D (mod 2)
    in one filter pass and mirrors each form with 0 < b < a != c to
    (a, -b, c), boundary ties keeping the b >= 0 representative."""
    if D >= 0:
        raise ValueError("discriminant must be negative")
    d = -D
    out = []
    for a in range(1, math.isqrt(d // 3) + 1):
        m = 4 * a
        row = []
        for b in [b for b in range(d & 1, a + 1, 2) if (b * b + d) % m == 0]:
            c = (b * b + d) // m
            if c >= a and math.gcd(a, b, c) == 1:
                row.append((b, c))
        out += [QuadForm(a, -b, c) for b, c in reversed(row) if 0 < b < a != c]
        out += [QuadForm(a, b, c) for b, c in row]
    return out


def sum_inverse_a(disc: Discriminant) -> Fraction:
    """Exact sum of 1/a over the discriminant's reduced forms."""
    return sum((Fraction(1, f.a) for f in disc.forms), Fraction(0))


def _log_bound(d: int, forms: Sequence[QuadForm]) -> float:
    # floats, with math.fsum over 1/a: some 1e-16 relative error, far below
    # the 1e-6 relative tolerance log B is ever used at
    h = len(forms)
    inv_sum = math.fsum(1 / f.a for f in forms)
    return math.log(math.comb(h, h // 2)) + math.pi * math.sqrt(d) * inv_sum


def discriminant(D: int) -> Discriminant:
    """Validate D (TooLarge above MAX_D, checked first) and package it with
    d, h, log B and the reduced forms."""
    if -D > MAX_D:
        raise TooLarge(f"d = {-D} exceeds the discriminant cap {MAX_D}")
    if not is_fundamental(D):
        raise NotFundamental(f"{D} is not a fundamental discriminant")
    forms = tuple(reduced_forms(D))
    return Discriminant(D=D, d=-D, h=len(forms), log_B=_log_bound(-D, forms), forms=forms)
