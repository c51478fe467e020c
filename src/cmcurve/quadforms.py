"""Reduced binary quadratic forms, class numbers and the coefficient bound.

A form (a, b, c) of discriminant D = b^2 - 4ac < 0 is reduced when
|b| <= a <= c with b >= 0 whenever |b| = a or a = c. The number of reduced
primitive forms is the class number h, and the natural log of the
coefficient bound B for the degree-h class polynomial is

    log B = log C(h, floor(h/2)) + pi * sqrt(d) * sum(1/a over forms)

with d = |D|. Enumeration is a direct scan over a <= sqrt(d/3), which is
plenty at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import NotFundamental


@dataclass(frozen=True, order=True)
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


DiscLike = Union[int, Discriminant]


def _as_D(disc: DiscLike) -> int:
    return disc.D if isinstance(disc, Discriminant) else disc


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


def reduced_forms(disc: DiscLike) -> list[QuadForm]:
    """All reduced primitive positive-definite forms of discriminant D,
    ordered by (a, b)."""
    D = _as_D(disc)
    if D >= 0:
        raise ValueError("discriminant must be negative")
    d = -D
    out = []
    for a in range(1, math.isqrt(d // 3) + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # boundary ties take the b >= 0 representative
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.append(QuadForm(a, b, c))
    return out


def class_number(disc: DiscLike) -> int:
    return len(reduced_forms(disc))


def sum_inverse_a(disc: DiscLike) -> Fraction:
    """Exact sum of 1/a over the reduced forms, a Discriminant's own forms."""
    forms = disc.forms if isinstance(disc, Discriminant) else reduced_forms(disc)
    return sum((Fraction(1, f.a) for f in forms), Fraction(0))


def _log_bound(d: int, forms: Sequence[QuadForm]) -> float:
    h = len(forms)
    inv_sum = math.fsum(1 / f.a for f in forms)
    return math.log(math.comb(h, h // 2)) + math.pi * math.sqrt(d) * inv_sum


def coefficient_bound_log(disc: DiscLike) -> float:
    """Natural log of the coefficient bound B.

    Evaluated in floats, with the sum of 1/a taken by math.fsum: the error
    is about 10^-16 relative, far below the 10^-6 relative tolerance this
    number is ever used at.
    """
    D = _as_D(disc)
    return _log_bound(-D, reduced_forms(D))


def discriminant(D: int) -> Discriminant:
    """Validate D and package it with d, h, log B and the reduced forms."""
    if not is_fundamental(D):
        raise NotFundamental(f"{D} is not a fundamental discriminant")
    forms = tuple(reduced_forms(D))
    return Discriminant(D=D, d=-D, h=len(forms), log_B=_log_bound(-D, forms), forms=forms)
