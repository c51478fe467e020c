"""Search for small primes p with 4p = t^2 + d.

Each such prime splits into principal ideals in Q(sqrt(-d)), which is what
makes the per-prime class polynomial recoverable from point counts alone.
The search walks t upward with the parity forced by 4 | t^2 + d and stops
once the product of the primes found exceeds the bound
M = B / (1/2 - epsilon) of the modular CRT, with crt.DEFAULT_EPSILON as
epsilon. The search for the gamma_2 class polynomial keeps only the
p = 2 (mod 3), to a target of a third of the height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import is_prime
from .crt import DEFAULT_EPSILON
from .errors import NoPrimesPossible, SearchLimitExceeded
from .quadforms import Discriminant

_LOG_GUARD = 2.0 ** -30  # makes "product strictly exceeds target" robust


@dataclass(frozen=True)
class CrtPrime:
    """A prime p with its positive trace candidate t, 4p = t^2 + d."""

    p: int
    t: int


@dataclass(frozen=True)
class PrimeSet:
    """A search's primes, smallest first, and spare, the prime it takes next."""

    disc: Discriminant
    primes: tuple[CrtPrime, ...]
    log_product: float
    target_log: float
    spare: CrtPrime

    # observed size/magnitude ratios of the set; reported, never asserted
    @property
    def count_times_logd_over_logB(self) -> float:
        return len(self.primes) * math.log(self.disc.d) / max(self.disc.log_B, 1e-9)

    @property
    def max_p_over_logB_sq(self) -> float:
        return self.primes[-1].p / max(self.disc.log_B, 1e-9) ** 2


def default_target_log(disc: Discriminant, *, gamma2: bool = False) -> float:
    """log of the reconstruction threshold M = B / (1/2 - epsilon), epsilon
    the CRT margin crt.DEFAULT_EPSILON.

    With gamma2 the bound is the one of the gamma_2 = j^(1/3) class
    polynomial: |gamma_2| = |j|^(1/3), so the exponential part of log B is
    divided by 3 and the binomial factor C(h, floor(h/2)) is kept.
    """
    log_b = disc.log_B
    if gamma2:
        log_c = math.log(math.comb(disc.h, disc.h // 2))
        log_b = log_c + (log_b - log_c) / 3
    return log_b - math.log(0.5 - DEFAULT_EPSILON)


def _trace_cap(target_log: float) -> int:
    return 10 ** 6 * max(1, math.ceil(math.log(max(target_log, math.e))))


def _split_primes(d: int, t: int, gamma2: bool, cap: int):
    """CrtPrime(p, t') for every prime p = (t'^2 + d)/4 > 3, for
    t' = t, t + 2, ... in turn, hence ascending in p; with gamma2 only
    the p = 2 (mod 3). t must have the parity of d. Raises
    SearchLimitExceeded once t' passes cap."""
    # No such p divides d: d = kp gives (4 - k)p = t'^2 with t' >= 1, and
    # k = 1 forces p = 3, k = 2 forces p = 2, k = 3 makes p a square.
    while t <= cap:
        p, rem = divmod(t * t + d, 4)
        if rem == 0 and p > 3 and (not gamma2 or p % 3 == 2) and is_prime(p):
            yield CrtPrime(p=p, t=t)
        t += 2
    raise SearchLimitExceeded(f"prime search for d = {d} passed t = {cap}")


def find_crt_primes(disc: Discriminant, *, gamma2: bool = False) -> PrimeSet:
    """Smallest-first primes of the form (t^2 + d)/4 whose product exceeds
    the reconstruction threshold M, exp(default_target_log(disc)).

    Primes p <= 3 are skipped, as the curve model needs characteristic > 3;
    no prime p > 3 of this form divides d, so every one is unramified.

    With gamma2 the search keeps only p = 2 (mod 3), where cubing permutes
    F_p, so that each j-shard gives the reduction of the gamma_2 class
    polynomial (classpoly.gamma2_poly); the target is then that
    polynomial's. As 4p = t^2 + d, p = 2 (mod 3) means 3 does not divide t
    when d = 1 (mod 3) and 3 divides t when d = 2 (mod 3); for 3 | d there
    is no such p, and the search refuses.
    """
    d = disc.d
    if d % 8 == 7:
        raise NoPrimesPossible(
            f"d = {d} = 7 (mod 8): (t^2 + d)/4 is even whenever it is an integer"
        )
    if gamma2 and d % 3 == 0:
        raise ValueError(f"gamma_2 is no class invariant for 3 | d = {d}")
    target_log = default_target_log(disc, gamma2=gamma2)
    primes: list[CrtPrime] = []
    log_product = 0.0
    # 4 | t^2 + d forces t odd iff d is odd
    found = _split_primes(d, 1 if d % 2 else 2, gamma2, _trace_cap(target_log))
    while log_product < target_log + _LOG_GUARD:
        cp = next(found)
        primes.append(cp)
        log_product += math.log(cp.p)
    return PrimeSet(
        disc=disc,
        primes=tuple(primes),
        log_product=log_product,
        target_log=target_log,
        spare=next(found),
    )

