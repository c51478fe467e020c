"""Explicit Chinese remaindering, in two flavours.

crt_mod_n recovers x mod n from residues of a signed integer x with
|x| < (1/2 - epsilon) * M, M the product of the moduli, without ever
materialising x: the rounded quotient r = floor(z/M + 1/2) is estimated in
low-precision fixed point, which is enough because z/M + 1/2 is
guaranteed to stay at least epsilon away from every integer. The margin
epsilon is the constant DEFAULT_EPSILON = 0.001, which the prime search
(primegen.default_target_log) also reads; only build_basis takes another
value in (0, 1/2). The basis half that depends only on the moduli is
memoised per prime set, the half that depends on n comes from products
mod n, and each lift is then two dot products: nothing of the size of M
is formed per n or coefficient.

crt_integer is the classic reconstruction that does materialise the
integer; it serves as the independent oracle for the modular route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import lt, mul
from typing import Sequence

from .errors import NotCoprime

DEFAULT_EPSILON = 0.001
_GUARD_BITS = 8
# prime sets whose n-independent half is kept. A seed-1 benchmark round has
# 39 hits and 1 miss in lift_h96, 81 and 3 in construct_warm, 41 and 41 in
# construct_cold: each construct lift is lifted again, to its spare prime.
_PRIME_SET_CACHE_MAX = 4


@dataclass(frozen=True)
class CrtBasis:
    """Precomputed data shared by every coefficient lift.

    With a_i = (M/m_i)^(-1) mod m_i, reciprocals[i] is floor(a_i 2^shift /
    m_i), shift = s + bitlen(max m_i) for s fractional bits of precision,
    shared by every basis over the same moduli and epsilon. M mod n and
    each (M/m_i) mod n come from prefix and suffix products mod n, so no
    modulus needs to be invertible mod n; weights[i] is a_i (M/m_i) mod n.
    """

    moduli: tuple[int, ...]
    n: int
    M_mod_n: int
    shift: int
    reciprocals: tuple[int, ...]
    weights: tuple[int, ...]


@lru_cache(maxsize=_PRIME_SET_CACHE_MAX)
def _prime_set(moduli: tuple[int, ...], epsilon: float):
    """(inverses, shift, reciprocals) for the moduli.

    M/m_i is invertible mod m_i exactly when m_i is coprime to every other
    modulus, so the inverses check coprimality; only when one is missing
    does a pairwise scan find the two moduli to name.
    """
    if not moduli:
        raise ValueError("at least one modulus required")
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be >= 2")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 1/2)")
    ell = len(moduli)
    M = math.prod(moduli)
    inverses = []
    for m in moduli:
        try:
            inverses.append(pow(M // m % m, -1, m))
        except ValueError:
            _check_coprime(moduli)  # raises, naming the two moduli
            raise
    s = max(0, math.ceil(math.log2(ell / epsilon))) + _GUARD_BITS
    shift = s + max(moduli).bit_length()
    reciprocals = tuple((a << shift) // m for a, m in zip(inverses, moduli))
    return tuple(inverses), shift, reciprocals


def build_basis(
    moduli: Sequence[int], n: int, epsilon: float = DEFAULT_EPSILON
) -> CrtBasis:
    """The basis for the given pairwise coprime moduli and target n; the
    n-independent half is memoised per (moduli, epsilon)."""
    moduli = tuple(moduli)
    inverses, shift, reciprocals = _prime_set(moduli, epsilon)
    if n < 2:
        raise ValueError("target modulus must be >= 2")
    step = lambda acc, m: acc * m % n
    prefix = list(accumulate(moduli, step, initial=1))
    suffix = list(accumulate(reversed(moduli), step, initial=1))
    # prefix[i] suffix[ell - 1 - i] = M/m_i mod n
    weights = zip(inverses, prefix, suffix[-2::-1])
    return CrtBasis(
        moduli=moduli,
        n=n,
        M_mod_n=prefix[-1],
        shift=shift,
        reciprocals=reciprocals,
        weights=tuple(a * b * c % n for a, b, c in weights),
    )


def _check_coprime(moduli) -> None:
    for i in range(len(moduli)):
        for k in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[k]) != 1:
                raise NotCoprime(
                    f"moduli {moduli[i]} and {moduli[k]} share a factor"
                ) from None


def round_quotient(basis: CrtBasis, residues: Sequence[int]) -> int:
    """r = floor(z/M + 1/2), where z = sum a_i M_i x_i, from fixed point.

    z/M = sum a_i x_i / m_i is summed as sum x_i c_i over the reciprocals
    c_i = floor(a_i 2^S / m_i). Each c_i falls short by under one unit and
    x_i < 2^(S - s), s the fractional bits of _prime_set, so the total
    falls short of 2^S z/M by less than ell 2^S / 2^s, i.e. z/M by less
    than epsilon/2^8. Since z/M + 1/2 is at least epsilon away from any
    integer whenever the reconstruction precondition |x| < (1/2 - epsilon) M
    holds, the rounding is exact.
    """
    if len(residues) != len(basis.moduli):
        raise ValueError("residue vector length does not match the basis")
    if min(residues) < 0 or not all(map(lt, residues, basis.moduli)):
        for x, m in zip(residues, basis.moduli):
            if not 0 <= x < m:
                raise ValueError(f"residue {x} not reduced mod {m}")
    S = basis.shift
    return (sum(map(mul, residues, basis.reciprocals)) + (1 << (S - 1))) >> S


def crt_mod_n(basis: CrtBasis, residues: Sequence[int]) -> int:
    """The unique x with |x| < (1/2 - epsilon) M matching the residues,
    reduced into [0, n)."""
    r = round_quotient(basis, residues)  # validates the residues
    return (sum(map(mul, residues, basis.weights)) - r * basis.M_mod_n) % basis.n


def crt_integer(moduli: Sequence[int], residues: Sequence[int]) -> int:
    """Classic CRT oracle: the signed integer in (-M/2, M/2] matching the
    residues. Materialises the integer, unlike the modular route; its
    inverses prove the moduli coprime, as in _prime_set."""
    if len(residues) != len(moduli):
        raise ValueError("residue vector length does not match the moduli")
    if not moduli:
        raise ValueError("at least one modulus required")
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be >= 2")
    M = math.prod(moduli)
    cofactors = [M // m for m in moduli]
    try:
        terms = [pow(c % m, -1, m) * c for c, m in zip(cofactors, moduli)]
    except ValueError:
        _check_coprime(moduli)  # raises, naming the two moduli
        raise
    for x, m in zip(residues, moduli):
        if not 0 <= x < m:
            raise ValueError(f"residue {x} not reduced mod {m}")
    z = sum(map(mul, terms, residues)) % M
    return z - M if 2 * z > M else z
