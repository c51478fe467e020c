"""Explicit Chinese remaindering, in two flavours.

crt_mod_n recovers x mod n from residues of a signed integer x with
|x| < (1/2 - epsilon) * M, M the product of the moduli, without ever
materialising x or M: the rounded quotient r = floor(z/M + 1/2) is
estimated in low-precision fixed point, which is enough because z/M + 1/2
is guaranteed to stay at least epsilon away from every integer.

crt_integer is the classic reconstruction that does materialise the
integer; it serves as the independent oracle for the modular route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .arith import mod_inverse
from .errors import NotCoprime, PrecisionBudgetExceeded

_GUARD_BITS = 8


@dataclass(frozen=True)
class CrtBasis:
    """Precomputed data shared by every coefficient lift.

    inverses[i] is (M/m_i)^(-1) mod m_i. M itself is never formed; only
    M mod n and each (M/m_i) mod n are kept, the latter from prefix and
    suffix products, so no modulus needs to be invertible mod n.
    """

    moduli: tuple[int, ...]
    inverses: tuple[int, ...]
    n: int
    epsilon: float
    M_mod_n: int
    M_i_mod_n: tuple[int, ...]
    scale_bits: int


def _check_residues(basis: CrtBasis, residues: Sequence[int]) -> None:
    if len(residues) != len(basis.moduli):
        raise ValueError("residue vector length does not match the basis")
    for x, m in zip(residues, basis.moduli):
        if not 0 <= x < m:
            raise ValueError(f"residue {x} not reduced mod {m}")


def build_basis(moduli: Sequence[int], n: int, epsilon: float = 0.001) -> CrtBasis:
    """Precompute inverses and mod-n data for the given pairwise coprime
    moduli."""
    moduli = tuple(moduli)
    if not moduli:
        raise ValueError("at least one modulus required")
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be >= 2")
    if n < 2:
        raise ValueError("target modulus must be >= 2")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 1/2)")
    ell = len(moduli)
    for i in range(ell):
        for k in range(i + 1, ell):
            if math.gcd(moduli[i], moduli[k]) != 1:
                raise NotCoprime(f"moduli {moduli[i]} and {moduli[k]} share a factor")

    inverses = []
    for i, m in enumerate(moduli):
        prod_i = 1
        for k, other in enumerate(moduli):
            if k != i:
                prod_i = prod_i * (other % m) % m
        inverses.append(mod_inverse(prod_i, m))

    # prefix/suffix products give every M_i mod n without any inversion
    prefix = [1] * (ell + 1)
    for i, m in enumerate(moduli):
        prefix[i + 1] = prefix[i] * (m % n) % n
    suffix = [1] * (ell + 1)
    for i in range(ell - 1, -1, -1):
        suffix[i] = suffix[i + 1] * (moduli[i] % n) % n
    M_i_mod_n = tuple(prefix[i] * suffix[i + 1] % n for i in range(ell))

    scale_bits = max(0, math.ceil(math.log2(ell / epsilon))) + _GUARD_BITS
    return CrtBasis(
        moduli=moduli,
        inverses=tuple(inverses),
        n=n,
        epsilon=epsilon,
        M_mod_n=prefix[ell],
        M_i_mod_n=M_i_mod_n,
        scale_bits=scale_bits,
    )


def round_quotient(basis: CrtBasis, residues: Sequence[int]) -> int:
    """r = floor(z/M + 1/2), where z = sum a_i M_i x_i, from fixed point.

    z/M = sum a_i x_i / m_i is summed with scale_bits fractional bits; each
    term truncates by under one ulp, so the total falls short of the true
    value by less than epsilon/2^8. Since z/M + 1/2 is at least epsilon
    away from any integer whenever the reconstruction precondition
    |x| < (1/2 - epsilon) M holds, the rounding is exact.
    """
    _check_residues(basis, residues)
    s = basis.scale_bits
    ell = len(basis.moduli)
    if ell >= basis.epsilon * (1 << s):
        raise PrecisionBudgetExceeded(
            f"{ell} terms at {s} fractional bits exceed epsilon = {basis.epsilon}"
        )
    total = sum(
        (a * x << s) // m for a, x, m in zip(basis.inverses, residues, basis.moduli)
    )
    return (total + (1 << (s - 1))) >> s


def crt_mod_n(basis: CrtBasis, residues: Sequence[int]) -> int:
    """The unique x with |x| < (1/2 - epsilon) M matching the residues,
    reduced into [0, n)."""
    r = round_quotient(basis, residues)  # validates the residues
    n = basis.n
    acc = 0
    for a, x, mi_mod_n in zip(basis.inverses, residues, basis.M_i_mod_n):
        acc = (acc + (a * x % n) * mi_mod_n) % n
    return (acc - (r % n) * basis.M_mod_n) % n


def crt_integer(moduli, residues: Sequence[int]) -> int:
    """Classic CRT oracle: the signed integer in (-M/2, M/2] matching the
    residues. Materialises M, unlike the modular route."""
    moduli = tuple(getattr(moduli, "moduli", moduli))
    if len(residues) != len(moduli):
        raise ValueError("residue vector length does not match the moduli")
    for i in range(len(moduli)):
        for k in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[k]) != 1:
                raise NotCoprime(
                    f"moduli {moduli[i]} and {moduli[k]} share a factor"
                )
    M = math.prod(moduli)
    z = 0
    for m, x in zip(moduli, residues):
        if not 0 <= x < m:
            raise ValueError(f"residue {x} not reduced mod {m}")
        Mi = M // m
        z += mod_inverse(Mi % m, m) * x * Mi
    z %= M
    return z - M if 2 * z > M else z
