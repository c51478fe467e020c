"""Explicit Chinese remaindering, in two flavours.

crt_mod_n recovers x mod n from residues of a signed integer x with
|x| < (1/2 - epsilon) * M, M the product of the moduli, without ever
materialising x: the rounded quotient r = floor(z/M + 1/2) is estimated in
low-precision fixed point, which is enough because z/M + 1/2 is
guaranteed to stay at least epsilon away from every integer. M is formed
once per basis; nothing of its size is formed per coefficient.

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

    inverses[i] is (M/m_i)^(-1) mod m_i. M is formed once to build the
    basis and not kept; only M mod n and each (M/m_i) mod n are, taken by
    exact division, so no modulus needs to be invertible mod n.
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
    moduli.

    M/m_i is invertible mod m_i exactly when m_i is coprime to every other
    modulus, so the inverses check coprimality; only when one is missing
    does a pairwise scan find the two moduli to name.
    """
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
    M = math.prod(moduli)
    inverses, M_i_mod_n = [], []
    for m in moduli:
        cofactor = M // m
        try:
            inverses.append(pow(cofactor % m, -1, m))
        except ValueError:
            _check_coprime(moduli)  # raises, naming the two moduli
            raise
        M_i_mod_n.append(cofactor % n)
    scale_bits = max(0, math.ceil(math.log2(ell / epsilon))) + _GUARD_BITS
    return CrtBasis(
        moduli=moduli,
        inverses=tuple(inverses),
        n=n,
        epsilon=epsilon,
        M_mod_n=M % n,
        M_i_mod_n=tuple(M_i_mod_n),
        scale_bits=scale_bits,
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
    residues. Materialises the integer, unlike the modular route."""
    moduli = tuple(getattr(moduli, "moduli", moduli))
    if len(residues) != len(moduli):
        raise ValueError("residue vector length does not match the moduli")
    _check_coprime(moduli)
    M = math.prod(moduli)
    z = 0
    for m, x in zip(moduli, residues):
        if not 0 <= x < m:
            raise ValueError(f"residue {x} not reduced mod {m}")
        Mi = M // m
        z += mod_inverse(Mi % m, m) * x * Mi
    z %= M
    return z - M if 2 * z > M else z
