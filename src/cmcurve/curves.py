"""Short-Weierstrass elliptic curves over prime fields.

Curves are y^2 = x^3 + a4 x + a6 over F_p with p > 3. Points are either
None (the point at infinity) or affine (x, y) tuples. Everything here is a
pure function of its arguments: random_point draws from the stream it is
given, and the other randomised operations from a fixed stream keyed on
the curve (arith.task_rng), so every result is reproducible.

Scalar multiplication runs in Jacobian coordinates with one inversion back
to affine: over the binary digits of short scalars and over the width-4
NAF of long ones, from NAF_MIN_BITS on, against a table of odd multiples
built by affine additions.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .arith import legendre, smallest_nonresidue, sqrt_mod_p, task_rng
from .errors import (
    Ambiguous,
    InvariantViolation,
    NotASquare,
    SpecialJ,
    TooLarge,
)

Point = Optional[tuple[int, int]]

NAIVE_COUNT_CAP = 1 << 26
# Exact counts sum the quadratic character up to this field size and use
# baby-step giant-step above it, where BSGS is already the faster of the two:
# at p = 4099 one count took 0.9 ms exhaustively and 0.09 ms by BSGS.
EXHAUSTIVE_COUNT_MAX = 1 << 10
# BSGS refuses fields above this: its baby-step table grows as p^(1/4). At
# j = 2 on a 2-core VM a count took 2.2 s at the first prime above 2^64 and
# 11.0 s, with 2^19 baby steps and a 144 MB peak, at the first above 2^72.
BSGS_COUNT_MAX = 1 << 72
_BSGS_MAX_POINTS = 32


@dataclass(frozen=True)
class CurveModP:
    """y^2 = x^3 + a4 x + a6 over F_p, with the j-invariant cached."""

    p: int
    a4: int
    a6: int
    j: int

    def __post_init__(self):
        if self.p <= 3:
            raise ValueError("field characteristic must exceed 3")
        if (4 * self.a4 ** 3 + 27 * self.a6 ** 2) % self.p == 0:
            raise ValueError("singular curve")


def j_invariant(p: int, a4: int, a6: int) -> int:
    """j = 1728 * 4 a4^3 / (4 a4^3 + 27 a6^2) mod p."""
    num = 4 * pow(a4, 3, p) % p
    den = (num + 27 * pow(a6, 2, p)) % p
    if den == 0:
        raise ValueError("singular curve has no j-invariant")
    return 1728 * num * pow(den, -1, p) % p


def curve(p: int, a4: int, a6: int) -> CurveModP:
    """Build a curve from raw coefficients, computing its j-invariant."""
    a4 %= p
    a6 %= p
    return CurveModP(p=p, a4=a4, a6=a6, j=j_invariant(p, a4, a6))


def curve_from_j(j: int, p: int) -> CurveModP:
    """The model y^2 = x^3 + 3kx + 2k with k = j/(1728 - j).

    Raises SpecialJ for j = 0 or j = 1728 mod p, where k is zero or
    undefined; callers special-case those two j-invariants.
    """
    if p <= 3:
        raise ValueError("field characteristic must exceed 3")
    j %= p
    if j == 0 or j == 1728 % p:
        raise SpecialJ(f"j = {j} mod {p} needs a special curve model")
    k = j * pow((1728 - j) % p, -1, p) % p
    return CurveModP(p=p, a4=3 * k % p, a6=2 * k % p, j=j)


def is_on_curve(E: CurveModP, P: Point) -> bool:
    if P is None:
        return True
    x, y = P
    return (y * y - (x * x % E.p * x + E.a4 * x + E.a6)) % E.p == 0


def point_neg(E: CurveModP, P: Point) -> Point:
    if P is None:
        return None
    return (P[0], -P[1] % E.p)


def point_add(E: CurveModP, P: Point, Q: Point) -> Point:
    return _add(E.p, E.a4, P, Q)


def _add(p: int, a4: int, P: Point, Q: Point) -> Point:
    """P + Q in affine coordinates, one inversion unless P or Q is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


# [m]P reads the width-4 NAF of m from this many bits on and its binary
# digits below. Against the binary digits, per [m]P on a 2-core VM, the NAF
# read 0.67x at 16-20 bits (the j-scan's exact counts, point_count_bsgs),
# 1.0x at 56-72, 1.12x at 80-88 and 1.2-1.25x at 256, its additions falling
# from b/2 to b/5. Those runs built the table in Jacobian coordinates with
# one shared inversion; its four affine steps cost about 15 us more at 256
# bits and 5 us less at 64, against some 1.7 ms for a 256-bit [m]P.
NAF_MIN_BITS = 80
_NAF_CACHE_MAX = 6  # verify_order reads N and up to five gaps (d = 3) per point
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")  # bin(m) text to digits
# random_point tests a candidate by legendre before its square root from
# this field size on. Per point drawn the test read 0.72-0.93x at the
# j-scan's 14-30 bits, 1.0-1.1x at 60-96 and 1.27-1.32x at 256 bits.
PRETEST_MIN_BITS = 64


@lru_cache(maxsize=_NAF_CACHE_MAX)
def _naf4(m: int) -> tuple[int, ...]:
    """Width-4 NAF of m > 0, most significant digit first: digits in
    {0, +-1, +-3, +-5, +-7}, any two nonzero ones at least four apart, the
    leading one positive. Cached, as verify_order's samples share N."""
    digits = []
    while m:
        d = 0
        if m & 1:
            d = (m & 15) - 16 if m & 8 else m & 15
            m -= d
        digits.append(d)
        m >>= 1
    return tuple(reversed(digits))


def _jacobian(p: int, a4: int, table, digits) -> tuple[int, int, int]:
    """[m]P for the digits d_0 ... d_k of m = sum d_i 2^(k-i), where
    table[d] = [d]P, as Jacobian (X : Y : Z) = (X/Z^2, Y/Z^3), Z = 0 for O.

    Left-to-right: each step doubles, then adds the affine entry table[d]
    (None for O; d < 0 reads [d]P = -[-d]P by Python's negative index) by
    mixed addition. Where the two summands share x the sum is O or the
    entry's double, so every case of a small-order base is covered here.
    """
    it = iter(digits)
    Q = table[next(it)]
    X, Y, Z = (1, 1, 0) if Q is None else (Q[0], Q[1], 1)
    for d in it:
        YY = Y * Y % p
        S = 4 * X * YY % p
        ZZ = Z * Z % p
        M = (3 * X * X + a4 * ZZ * ZZ) % p
        X = (M * M - 2 * S) % p
        Z = 2 * Y * Z % p
        Y = (M * (S - X) - 8 * YY * YY) % p
        if d:
            Q = table[d]
            if Q is None:
                continue
            x, y = Q
            if Z == 0:
                X, Y, Z = x, y, 1
                continue
            ZZ = Z * Z % p
            H = (x * ZZ - X) % p
            r = (y * ZZ * Z - Y) % p
            if H == 0:
                # The sum is O when the accumulator is -(x, y); otherwise it
                # is [2](x, y), doubled from Z = 1 (to Z = 2y = 0 if y = 0).
                if r:
                    Z = 0
                else:
                    YY = y * y % p
                    S = 4 * x * YY % p
                    M = (3 * x * x + a4) % p
                    X = (M * M - 2 * S) % p
                    Y = (M * (S - X) - 8 * YY * YY) % p
                    Z = 2 * y % p
                continue
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH % p
            X = (r * r - HHH - 2 * V) % p
            Y = (r * (V - X) - Y * HHH) % p
            Z = Z * H % p
    return X, Y, Z


def _odd_multiples(p: int, a4: int, x: int, y: int) -> list:
    """The width-4 NAF table: entry d is [d](x, y) for d = +-1, +-3, +-5,
    +-7 (negative d at Python's negative indices), affine or None for O.
    [3], [5] and [7] are [1] plus [2] once, twice and three times."""
    table = [None] * 16
    P = table[1] = (x, y)
    table[-1] = (x, -y % p)
    twice = _add(p, a4, P, P)
    for d in (3, 5, 7):
        P = _add(p, a4, P, twice)
        if P is not None:
            table[d], table[-d] = P, (P[0], -P[1] % p)
    return table


def _mul_raw(p: int, a4: int, x: int, y: int, m: int) -> tuple[int, int] | None:
    """[m](x, y) for m >= 0 (hot path).

    The Jacobian double-and-add of _jacobian, over the width-4 NAF of m
    from NAF_MIN_BITS on and over its binary digits below; past the NAF
    table's affine steps, the only inversion returns the result to affine
    coordinates.
    """
    if m == 0:
        return None
    if m.bit_length() < NAF_MIN_BITS:
        digits = bin(m)[2:].encode().translate(_BINARY_DIGITS)
        X, Y, Z = _jacobian(p, a4, (None, (x, y)), digits)
    else:
        X, Y, Z = _jacobian(p, a4, _odd_multiples(p, a4, x, y), _naf4(m))
    if Z == 0:
        return None
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return (X * zi2 % p, Y * zi2 * zi % p)


def _x_mul(p: int, a4: int, x: int, y: int, m: int, inv) -> int | None:
    """x([m](x, y)) for m >= 0, or None for O (the j-scan probe's kernel).

    Affine double-and-add reading each inverse 1/v mod p as inv[v] from
    inv = inverse_table(p), where an inversion then costs less than the
    extra products of the Jacobian formulas in _jacobian.
    """
    if m == 0:
        return None
    X, Y = x, y  # X = None, Y = 0 standing for O
    for bit in bin(m)[3:]:
        if Y:
            lam = (3 * X * X + a4) * inv[2 * Y % p] % p
            X2 = (lam * lam - 2 * X) % p
            X, Y = X2, (lam * (X - X2) - Y) % p
        else:  # O, or a point of order 2
            X = None
        if bit == "1":
            if X is None:
                X, Y = x, y
            elif X != x:
                lam = (Y - y) * inv[(X - x) % p] % p
                X = (lam * lam - X - x) % p
                Y = (lam * (x - X) - y) % p
            elif Y == y and y:  # the accumulator is (x, y): double it
                lam = (3 * x * x + a4) * inv[2 * y % p] % p
                X = (lam * lam - 2 * x) % p
                Y = (lam * (x - X) - y) % p
            else:  # the accumulator is -(x, y), or (x, y) has order 2
                X, Y = None, 0
    return X


def scalar_mul(E: CurveModP, P: Point, m: int) -> Point:
    """[m]P for m >= 0; [0]P is the point at infinity."""
    if m < 0:
        raise ValueError("scalar must be nonnegative")
    if P is None or m == 0:
        return None
    return _mul_raw(E.p, E.a4, P[0], P[1], m)


def random_point(E: CurveModP, rng: random.Random) -> Point:
    """A point with uniformly sampled x; y is the canonical smaller root.

    x is redrawn until x^3 + a4 x + a6 is a square. From PRETEST_MIN_BITS
    on, legendre rejects a non-square before sqrt_mod_p would spend an
    exponentiation on it; the x drawn and the y returned are the same.
    """
    p = E.p
    pretest = p.bit_length() >= PRETEST_MIN_BITS
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + E.a4 * x + E.a6) % p
        if pretest and legendre(rhs, p) < 0:
            continue
        try:
            return (x, sqrt_mod_p(rhs, p))
        except NotASquare:
            pass


def quadratic_twist(E: CurveModP) -> CurveModP:
    """The twist (a4 c^2, a6 c^3) by c = smallest_nonresidue(p); same j,
    order 2p + 2 - #E. Every non-residue c gives an isomorphic curve."""
    p = E.p
    c = smallest_nonresidue(p)
    return CurveModP(p=p, a4=E.a4 * c * c % p, a6=E.a6 * pow(c, 3, p) % p, j=E.j)


# ---------------------------------------------------------------------------
# Point counting
# ---------------------------------------------------------------------------

_TABLE_CACHE_MAX = 3


@lru_cache(maxsize=_TABLE_CACHE_MAX)
def residue_table(p: int) -> bytearray:
    """Quadratic character table: entry v is chi(v) + 1, i.e. 0 for a
    non-residue, 1 for zero, 2 for a nonzero square. Cached per process."""
    tbl = bytearray(p)
    tbl[0] = 1
    for x in range(1, (p - 1) // 2 + 1):
        tbl[x * x % p] = 2
    return tbl


@lru_cache(maxsize=_TABLE_CACHE_MAX)
def inverse_table(p: int) -> array:
    """Entry v is 1/v mod p for 0 < v < p (entry 0 is 0), by the recurrence
    1/v = -(p // v) / (p mod v). Cached per process like residue_table."""
    inv = array("I", [0]) * p
    inv[1] = 1
    for v in range(2, p):
        inv[v] = (p - p // v) * inv[p % v] % p
    return inv


def hasse_interval(p: int) -> tuple[int, int]:
    fl = math.isqrt(4 * p)
    return p + 1 - fl, p + 1 + fl


def point_count_naive(E: CurveModP) -> int:
    """#E(F_p) = p + 1 + sum over x of chi(x^3 + a4 x + a6).

    Exhaustive in x; refuses fields above NAIVE_COUNT_CAP.
    """
    p, a4, a6 = E.p, E.a4, E.a6
    if p > NAIVE_COUNT_CAP:
        raise TooLarge(f"p = {p} exceeds the exhaustive-count cap {NAIVE_COUNT_CAP}")
    tbl = residue_table(p)
    acc = 0
    for x in range(p):
        acc += tbl[(x * x % p * x + a4 * x + a6) % p]
    n = 1 + acc  # sum(chi + 1) over p values folds p into the constant
    lo, hi = hasse_interval(p)
    if not lo <= n <= hi:
        raise InvariantViolation(f"point count {n} escaped the Hasse interval of {p}")
    return n


def _annihilators_in_window(
    E: CurveModP, P: tuple[int, int], lo: int, width: int
) -> list[int]:
    """All m in [lo, lo + width) with [m]P = O, ascending, by baby-step
    giant-step: with step = isqrt(width) + 1, the baby steps key [k]P by k
    for 0 <= k < step (O as 0), so a giant step i, -[lo]P - [i*step]P,
    matches at most one k and gives m = lo + i*step + k. If some [k]P = O
    first, ord(P) = k and the window's multiples of k are returned instead.
    """
    p, a4 = E.p, E.a4
    step = math.isqrt(width) + 1
    baby: dict[Point, int] = {None: 0}
    q: Point = P
    for k in range(1, step):
        if q is None:
            first = lo + (-lo) % k
            return list(range(first, lo + width, k))
        baby[q] = k
        q = _add(p, a4, q, P)
    neg_giant = point_neg(E, q)  # q = [step]P
    cur = point_neg(E, _mul_raw(p, a4, P[0], P[1], lo))
    out = []
    for i in range(width // step + 2):
        k = baby.get(cur)
        if k is not None and i * step + k < width:
            out.append(lo + i * step + k)
        cur = _add(p, a4, cur, neg_giant)
    return out


def point_count_bsgs(E: CurveModP) -> int:
    """#E(F_p) by order-finding on random points.

    Each point, drawn alternately from E and its quadratic twist, gets one
    _annihilators_in_window search over the Hasse interval; a twist order
    m stands for 2p + 2 - m on E, and the candidate orders are the
    intersection of those sets until one survives. The points come from
    the fixed stream task_rng(0, "count", p, j); the count is exact
    whatever they are. Fields up to EXHAUSTIVE_COUNT_MAX, where two orders
    can survive every point, are counted by point_count_naive; fields
    above BSGS_COUNT_MAX raise TooLarge before any work.
    """
    p = E.p
    if p > BSGS_COUNT_MAX:
        raise TooLarge(f"p = {p} exceeds the BSGS count cap {BSGS_COUNT_MAX}")
    if p <= EXHAUSTIVE_COUNT_MAX:
        return point_count_naive(E)
    rng = task_rng(0, "count", p, E.j)
    lo, hi = hasse_interval(p)
    width = hi - lo + 1
    twist = quadratic_twist(E)
    candidates = range(lo, hi + 1)
    for trial in range(_BSGS_MAX_POINTS):
        C = twist if trial & 1 else E
        found = _annihilators_in_window(C, random_point(C, rng), lo, width)
        if C is twist:
            found = [2 * p + 2 - m for m in found]
        candidates = {m for m in found if m in candidates}
        if not candidates:
            raise InvariantViolation(f"every candidate order mod {p} was eliminated")
        if len(candidates) == 1:
            return candidates.pop()
    raise Ambiguous(
        f"{len(candidates)} candidate orders remain after {_BSGS_MAX_POINTS} points"
    )


def order_filter(E: CurveModP, t: int) -> bool:
    """Cheap test of whether #E can be p + 1 - t or p + 1 + t.

    For each of four sampled points P we compare [p+1]P against [t]P:
    equality means p + 1 - t annihilates P, opposition means p + 1 + t
    does. False is exact: a sample not annihilated by p + 1 - t and one not
    annihilated by p + 1 + t rule both orders out. True only means neither
    is ruled out; an exact count must confirm it. The points come from
    the fixed stream task_rng(0, "flt", p, j). No pipeline step calls it:
    the j-scan confirms each probe survivor by an exact count alone.
    """
    p = E.p
    if not 0 < t <= math.isqrt(4 * p):
        raise ValueError("trace must satisfy 0 < t <= 2*sqrt(p)")
    rng = task_rng(0, "flt", p, E.j)
    minus_ok = plus_ok = True
    for _ in range(4):
        x, y = random_point(E, rng)
        a = _mul_raw(p, E.a4, x, y, p + 1)
        b = _mul_raw(p, E.a4, x, y, t)
        if a is None or b is None:
            same = opposite = a is None and b is None
        else:
            same = a == b
            opposite = a[0] == b[0] and (a[1] + b[1]) % p == 0
        minus_ok = minus_ok and same
        plus_ok = plus_ok and opposite
        if not (minus_ok or plus_ok):
            return False
    return True
