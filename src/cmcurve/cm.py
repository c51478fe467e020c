"""End-to-end construction of a curve over F_n with a prescribed order.

Given a prime n and a target N inside the Hasse interval, the trace is
t = n + 1 - N and the discriminant D = t^2 - 4n. The class polynomial for D
is assembled modulo n from its reductions at small split primes, a root j
is extracted, and the curve with that j-invariant (or its quadratic twist)
is the answer. For 3 not dividing d the polynomial lifted is that of
gamma_2 = j^(1/3), whose coefficients have a third of the log-height of
H_D's, from the same j-shards at the primes p = 2 (mod 3); j is then the
smallest cube of its roots, found by poly.find_all_roots. Each lift is
checked at a spare prime; with j a root of H_D every twist of its curve has
one of the orders of _twist_orders (Deuring), which verify_order tells apart.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .arith import is_prime, task_rng
from .classpoly import Shard, build_shards, check_jobs, gamma2_poly
from .crt import build_basis, crt_mod_n
from .curves import (
    EXHAUSTIVE_COUNT_MAX,
    CurveModP,
    curve,
    curve_from_j,
    hasse_interval,
    point_count_bsgs,
    quadratic_twist,
    random_point,
    scalar_mul,
)
# unused here; perfbench/spans.py rebinds them on cm
from .curves import order_filter, point_count_naive
from .errors import (
    Ambiguous,
    CertificateFailed,
    InvariantViolation,
    NoRoot,
    OutsideHasse,
    ZeroTrace,
)
from .poly import PolyModM, find_all_roots
from .primegen import find_crt_primes
from .quadforms import Discriminant, discriminant

_VERIFY_SAMPLES = 16  # random points checked against the possible orders


@dataclass(frozen=True)
class CmParams:
    t: int
    disc: Discriminant


@dataclass
class CurveResult:
    curve: CurveModP
    j: int
    order: int
    t: int
    D: int
    h: int
    primes_used: tuple[int, ...]
    timings: dict = field(default_factory=dict)


def derive_cm_params(n: int, N: int) -> CmParams:
    """Validate (n, N) and derive the trace and fundamental discriminant."""
    if n <= 3 or not is_prime(n):
        raise ValueError("n must be a prime greater than 3")
    lo, hi = hasse_interval(n)
    if not lo <= N <= hi:
        raise OutsideHasse(f"N = {N} outside [{lo}, {hi}] for n = {n}")
    t = n + 1 - N
    if t == 0:
        raise ZeroTrace("N = n + 1 needs a supersingular curve, unsupported")
    disc = discriminant(t * t - 4 * n)
    if (6 * disc.d) % n == 0:
        raise InvariantViolation(f"n = {n} ramifies in d = {disc.d}; impossible for t != 0")
    return CmParams(t=t, disc=disc)


def lift_shards(
    shards, n: int, *, gamma2: bool = False, spare: Shard | None = None
) -> PolyModM:
    """The monic polynomial mod n whose reductions are the given shards.

    The shards, and the spare with them, must share one discriminant and
    one degree h (check_shard_set); each of the h lower coefficients is
    lifted by the modular CRT over the shard primes. With gamma2 the
    reductions are the shards' gamma2_poly, which needs every p = 2
    (mod 3), and the result is the gamma_2 class polynomial mod n.

    A spare shard, at a prime q outside the basis, certifies the lift: the
    same residues lifted to q over the same moduli must give its reduction
    exactly, else CertificateFailed. This catches a wrong residue and a
    coefficient that is not below (1/2 - epsilon) M; a lift to a basis
    prime catches neither, as it returns that prime's residue.
    """
    check_shard_set(shards if spare is None else [*shards, spare])
    reduction = gamma2_poly if gamma2 else (lambda s: s.poly)
    polys = [reduction(s) for s in shards]
    moduli = [s.p for s in shards]
    lifted = _lift_polys(moduli, polys, n)
    if spare is not None:
        if spare.p in moduli:
            raise ValueError(f"spare prime {spare.p} is a basis prime")
        if _lift_polys(moduli, polys, spare.p) != reduction(spare):
            raise CertificateFailed(
                f"lift over {len(moduli)} primes disagrees with the shard at q = {spare.p}"
            )
    return lifted


def check_shard_set(shards) -> None:
    """Raise ValueError unless the shards share one discriminant and one
    degree, as the reductions of one class polynomial do."""
    Ds = {s.D for s in shards}
    if len(Ds) > 1:
        raise ValueError(f"shards mix discriminants: {sorted(Ds)}")
    hs = {s.h for s in shards}
    if len(hs) > 1:
        raise ValueError(f"shards mix degrees: {sorted(hs)}")


def _lift_polys(moduli, polys, n: int) -> PolyModM:
    basis = build_basis(moduli, n)
    coeffs = [
        crt_mod_n(basis, [f.coeffs[i] for f in polys])
        for i in range(polys[0].degree)
    ]
    return PolyModM(modulus=n, coeffs=tuple(coeffs) + (1,))


def hilbert_mod_n(disc: Discriminant, n: int) -> PolyModM:
    """The class polynomial for disc reduced mod n, degree h, monic."""
    return _class_poly_mod_n(disc, n)[0]


def _class_poly_mod_n(
    disc: Discriminant, n: int, *, gamma2: bool = False, jobs: int = 1, cache_dir=None
) -> tuple[PolyModM, tuple[int, ...]]:
    """The class polynomial of j, or with gamma2 of gamma_2, mod n, and the
    primes of its shards.

    d = 3 and d = 4 short-circuit to X and X - 1728 (j = 0 and j = 1728)
    over no primes. Everything else goes through shards at split primes and
    the modular CRT lift, one coefficient at a time, certified by the
    shard of the prime set's spare; it is built, or read from the cache,
    with the others, and is not among the primes returned.
    """
    if disc.d <= 4:
        return PolyModM(modulus=n, coeffs=(0 if disc.d == 3 else -1728 % n, 1)), ()
    prime_set = find_crt_primes(disc, gamma2=gamma2)
    # the spare is the largest prime, so its shard comes last
    *shards, spare = build_shards(
        disc, prime_set.primes + (prime_set.spare,), jobs=jobs, cache_dir=cache_dir
    )
    poly = lift_shards(shards, n, gamma2=gamma2, spare=spare)
    return poly, tuple(s.p for s in shards)


def find_root_mod_n(poly: PolyModM, n: int, *, power: int = 1) -> int:
    """Smallest root of poly mod n, or with power = e the smallest r^e mod n
    over its roots r; raises NoRoot when there is none."""
    roots = find_all_roots(poly, n)
    if not roots:
        raise NoRoot(f"polynomial has no root mod {n}")
    return min(pow(r, power, n) for r in roots)


# ---------------------------------------------------------------------------
# Curve construction and verification
# ---------------------------------------------------------------------------


def verify_order(E: CurveModP, N: int, *, orders=None) -> bool:
    """Check #E(F_p) = N; an N outside the Hasse interval raises OutsideHasse.

    Without orders, or for p <= EXHAUSTIVE_COUNT_MAX, an exact count by
    point_count_bsgs decides; it refuses p > 2^72 with TooLarge. orders are
    the orders the caller knows #E is among; then points drawn from the
    fixed stream task_rng(0, "verify", p) decide: the first P with [N]P != O
    rejects, and #E = N once every other M in orders has failed on some
    sample P, [M - N]P != O. After 16 samples that leave some M standing
    the answer is False: a miss can reject a right curve, never accept a
    wrong one.
    """
    p = E.p
    lo, hi = hasse_interval(p)
    if not lo <= N <= hi:
        raise OutsideHasse(f"N = {N} outside [{lo}, {hi}] for n = {p}")
    rng = task_rng(0, "verify", p)
    if orders is None or p <= EXHAUSTIVE_COUNT_MAX:
        if point_count_bsgs(E) != N:
            return False
        if scalar_mul(E, random_point(E, rng), N) is not None:
            raise InvariantViolation(f"exact count {N} does not annihilate a point")
        return True
    gaps = {abs(M - N) for M in orders} - {0}
    for _ in range(_VERIFY_SAMPLES):
        P = random_point(E, rng)
        if scalar_mul(E, P, N) is not None:
            return False
        gaps = {g for g in gaps if scalar_mul(E, P, g) is None}
        if not gaps:
            return True
    return False


def _twist_orders(n: int, t: int, d: int) -> set[int]:
    """The orders of the twists of a curve over F_n with trace t and CM by
    the discriminant of d, 4n = t^2 + d v^2: n + 1 -+ t for d > 4, and
    also n + 1 -+ (t +- 3v)/2 for d = 3 and n + 1 -+ 2v for d = 4."""
    v = math.isqrt((4 * n - t * t) // d)
    traces = {3: (t, (t + 3 * v) // 2, (t - 3 * v) // 2), 4: (t, 2 * v)}.get(d, (t,))
    return {n + 1 + s * a for a in traces for s in (1, -1)}


def _candidates(n: int, j: int, d: int):
    """The curves with invariant j that may have the wanted order, in turn.

    For d > 4 the root's curve and its quadratic twist: one of them has
    n + 1 - t points, the other n + 1 + t. For d = 3 (j = 0) the models
    y^2 = x^3 + b, which cover the six sextic twist classes as b varies,
    and for d = 4 (j = 1728) y^2 = x^3 + ax, the four quartic ones; small
    coefficients hit every class quickly.
    """
    if d > 4:
        E = curve_from_j(j, n)
        yield E
        yield quadratic_twist(E)
    else:
        for coef in range(1, 200):
            yield curve(n, 0, coef) if d == 3 else curve(n, coef, 0)


def construct_curve(n: int, N: int, *, jobs: int = 1, cache_dir=None) -> CurveResult:
    """A verified curve over F_n with exactly N points.

    j is the smallest root of the class polynomial H_D mod n. For d > 4
    with 3 not dividing d, the lift is that of G_D, the gamma_2 class
    polynomial, over the primes p = 2 (mod 3); its roots cube to the roots
    of H_D (G_D(X) divides H_D(X^3)), so j is the smallest cube of a root.
    The answer is the first of _candidates that verify_order accepts with
    N points. The lift is certified at a spare prime, so each candidate has
    one of the orders of _twist_orders, and verify_order, given them,
    decides at the first points that tell N from the others.
    """
    check_jobs(jobs)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    params = derive_cm_params(n, N)
    disc = params.disc
    timings["derive"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gamma2 = disc.d > 4 and disc.d % 3 != 0
    poly, primes_used = _class_poly_mod_n(
        disc, n, gamma2=gamma2, jobs=jobs, cache_dir=cache_dir
    )
    timings["hilbert"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    j = find_root_mod_n(poly, n, power=3 if gamma2 else 1)
    timings["root"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    orders = _twist_orders(n, params.t, disc.d)
    found = (E for E in _candidates(n, j, disc.d) if verify_order(E, N, orders=orders))
    E = next(found, None)
    if E is None:
        raise Ambiguous(f"no candidate curve with j = {j} has {N} points")
    timings["construct"] = time.perf_counter() - t0

    return CurveResult(
        curve=E,
        j=j,
        order=N,
        t=params.t,
        D=disc.D,
        h=disc.h,
        primes_used=primes_used,
        timings=timings,
    )
