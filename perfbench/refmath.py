"""Reference arithmetic for the benchmark's input generation and output checks.

Nothing here imports cmcurve: the checks must not share code with the
program they judge. The class polynomial is computed the classical way,
as prod (X - j(tau)) over the reduced forms with j evaluated in floating
point by mpmath at a precision taken from the coefficient bound, and the
point arithmetic uses Jacobian coordinates where the program uses affine
ones.
"""

from __future__ import annotations

import math
import random

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(m: int) -> bool:
    """Miller-Rabin: deterministic below 3.3e24, 2^-100 error above."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_MR_BASES)
    if m >= 3 * 10**24:
        rng = random.Random(m)
        bases += [rng.randrange(2, m - 1) for _ in range(50)]
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError("not a quadratic residue")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# Forms, class numbers, coefficient bound, split primes
# ---------------------------------------------------------------------------


def is_fundamental(D: int) -> bool:
    """D < 0 is fundamental: D = 1 (mod 4) squarefree, or D = 4m with
    m = 2, 3 (mod 4) squarefree."""
    if D >= 0:
        return False
    if D % 4 == 1:
        m = -D
    elif D % 4 == 0 and (D // 4) % 4 in (2, 3):
        m = -D // 4
    else:
        return False
    f = 2
    while f * f <= m:
        if m % (f * f) == 0:
            return False
        f += 1
    return True


def forms(D: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms (a, b, c) with b^2 - 4ac = D < 0."""
    out = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(a, math.gcd(b, c)) == 1:
                out.append((a, b, c))
        a += 1
    return out


def log_bound(D: int) -> float:
    """Natural log of the bound B on the class polynomial's coefficients."""
    fs = forms(D)
    h = len(fs)
    return (math.log(math.comb(h, h // 2))
            + math.pi * math.sqrt(-D) * sum(1 / a for a, _, _ in fs))


def split_primes(D: int, epsilon: float = 0.001) -> list[int]:
    """Smallest primes p > 3 with 4p = t^2 - D whose product exceeds
    B / (1/2 - epsilon)."""
    d = -D
    target = log_bound(D) - math.log(0.5 - epsilon)
    out, log_prod, t = [], 0.0, d % 2 or 2
    while not out or log_prod <= target:
        p, rem = divmod(t * t + d, 4)
        if rem == 0 and p > 3 and d % p and is_prime(p):
            out.append(p)
            log_prod += math.log(p)
        t += 2
    return out


# ---------------------------------------------------------------------------
# Class polynomial over Z
# ---------------------------------------------------------------------------


def class_polynomial(D: int) -> list[int]:
    """H_D over Z, lowest degree first, from floating-point j(tau).

    The working precision is the coefficient bound's size plus a guard;
    every rounded coefficient must sit within 10^-6 of its real part and
    every imaginary part must vanish, or the result is refused.
    """
    import mpmath

    fs = forms(D)
    bits = int(log_bound(D) / math.log(2)) + 64 + 4 * len(fs)
    with mpmath.workprec(bits):
        sqrt_d = mpmath.sqrt(-D)
        poly = [mpmath.mpc(1)]
        for a, b, _ in fs:
            tau = mpmath.mpc(-b, sqrt_d) / (2 * a)
            j = 1728 * mpmath.kleinj(tau)
            nxt = [mpmath.mpc(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i] -= c * j
                nxt[i + 1] += c
            poly = nxt
        out = []
        for c in poly:
            k = int(mpmath.nint(c.real))
            if abs(c.real - k) > 1e-6 or abs(c.imag) > 1e-6:
                raise ArithmeticError(f"H_{D}: coefficient {c} is not an integer")
            out.append(k)
    return out


def poly_eval(coeffs, x: int, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % n
    return acc


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def j_invariant(a4: int, a6: int, n: int) -> int:
    num = 4 * a4 ** 3
    den = (num + 27 * a6 ** 2) % n
    if den == 0:
        raise ValueError("singular curve")
    return 1728 * num * pow(den, -1, n) % n


def _jac_double(P, a4, n):
    X, Y, Z = P
    if Z == 0 or Y == 0:
        return (1, 1, 0)
    YY = Y * Y % n
    S = 4 * X * YY % n
    M = (3 * X * X + a4 * pow(Z, 4, n)) % n
    X3 = (M * M - 2 * S) % n
    return (X3, (M * (S - X3) - 8 * YY * YY) % n, 2 * Y * Z % n)


def _jac_add_affine(P, x2, y2, a4, n):
    X1, Y1, Z1 = P
    if Z1 == 0:
        return (x2, y2, 1)
    ZZ = Z1 * Z1 % n
    U2 = x2 * ZZ % n
    S2 = y2 * ZZ * Z1 % n
    H = (U2 - X1) % n
    R = (S2 - Y1) % n
    if H == 0:
        return _jac_double(P, a4, n) if R == 0 else (1, 1, 0)
    HH = H * H % n
    HHH = H * HH % n
    V = X1 * HH % n
    X3 = (R * R - HHH - 2 * V) % n
    return (X3, (R * (V - X3) - Y1 * HHH) % n, Z1 * H % n)


def is_annihilated(a4: int, n: int, x: int, y: int, m: int) -> bool:
    """True when [m](x, y) is the point at infinity, m >= 1."""
    R = (1, 1, 0)
    for bit in bin(m)[2:]:
        R = _jac_double(R, a4, n)
        if bit == "1":
            R = _jac_add_affine(R, x, y, a4, n)
    return R[2] % n == 0


def random_point(a4: int, a6: int, n: int, rng: random.Random) -> tuple[int, int]:
    while True:
        x = rng.randrange(n)
        rhs = (x * x * x + a4 * x + a6) % n
        if rhs and pow(rhs, (n - 1) // 2, n) == 1:
            return x, sqrt_mod(rhs, n)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_curve(n: int, N: int, a4: int, a6: int, j: int, H: list[int],
                rng: random.Random, points: int = 4) -> str | None:
    """None when y^2 = x^3 + a4 x + a6 over F_n has N points and j-invariant
    j, a root of H mod n; otherwise the reason it fails.

    [N]P = O must hold on every sampled point and [2n + 2 - N]P = O must
    fail on at least one, which rules out the quadratic twist.
    """
    a4, a6 = a4 % n, a6 % n
    if (4 * a4 ** 3 + 27 * a6 ** 2) % n == 0:
        return "singular curve"
    if j_invariant(a4, a6, n) != j % n:
        return "returned j is not the curve's j-invariant"
    if poly_eval(H, j, n) != 0:
        return "j is not a root of H_D mod n"
    other = 2 * n + 2 - N
    twist_ruled_out = False
    for _ in range(points):
        x, y = random_point(a4, a6, n, rng)
        if not is_annihilated(a4, n, x, y, N):
            return f"[N]P != O at P = ({x}, {y})"
        twist_ruled_out = twist_ruled_out or not is_annihilated(a4, n, x, y, other)
    if not twist_ruled_out:
        return "no sampled point tells the curve from its twist"
    return None


def check_lift(n: int, f: list[int], roots_of_f: list[int],
               lifted: list[int], roots: list[int]) -> str | None:
    """None when lifted is f mod n (monic term dropped) and roots is the
    sorted set of f's integer roots reduced mod n."""
    if lifted != [c % n for c in f[:-1]]:
        bad = next((i for i, (a, c) in enumerate(zip(lifted, f)) if a != c % n), len(f))
        return f"coefficient {bad} differs from f mod n"
    if roots != sorted({a % n for a in roots_of_f}):
        return "roots differ from the set of a_i mod n"
    return None
