"""Dense polynomials mod m, lowest degree first: PolyModM, the product of
linear factors, and root finding over F_n for an odd prime n. Multiplying
mod a large f uses Kronecker substitution (Harvey, J. Symb. Comp. 44,
2009); roots are split as in Cantor & Zassenhaus, Math. Comp. 36 (1981),
down to quadratics, which take the quadratic formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .arith import sqrt_mod_p, task_rng
from .errors import InvariantViolation

# ms per find_all_roots of degree d, all lazy / all Kronecker, best of 12 on
# a 2-core VM: 27-bit n, d = 7: 1.51 / 1.72, d = 8: 2.14 / 2.18; 64-bit, d = 5:
# 4.28 / 4.65, d = 8: 7.68 / 7.22; 256-bit, d = 8: 47.4 / 55.3, d = 9: 72.3 /
# 68.9. Kronecker-only cost construct_warm (d = 3, 5, 7) 8 % in wall_s.
KRONECKER_MIN_DEGREE = 8


@dataclass(frozen=True)
class PolyModM:
    """Polynomial with coefficients reduced mod `modulus`, lowest degree
    first; () is the zero polynomial."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if any(not 0 <= c < self.modulus for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod the modulus")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.modulus
        return acc


def poly_from_roots(roots, m: int) -> PolyModM:
    """Monic product of (X - r) mod m; the empty product is the constant 1."""
    coeffs = [1]
    for r in roots:
        if not 0 <= r < m:
            raise ValueError("roots must be reduced mod the modulus")
        neg = (-r) % m
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = (nxt[i] + c * neg) % m
            nxt[i + 1] = (nxt[i + 1] + c) % m
        coeffs = nxt
    return PolyModM(modulus=m, coeffs=tuple(coeffs))


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pdivmod(a, b, n):
    """Quotient and remainder of a by b mod n."""
    a, q = list(a), [0] * max(0, len(a) - len(b) + 1)
    lead_inv = pow(b[-1], -1, n)
    while len(a) >= len(b):
        coef, shift = a[-1] * lead_inv % n, len(a) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % n
        _ptrim(a)
    return q, a


def _pgcd(a, b, n):
    """The monic gcd of a and b mod n; [] when both are zero."""
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, n)[1]
    if a:
        inv = pow(a[-1], -1, n)
        a = [c * inv % n for c in a]
    return a


def _pdiv_exact(a, b, n):
    """Quotient a / b when b divides a exactly."""
    q, r = _pdivmod(a, b, n)
    if r:
        raise InvariantViolation(f"division mod {n} was not exact")
    return q


class _ModF:
    """Arithmetic in F_n[X]/(f) for f of degree d >= 1, any leading
    coefficient; residues are lists of exactly d reduced coefficients.
    Products are lazy below KRONECKER_MIN_DEGREE, Kronecker from there on."""

    def __init__(self, f, n):
        d, lead_inv = len(f) - 1, pow(f[-1], -1, n)
        self.n, self.d = n, d
        self.negf = [(-c * lead_inv) % n for c in f[:-1]]  # X^d = negf
        self.rows = None
        if d >= KRONECKER_MIN_DEGREE:
            # a slot holds d products of two residues plus d - 1 more
            self.slot = (2 * n.bit_length() + (2 * d).bit_length() + 7) // 8
            row, rows = self.negf, [self._pack(self.negf)]
            for _ in range(d - 2):  # X^(d + j) mod f for j = 1 .. d - 2
                row = self.mul_linear(row, 0)
                rows.append(self._pack(row))
            self.rows = rows

    def mul(self, a, b):
        return self._kronecker(a, b) if self.rows else self._lazy(a, b)

    def _pack(self, a):
        w = self.slot
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")

    def _slots(self, data):
        """The slots of a byte string, each reduced mod n."""
        w, n = self.slot, self.n
        return [int.from_bytes(data[i : i + w], "little") % n for i in range(0, len(data), w)]

    def _kronecker(self, a, b):
        """a * b mod f: one big product, its top d - 1 slots folded by rows."""
        d, w = self.d, self.slot
        pa = self._pack(a)
        data = (pa * (pa if a is b else self._pack(b))).to_bytes((2 * d - 1) * w, "little")
        low = int.from_bytes(data[: d * w], "little")
        low += sum(map(mul, self._slots(data[d * w :]), self.rows))
        return self._slots(low.to_bytes(d * w, "little"))

    def _lazy(self, a, b):
        """a * b mod f: raw products, the top folded by X^d = negf, reduced once."""
        d, n, negf = self.d, self.n, self.negf
        out = [0] * (2 * d - 1)
        for i, ca in enumerate(a):
            for k, cb in enumerate(b):
                out[i + k] += ca * cb
        for k in range(2 * d - 2, d - 1, -1):
            q = out[k] % n
            for i, c in enumerate(negf):
                out[k - d + i] += q * c
        return [c % n for c in out[:d]]

    def mul_linear(self, a, c):
        """a * (X + c) mod f: one fold step."""
        top, n = a[-1], self.n
        out = [c * a[0]] + [x + c * y for x, y in zip(a, a[1:])]
        return [(o + top * g) % n for o, g in zip(out, self.negf)]

    def pow_linear(self, c, e):
        """(X + c)^e mod f, left to right: a squaring per bit of e and a
        multiply by X + c per set bit."""
        r = [1] + [0] * (self.d - 1)
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul_linear(r, c)
        return r


def find_all_roots(poly: PolyModM, n: int) -> list[int]:
    """All roots in F_n of a nonzero polynomial, sorted ascending.

    gcd(X^n - X, f) isolates the distinct roots; random shifts (X + c)
    raised to (n-1)/2 then split that product of linear factors. The first
    shift's power W also gives X^n = (X + c) W^2 - c, since (X + c)^n =
    X^n + c in F_n[X], and W mod g is the split's first attempt. The shifts,
    from task_rng(0, "roots", n), change the work but never the roots.
    """
    if poly.modulus != n:
        raise ValueError("polynomial modulus does not match n")
    if n < 3 or n % 2 == 0:
        raise ValueError("root finding needs an odd prime modulus")
    if not poly.coeffs:
        raise ValueError("zero polynomial has every residue as a root")
    f = list(poly.coeffs)
    if len(f) == 1:
        return []
    rng = task_rng(0, "roots", n)
    c = rng.randrange(n)
    ring = _ModF(f, n)
    w = ring.pow_linear(c, (n - 1) // 2)
    xq, x = ring.mul_linear(ring.mul(w, w), c), ring.pow_linear(0, 1)
    xq[0] -= c
    del ring  # its fold rows need not live through the split
    g = _pgcd([(a - b) % n for a, b in zip(xq, x)], f, n)
    if len(g) <= 1:
        return []
    roots = _split_roots(g, n, rng, _pdivmod(w, g, n)[1])
    roots.sort()
    if any(poly.evaluate(r) != 0 for r in roots):
        raise InvariantViolation(f"split produced a non-root mod {n}")
    return roots


def _split_roots(g, n, rng, w=None) -> list[int]:
    """Roots of a monic product of distinct linear factors mod n.

    Degree 2 takes the quadratic formula; above it, Cantor-Zassenhaus
    splits by gcd(w - 1, g) for w = (X + c)^((n-1)/2) mod g, c drawn from
    rng. A given w stands for the first draw, already made by the caller.
    """
    deg = len(g) - 1
    if deg <= 1:
        return [(-g[0]) % n] if deg else []
    if deg == 2:
        s, half = sqrt_mod_p(g[1] * g[1] - 4 * g[0], n), (n + 1) // 2
        return [(-g[1] - s) * half % n, (-g[1] + s) * half % n]
    ring = None  # built on the first fresh draw: a given w may split g alone
    while True:
        if w is None:
            ring = ring or _ModF(g, n)
            w = ring.pow_linear(rng.randrange(n), (n - 1) // 2)
        w[0] = (w[0] - 1) % n
        h1 = _pgcd(w, g, n)
        if 0 < len(h1) - 1 < deg:
            break
        w = None
    del ring  # each level's fold rows die before the next level's are built
    return _split_roots(h1, n, rng) + _split_roots(_pdiv_exact(g, h1, n), n, rng)
