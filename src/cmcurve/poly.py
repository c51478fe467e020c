"""Dense polynomials mod m, lowest degree first: PolyModM, the product of
linear factors, and root finding over F_n for an odd prime n. Products mod
f pack each residue into one integer (Kronecker substitution; Harvey, J.
Symb. Comp. 44, 2009) and reduce every slot at once by Barrett's method
(Menezes et al., Handbook of Applied Cryptography, Alg. 14.42). Roots are
split down to quadratics, which take the quadratic formula. Each power of
a shift X + c splits them by all s bits of (r + c)^q, n - 1 = q 2^s with
q odd, in the 2-Sylow subgroup of F_n^*: Moenck's descent (Math. Comp. 31,
1977), which is Cantor & Zassenhaus (Math. Comp. 36, 1981) at s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .arith import sqrt_mod_p, task_rng, tonelli_shanks_base
from .errors import InvariantViolation


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


# One kernel for every d and n: on a 2-core VM (X + c)^((n-1)/2) mod f took 0.06 ms at
# 27 bits and d = 7, 2.3 at d = 96, 8.3 at 256 bits and d = 7, as fast or faster than the
# two paths it replaced, but 63 at 256 bits and d = 24 (51 before), which no workload runs.
class _ModF:
    """Arithmetic in F_n[X]/(f) for f of degree d >= 1, any leading
    coefficient, on packed residues: one int, coefficient i in slot i of
    `width` bits, every slot below 3n.

    A slot sums at most d products of two slots and 3dn^2 more (6n^2 + 3n
    in a multiply by X + c), below 2^s = 2^bitlen(12 d n^2), and width
    also holds a slot's Barrett quotient product, so no slot carries into
    the next and _red takes all to [0, 3n) at once, its quotient at most 2
    short. Products mod the monic f are polynomial Barrett: for H the top
    d - 1 slots and mu = X^(2d-2) div f, Q = (H mu) div X^(d-2) is the
    exact quotient, and the result is the low d slots minus Q f.
    """

    def __init__(self, f, n):
        d, lead_inv = len(f) - 1, pow(f[-1], -1, n)
        b, s = n.bit_length(), (12 * d * n * n).bit_length()
        w = max(s, 2 * (s - b + 1)) + 1
        self.n, self.d, self.width = n, d, w
        self.shift, self.qbits, self.barrett = b - 1, s - b + 1, (1 << s) // n
        self.mask = ((1 << self.qbits) - 1) * sum(1 << (i * w) for i in range(2 * d - 1))
        self.low, self.qshift = (1 << (d * w)) - 1, max(d - 2, 0) * w
        rev = [c * lead_inv % n for c in reversed(f)]  # rev(f) of the monic f
        inv = [1]  # rev(f)^-1 mod X^(d-1), the coefficients of mu reversed
        for k in range(1, d - 1):
            inv.append(-sum(map(mul, rev[1 : k + 1], reversed(inv))) % n)
        self.mu = self.pack(inv[::-1] if d > 1 else [])
        self.negf = self.pack([(-c) % n for c in reversed(rev[1:])])  # X^d = negf

    def pack(self, a):
        """The packed residue of at most d coefficients in [0, 3n)."""
        if len(a) > self.d or any(not 0 <= c < 3 * self.n for c in a):
            raise InvariantViolation(f"a packed residue holds {self.d} slots in [0, 3n)")
        return sum(c << (i * self.width) for i, c in enumerate(a))

    def unpack(self, a):
        """The d coefficients of a packed residue, reduced mod n."""
        d, n, w = self.d, self.n, self.width
        slots = [(a >> (i * w)) & ((1 << w) - 1) for i in range(d)]
        if a >> (d * w) or max(slots) >= 3 * n:
            raise InvariantViolation(f"a packed residue mod {n} left its {d} slots")
        return [c % n for c in slots]

    def _red(self, a):
        """a, every slot below 2^s, with every slot taken to [0, 3n)."""
        q = ((((a >> self.shift) & self.mask) * self.barrett) >> self.qbits) & self.mask
        return a - q * self.n

    def mul(self, a, b):
        """a * b mod f."""
        p = a * b
        h = self._red(p >> (self.d * self.width))
        q = self._red((h * self.mu) >> self.qshift)
        return self._red((p & self.low) + ((q * self.negf) & self.low))

    def mul_linear(self, a, c):
        """a * (X + c) mod f for c in [0, n): one fold step."""
        top = a >> ((self.d - 1) * self.width)
        return self._red(((a << self.width) & self.low) + c * a + top * self.negf)

    def pow_linear(self, c, e):
        """(X + c)^e mod f, packed, left to right: a squaring per bit of e
        and a multiply by X + c per set bit."""
        r = 1
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul_linear(r, c)
        return r


def find_all_roots(poly: PolyModM, n: int) -> list[int]:
    """All roots in F_n of a nonzero polynomial, sorted ascending.

    gcd(X^n - X, f) isolates the distinct roots; random shifts (X + c)
    then split that product of linear factors. For n - 1 = q 2^s, q odd,
    the first shift's chain V_i = (X + c)^(q 2^i), i < s, ends in
    W = (X + c)^((n-1)/2), which gives X^n - X = (X + c) W^2 - (X + c),
    since (X + c)^n = X^n + c in F_n[X]; the chain mod g is the split's
    first attempt. The shifts, from task_rng(0, "roots", n), change the
    work but never the roots.
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
    chain = _power_chain(ring, c, n)
    w = chain[-1]
    xq, xc = (ring.unpack(ring.mul_linear(v, c)) for v in (ring.mul(w, w), 1))
    g = _pgcd([(a - b) % n for a, b in zip(xq, xc)], f, n)
    if len(g) <= 1:
        return []
    roots = _split_roots(g, n, rng, [_pdivmod(ring.unpack(v), g, n)[1] for v in chain])
    roots.sort()
    if any(poly.evaluate(r) != 0 for r in roots):
        raise InvariantViolation(f"split produced a non-root mod {n}")
    return roots


def _power_chain(ring, c, n):
    """[(X + c)^(q 2^i) mod f for i < s], packed, for n - 1 = q 2^s, q
    odd: the steps of (X + c)^((n-1)/2) mod f, the last element."""
    q, s, _ = tonelli_shanks_base(n)
    chain = [ring.pow_linear(c, q)]
    for _ in range(s - 1):
        chain.append(ring.mul(chain[-1], chain[-1]))
    return chain


def _split_roots(g, n, rng, chain=None) -> list[int]:
    """Roots of a monic product of distinct linear factors mod n.

    Degree 2 takes the quadratic formula. Above it, the chain of a shift
    c drawn from rng, mod g, sorts the roots by all s bits of (r + c)^q
    (_descend; Moenck, Math. Comp. 31, 1977), where Cantor-Zassenhaus
    (Math. Comp. 36, 1981) reads only the quadratic character; at s = 1
    both split by gcd(W - 1, g). Classes above degree 2 draw afresh. A
    given chain stands for the first draw, already made by the caller.
    """
    deg = len(g) - 1
    if deg <= 1:
        return [(-g[0]) % n] if deg else []
    if deg == 2:
        s, half = sqrt_mod_p(g[1] * g[1] - 4 * g[0], n), (n + 1) // 2
        return [(-g[1] - s) * half % n, (-g[1] + s) * half % n]
    ring = None  # built on the first fresh draw: a given chain may split g alone
    while True:
        if chain is None:
            ring = ring or _ModF(g, n)
            chain = [ring.unpack(v) for v in _power_chain(ring, rng.randrange(n), n)]
        parts = _descend(g, chain, n)
        if len(parts) > 1:
            break
        chain = None
    return [r for h in parts for r in _split_roots(h, n, rng)]


def _descend(g, chain, n):
    """The classes of g's roots r by t_r = (r + c)^q, given the chain
    V_i = (X + c)^(q 2^i) mod g, i < s, in the order of their bits.

    t_r = z^k_r for z = u^q, u the smallest non-residue, a generator of
    the 2-Sylow subgroup of order 2^s. A class of roots with k_r = kappa
    (mod 2^j) has V_(s-1-j)(r) = zeta or -zeta by the next bit of k_r,
    zeta = z^(kappa 2^(s-1-j)), a product of the powers z^(2^i); so
    gcd(V_(s-1-j) - zeta, h) splits the class h by that bit, as
    Tonelli-Shanks does for one residue. The chain of each part is
    reduced mod the part as the descent goes. The root -c, where every
    V_i is 0, goes with the cofactor at each level. Classes of degree at
    most 2 stop.
    """
    zpow = [tonelli_shanks_base(n)[2]]
    for _ in range(len(chain) - 1):
        zpow.append(zpow[-1] * zpow[-1] % n)
    if zpow[-1] != n - 1:  # z^((n-1)/2) = -1 for every prime n
        raise ValueError(f"{n} is not an odd prime")

    def classes(h, chain, kappa):
        if len(h) <= 3 or not chain:
            return [h]
        chain = [_pdivmod(v, h, n)[1] for v in chain]
        j = len(zpow) - len(chain)
        zeta = 1
        for i in range(j):
            if kappa >> i & 1:
                zeta = zeta * zpow[i + len(chain) - 1] % n
        v = chain.pop() or [0]
        v[0] = (v[0] - zeta) % n
        h0 = _pgcd(v, h, n)
        parts = []
        for hk, kk in ((h0, kappa), (_pdiv_exact(h, h0, n), kappa | 1 << j)):
            if len(hk) > 1:
                parts += classes(hk, chain, kk)
        return parts

    return classes(g, chain, 0)
