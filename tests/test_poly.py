"""The F_n[x] arithmetic of root finding against schoolbook references.

The ring packs a residue into one integer of d slots, each below 3n.
Operands with every slot at 3n - 1, the invariant's maximum, put the most
into every slot of a product; a slot sized without room for them carries
into its neighbour and the result comes out wrong.
"""

import hashlib
import random

import pytest

from cmcurve import poly
from cmcurve.arith import is_prime, smallest_nonresidue, task_rng
from cmcurve.classpoly import PolyModM, poly_from_roots
from cmcurve.cm import find_all_roots
from cmcurve.errors import InvariantViolation
from cmcurve.poly import _ModF, _pdiv_exact, _pgcd, _ptrim, _split_roots

BITS = [2, 3, 28, 61, 64, 256]
DEGREES = [1, 2, 3, 4, 5, 7, 8, 9, 13, 17, 32, 61, 96, 130]


def school_mulmod(a, b, f, n):
    """a * b mod f, reduced after every step."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = (out[i + k] + x * y) % n
    d, lead_inv = len(f) - 1, pow(f[-1], -1, n)
    while len(out) > d:
        q, shift = out[-1] * lead_inv % n, len(out) - 1 - d
        for i, c in enumerate(f):
            out[shift + i] = (out[shift + i] - q * c) % n
        out.pop()
    return out + [0] * (d - len(out))


def school_pow_linear(c, e, f, n):
    result, base = [1], [c, 1]
    while e:
        if e & 1:
            result = school_mulmod(result, base, f, n)
        base = school_mulmod(base, base, f, n)
        e >>= 1
    return school_mulmod(result, [1], f, n)


def random_prime(bits, rng):
    while True:
        m = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(m):
            return m


def ring_cases(bits, seed):
    """(n, f, ring) over DEGREES: f random, then f = [n - 1] * (d + 1)."""
    rng = random.Random(seed)
    for d in DEGREES:
        n = {2: 3, 3: 7}.get(bits) or random_prime(bits, rng)
        for f in ([rng.randrange(n) for _ in range(d)] + [rng.randrange(1, n)],
                  [n - 1] * (d + 1)):
            yield rng, n, f, _ModF(f, n)


@pytest.mark.parametrize("bits", BITS)
def test_mul_and_mul_linear_match_schoolbook(bits):
    for rng, n, f, ring in ring_cases(bits, bits):
        d = len(f) - 1
        a = [rng.randrange(n) for _ in range(d)]
        b = [rng.randrange(n) for _ in range(d)]
        pa, pb = ring.pack(a), ring.pack(b)
        assert ring.unpack(ring.mul(pa, pb)) == school_mulmod(a, b, f, n), (bits, d)
        assert ring.unpack(ring.mul(pa, pa)) == school_mulmod(a, a, f, n), (bits, d)
        c = rng.randrange(n)
        assert ring.unpack(ring.mul_linear(pa, c)) == school_mulmod(a, [c, 1], f, n)


@pytest.mark.guard
@pytest.mark.parametrize("bits", BITS)
def test_worst_slots_stay_below_3n_and_inside_d_slots(bits):
    # every slot at 3n - 1 = n - 1 (mod n): the results are right, every
    # slot is below 3n and nothing is set above slot d - 1
    for _, n, f, ring in ring_cases(bits, 300 + bits):
        d, w = len(f) - 1, ring.width
        worst, top = ring.pack([3 * n - 1] * d), [n - 1] * d
        for got, want in ((ring.mul(worst, worst), school_mulmod(top, top, f, n)),
                          (ring.mul(worst, ring.pack(top)), school_mulmod(top, top, f, n)),
                          (ring.mul_linear(worst, n - 1), school_mulmod(top, [n - 1, 1], f, n))):
            slots = [(got >> (i * w)) & ((1 << w) - 1) for i in range(d)]
            assert got >> (d * w) == 0, (bits, d)
            assert max(slots) < 3 * n, (bits, d)
            assert [c % n for c in slots] == want, (bits, d)
        # a residue outside its slots is refused, never reduced
        with pytest.raises(InvariantViolation):
            ring.pack([3 * n] + [0] * (d - 1))
        with pytest.raises(InvariantViolation):
            ring.pack([0] * (d + 1))
        with pytest.raises(InvariantViolation):
            ring.unpack(worst + (1 << (d * w)))
        with pytest.raises(InvariantViolation):
            ring.unpack(worst + 1)


@pytest.mark.parametrize("bits", [3, 32, 256])
def test_pow_linear_matches_schoolbook(bits):
    rng = random.Random(100 + bits)
    for d in (1, 2, 7, 8, 13):
        n = 7 if bits == 3 else random_prime(bits, rng)
        f = [rng.randrange(n) for _ in range(d)] + [rng.randrange(1, n)]
        ring = _ModF(f, n)
        for c, e in ((0, n), (rng.randrange(n), (n - 1) // 2), (n - 1, 0), (5, 1)):
            got = ring.unpack(ring.pow_linear(c, e))
            assert got == school_pow_linear(c, e, f, n), (bits, d, e)


def brute_roots(coeffs, n):
    return [x for x in range(n) if sum(c * pow(x, i, n) for i, c in enumerate(coeffs)) % n == 0]


def test_find_all_roots_against_brute_force():
    rng = random.Random(5)
    for n in (3, 5, 7, 11, 13, 31, 97, 101):
        for _ in range(25):
            d = rng.randrange(1, 12)
            coeffs = [rng.randrange(n) for _ in range(d)] + [rng.randrange(1, n)]
            assert find_all_roots(PolyModM(n, tuple(coeffs)), n) == brute_roots(coeffs, n)


# the SHA-256 of the grid's (n, f, roots), as the lazy and Kronecker
# products that the packed ring replaced computed them
GRID_DIGEST = "07fdc77c720025064fa38eeff2808a54666391ec06941ba02ee681e1ebc2d1b6"


def test_find_all_roots_digest_over_a_fixed_grid():
    # per modulus, at each degree: split with distinct roots, split with
    # repeated roots, and random
    rng = random.Random("grid")
    digest = hashlib.sha256()
    for bits, degrees in ((11, (1, 2, 3, 8, 30)), (27, (3, 7, 8, 24, 96)),
                          (64, (2, 5, 9, 16)), (256, (3, 7, 8))):
        n = random_prime(bits, rng)
        for d in degrees:
            split = [rng.randrange(n) for _ in range(d)]
            repeated = (split[: (d + 1) // 2] * 2)[:d]
            rand = [rng.randrange(n) for _ in range(d)] + [rng.randrange(1, n)]
            for f in (poly_from_roots(split, n), poly_from_roots(repeated, n),
                      PolyModM(n, tuple(rand))):
                digest.update(repr((n, f.coeffs, find_all_roots(f, n))).encode())
    assert digest.hexdigest() == GRID_DIGEST


def test_find_all_roots_repeated_none_and_linear():
    n = 101
    repeated = poly_from_roots([3, 3, 3, 40, 40, 77] + list(range(50, 60)), n)
    assert find_all_roots(repeated, n) == [3, 40] + list(range(50, 60)) + [77]
    no_roots = PolyModM(n, (2, 0, 1))  # X^2 + 2; -2 is a non-residue mod 101
    assert brute_roots(no_roots.coeffs, n) == []
    assert find_all_roots(no_roots, n) == []
    assert find_all_roots(PolyModM(n, (5, 7)), n) == [(-5 * pow(7, -1, n)) % n]
    assert find_all_roots(PolyModM(n, (9,)), n) == []


@pytest.mark.guard
def test_find_all_roots_refuses_a_composite_modulus():
    # the quadratic formula's square root mod 21 must raise, not spin
    with pytest.raises(ValueError, match="21 is not an odd prime"):
        find_all_roots(poly_from_roots([1, 2, 4, 7], 21), 21)


def test_degree_96_split_at_27_bits_returns_every_root():
    rng = random.Random(96)
    n = random_prime(27, rng)
    roots = sorted(rng.sample(range(n), 96))
    g = list(poly_from_roots(roots, n).coeffs)
    assert sorted(_split_roots(g, n, task_rng(0, "roots", n))) == roots
    assert find_all_roots(PolyModM(n, tuple(g)), n) == roots


def test_a_split_by_the_given_power_builds_no_ring_for_it(monkeypatch):
    # f splits completely, so gcd(X^n - X, f) = f and the power W that
    # find_all_roots hands over splits it: besides find_all_roots' own
    # context for X^n, only factors that draw afresh build one, and none
    # is of degree 96
    rng = random.Random(960)
    n = random_prime(27, rng)
    roots = sorted(rng.sample(range(n), 96))
    built, fresh = [], []

    class CountingModF(_ModF):
        def __init__(self, f, n):
            built.append(len(f) - 1)
            super().__init__(f, n)

    def spy(g, n, rng, w=None):
        if len(g) > 3 and w is None:
            fresh.append(len(g) - 1)
        return _split_roots(g, n, rng, w)

    monkeypatch.setattr(poly, "_ModF", CountingModF)
    monkeypatch.setattr(poly, "_split_roots", spy)
    assert find_all_roots(poly_from_roots(roots, n), n) == roots
    assert fresh and sorted(built) == sorted(fresh + [96])
    assert 96 not in fresh


def _polymul(a, b, n):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = (out[i + k] + x * y) % n
    return out


@pytest.mark.parametrize("n", [10007, 10009])  # 3 and 1 (mod 4)
def test_find_all_roots_hands_the_first_power_mod_g_to_the_split(n, monkeypatch):
    # f = 3 (X - r_1)...(X - r_5)(X^2 - z), z a non-residue: g = gcd(X^n - X, f)
    # has degree 5, so g != f and the split gets W mod g for its first try
    rng = random.Random(n)
    roots = sorted(rng.sample(range(n), 5))
    g = list(poly_from_roots(roots, n).coeffs)
    f = [3 * c % n for c in _polymul(g, [n - smallest_nonresidue(n), 0, 1], n)]
    assert brute_roots(f, n) == roots
    handed = []

    def spy(g, n, rng, w=None):
        handed.append((list(g), w and list(w)))  # the split recurses with w=None
        return _split_roots(g, n, rng, w)

    monkeypatch.setattr(poly, "_split_roots", spy)
    assert find_all_roots(PolyModM(n, tuple(f)), n) == roots
    c = task_rng(0, "roots", n).randrange(n)
    ring = _ModF(g, n)
    assert handed[0] == (g, _ptrim(ring.unpack(ring.pow_linear(c, (n - 1) // 2))))


@pytest.mark.parametrize("n", [103, 10007, 97, 7681, (1 << 255) - 19])
def test_quadratic_leaves_take_one_square_root_and_no_draw(n):
    # n = 3 (mod 4) squares once; 97, 7681 and 2^255 - 19 are 1 (mod 4) and
    # take Tonelli-Shanks with 2^5, 2^9 and 2^2 in n - 1
    rng = random.Random(n)
    pairs = [(0, n - 1), (1, 2), (0, (n + 1) // 2)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
    for pair in filter(lambda rs: rs[0] != rs[1], pairs):
        g = list(poly_from_roots(pair, n).coeffs)
        draws = task_rng("unused")
        state = draws.getstate()
        assert sorted(_split_roots(g, n, draws)) == sorted(pair), pair
        assert draws.getstate() == state


def test_gcd_is_monic_and_exact_division():
    n = 10007
    a = poly_from_roots([1, 2, 3, 4], n).coeffs
    b = [c * 5 % n for c in poly_from_roots([3, 4, 9], n).coeffs]
    assert _pgcd(a, b, n) == list(poly_from_roots([3, 4], n).coeffs)
    assert _pdiv_exact(a, poly_from_roots([2, 4], n).coeffs, n) == list(
        poly_from_roots([1, 3], n).coeffs
    )
