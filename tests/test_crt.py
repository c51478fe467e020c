import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcurve.arith import is_prime
from cmcurve.crt import build_basis, crt_integer, crt_mod_n, round_quotient
from cmcurve.errors import NotCoprime

D59_MODULI = [17, 71, 197, 521, 827, 1907, 3797, 5417]
# shard coefficient residues for D = -59, low degree first; the last entry
# is the shard at p = 5417 computed by this package and confirmed by the
# exact integer reconstruction below
D59_RESIDUES = [
    [5, 11, 139, 510, 196, 1045, 1584, 1560],   # X^0
    [12, 62, 160, 379, 824, 1432, 1114, 5052],  # X^1
    [12, 41, 195, 206, 505, 1262, 388, 4876],   # X^2
]
D59_INTEGER_COEFFS = [374643194001883136, -140811576541184, 30197678080]
N59 = 141767
D59_LIFTED = [48400, 73152, 31177]


def naive_signed_crt(moduli, residues):
    """Oracle: scan all residues mod M for the small-|x| representative."""
    M = math.prod(moduli)
    for x in range(-(M // 2), M // 2 + 1):
        if all(x % m == r for m, r in zip(moduli, residues)):
            return x
    raise AssertionError("no representative found")


def crt_inverses(moduli):
    """a_i = (M/m_i)^(-1) mod m_i, straight from the definition."""
    M = math.prod(moduli)
    return [pow(M // m, -1, m) for m in moduli]


def crt_weights(moduli, n):
    """a_i (M/m_i) mod n, straight from the definition."""
    M = math.prod(moduli)
    return tuple(a * (M // m) % n for a, m in zip(crt_inverses(moduli), moduli))


def test_build_basis_example():
    basis = build_basis([3, 5], 11)
    assert crt_inverses([3, 5]) == [2, 2]
    assert basis.M_mod_n == 15 % 11
    assert basis.weights == (2 * 5 % 11, 2 * 3 % 11) == crt_weights([3, 5], 11)


def test_build_basis_single_modulus():
    basis = build_basis([7], 11)
    assert basis.weights == (1,)


@pytest.mark.parametrize("epsilon", [0, 0.5, -1, math.nan], ids=["0", "half", "-1", "nan"])
def test_build_basis_refuses_epsilon_outside_the_open_interval(epsilon):
    with pytest.raises(ValueError, match=re.escape("epsilon must be in (0, 1/2)")):
        build_basis(D59_MODULI, N59, epsilon)


def test_build_basis_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        build_basis([4, 6], 11)


def test_build_basis_fallback_when_modulus_hits_n():
    # 11 has no inverse mod n = 11; prefix/suffix products need none
    basis = build_basis([3, 5, 11], 11)
    # (M/m_i) mod 11 = (0, 0, 4) and a_3 = 4^(-1) mod 11 = 3
    assert basis.weights == (0, 0, 1) == crt_weights([3, 5, 11], 11)


def test_round_quotient_small_case():
    basis = build_basis([3, 5], 11)
    x = naive_signed_crt([3, 5], [2, 3])
    assert x == -7
    z = 2 * 5 * 2 + 2 * 3 * 3  # sum a_i M_i x_i = 38
    r = round_quotient(basis, [2, 3])
    assert r == (z - x) // 15 == 3


def test_round_quotient_single_modulus():
    basis = build_basis([101], 11)
    assert round_quotient(basis, [7]) == 0  # 7 < 101/2
    assert round_quotient(basis, [77]) == 1


def test_crt_mod_n_small_case():
    basis = build_basis([3, 5], 11)
    assert crt_mod_n(basis, [2, 3]) == (-7) % 11 == 4


def test_crt_mod_n_zero_vector():
    basis = build_basis([3, 5, 7], 11)
    assert crt_mod_n(basis, [0, 0, 0]) == 0


def test_d59_lift_reproduces_known_coefficients():
    basis = build_basis(D59_MODULI, N59, 0.001)
    lifted = [crt_mod_n(basis, res) for res in D59_RESIDUES]
    assert lifted == D59_LIFTED


def test_d59_lift_round_quotient_consistent_with_integer():
    basis = build_basis(D59_MODULI, N59, 0.001)
    M = math.prod(D59_MODULI)
    for res, x in zip(D59_RESIDUES, D59_INTEGER_COEFFS):
        r = round_quotient(basis, res)
        z = sum(
            a * (M // m) * xi
            for a, m, xi in zip(crt_inverses(D59_MODULI), D59_MODULI, res)
        )
        assert z - r * M == x


def test_truncated_basis_reproduces_rounding_failure():
    # with only seven primes the constant term exceeds half their product,
    # so the signed reconstruction picks the wrong representative
    basis7 = build_basis(D59_MODULI[:7], N59, 0.001)
    wrong = crt_mod_n(basis7, D59_RESIDUES[0][:7])
    assert wrong != D59_LIFTED[0]
    # the same truncation leaves the other two coefficients intact
    assert crt_mod_n(basis7, D59_RESIDUES[2][:7]) == D59_LIFTED[2]


def test_crt_integer_reconstructs_class_polynomial():
    ints = [crt_integer(D59_MODULI, res) for res in D59_RESIDUES]
    assert ints == D59_INTEGER_COEFFS


def test_crt_integer_examples():
    assert crt_integer([3, 5], [2, 3]) == -7
    assert crt_integer([11], [4]) == 4
    assert crt_integer([11], [7]) == -4
    assert crt_integer([2], [1]) == 1  # M/2 representative kept positive
    with pytest.raises(NotCoprime):
        crt_integer([4, 6], [1, 1])


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


@settings(max_examples=200)
@given(st.data())
def test_modular_route_matches_integer_oracle(data):
    eps = 0.001
    count = data.draw(st.integers(1, 6))
    moduli = data.draw(
        st.lists(st.sampled_from(SMALL_PRIMES), min_size=count, max_size=count, unique=True)
    )
    M = math.prod(moduli)
    bound = int((0.5 - eps) * M)
    if bound < 1:
        return
    x = data.draw(st.integers(-bound + 1, bound - 1))
    n = data.draw(st.integers(2, 10 ** 6))
    residues = [x % m for m in moduli]
    basis = build_basis(moduli, n, eps)
    assert crt_integer(moduli, residues) == x
    assert crt_mod_n(basis, residues) == x % n


def test_permutation_invariance():
    rng = random.Random(5)
    moduli = [17, 71, 197, 521]
    x = -123456
    n = 1009
    for _ in range(10):
        perm = moduli[:]
        rng.shuffle(perm)
        basis = build_basis(perm, n)
        assert crt_mod_n(basis, [x % m for m in perm]) == x % n


def test_consistent_extra_modulus_changes_nothing():
    # |x| stays below half the product of even the three-element basis
    x, n = -487654, 10**6 + 3
    moduli = [101, 103, 107]
    extended = moduli + [109]
    a = crt_mod_n(build_basis(moduli, n), [x % m for m in moduli])
    b = crt_mod_n(build_basis(extended, n), [x % m for m in extended])
    assert a == b == x % n


def _random_primes(rng, count, lo, hi):
    primes = set()
    while len(primes) < count:
        q = rng.randrange(lo, hi)
        if is_prime(q):
            primes.add(q)
    return sorted(primes)


def test_fixed_point_error_stays_inside_budget():
    # round_quotient against the exact floor(z/M + 1/2) on vectors inside
    # the precondition, over small bases and over ~21-bit moduli with ell
    # in the hundreds, as in the degree-96 lift
    rng = random.Random(9)
    eps = 0.001
    bases = [rng.sample(SMALL_PRIMES, rng.randrange(1, 9)) for _ in range(30)]
    bases += [_random_primes(rng, ell, 1 << 20, 1 << 21) for ell in (150, 410)]
    for moduli in bases:
        basis = build_basis(moduli, 97, eps)
        inverses = crt_inverses(moduli)
        ell, S = len(moduli), basis.shift
        s = max(0, math.ceil(math.log2(ell / eps))) + 8  # fractional bits
        assert S == s + max(moduli).bit_length()
        # each reciprocal falls short by under one unit and every residue is
        # below 2^(S - s), so the sum falls short by under ell/2^s <= eps/2^8
        assert all(
            c * m <= a << S < (c + 1) * m
            for a, c, m in zip(inverses, basis.reciprocals, moduli)
        )
        assert max(moduli) < 1 << (S - s)
        assert Fraction(ell, 1 << s) <= Fraction(eps) / 256
        M = math.prod(moduli)
        cofactors = [M // m for m in moduli]
        bound = (M * 499 - 1) // 1000  # the largest |x| below (1/2 - eps) M
        xs = [bound, -bound] + [rng.randint(-bound, bound) for _ in range(20)]
        for x in xs:
            residues = [x % m for m in moduli]
            z = sum(a * c * r for a, c, r in zip(inverses, cofactors, residues))
            exact = Fraction(z, M)
            approx = Fraction(
                sum(r * c for r, c in zip(residues, basis.reciprocals)), 1 << S
            )
            assert 0 <= exact - approx < Fraction(ell, 1 << s)
            r = round_quotient(basis, residues)
            assert r == math.floor(exact + Fraction(1, 2)) == (z - x) // M


def test_crt_mod_n_rejects_unreduced_residues():
    basis = build_basis([3, 5, 7], 11)
    with pytest.raises(ValueError, match="residue 5 not reduced mod 5"):
        crt_mod_n(basis, [2, 5, 1])
    with pytest.raises(ValueError, match="residue -1 not reduced mod 5"):
        crt_mod_n(basis, [2, -1, 1])
    with pytest.raises(ValueError, match="length"):
        crt_mod_n(basis, [2, 3])


def test_crt_integer_refuses_in_order():
    # a length mismatch, then two moduli sharing a factor, named, then an
    # unreduced residue; no modulus at all and a modulus below 2 are
    # refused as by build_basis
    with pytest.raises(ValueError, match="at least one modulus required"):
        crt_integer([], [])
    with pytest.raises(NotCoprime, match="moduli 15 and 21 share a factor"):
        crt_integer([15, 7, 21], [1, 2, 3])
    with pytest.raises(NotCoprime, match="moduli 5 and 5 share a factor"):
        crt_integer([5, 5], [1, 1])
    with pytest.raises(NotCoprime):
        crt_integer([15, 7, 21], [99, 2, 3])
    with pytest.raises(ValueError, match="length"):
        crt_integer([15, 7, 21], [99, 2])
    with pytest.raises(ValueError, match="residue 7 not reduced mod 7"):
        crt_integer([3, 7], [1, 7])
    with pytest.raises(ValueError, match="residue -1 not reduced mod 3"):
        crt_integer([3, 7], [-1, 1])
    for moduli in ([1, 7], [0, 7], [-3, 7]):
        with pytest.raises(ValueError, match="moduli must be >= 2"):
            crt_integer(moduli, [0, 0])


def test_bases_over_one_prime_set_share_the_memoised_half():
    moduli = [101, 103, 107]
    a, b = build_basis(moduli, 11), build_basis(tuple(moduli), 13)
    assert a.reciprocals is b.reciprocals
    assert (a.M_mod_n, b.M_mod_n) == (math.prod(moduli) % 11, math.prod(moduli) % 13)
    assert (a.weights, b.weights) == (crt_weights(moduli, 11), crt_weights(moduli, 13))
