"""The benchmark's reference checks accept right answers and reject wrong ones.

    python3 -m pytest perfbench/test_refmath.py
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refmath  # noqa: E402
import workloads  # noqa: E402


def test_class_polynomials_match_the_literature():
    assert refmath.class_polynomial(-59) == [
        374643194001883136, -140811576541184, 30197678080, 1]
    assert refmath.class_polynomial(-23) == [12771880859375, -5151296875, 3491750, 1]
    assert refmath.class_polynomial(-8) == [-8000, 1]


@pytest.mark.parametrize("D, h", [(-59, 3), (-2083, 7), (-4243, 9), (-832603, 96)])
def test_class_numbers(D, h):
    assert len(refmath.forms(D)) == h


def test_split_primes_of_the_worked_example():
    assert refmath.split_primes(-59) == [17, 71, 197, 521, 827, 1907, 3797, 5417]


def test_scalar_multiplication_against_an_exhaustive_count():
    p, a4, a6 = 1009, 3, 7
    points = [(x, y) for x in range(p) for y in range(p)
              if (y * y - x ** 3 - a4 * x - a6) % p == 0]
    order = len(points) + 1
    assert all(refmath.is_annihilated(a4, p, x, y, order) for x, y in points)
    assert not all(refmath.is_annihilated(a4, p, x, y, order + 1) for x, y in points)


def test_sqrt_mod_covers_both_residue_classes_of_p_mod_4():
    for p in (1009, 1013, 65537, 2**127 - 1):
        for a in (2, 3, 5, 10, 12345):
            a %= p
            if pow(a, (p - 1) // 2, p) == 1:
                assert refmath.sqrt_mod(a, p) ** 2 % p == a


@pytest.fixture(scope="module")
def constructed():
    from cmcurve import construct_curve
    D = -59
    n, N = workloads.cm_pair(D, 64, random.Random(7))
    res = construct_curve(n, N)
    return D, n, N, res.curve.a4, res.curve.a6, res.j, refmath.class_polynomial(D)


def _check(n, N, a4, a6, j, H):
    return refmath.check_curve(n, N, a4, a6, j, H, random.Random(1))


def test_check_curve_accepts_the_program_answer(constructed):
    _, n, N, a4, a6, j, H = constructed
    assert _check(n, N, a4, a6, j, H) is None


def test_check_curve_rejects_the_quadratic_twist(constructed):
    _, n, N, a4, a6, j, H = constructed
    c = next(c for c in range(2, n) if pow(c, (n - 1) // 2, n) == n - 1)
    why = _check(n, N, a4 * c * c % n, a6 * c ** 3 % n, j, H)
    assert why is not None and why.startswith("[N]P != O")


def test_check_curve_rejects_a_perturbed_coefficient(constructed):
    _, n, N, a4, a6, j, H = constructed
    assert _check(n, N, a4, (a6 + 1) % n, j, H) is not None


def test_check_curve_rejects_a_j_that_is_no_root(constructed):
    _, n, N, a4, a6, j, H = constructed
    other = refmath.class_polynomial(-67)  # h = 1: its only root is -147197952000
    why = _check(n, N, a4, a6, j, other)
    assert why == "j is not a root of H_D mod n"


@pytest.fixture(scope="module")
def lifted():
    rng = random.Random(3)
    roots = [rng.randrange(-10**6, 10**6) for _ in range(8)]
    f = [1]
    for a in roots:
        f = [(f[i - 1] if i else 0) - a * (f[i] if i < len(f) else 0)
             for i in range(len(f) + 1)]
    n = 100959557
    return n, f, roots, [c % n for c in f[:-1]], sorted({a % n for a in roots})


def test_check_lift_accepts_the_right_answer(lifted):
    n, f, roots, coeffs, found = lifted
    assert refmath.check_lift(n, f, roots, coeffs, found) is None


def test_check_lift_rejects_one_perturbed_coefficient(lifted):
    n, f, roots, coeffs, found = lifted
    bad = list(coeffs)
    bad[5] = (bad[5] + 1) % n
    assert refmath.check_lift(n, f, roots, bad, found) == "coefficient 5 differs from f mod n"


def test_check_lift_rejects_one_dropped_root(lifted):
    n, f, roots, coeffs, found = lifted
    assert refmath.check_lift(n, f, roots, coeffs, found[1:]) is not None


def test_cold_discriminants_follow_the_rule():
    discs = workloads.cold_discriminants()
    assert len(discs) >= 40
    assert all(-D % 8 != 7 for D in discs)
    assert all(sum(refmath.split_primes(D)) <= workloads.COLD_MAX_SUM_P for D in discs)
