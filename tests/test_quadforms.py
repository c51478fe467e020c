import hashlib
import math
import random
from fractions import Fraction

import pytest

from cmcurve.errors import NotFundamental, TooLarge
from cmcurve.quadforms import (
    MAX_D,
    QuadForm,
    discriminant,
    is_fundamental,
    reduced_forms,
    sum_inverse_a,
)


def test_is_fundamental_examples():
    assert is_fundamental(-59)
    assert not is_fundamental(-12)  # -12 = 4 (mod 16)
    assert is_fundamental(-4)
    assert is_fundamental(-3)
    assert is_fundamental(-7)
    assert not is_fundamental(-9)  # 3^2 divides
    assert not is_fundamental(-45)
    assert is_fundamental(-20)
    assert not is_fundamental(-32)
    assert not is_fundamental(5)


def test_reduced_forms_minus_59():
    forms = reduced_forms(-59)
    assert {(f.a, f.b, f.c) for f in forms} == {(1, 1, 15), (3, 1, 5), (3, -1, 5)}
    assert forms == sorted(forms, key=lambda f: (f.a, f.b))


def test_reduced_forms_minus_3():
    assert [(f.a, f.b, f.c) for f in reduced_forms(-3)] == [(1, 1, 1)]


def test_class_numbers():
    assert discriminant(-59).h == 3
    assert discriminant(-3).h == 1
    assert discriminant(-832603).h == 96


def _is_reduced_primitive(a, b, c, D):
    # independent predicate, checked clause by clause
    if b * b - 4 * a * c != D or a <= 0:
        return False
    if math.gcd(a, math.gcd(abs(b), c)) != 1:
        return False
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def test_enumeration_against_brute_force():
    rng = random.Random(59)
    found = 0
    while found < 50:
        D = -rng.randrange(3, 10 ** 6)
        if not is_fundamental(D):
            continue
        found += 1
        d = -D
        brute = []  # in (a, b) order, so a misplaced mirror form fails
        for a in range(1, math.isqrt(d // 3) + 1):
            for b in range(-a, a + 1):
                if (b * b - D) % (4 * a) == 0:
                    c = (b * b - D) // (4 * a)
                    if _is_reduced_primitive(a, b, c, D):
                        brute.append((a, b, c))
        assert [(f.a, f.b, f.c) for f in reduced_forms(D)] == brute


@pytest.mark.parametrize(
    "D, h, digest",
    [
        (-832603, 96, "29e087de1b71eea564faf000a942d4a0c3ee55bf2feab8479ed9f03ccb834520"),
        (-9999991, 1715, "00f492e836078767d699f606952b3945d7103a5d02924f2630fa19b2051f7f6e"),
    ],
)
def test_form_list_is_pinned(D, h, digest):
    # SHA-256 of the (a, b, c) list as the (a, b)-ordered direct scan over
    # -a <= b <= a produced it
    forms = [(f.a, f.b, f.c) for f in reduced_forms(D)]
    assert len(forms) == h
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == digest


def test_every_form_satisfies_invariants():
    for D in (-59, -832603, -20, -163):
        forms = reduced_forms(D)
        for f in forms:
            assert f.discriminant() == D
            assert _is_reduced_primitive(f.a, f.b, f.c, D)
        assert sum(1 for f in forms if f.a == 1) == 1  # unique principal form


def test_coefficient_bound_log_minus_59():
    log_b = discriminant(-59).log_B
    assert abs(log_b - 41.3) < 0.05
    assert sum_inverse_a(discriminant(-59)) == Fraction(5, 3)
    # independent float evaluation
    oracle = math.log(math.comb(3, 1)) + math.pi * math.sqrt(59) * (5 / 3)
    assert abs(log_b - oracle) < 1e-9


def test_coefficient_bound_log_large_discriminant():
    disc = discriminant(-832603)
    log_b = disc.log_B
    assert 5360 <= log_b <= 5440
    s = float(sum_inverse_a(disc))
    assert abs(s - 1.85) <= 0.01
    oracle = math.log(math.comb(96, 48)) + math.pi * math.sqrt(832603) * s
    assert abs(log_b - oracle) < 1e-6 * oracle


def test_discriminant_factory():
    disc = discriminant(-59)
    assert (disc.D, disc.d, disc.h) == (-59, 59, 3)
    with pytest.raises(NotFundamental):
        discriminant(-12)
    with pytest.raises(NotFundamental):
        discriminant(0)


def test_discriminant_refuses_a_huge_d_up_front(monkeypatch):
    # no trial division, no form enumeration: the cap is checked first
    from cmcurve import quadforms

    def fail(*a):
        raise AssertionError("work done on a discriminant above the cap")

    monkeypatch.setattr(quadforms, "is_fundamental", fail)
    monkeypatch.setattr(quadforms, "reduced_forms", fail)
    for D in (-(MAX_D + 3), -(4 * 927465761771 - 12345**2)):
        with pytest.raises(TooLarge, match=f"d = {-D} exceeds the discriminant cap {MAX_D}"):
            discriminant(D)


def test_quadform_discriminant_method():
    assert QuadForm(3, 1, 5).discriminant() == -59
