import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcurve import curves
from cmcurve.arith import is_prime, smallest_nonresidue, task_rng
from cmcurve.curves import (
    EXHAUSTIVE_COUNT_MAX,
    NAF_MIN_BITS,
    CurveModP,
    PowInverse,
    _mul_raw,
    _naf4,
    _x_mul,
    curve,
    curve_from_j,
    hasse_interval,
    inverse_table,
    is_on_curve,
    j_invariant,
    order_filter,
    point_add,
    point_count_bsgs,
    point_count_naive,
    quadratic_twist,
    random_point,
    residue_table,
    scalar_mul,
)
from cmcurve.errors import Ambiguous, SpecialJ, TooLarge


def brute_count(p, a4, a6):
    """Independent point count: enumerate y^2 values, then sum solutions."""
    sols = {}
    for y in range(p):
        sols[y * y % p] = sols.get(y * y % p, 0) + 1
    return 1 + sum(sols.get((x * x % p * x + a4 * x + a6) % p, 0) for x in range(p))


SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 101, 257]


def random_curve(rng, p):
    while True:
        a4, a6 = rng.randrange(p), rng.randrange(p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p:
            return curve(p, a4, a6)


def test_curve_from_j_golden_curve():
    E = curve_from_j(118481, 141767)
    assert (E.a4, E.a6) == (39103, 120580)
    assert E.j == 118481


def test_curve_from_j_small_case_and_j_roundtrip():
    E = curve_from_j(2, 17)
    assert (E.a4, E.a6) == (12, 8)
    assert j_invariant(17, 12, 8) == 2


def test_curve_from_j_rejects_special_values():
    with pytest.raises(SpecialJ):
        curve_from_j(0, 17)
    with pytest.raises(SpecialJ):
        curve_from_j(1728, 141767)
    with pytest.raises(SpecialJ):
        curve_from_j(11, 17)  # 1728 = 11 (mod 17)


@given(st.integers(0, 10 ** 6))
def test_curve_from_j_has_requested_j_invariant(seed):
    rng = random.Random(seed)
    p = rng.choice([101, 257, 65537, 141767])
    j = rng.randrange(p)
    if j in (0, 1728 % p):
        return
    E = curve_from_j(j, p)
    assert j_invariant(E.p, E.a4, E.a6) == j


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        curve(7, 0, 0)
    with pytest.raises(ValueError):
        CurveModP(p=3, a4=1, a6=1, j=0)


def test_point_count_naive_tiny_curve():
    assert brute_count(5, 1, 0) == 4
    assert point_count_naive(curve(5, 1, 0)) == 4


def test_point_count_naive_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.choice(SMALL_PRIMES)
        E = random_curve(rng, p)
        assert point_count_naive(E) == brute_count(p, E.a4, E.a6)


def test_point_count_curve_j2_mod_17():
    E = curve_from_j(2, 17)
    n = point_count_naive(E)
    assert n in (15, 21)
    assert n == brute_count(17, E.a4, E.a6) == 15


def test_point_count_golden_curve():
    E = curve_from_j(118481, 141767)
    assert point_count_naive(E) == 142521


def test_point_count_respects_cap():
    # the smallest prime above NAIVE_COUNT_CAP = 2^26
    with pytest.raises(TooLarge):
        point_count_naive(curve_from_j(2, 67108879))


def test_hasse_bound_on_counted_curves():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        E = random_curve(rng, p)
        lo, hi = hasse_interval(p)
        assert lo <= point_count_naive(E) <= hi


def test_bsgs_equals_naive_on_random_curves():
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        p = rng.randrange(500, 1 << 16) | 1
        if not is_prime(p):
            continue
        E = random_curve(rng, p)
        assert point_count_bsgs(E) == point_count_naive(E)
        checked += 1


def test_bsgs_equals_exhaustive_for_every_j_above_the_switch():
    # 1031 is the first prime above EXHAUSTIVE_COUNT_MAX, where exact counts
    # move from the exhaustive sum to BSGS; each j is checked with its twist
    p = 1031
    assert p > EXHAUSTIVE_COUNT_MAX and is_prime(p)
    models = [curve(p, 0, 1), curve(p, 1, 0)]
    models += [curve_from_j(j, p) for j in range(1, p) if j != 1728 % p]
    for E in models:
        for C in (E, quadratic_twist(E)):
            assert point_count_bsgs(C) == point_count_naive(C)


def test_bsgs_is_ambiguous_on_a_small_field():
    # E and its twist over F_11 have so small an exponent that two orders
    # in the Hasse interval annihilate every point; the count is 16
    E = curve_from_j(2, 11)
    with pytest.raises(Ambiguous, match="2 candidate orders remain after 32 points"):
        point_count_bsgs(E)
    assert point_count_naive(E) == 16


def test_bsgs_golden_curves():
    E = curve_from_j(118481, 141767)
    assert point_count_bsgs(E) == 142521
    big = curve_from_j(28534, 1434707)
    assert point_count_bsgs(big) in (1434708 - 2215, 1434708 + 2215)


def test_order_filter_rejects_wrong_j():
    # j = 5 gives a 22-point curve over F_17; 22 is coprime to both 15 and 21,
    # so every sampled point rules both candidates out.
    E = curve_from_j(5, 17)
    assert brute_count(17, E.a4, E.a6) == 22
    assert order_filter(E, 3) is False


def test_order_filter_accepts_matching_j():
    E = curve_from_j(2, 17)
    assert order_filter(E, 3) is True


def test_order_filter_never_false_negative():
    # every point of a curve with order p+1-t is annihilated by p+1-t
    rng = random.Random(23)
    for _ in range(20):
        p = rng.choice([29, 37, 41, 101])
        E = random_curve(rng, p)
        n = point_count_naive(E)
        t = p + 1 - n
        if t == 0 or abs(t) > isqrt(4 * p):
            continue
        assert order_filter(E, abs(t)) is True


def test_order_filter_matches_are_sound():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.choice([101, 257, 1009])
        E = random_curve(rng, p)
        t = rng.randrange(1, isqrt(4 * p) + 1)
        # False is exact: the order is then neither p + 1 - t nor p + 1 + t
        if not order_filter(E, t):
            assert point_count_naive(E) not in (p + 1 - t, p + 1 + t)


def test_order_filter_precondition():
    with pytest.raises(ValueError):
        order_filter(curve_from_j(2, 17), 9)  # 9 > 2*sqrt(17)


def test_scalar_mul_basics():
    E = curve_from_j(2, 17)
    P = random_point(E, task_rng(3))
    assert scalar_mul(E, P, 0) is None
    assert scalar_mul(E, P, 1) == P
    n = point_count_naive(E)
    assert scalar_mul(E, P, n) is None  # Lagrange


def test_scalar_mul_lagrange_random_curves():
    rng = random.Random(31)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        E = random_curve(rng, p)
        P = random_point(E, rng)
        assert scalar_mul(E, P, point_count_naive(E)) is None


@settings(max_examples=60)
@given(st.integers(0, 400), st.integers(0, 400), st.integers(0, 10 ** 9))
def test_scalar_mul_distributes(a, b, seed):
    rng = random.Random(seed)
    E = random_curve(rng, 101)
    P = random_point(E, rng)
    left = scalar_mul(E, P, a + b)
    right = point_add(E, scalar_mul(E, P, a), scalar_mul(E, P, b))
    assert left == right


def _small_order_curves(p):
    """a4 = 0, a6 = 0 (with the 2-torsion point (0, 0)) and a generic curve,
    then for each of 5 and 7 that divides none of their orders the first
    y^2 = x^3 + x + a6 of an order it divides."""
    curves = [curve(p, a4, a6) for a4, a6 in ((0, 5), (3, 0), (1, 1))]
    for ell in (5, 7):
        if all(point_count_naive(E) % ell for E in curves):
            curves.append(next(
                E for a6 in range(1, p)
                if (4 + 27 * a6 * a6) % p and point_count_naive(E := curve(p, 1, a6)) % ell == 0
            ))
    return curves


def _naf_chain_events(m, order):
    """The special cases that [m]P in width-4 NAF meets, for P of the given
    order > 1: those of the affine additions that build the table, [2]P
    as P + P, then [2]P added to [k]P for k = 1, 3 and 5, and those of the
    main loop, following the multiple k of the accumulator."""
    events = set()
    for k in (1, 3, 5):
        if 2 % order == 0:
            events.add("table: twice = O")
        elif k % order == 0:
            events.add("table: accumulator = O")
        elif (k - 2) % order == 0:
            events.add("table: accumulator = twice")
        elif (k + 2) % order == 0:
            events.add("table: accumulator = -twice")
    digits = _naf4(m)
    k = digits[0]
    if k % order == 0:
        events.add("entry = O")
    for d in digits[1:]:
        if k % order and 2 * k % order == 0:
            events.add("double Y = 0")
        k *= 2
        if d:
            if d % order == 0:
                events.add("entry = O")
            elif k % order == 0:
                events.add("accumulator = O")
            elif (k - d) % order == 0:
                events.add("accumulator = entry")
            elif (k + d) % order == 0:
                events.add("accumulator = -entry")
            k += d
    return events


@pytest.mark.guard
@pytest.mark.parametrize("p", [13, 17, 101, 211])
def test_scalar_mul_matches_repeated_addition_on_every_point(p):
    # m runs over [0, 2p + 6], past ord(P) <= p + 1 + 2 sqrt(p) for every P;
    # m = r + k ord(P) with k of 129 bits takes the width-4 NAF and must
    # give [r]P
    rng = random.Random(p)
    orders, events = set(), set()
    for E in _small_order_curves(p):
        points = [(x, y) for x in range(p) for y in range(p) if is_on_curve(E, (x, y))]
        for P in points:
            ref, Q = [], None
            for m in range(2 * p + 7):
                assert scalar_mul(E, P, m) == Q, (E, P, m)
                ref.append(Q)
                Q = point_add(E, Q, P)
            order = ref.index(None, 1)
            orders.add(order)
            for r in (0, 1, order - 1, rng.randrange(order)):
                m = r + ((1 << 128) | rng.getrandbits(128)) * order
                assert m.bit_length() >= NAF_MIN_BITS
                assert scalar_mul(E, P, m) == ref[r], (E, P, m)
                events |= _naf_chain_events(m, order)
    # bases of order 2 and 3 meet [2]P = O and an accumulator at O, at [2]P
    # and at -[2]P while the table is built, and O among its entries; the
    # main loop meets an accumulator equal to an entry (H = 0, r = 0) and
    # to its negative
    assert {2, 3, 5, 7} <= orders
    assert events == {
        "table: twice = O", "table: accumulator = O", "table: accumulator = twice",
        "table: accumulator = -twice", "double Y = 0", "entry = O", "accumulator = O",
        "accumulator = entry", "accumulator = -entry",
    }


def _chain_events(m, order):
    """The special cases that the double-and-add chain for [m]P meets, for P
    of the given order > 1, following the multiple k of the accumulator."""
    if m == 0:
        return {"m = 0"}
    events, k = set(), 1
    for bit in bin(m)[3:]:
        if k % order and 2 * k % order == 0:
            events.add("double Y = 0")
        k *= 2
        if bit == "1":
            if order > 2 and k % order == 1:
                events.add("accumulator = base")
            if order > 2 and (k + 1) % order == 0:
                events.add("accumulator = -base")
            k += 1
    return events


@pytest.mark.parametrize("p", [13, 17, 101, 211])
def test_x_mul_agrees_with_mul_raw_on_every_point(p):
    # the affine probe kernel against the Jacobian one, with both inverters,
    # on every point and every m in [0, 2p + 6]
    orders, inverters = set(), (inverse_table(p), PowInverse(p))
    for a4, a6 in ((0, 5), (3, 0), (1, 1)):
        E = curve(p, a4, a6)
        points = [(x, y) for x in range(p) for y in range(p) if is_on_curve(E, (x, y))]
        for x, y in points:
            ref = [_mul_raw(p, a4, x, y, m) for m in range(2 * p + 7)]
            orders.add(ref.index(None, 1))
            want = [Q and Q[0] for Q in ref]  # x-coordinates, None standing for O
            for inv in inverters:
                got = [_x_mul(p, a4, x, y, m, inv) for m in range(2 * p + 7)]
                assert got == want, (a4, a6, x, y)
    events = set().union(*(_chain_events(m, n) for n in orders for m in range(2 * p + 7)))
    assert events == {
        "m = 0", "accumulator = base", "accumulator = -base", "double Y = 0"
    }


@pytest.mark.parametrize("p", [5, 7, 1031, 12007])
def test_inverse_table_inverts_every_unit(p):
    inv = inverse_table(p)
    assert len(inv) == p
    assert all(v * inv[v] % p == 1 for v in range(1, p))


def test_inverse_tables_are_cached_no_more_than_residue_tables():
    for p in (5, 7, 11, 13, 17):
        inverse_table(p)
        residue_table(p)
    cached = inverse_table.cache_info().currsize
    assert cached <= residue_table.cache_info().currsize == 3
    assert inverse_table(17) is inverse_table(17)


def test_random_point_always_on_curve_and_affine():
    E = curve_from_j(2, 17)
    rng = task_rng(5)
    for _ in range(100):
        P = random_point(E, rng)
        assert P is not None
        assert is_on_curve(E, P)


def test_random_point_seeded_is_deterministic():
    E = curve_from_j(7, 141767)
    pts_a = [random_point(E, task_rng(9, i)) for i in range(5)]
    pts_b = [random_point(E, task_rng(9, i)) for i in range(5)]
    assert pts_a == pts_b
    # pinned draws, for p = 3 and p = 1 (mod 4)
    assert pts_a[:3] == [(118054, 60814), (90329, 25947), (19027, 48027)]
    E = curve_from_j(7, 65537)
    pts = [random_point(E, task_rng(9, i)) for i in range(3)]
    assert pts == [(58888, 29856), (45164, 19262), (18246, 25762)]


def test_jacobi_pretest_draws_the_same_points(monkeypatch):
    p = 2 ** 256 - 189
    assert is_prime(p) and p.bit_length() >= curves.PRETEST_MIN_BITS
    E = curve_from_j(7, p)

    def draws():
        rng = task_rng(9)
        return [random_point(E, rng) for _ in range(16)], rng.getstate()

    pretested = draws()
    monkeypatch.setattr(curves, "PRETEST_MIN_BITS", p.bit_length() + 1)
    assert draws() == pretested


def test_random_point_tiny_curve_hits_known_points():
    E = curve(5, 1, 0)
    affine = {(x, y) for x in range(5) for y in range(5) if (y * y - x ** 3 - x) % 5 == 0}
    for i in range(10):
        assert random_point(E, task_rng(i)) in affine


def test_quadratic_twist_properties():
    rng = random.Random(37)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        E = random_curve(rng, p)
        c = smallest_nonresidue(p)
        T = quadratic_twist(E)
        assert (T.a4, T.a6) == (E.a4 * c * c % p, E.a6 * c ** 3 % p)
        assert T.j == E.j
        assert brute_count(p, E.a4, E.a6) + brute_count(p, T.a4, T.a6) == 2 * p + 2
        TT = quadratic_twist(T)
        assert point_count_naive(TT) == point_count_naive(E)


def test_quadratic_twist_takes_no_constant():
    # the twist by c = 5 = smallest_nonresidue(141767); a constant of the
    # caller's is refused
    E = curve_from_j(118481, 141767)
    T = quadratic_twist(E)
    assert (T.a4, T.a6, T.j) == (126973, 45198, 118481)
    with pytest.raises(TypeError):
        quadratic_twist(E, 5)
