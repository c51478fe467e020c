import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cmcurve import cm
from cmcurve.classpoly import PolyModM
from cmcurve.cm import (
    construct_curve,
    derive_cm_params,
    find_all_roots,
    find_root_mod_n,
    hilbert_mod_n,
    lift_shards,
    verify_order,
)
from cmcurve.arith import is_prime, task_rng
from cmcurve.cli import main as cli_main
from cmcurve.curves import (
    curve,
    curve_from_j,
    hasse_interval,
    point_add,
    point_count_bsgs,
    point_count_naive,
    quadratic_twist,
    random_point,
    scalar_mul,
)
from cmcurve.errors import (
    Ambiguous,
    CertificateFailed,
    InvariantViolation,
    NoRoot,
    NotFundamental,
    OutsideHasse,
    TooLarge,
    ZeroTrace,
)
from cmcurve.classpoly import build_shards, gamma2_poly, poly_from_roots
from cmcurve.crt import DEFAULT_EPSILON, crt_integer
from cmcurve.primegen import find_crt_primes
from cmcurve.quadforms import discriminant, is_fundamental

N59 = 141767
H59_MOD_N = (48400, 73152, 31177, 1)


def test_derive_cm_params_known_pairs():
    params = derive_cm_params(141767, 142521)
    assert params.t == -753
    assert params.disc.D == -59
    params = derive_cm_params(100959557, 100979633)
    assert params.t == -20075
    assert params.disc.D == -832603
    assert params.disc.h == 96


@pytest.mark.guard
def test_derive_cm_params_rejections():
    from math import isqrt

    n = 141767
    with pytest.raises(OutsideHasse):
        derive_cm_params(n, n + 2 + 2 * isqrt(n) + 1)
    with pytest.raises(OutsideHasse):
        derive_cm_params(n, 999)
    with pytest.raises(OutsideHasse):  # a negative N fails the interval check
        derive_cm_params(n, -5)
    with pytest.raises(ZeroTrace):
        derive_cm_params(7, 8)
    with pytest.raises(NotFundamental):
        derive_cm_params(13, 12)  # t = 2, D = -48
    with pytest.raises(ValueError):
        derive_cm_params(15, 16)  # composite n


@pytest.mark.guard
def test_derive_cm_params_rejects_a_ramified_n(monkeypatch):
    # no t != 0 gives a d that n divides; a stand-in discriminant must
    # still be refused by an explicit check, which python -O keeps
    n = 13
    monkeypatch.setattr(cm, "discriminant", lambda D: discriminant(-4 * n))
    with pytest.raises(InvariantViolation, match="ramifies"):
        derive_cm_params(n, n + 1 - 3)


def test_hilbert_mod_n_d59():
    from cmcurve.quadforms import discriminant

    poly = hilbert_mod_n(discriminant(-59), N59)
    assert poly.coeffs == H59_MOD_N


def test_hilbert_mod_n_special_discriminants():
    from cmcurve.quadforms import discriminant

    assert hilbert_mod_n(discriminant(-3), 101).coeffs == (0, 1)
    assert hilbert_mod_n(discriminant(-4), 101).coeffs == ((-1728) % 101, 1)


def test_hilbert_mod_basis_prime_reproduces_shard():
    # lifting to one of the small primes itself must agree with its shard
    from cmcurve.quadforms import discriminant

    poly = hilbert_mod_n(discriminant(-59), 17)
    assert poly.coeffs == (5, 12, 12, 1)


def test_find_root_examples():
    poly = PolyModM(modulus=N59, coeffs=H59_MOD_N)
    roots = find_all_roots(poly, N59)
    assert roots == [4160, 118481, 129716]
    assert all(poly.evaluate(r) == 0 for r in roots)
    assert find_root_mod_n(poly, N59) == 4160


def test_find_root_linear_and_no_root():
    assert find_root_mod_n(PolyModM(modulus=97, coeffs=(0, 1)), 97) == 0
    assert [x for x in range(3) if (x * x + 1) % 3 == 0] == []
    with pytest.raises(NoRoot):
        find_root_mod_n(PolyModM(modulus=3, coeffs=(1, 0, 1)), 3)


def test_find_all_roots_with_repeated_factor_structure():
    # x^2 over F_7: double root at 0 still reports the single distinct root
    poly = PolyModM(modulus=7, coeffs=(0, 0, 1))
    assert find_all_roots(poly, 7) == [0]


def test_construct_curve_main_example():
    result = construct_curve(141767, 142521)
    assert result.order == 142521
    assert result.j == 4160  # smallest of the three roots
    assert point_count_naive(result.curve) == 142521
    # 3 does not divide 59: the gamma_2 lift, over the primes p = 2 (mod 3)
    assert result.primes_used == (17, 71, 197, 521)
    assert (result.t, result.D) == (-753, -59)


def test_construct_curve_forced_root_gives_published_curve():
    E = curve_from_j(118481, 141767)
    assert (E.a4, E.a6) == (39103, 120580)
    assert verify_order(E, 142521)


def test_construct_curve_twist_branch():
    target = 2 * 141767 + 2 - 142521
    result = construct_curve(141767, target)
    assert point_count_naive(result.curve) == target == 141015
    # same j-invariant as the other branch
    assert result.j == construct_curve(141767, 142521).j


def test_construct_curve_special_j0():
    result = construct_curve(7, 3)  # t = 5, D = -3
    assert result.j == 0
    assert point_count_naive(result.curve) == 3


def test_construct_curve_special_j1728():
    result = construct_curve(5, 2)  # t = 4, D = -4
    assert result.j == 1728 % 5
    assert point_count_naive(result.curve) == 2


@pytest.mark.guard
@pytest.mark.parametrize(
    "n, N, jobs", [(5, 2, 0), (141767, 142521, -3)], ids=["d4", "D59"]
)
def test_construct_curve_checks_jobs_for_every_d(n, N, jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        construct_curve(n, N, jobs=jobs)


@pytest.mark.parametrize("n, N", [(141767, 142521), (7, 3)], ids=["D59", "D3"])
def test_construct_curve_timings_keys(n, N):
    stages = {"derive", "hilbert", "root", "construct"}
    assert set(construct_curve(n, N).timings) == stages


def test_construct_curve_medium_example():
    # a different discriminant with an even trace: 4n = 2018^2 + 40, so
    # D = -40 (h = 2) over a megaprime field
    n, t = 1018091, 2018
    params = derive_cm_params(n, n + 1 - t)
    assert params.disc.D == -40 and params.disc.h == 2
    result = construct_curve(n, n + 1 - t)
    assert point_count_naive(result.curve) == n + 1 - t == 1016074


# 4n = t^2 + 59 with n a 256-bit prime, n = 1 (mod 4); N = n + 1 + t is the
# twist branch
T256 = 510423550381407695195061911147652317643
N256 = (T256 * T256 + 59) // 4


@pytest.fixture(scope="module")
def curve_256():
    assert is_prime(N256) and N256.bit_length() == 256
    return construct_curve(N256, N256 + 1 + T256).curve


def test_construct_curve_256_bit_scalar_mul(curve_256):
    E, n, N = curve_256, N256, N256 + 1 + T256
    rng = task_rng("scalar_mul", 256)
    P = random_point(E, rng)
    assert scalar_mul(E, P, N) is None
    assert scalar_mul(E, P, N + 1) == P
    for _ in range(8):
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        left = scalar_mul(E, P, a + b)
        assert left == point_add(E, scalar_mul(E, P, a), scalar_mul(E, P, b))


def test_random_point_draws_on_the_256_bit_curve_are_pinned(curve_256):
    # recorded before random_point tested candidates by their Legendre
    # symbol: the pre-test moves no x drawn and no y returned
    rng = task_rng("random_point", 256)
    draws = [random_point(curve_256, rng) for _ in range(16)]
    assert draws[0] == (
        51636904183996094962240287457840518979690900340389838193148087910033495818659,
        20360678661102401033422432438068203366938510633338027207399007851624535798424,
    )
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()
    assert digest == "821fce2f5e49a70e1bbc394b77b9f316b67af44d94c5914debf26a88addc7b1f"
    assert rng.getrandbits(64) == 2150160127839888364


# d < 300 keeps each discriminant's scans under a few seconds
SMALL_D = [d for d in range(5, 300) if d % 8 != 7 and is_fundamental(-d)]


@pytest.fixture(scope="module")
def shard_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("shards")


# about one t in ten gives a prime n, so most draws are filtered out;
# derandomized, so every run draws the same discriminants and takes the same time
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(d=st.sampled_from(SMALL_D), s=st.integers(0, 511), plus=st.booleans())
def test_construct_curve_has_the_requested_order(shard_cache, d, s, plus):
    t = 2 * s + d % 2  # t^2 + d = 0 (mod 4)
    n = (t * t + d) // 4
    assume(t > 0 and n > 3 and n < 1 << 18 and is_prime(n))
    N = n + 1 + t if plus else n + 1 - t
    result = construct_curve(n, N, cache_dir=shard_cache)
    assert point_count_naive(result.curve) == N


# D = -59 at 64 and 256 bits, t > 0: (n, t, j, (a4, a6) for N = n + 1 - t,
# (a4, a6) for N = n + 1 + t), as pinned when a 4-point branch filter still
# picked the branch. At 64 bits the minus branch is curve_from_j(j), at 256
# bits the plus one.
T256 = 510423550381407695195061911147652317643
BOTH_SIGNS = [
    (9223372118999263697, 6074001027, 1590554535993401451,
     (4044515892281700419, 8089031784563400838),
     (2499028903364469757, 7814934014909155636)),
    ((T256 * T256 + 59) // 4, T256,
     16315381040642891052180532204526232123810410507988193321435714479139266024367,
     (8155821298294782491544938843852270217258398367833886393277707989022227578610,
      54296461861719949939232371170060992479415578615082437404011343727254531617398),
     (34605480422568875585765574244656541696617885185436413258050226803674228029091,
      23070320281712583723843716163104361131078590123624275505366817869116152019394)),
]


@pytest.mark.parametrize("n, t, j, minus, plus", BOTH_SIGNS, ids=["64-bit", "256-bit"])
def test_construct_curve_both_signs_of_t_give_pinned_curves(
    shard_cache, monkeypatch, n, t, j, minus, plus
):
    verified = []

    def spy(E, N, **kw):
        verified.append((E.a4, E.a6))
        return verify_order(E, N, **kw)

    monkeypatch.setattr(cm, "verify_order", spy)
    first = curve_from_j(j, n)
    calls = []
    for N, want in ((n + 1 - t, minus), (n + 1 + t, plus)):
        verified.clear()
        result = construct_curve(n, N, cache_dir=shard_cache)
        assert (result.j, result.curve.a4, result.curve.a6) == (j, *want)
        # the root's own curve is tried first, the twist only if it fails
        direct = want == (first.a4, first.a6)
        assert verified == ([want] if direct else [(first.a4, first.a6), want])
        calls.append(len(verified))
    assert sorted(calls) == [1, 2]


def test_construct_curve_raises_ambiguous_when_neither_branch_verifies(
    shard_cache, monkeypatch
):
    tried = []

    def reject(E, N, **kw):
        tried.append(E)
        return False

    monkeypatch.setattr(cm, "verify_order", reject)
    with pytest.raises(Ambiguous):
        construct_curve(141767, 142521, cache_dir=shard_cache)
    E = curve_from_j(4160, 141767)
    assert tried == [E, quadratic_twist(E)]


# Mutants of construct_curve at 64 bits, where verify_order samples
# points: the 64-bit D = -59 pair of BOTH_SIGNS (the gamma_2 lift)
# and a 64-bit D = -51 pair (3 | d, the j lift), N = n + 1 - t
T51 = 6074001029
MUTANT_PAIRS = [(-59, *BOTH_SIGNS[0][:2]), (-51, (T51 * T51 + 51) // 4, T51)]


@pytest.mark.guard
@pytest.mark.parametrize("D, n, t", MUTANT_PAIRS, ids=["D59", "D51"])
def test_construct_curve_rejects_a_j_that_is_no_root(shard_cache, monkeypatch, D, n, t):
    real = cm.find_root_mod_n
    monkeypatch.setattr(
        cm, "find_root_mod_n", lambda poly, n, *a, **kw: (real(poly, n, *a, **kw) + 1) % n
    )
    with pytest.raises(Ambiguous):
        construct_curve(n, n + 1 - t, cache_dir=shard_cache)


@pytest.mark.guard
@pytest.mark.parametrize("D, n, t", MUTANT_PAIRS, ids=["D59", "D51"])
def test_construct_curve_rejects_a_shard_residue_off_by_one(
    shard_cache, monkeypatch, D, n, t
):
    gamma2 = D % 3 != 0
    p = find_crt_primes(discriminant(D), gamma2=gamma2).primes[1].p
    if gamma2:
        real = cm.gamma2_poly
        monkeypatch.setattr(
            cm, "gamma2_poly", lambda s: _bumped(real(s)) if s.p == p else real(s)
        )
    else:
        real = cm.build_shards
        monkeypatch.setattr(cm, "build_shards", lambda *a, **kw: [
            dataclasses.replace(s, poly=_bumped(s.poly)) if s.p == p else s
            for s in real(*a, **kw)
        ])
    with pytest.raises(CertificateFailed):
        construct_curve(n, n + 1 - t, cache_dir=shard_cache)


@pytest.mark.guard
@pytest.mark.parametrize("D, n, t", MUTANT_PAIRS, ids=["D59", "D51"])
def test_construct_curve_rejects_the_wrong_twist_alone(shard_cache, monkeypatch, D, n, t):
    N = n + 1 - t
    result = construct_curve(n, N, cache_dir=shard_cache)
    E = curve_from_j(result.j, n)
    wrong = quadratic_twist(E) if result.curve == E else E
    monkeypatch.setattr(cm, "_candidates", lambda n, j, d: iter([wrong]))
    with pytest.raises(Ambiguous):
        construct_curve(n, N, cache_dir=shard_cache)


def test_construct_curve_decides_by_the_first_distinguishing_point(
    shard_cache, monkeypatch
):
    # at 256 bits the root's own curve has n + 1 + t points: one point
    # accepts it; for n + 1 - t one point rejects it and one accepts the
    # twist. verify_order without the orders counts exactly, and refuses a
    # 256-bit field before it draws a point.
    n, t, j, minus, plus = BOTH_SIGNS[1]
    drawn = []
    real = cm.random_point
    monkeypatch.setattr(
        cm, "random_point", lambda E, rng: drawn.append((E.a4, E.a6)) or real(E, rng)
    )
    first = curve_from_j(j, n)
    for N, want, draws in ((n + 1 + t, plus, [plus]),
                           (n + 1 - t, minus, [(first.a4, first.a6), minus])):
        drawn.clear()
        E = construct_curve(n, N, cache_dir=shard_cache).curve
        assert ((E.a4, E.a6), drawn) == (want, draws)
        drawn.clear()
        with pytest.raises(TooLarge):
            verify_order(E, N)
        assert drawn == []


def test_construct_curve_counts_no_cm_candidate_below_the_naive_cap(
    shard_cache, monkeypatch
):
    # d > 4 above EXHAUSTIVE_COUNT_MAX: the point rule decides, never BSGS;
    # D = -59 with n = (t^2 + 59) / 4 < NAIVE_COUNT_CAP
    counted = []
    monkeypatch.setattr(cm, "point_count_bsgs", lambda E, **kw: counted.append(E))
    n, t = 33680627, 11607
    for N in (n + 1 - t, n + 1 + t):
        E = construct_curve(n, N, cache_dir=shard_cache).curve
        assert counted == []
        assert point_count_bsgs(E) == N


# (n, N) for 20 fundamental d > 4, d != 7 (mod 8), with 2^11 <= n < 2^26:
# n is the first prime (t^2 + d) / 4 from 2^(b - 1) on, b = 12 .. 26, and
# the sign of t alternates
POINT_RULE_PAIRS = [
    (3083, 2973), (2357, 2455), (5189, 5046), (8287, 8470), (11351, 11139),
    (16651, 16910), (33317, 32953), (71569, 72105), (69709, 69182),
    (131783, 132510), (277217, 276165), (526367, 527819), (562517, 561018),
    (1111991, 1114101), (2149177, 2146246), (4247743, 4251866),
    (4225103, 4220993), (8430341, 8436149), (17032159, 17023906),
    (33564673, 33576261),
]


@pytest.mark.parametrize("n, N", POINT_RULE_PAIRS)
def test_construct_curve_by_points_matches_the_exact_count(shard_cache, n, N):
    assert derive_cm_params(n, N).disc.d > 4
    E = construct_curve(n, N, cache_dir=shard_cache).curve
    assert point_count_bsgs(E) == N


@pytest.mark.guard
def test_construct_curve_refuses_a_huge_discriminant_up_front():
    # a 64-bit n with t = 12345: d = 4n - t^2 is some 7e19, whose trial
    # division alone would run for hours
    n = 18446744073709551557
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="exceeds the discriminant cap"):
        construct_curve(n, n + 1 - 12345)
    assert time.perf_counter() - start < 1.0


SPECIAL = [(211, 183, 3), (211, 241, 3), (257, 226, 4), (257, 290, 4)]


@pytest.mark.parametrize("n, N, d", SPECIAL, ids=["d3-minus", "d3-plus", "d4-minus", "d4-plus"])
def test_construct_curve_tries_the_special_models_in_order(monkeypatch, n, N, d):
    # y^2 = x^3 + b for d = 3 and y^2 = x^3 + ax for d = 4, coefficient
    # 1, 2, ... up to the first that verifies
    verified = []

    def spy(E, N, **kw):
        verified.append((E.a4, E.a6))
        return verify_order(E, N, **kw)

    monkeypatch.setattr(cm, "verify_order", spy)
    E = construct_curve(n, N).curve
    assert point_count_naive(E) == N
    last = E.a6 if d == 3 else E.a4
    assert verified == [(0, c) if d == 3 else (c, 0) for c in range(1, last + 1)]


@pytest.mark.parametrize("n, N", [(211, 183), (257, 226)], ids=["d3", "d4"])
def test_construct_curve_raises_ambiguous_when_no_special_model_verifies(
    monkeypatch, n, N
):
    tried = []

    def reject(E, N, **kw):
        tried.append(E)
        return False

    monkeypatch.setattr(cm, "verify_order", reject)
    with pytest.raises(Ambiguous):
        construct_curve(n, N)
    assert len(tried) == 199


@pytest.mark.parametrize(
    "d, ns", [(3, (211, 223, 1009, 4051)), (4, (257, 1009, 4049))], ids=["d3", "d4"]
)
def test_twist_orders_are_the_orders_of_the_special_models(d, ns):
    # y^2 = x^3 + b (d = 3) and y^2 = x^3 + ax (d = 4) over small coefficients
    # reach all six or four twists; from any one of their traces the
    # possible orders are those of all of them
    for n in ns:
        counts = {
            point_count_naive(curve(n, 0, c) if d == 3 else curve(n, c, 0))
            for c in range(1, 40)
        }
        assert len(counts) == (6 if d == 3 else 4)
        for N in counts:
            assert cm._twist_orders(n, n + 1 - N, d) == counts


# d = 3 and d = 4 at 64 and 256 bits: (d, t, coefficient for N = n + 1 - t,
# coefficient for N = n + 1 + t) with n = (t^2 + d) / 4, the b of
# y^2 = x^3 + b or the a of y^2 = x^3 + ax, as pinned before verify_order
# was given the twists' orders
T3_256 = 481231938336009023090067544955250113879
T4_256 = 481231938336009023090067544955250113972
SPECIAL_PINNED = [
    (3, 6074001049, 17, 9), (3, 6074001091, 12, 4),
    (4, 6074001048, 7, 5), (4, 6074001148, 8, 2),
    (3, T3_256, 3, 6), (3, T3_256 + 54, 4, 20),
    (4, T4_256, 2, 8), (4, T4_256 + 88, 6, 2),
]


@pytest.mark.parametrize(
    "d, t, minus, plus", SPECIAL_PINNED,
    ids=[f"{b}-bit-d{d}-{i}" for b in (64, 256) for d in (3, 4) for i in (1, 2)],
)
def test_construct_curve_special_models_give_pinned_curves(monkeypatch, d, t, minus, plus):
    n = (t * t + d) // 4
    assert is_prime(n) and n.bit_length() in (64, 256)
    counted = []
    monkeypatch.setattr(cm, "point_count_bsgs", lambda E: counted.append(E))
    for N, coef in ((n + 1 - t, minus), (n + 1 + t, plus)):
        result = construct_curve(n, N)
        E = result.curve
        assert (result.j, E.a4, E.a6) == ((0, 0, coef) if d == 3 else (1728, coef, 0))
    assert counted == []  # the twist orders settle it by points alone


@pytest.mark.guard
@pytest.mark.parametrize("d, t, coef", [(3, 6074001049, 17), (4, 6074001048, 7)],
                         ids=["d3", "d4"])
def test_construct_curve_rejects_the_wrong_special_twists(monkeypatch, d, t, coef):
    # every model among the first 40 whose coefficient lies outside the
    # answer's twist class (b / coef not a sixth, a / coef not a fourth
    # power): each of the other twists turns up, and none is accepted
    n = (t * t + d) // 4
    k = 6 if d == 3 else 4

    def twist_class(c):
        return pow(c * pow(coef, -1, n), (n - 1) // k, n)

    wrong = [c for c in range(1, 40) if twist_class(c) != 1]
    assert len({twist_class(c) for c in wrong}) == k - 1
    models = [curve(n, 0, c) if d == 3 else curve(n, c, 0) for c in wrong]
    monkeypatch.setattr(cm, "_candidates", lambda n, j, d: iter(models))
    with pytest.raises(Ambiguous):
        construct_curve(n, n + 1 - t)


def test_verify_order_golden_curve():
    E = curve(141767, 39103, 120580)
    assert verify_order(E, 142521)
    assert not verify_order(E, 141015)


def test_verify_order_counts_exactly_above_the_naive_cap(monkeypatch):
    # prime above NAIVE_COUNT_CAP = 2^26: without orders one BSGS count
    # decides each call
    p = 67108879
    E = curve_from_j(2, p)
    n_true = point_count_bsgs(E)
    assert n_true == 67112568
    counted = []
    monkeypatch.setattr(
        cm, "point_count_bsgs", lambda E: counted.append(E) or point_count_bsgs(E)
    )
    assert verify_order(E, n_true)
    assert not verify_order(E, 2 * p + 2 - n_true)
    assert counted == [E, E]


# p = m^2 - m + 1 with m = 8203, just above NAIVE_COUNT_CAP: y^2 = x^3 + 23
# has the group Z/m x Z/m, whose exponent m kills every point, so every
# multiple of m in the Hasse interval annihilates every sample
M_SQ_P, M_SQ_M, M_SQ_ORDER = 67281007, 8203, 67289209


@pytest.mark.guard
def test_verify_rejects_every_wrong_multiple_of_a_small_exponent():
    E = curve(M_SQ_P, 0, 23)
    lo, hi = hasse_interval(M_SQ_P)
    multiples = list(range(lo + (-lo) % M_SQ_M, hi + 1, M_SQ_M))
    assert M_SQ_ORDER in multiples and len(multiples) == 4
    for X in multiples:
        verdict = X == M_SQ_ORDER
        assert verify_order(E, X) is verdict
        out = io.StringIO()
        code = cli_main(
            ["verify", "-n", str(M_SQ_P), "-N", str(X), "--a4", "0", "--a6", "23",
             "--json"],
            out=out,
        )
        doc = json.loads(out.getvalue())
        assert (code, doc["verified"]) == ((0, True) if verdict else (1, False))


@pytest.mark.guard
def test_verify_refuses_a_field_above_the_bsgs_cap(capsys):
    # 2^72 + 15 is the smallest prime above BSGS_COUNT_MAX: no exact count,
    # so no verdict, and the refusal comes before any work
    p = (1 << 72) + 15
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        verify_order(curve(p, 1, 1), p + 1)
    code = cli_main(["verify", "-n", str(p), "-N", str(p + 1), "--a4", "1", "--a6", "1"],
                    out=io.StringIO())
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "TooLarge" in capsys.readouterr().err


def test_verify_order_cm_needs_a_point_that_tells_the_orders_apart(monkeypatch):
    # y^2 = (x - 1)(x^2 + x + 2) has the 2-torsion point (1, 0); #E and
    # N' = 2p + 2 - #E are both even, so [N']P = O as well as [#E]P = O,
    # and the point may not settle the order either way; one field below
    # NAIVE_COUNT_CAP and one above, where given the orders no count is made
    real = cm.random_point
    for p in (1000003, 67108879):
        E = curve(p, 1, p - 2)
        n_true = point_count_bsgs(E)
        other = 2 * p + 2 - n_true
        assert n_true % 2 == 0 and n_true != other
        for N, verdict in ((other, False), (n_true, True)):
            draws = iter([(1, 0)])
            monkeypatch.setattr(
                cm, "random_point", lambda E, rng: next(draws, None) or real(E, rng)
            )
            assert verify_order(E, N, orders={n_true, other}) is verdict
            assert next(draws, None) is None  # the pinned point was drawn


@pytest.mark.guard
def test_verify_order_requires_hasse():
    E = curve(141767, 39103, 120580)
    with pytest.raises(OutsideHasse, match=r"N = 5 outside \[141015, 142521\] for n = 141767"):
        verify_order(E, 5)


def test_verify_twist_pair():
    E = curve(141767, 39103, 120580)
    T = quadratic_twist(E)
    assert verify_order(T, 141015)


def test_inexact_division_raises_under_python_O():
    # (X^2 + 1) / (X + 1) leaves remainder 2 mod 7; the check must not be
    # an assert, which python -O strips
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from cmcurve.poly import _pdiv_exact\n"
        "from cmcurve.errors import DomainError\n"
        "try:\n"
        "    q = _pdiv_exact([1, 0, 1], [1, 1], 7)\n"
        "except DomainError:\n"
        "    print('raised')\n"
        "else:\n"
        "    print('returned', q)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout == "raised\n"


G59_MOD_N = (12061, 68608, 3136, 1)  # G_-59 = X^3 + 3136X^2 + 68608X + 720896


def test_gamma2_lift_d59_and_its_root_cubes_to_j():
    disc = discriminant(-59)
    shards = build_shards(disc, find_crt_primes(disc, gamma2=True).primes)
    G = lift_shards(shards, N59, gamma2=True)
    assert G.coeffs == G59_MOD_N
    # 141767 = 2 (mod 3): cubing permutes F_n, and the roots cube to H's
    roots = find_all_roots(G, N59)
    assert sorted(pow(r, 3, N59) for r in roots) == [4160, 118481, 129716]
    assert find_root_mod_n(G, N59, power=3) == 4160
    assert find_root_mod_n(G, N59) == min(roots)


def test_gamma2_root_step_agrees_with_the_j_lift_when_n_is_1_mod_3():
    # cubing is 3-to-1 on F_n*, yet the cubes of G's roots are H's roots;
    # n = 1 (mod 3) needs d = 1 (mod 3), here 523, and 3 | t
    t = next(t for t in range(1005, 3001, 6) if is_prime((t * t + 523) // 4))
    n = (t * t + 523) // 4
    assert n % 3 == 1
    result = construct_curve(n, n + 1 - t)
    assert len(result.primes_used) == 7
    assert result.j == find_root_mod_n(hilbert_mod_n(discriminant(-523), n), n)
    assert point_count_naive(result.curve) == n + 1 - t


def test_construct_curve_keeps_the_j_lift_when_3_divides_d():
    # D = -51: 3 | d, so gamma_2 is no class invariant
    t = next(t for t in range(1001, 2001, 2) if is_prime((t * t + 51) // 4))
    n = (t * t + 51) // 4
    result = construct_curve(n, n + 1 - t)
    disc = discriminant(-51)
    assert result.D == -51
    assert result.primes_used == tuple(cp.p for cp in find_crt_primes(disc).primes)
    assert hilbert_mod_n(disc, n).evaluate(result.j) == 0
    assert point_count_naive(result.curve) == n + 1 - t


# The spare-prime certificate, on both invariants.
CERT_D = [-59, -83, -131, -523, -2083]
CERT_N = 1000003


@pytest.fixture(scope="module")
def cert_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("cert_shards")


def _cert_shards(D, gamma2, cache):
    disc = discriminant(D)
    return build_shards(
        disc, find_crt_primes(disc, gamma2=gamma2).primes, cache_dir=cache
    )


def _cert_spare(D, gamma2, shards, cache):
    # the shard of the default search's spare prime, past every shard of
    # that search and so past the given ones, which are some of them
    disc = discriminant(D)
    q = find_crt_primes(disc, gamma2=gamma2).spare
    assert q.p > shards[-1].p
    return build_shards(disc, [q], cache_dir=cache)[0]


def _bumped(f):
    return PolyModM(f.modulus, ((f.coeffs[0] + 1) % f.modulus,) + f.coeffs[1:])


@pytest.mark.guard
@pytest.mark.parametrize("gamma2", [False, True], ids=["j", "gamma2"])
@pytest.mark.parametrize("D", CERT_D)
def test_certified_lift_equals_the_plain_lift(D, gamma2, cert_cache):
    shards = _cert_shards(D, gamma2, cert_cache)
    plain = lift_shards(shards, CERT_N, gamma2=gamma2)
    spare = _cert_spare(D, gamma2, shards, cert_cache)
    certified = lift_shards(shards, CERT_N, gamma2=gamma2, spare=spare)
    assert certified == plain


def test_certificate_builds_the_next_shard_of_the_search(cert_cache, monkeypatch):
    # the j lift of hilbert_mod_n and the gamma_2 lift of construct_curve
    # each ask for their shards, then for the next prime of the same search
    asked = []
    real = cm.build_shards

    def spy(disc, crt_primes, **kw):
        asked.append([cp.p for cp in crt_primes])
        return real(disc, crt_primes, **kw)

    monkeypatch.setattr(cm, "build_shards", spy)
    hilbert_mod_n(discriminant(-59), CERT_N)
    result = construct_curve(141767, 142521, cache_dir=cert_cache)
    assert asked == [
        [17, 71, 197, 521, 827, 1907, 3797, 5417, 5867], [17, 71, 197, 521, 827]
    ]
    assert result.primes_used == (17, 71, 197, 521)  # the spare is not among them


@pytest.mark.guard
def test_certificate_refuses_a_spare_from_the_basis(cert_cache):
    # a lift to a basis prime returns that prime's residue: no check at all
    shards = _cert_shards(-59, True, cert_cache)
    with pytest.raises(ValueError, match="spare prime 71 is a basis prime"):
        lift_shards(shards, CERT_N, gamma2=True, spare=shards[1])


@pytest.mark.guard
@pytest.mark.parametrize(
    "Ds", [(-59, -83), (-83, -59), (-131, -59), (-59, -131)],
    ids=["D59-D83", "D83-D59", "D131-D59", "D59-D131"],
)
def test_lift_refuses_shards_of_two_discriminants(Ds, cert_cache):
    # -59 and -83 share h = 3, so without the check their shards lift to
    # some polynomial; with the h = 5 shards of -131 first, the lift would
    # index past the coefficients of the h = 3 ones
    shards = [s for D in Ds for s in _cert_shards(D, False, cert_cache)]
    with pytest.raises(ValueError, match="shards mix discriminants"):
        lift_shards(shards, CERT_N)


@pytest.mark.guard
def test_lift_refuses_a_spare_of_another_discriminant(cert_cache):
    # D = -83 has h = 3 like -59: its spare shard passes the degree check
    # and would fail the certificate with a misleading message
    shards = _cert_shards(-59, False, cert_cache)
    disc83 = discriminant(-83)
    q = find_crt_primes(disc83).spare
    spare = build_shards(disc83, [q], cache_dir=cert_cache)[0]
    assert spare.p == 3803 and len(shards) == 8
    with pytest.raises(ValueError, match="shards mix discriminants"):
        lift_shards(shards, CERT_N, spare=spare)


@pytest.mark.guard
def test_lift_refuses_shards_of_two_degrees(cert_cache):
    shards = _cert_shards(-59, False, cert_cache)
    js = shards[0].j_set[:2]
    shards[0] = dataclasses.replace(
        shards[0], j_set=js, poly=poly_from_roots(js, shards[0].p)
    )
    with pytest.raises(ValueError, match="shards mix degrees"):
        lift_shards(shards, CERT_N)


@pytest.mark.guard
@pytest.mark.parametrize("gamma2", [False, True], ids=["j", "gamma2"])
def test_certificate_rejects_a_residue_off_by_one(gamma2, cert_cache, monkeypatch):
    shards = _cert_shards(-59, gamma2, cert_cache)
    spare = _cert_spare(-59, gamma2, shards, cert_cache)
    p = shards[1].p
    if gamma2:
        real = cm.gamma2_poly
        monkeypatch.setattr(
            cm, "gamma2_poly", lambda s: _bumped(real(s)) if s.p == p else real(s)
        )
    else:
        shards[1] = dataclasses.replace(shards[1], poly=_bumped(shards[1].poly))
    lift_shards(shards, CERT_N, gamma2=gamma2)  # goes unnoticed
    with pytest.raises(CertificateFailed):
        lift_shards(shards, CERT_N, gamma2=gamma2, spare=spare)


@pytest.mark.guard
@pytest.mark.parametrize("gamma2", [False, True], ids=["j", "gamma2"])
def test_certificate_rejects_a_basis_cut_below_a_coefficient(gamma2, cert_cache):
    shards = _cert_shards(-59, gamma2, cert_cache)
    polys = [gamma2_poly(s) if gamma2 else s.poly for s in shards]
    moduli = [s.p for s in shards]
    top = max(
        abs(crt_integer(moduli, [f.coeffs[i] for f in polys])) for i in range(3)
    )
    # the longest prefix whose (1/2 - epsilon) M falls below that coefficient
    k = max(
        k for k in range(1, len(shards))
        if (0.5 - DEFAULT_EPSILON) * math.prod(moduli[:k]) < top
    )
    spare = _cert_spare(-59, gamma2, shards[:k], cert_cache)
    lift_shards(shards[:k], CERT_N, gamma2=gamma2)  # goes unnoticed
    with pytest.raises(CertificateFailed):
        lift_shards(shards[:k], CERT_N, gamma2=gamma2, spare=spare)


@pytest.mark.parametrize("gamma2", [False, True], ids=["j", "gamma2"])
@pytest.mark.parametrize("D", [-59, -523, -2083])
def test_crt_headroom_stays_above_epsilon(D, gamma2, cert_cache):
    # 1/2 - max|x|/M: the rounding in crt_mod_n is exact only while it is
    # at least epsilon (it reads about 1/2 - 1e-4 for j, 1/2 - 6e-3 for
    # gamma2 at D = -59)
    shards = _cert_shards(D, gamma2, cert_cache)
    polys = [gamma2_poly(s) if gamma2 else s.poly for s in shards]
    moduli = [s.p for s in shards]
    top = max(
        abs(crt_integer(moduli, [f.coeffs[i] for f in polys]))
        for i in range(polys[0].degree)
    )
    assert 0.5 - top / math.prod(moduli) >= DEFAULT_EPSILON
