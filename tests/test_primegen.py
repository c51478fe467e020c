import hashlib
import math

import pytest

from cmcurve.arith import is_prime
from cmcurve import primegen
from cmcurve.errors import NoPrimesPossible, SearchLimitExceeded
from cmcurve.primegen import CrtPrime, default_target_log, find_crt_primes
from cmcurve.quadforms import discriminant, is_fundamental

D59_PRIMES = [17, 71, 197, 521, 827, 1907, 3797, 5417]
D59_TRACES = [3, 15, 27, 45, 57, 87, 123, 147]


def test_d59_prime_list():
    disc = discriminant(-59)
    ps = find_crt_primes(disc)
    assert [cp.p for cp in ps.primes] == D59_PRIMES
    assert [cp.t for cp in ps.primes] == D59_TRACES


def test_d59_threshold_includes_final_prime():
    # the product of the first seven falls short of the full threshold
    disc = discriminant(-59)
    ps = find_crt_primes(disc)
    assert sum(math.log(p) for p in D59_PRIMES[:-1]) < ps.target_log
    assert ps.log_product > ps.target_log


def test_big_discriminant_prime_list():
    disc = discriminant(-832603)
    ps = find_crt_primes(disc)
    plist = [cp.p for cp in ps.primes]
    assert len(plist) == 410
    assert plist[:3] == [208207, 208223, 208261]
    assert plist[-1] == 1434707
    assert ps.primes[-1].t == 2215
    assert abs(ps.log_product - 5379.8) < 0.5
    for cp in ps.primes:
        assert 4 * cp.p == cp.t ** 2 + 832603
        assert is_prime(cp.p)


def test_no_primes_when_d_is_7_mod_8():
    with pytest.raises(NoPrimesPossible):
        find_crt_primes(discriminant(-7))
    with pytest.raises(NoPrimesPossible):
        find_crt_primes(discriminant(-23))


def test_determinism():
    disc = discriminant(-59)
    assert find_crt_primes(disc) == find_crt_primes(disc)


def test_search_limit(monkeypatch):
    monkeypatch.setattr(primegen, "_trace_cap", lambda target_log: 5)
    with pytest.raises(SearchLimitExceeded):
        find_crt_primes(discriminant(-59))


def test_default_target_matches_threshold_formula():
    disc = discriminant(-59)
    assert default_target_log(disc) == pytest.approx(disc.log_B - math.log(0.499))


def test_prime_stats_report():
    disc = discriminant(-59)
    ps = find_crt_primes(disc)
    assert len(ps.primes) == 8
    assert ps.primes[-1].p == 5417
    assert ps.count_times_logd_over_logB == pytest.approx(
        8 * math.log(59) / disc.log_B
    )
    assert ps.max_p_over_logB_sq == pytest.approx(5417 / disc.log_B ** 2)


def test_primes_avoid_tiny_and_ramified():
    # d = 3 hits (t, p) = (3, 3), which the search must skip
    ps = find_crt_primes(discriminant(-3))
    assert all(cp.p > 3 and 3 % cp.p != 0 for cp in ps.primes)
    assert [cp.p for cp in ps.primes][0] == 7  # t = 5: (25 + 3)/4


# SHA-256 of the lines "D:p,t p,t ...\n" over the D in the given order, as
# find_crt_primes returned them when log B was still a 64-bit fixed-point sum.
SMALL_D_PRIMES_SHA256 = "76bf2cdb3c55986f795e97ce5a6fae4a8e92347ba8fdd6969e8c2844784de177"
D2083_PRIMES_SHA256 = "1c2295da7d4b7ac829badf63af355ab25b82741ef29306f3f6c482871529834a"
D832603_PRIMES_SHA256 = "a261c5480398603aeb48140d4445e1d4304eab2a4dbda5ec318e1d70fdc2fdc4"
PINNED_LOG_B = {
    -59: 41.31699737642894,
    -523: 107.73846710732833,
    -2083: 200.9573725823437,
    -832603: 5367.3609045348585,
}


def _prime_list_digest(Ds):
    digest = hashlib.sha256()
    for D in Ds:
        ps = find_crt_primes(discriminant(D))
        line = f"{D}:" + " ".join(f"{cp.p},{cp.t}" for cp in ps.primes) + "\n"
        digest.update(line.encode())
    return digest.hexdigest()


@pytest.mark.guard
def test_prime_lists_match_the_recorded_digests():
    small = [-d for d in range(5, 1000) if d % 8 != 7 and is_fundamental(-d)]
    assert len(small) == 200
    assert _prime_list_digest(small) == SMALL_D_PRIMES_SHA256
    assert _prime_list_digest([-2083]) == D2083_PRIMES_SHA256
    assert _prime_list_digest([-832603]) == D832603_PRIMES_SHA256
    ps = find_crt_primes(discriminant(-832603))
    assert len(ps.primes) == 410
    assert ps.primes[-1] == CrtPrime(1434707, 2215)


@pytest.mark.guard
@pytest.mark.parametrize("D", sorted(PINNED_LOG_B))
def test_log_b_matches_the_recorded_value(D):
    assert discriminant(D).log_B == pytest.approx(PINNED_LOG_B[D], rel=1e-12, abs=0)


# The construct workloads' discriminants: the 41 cold ones (perfbench's
# cold_discriminants) and the 3 warm ones. The gamma_2 search covers those
# with 3 not dividing d.
COLD_D = [
    -8, -11, -19, -20, -24, -35, -40, -43, -51, -52, -67, -83, -88, -91,
    -107, -115, -123, -139, -148, -163, -187, -211, -232, -235, -259, -267,
    -283, -307, -331, -355, -379, -403, -427, -499, -547, -643, -667, -715,
    -763, -883, -907,
]
WARM_D = [-59, -523, -2083]
COLD_GAMMA2_PRIMES_SHA256 = "53cbd1659e0c9d0eb08bc1f38ed23b856fc4faf1279a7f9a9e6e6508dbf98991"
WARM_GAMMA2_PRIMES_SHA256 = "d0e258b1fdea32ab73d3bd7823a2bb7ae809a465faf912bd4d5364c3925934ec"


def _gamma2_digest(Ds):
    digest = hashlib.sha256()
    for D in Ds:
        ps = find_crt_primes(discriminant(D), gamma2=True)
        line = f"{D}:" + " ".join(f"{cp.p},{cp.t}" for cp in ps.primes) + "\n"
        digest.update(line.encode())
    return digest.hexdigest()


@pytest.mark.guard
def test_gamma2_prime_lists_match_the_recorded_digests():
    cold = [D for D in COLD_D if D % 3]
    assert len(cold) == 37
    assert _gamma2_digest(cold) == COLD_GAMMA2_PRIMES_SHA256
    assert _gamma2_digest(WARM_D) == WARM_GAMMA2_PRIMES_SHA256
    assert sum(
        cp.p
        for D in COLD_D
        for cp in find_crt_primes(discriminant(D), gamma2=D % 3 != 0).primes
    ) == 40757


def test_d59_gamma2_prime_list_and_target():
    disc = discriminant(-59)
    ps = find_crt_primes(disc, gamma2=True)
    assert [(cp.p, cp.t) for cp in ps.primes] == [(17, 3), (71, 15), (197, 27), (521, 45)]
    log_c = math.log(3)  # C(3, 1)
    assert ps.target_log == pytest.approx(
        log_c + (disc.log_B - log_c) / 3 - math.log(0.499)
    )
    assert ps.target_log == default_target_log(disc, gamma2=True)
    assert sum(math.log(p) for p in (17, 71, 197)) < ps.target_log < ps.log_product


@pytest.mark.parametrize("D", [-59, -83, -131, -523, -2083, -832603])
def test_gamma2_primes_are_2_mod_3_in_search_order(D):
    disc = discriminant(D)
    primes = find_crt_primes(disc, gamma2=True).primes
    d = disc.d
    every = [
        CrtPrime((t * t + d) // 4, t)
        for t in range(d % 2 or 2, primes[-1].t + 1, 2)
        if (t * t + d) % 4 == 0 and is_prime((t * t + d) // 4)
    ]
    assert list(primes) == [cp for cp in every if cp.p % 3 == 2]
    for cp in primes:
        assert cp.p % 3 == 2
        # p = 2 (mod 3): 3 does not divide t for d = 1, and divides it for d = 2
        assert (cp.t % 3 == 0) == (disc.d % 3 == 2)


def test_gamma2_search_refuses_3_dividing_d():
    with pytest.raises(ValueError):
        find_crt_primes(discriminant(-51), gamma2=True)


def test_spare_continues_either_search():
    assert find_crt_primes(discriminant(-59)).spare == CrtPrime(5867, 153)
    assert find_crt_primes(discriminant(-59), gamma2=True).spare == CrtPrime(827, 57)
    assert find_crt_primes(discriminant(-832603)).spare == CrtPrime(1436923, 2217)
