"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines; every expected value below is frozen from an independent source or
an exhaustive oracle.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from cmcurve.arith import is_prime
from cmcurve.classpoly import build_shards, find_j_invariants, poly_from_roots
from cmcurve.cm import construct_curve, find_all_roots, hilbert_mod_n
from cmcurve.crt import build_basis, crt_integer, crt_mod_n
from cmcurve.curves import (
    curve,
    curve_from_j,
    hasse_interval,
    point_count_bsgs,
    point_count_naive,
)
from cmcurve.primegen import CrtPrime, find_crt_primes
from cmcurve.quadforms import (
    discriminant,
    is_fundamental,
    reduced_forms,
    sum_inverse_a,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

D59_PRIMES = [17, 71, 197, 521, 827, 1907, 3797, 5417]
D59_TRACES = [3, 15, 27, 45, 57, 87, 123, 147]
D59_SHARD_TABLE = {
    17: (5, 12, 12, 1),
    71: (11, 62, 41, 1),
    197: (139, 160, 195, 1),
    521: (510, 379, 206, 1),
    827: (196, 824, 505, 1),
    1907: (1045, 1432, 1262, 1),
    3797: (1584, 1114, 388, 1),
}
H59_INT = [374643194001883136, -140811576541184, 30197678080]
H59_MOD_N = [48400, 73152, 31177]
N59 = 141767

# The 96 j-invariants over F_1434707 whose curves have 1434708 +- 2215
# points (discriminant -832603, trace 2215).
BIG_P = 1434707
BIG_T = 2215
BIG_J_SET = [
    28534, 29664, 39989, 50559, 58497, 61669, 87155, 97333, 120663, 153566,
    158121, 164378, 182440, 199741, 210115, 218108, 219599, 237389, 257474,
    289215, 317239, 333891, 335757, 365925, 381504, 395862, 403801, 449952,
    482780, 485134, 487074, 511916, 527120, 543027, 574978, 583669, 584091,
    585813, 595906, 642664, 644346, 653188, 654512, 655573, 696063, 698345,
    699985, 702445, 705943, 710770, 721309, 738498, 759603, 780978, 795085,
    816076, 821241, 869331, 871700, 889175, 897281, 902226, 923156, 924382,
    980018, 1022428, 1033432, 1057121, 1079631, 1093031, 1101285, 1129437,
    1154957, 1161878, 1175298, 1185913, 1186864, 1199076, 1205398, 1231078,
    1252451, 1279055, 1281872, 1286184, 1312922, 1327236, 1334297, 1352254,
    1352769, 1364919, 1368722, 1381024, 1410659, 1426507, 1428519, 1431597,
]
BIG_COEFF_CHECKS = {
    95: 1163995,
    94: 922656,
    72: 1226509,
    48: 545620,
    21: 952400,
    1: 1127134,
    0: 401105,
}


@contextmanager
def criterion(num, desc, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s, limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


@pytest.fixture(scope="module")
def disc59():
    return discriminant(-59)


@pytest.fixture(scope="module")
def disc_big():
    return discriminant(-832603)


@pytest.fixture(scope="module")
def shards59(disc59):
    return [
        build_shards(disc59, [cp])[0]
        for cp in find_crt_primes(disc59).primes
    ]


def test_criterion_01_forms_and_class_numbers():
    with criterion(1, "reduced forms and class numbers", 1.0):
        forms = reduced_forms(-59)
        assert {(f.a, f.b, f.c) for f in forms} == {
            (1, 1, 15), (3, 1, 5), (3, -1, 5)
        }
        assert len(forms) == 3
        assert discriminant(-832603).h == 96


def test_criterion_02_coefficient_bound():
    with criterion(2, "coefficient bound for D = -832603", 1.0):
        disc = discriminant(-832603)
        s = float(sum_inverse_a(disc))
        assert abs(s - 1.85) <= 0.01
        log_b = disc.log_B
        assert 5360 <= log_b <= 5440


def test_criterion_03_prime_generation(disc59, disc_big):
    with criterion(3, "split prime search for both discriminants", 5.0):
        ps = find_crt_primes(disc59)
        assert [cp.p for cp in ps.primes] == D59_PRIMES
        assert [cp.t for cp in ps.primes] == D59_TRACES
        big = find_crt_primes(disc_big)
        plist = [cp.p for cp in big.primes]
        assert plist[:3] == [208207, 208223, 208261]
        assert CrtPrime(p=1434707, t=2215) in big.primes


def test_criterion_04_small_shards(disc59):
    with criterion(4, "class polynomial shards match the golden rows", 10.0):
        for p, coeffs in D59_SHARD_TABLE.items():
            t = math.isqrt(4 * p - 59)
            shard = build_shards(disc59, [CrtPrime(p=p, t=t)])[0]
            assert shard.poly.coeffs == coeffs, f"shard mismatch at p={p}"


def test_criterion_05_big_shard(disc_big):
    with criterion(5, f"degree-96 shard at p = {BIG_P}", 600.0):
        js = find_j_invariants(disc_big, CrtPrime(p=BIG_P, t=BIG_T))
        assert js == BIG_J_SET
        poly = poly_from_roots(js, BIG_P)
        for degree, value in BIG_COEFF_CHECKS.items():
            assert poly.coeffs[degree] == value, f"coefficient X^{degree}"


def test_criterion_06_modified_crt_lift(shards59):
    with criterion(6, "modified CRT lift and truncation regression", 1.0):
        moduli = [s.p for s in shards59]
        basis = build_basis(moduli, N59, 0.001)
        lifted = [
            crt_mod_n(basis, [s.poly.coeffs[i] for s in shards59])
            for i in range(3)
        ]
        assert lifted == H59_MOD_N
        # seven primes are one short: the constant term must come out wrong
        basis7 = build_basis(moduli[:7], N59, 0.001)
        wrong = crt_mod_n(basis7, [s.poly.coeffs[0] for s in shards59[:7]])
        assert wrong != H59_MOD_N[0]


def test_criterion_07_integer_oracle(shards59):
    with criterion(7, "exact integer reconstruction of the class polynomial", 1.0):
        moduli = [s.p for s in shards59]
        ints = [
            crt_integer(moduli, [s.poly.coeffs[i] for s in shards59])
            for i in range(3)
        ]
        assert ints == H59_INT


def test_criterion_08_end_to_end_construction():
    with criterion(8, "curve over F_141767 with 142521 points", 30.0):
        poly = hilbert_mod_n(discriminant(-59), N59)
        roots = find_all_roots(poly, N59)
        assert 118481 in roots
        result = construct_curve(N59, 142521)
        assert result.j == min(roots)
        assert point_count_naive(result.curve) == 142521
        published = curve_from_j(118481, N59)
        assert (published.a4, published.a6) == (39103, 120580)
        assert point_count_naive(published) == 142521


def test_criterion_09a_crt_oracle_equivalence():
    with criterion(9, "a: modular CRT equals integer CRT on 1000 instances", 60.0):
        primes_pool = [q for q in range(2, 200) if is_prime(q)]
        rng = random.Random(20240801)
        eps = 0.001
        for _ in range(1000):
            k = rng.randrange(1, 8)
            moduli = rng.sample(primes_pool, k)
            M = math.prod(moduli)
            bound = int((0.5 - eps) * M)
            if bound < 2:
                continue
            x = rng.randrange(-bound + 1, bound)
            n = rng.randrange(2, 10 ** 9)
            residues = [x % m for m in moduli]
            assert crt_integer(moduli, residues) == x
            basis = build_basis(moduli, n, eps)
            assert crt_mod_n(basis, residues) == x % n


def test_criterion_09b_hasse_bound_everywhere():
    with criterion(9, "b: every counted curve lies in the Hasse interval", 30.0):
        rng = random.Random(59)
        checked = 0
        while checked < 60:
            p = rng.choice([5, 7, 11, 31, 101, 257, 1009, 65537])
            a4, a6 = rng.randrange(p), rng.randrange(p)
            if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
                continue
            E = curve(p, a4, a6)
            lo, hi = hasse_interval(p)
            assert lo <= point_count_naive(E) <= hi
            checked += 1


def test_criterion_09c_bsgs_equals_naive():
    with criterion(9, "c: order finding equals exhaustive count, 200 curves", 120.0):
        rng = random.Random(1009)
        checked = 0
        while checked < 200:
            p = rng.randrange(500, 1 << 16) | 1
            if not is_prime(p):
                continue
            a4, a6 = rng.randrange(p), rng.randrange(p)
            if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
                continue
            E = curve(p, a4, a6)
            n_bsgs = point_count_bsgs(E)
            assert n_bsgs == point_count_naive(E)
            checked += 1


def test_criterion_09d_random_discriminant_shards():
    with criterion(9, "d: shards for 20 random small discriminants", 120.0):
        rng = random.Random(424242)
        discs = []
        while len(discs) < 20:
            D = -rng.randrange(5, 2000)
            if is_fundamental(D) and (-D) % 8 != 7 and -D > 4:
                discs.append(D)
        from cmcurve.poly import _pgcd

        for D in discs:
            disc = discriminant(D)
            cp = find_crt_primes(disc).primes[0]
            shard = build_shards(disc, [cp])[0]
            assert shard.h == disc.h
            f = list(shard.poly.coeffs)
            fprime = [i * c % cp.p for i, c in enumerate(f)][1:]
            assert _pgcd(f, fprime, cp.p) == [1]  # squarefree
            for j in shard.j_set:
                n_points = point_count_naive(curve_from_j(j, cp.p))
                assert n_points in (cp.p + 1 - cp.t, cp.p + 1 + cp.t)


def test_criterion_09e_byte_identical_reruns(tmp_path):
    with criterion(9, "e: identical invocations give byte-identical output", 60.0):
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [
            sys.executable, "-m", "cmcurve",
            "construct", "-n", str(N59), "-N", "142521", "--json", "--cache", str(tmp_path),
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        doc = json.loads(runs[0])
        assert doc["D"] == "-59"


def test_criterion_10_long_run_is_opt_in():
    pytest.skip(
        "full 410-shard lift for D = -832603 takes about 11 minutes at "
        "CMCURVE_JOBS=2; enable it with "
        "CMCURVE_RUN_LONG=1 pytest tests/test_longrun.py"
    )
