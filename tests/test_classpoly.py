import io
import math
import multiprocessing
import os
import random
import re
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from cmcurve import classpoly
from cmcurve.arith import is_prime, legendre
from cmcurve.classpoly import (
    PolyModM,
    Shard,
    _probe,
    _sieve_entry,
    build_shards,
    find_j_invariants,
    gamma2_poly,
    isogeny_table,
    load_shard,
    poly_from_roots,
    save_shard,
    shard_from_json,
    shard_path,
    shard_to_json,
)
from cmcurve.cli import main
from cmcurve.curves import (
    _TABLE_CACHE_MAX,
    curve,
    curve_from_j,
    inverse_table,
    point_count_naive,
)
from cmcurve.errors import WrongCount
from cmcurve.primegen import CrtPrime, find_crt_primes
from cmcurve.quadforms import Discriminant, discriminant

# golden shard table for D = -59: p -> (t, j-invariants, poly low-to-high)
D59_TABLE = {
    17: (3, [2, 7, 13], (5, 12, 12, 1)),
    71: (15, [51, 54, 67], (11, 62, 41, 1)),
    197: (27, [71, 130, 195], (139, 160, 195, 1)),
    521: (45, [103, 366, 367], (510, 379, 206, 1)),
    827: (57, [97, 498, 554], (196, 824, 505, 1)),
    1907: (87, [24, 915, 1613], (1045, 1432, 1262, 1)),
    3797: (123, [70, 958, 2381], (1584, 1114, 388, 1)),
}


def test_poly_from_roots_examples():
    assert poly_from_roots([2, 7, 13], 17).coeffs == (5, 12, 12, 1)
    assert poly_from_roots([51, 54, 67], 71).coeffs == (11, 62, 41, 1)
    assert poly_from_roots([], 97).coeffs == (1,)


def test_poly_from_roots_has_the_roots():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.choice([97, 101, 1009])
        roots = [rng.randrange(m) for _ in range(rng.randrange(1, 8))]
        poly = poly_from_roots(roots, m)
        assert poly.degree == len(roots)
        assert all(poly.evaluate(r) == 0 for r in roots)


def test_polymodm_validation():
    with pytest.raises(ValueError):
        PolyModM(modulus=7, coeffs=(1, 9))
    with pytest.raises(ValueError):
        PolyModM(modulus=7, coeffs=(1, 0))
    assert PolyModM(modulus=7, coeffs=()).degree == -1


@pytest.mark.guard
def test_find_j_invariants_golden_rows():
    disc = discriminant(-59)
    assert find_j_invariants(disc, CrtPrime(17, 3)) == [2, 7, 13]
    assert find_j_invariants(disc, CrtPrime(521, 45)) == [103, 366, 367]


def test_find_j_invariants_without_prefilter_agrees():
    # brute force: exact count of every j in F_197 other than 0 and 1728
    p, t = 197, 27
    brute = [
        j for j in range(1, p)
        if j != 1728 % p
        and point_count_naive(curve_from_j(j, p)) in (p + 1 - t, p + 1 + t)
    ]
    assert find_j_invariants(discriminant(-59), CrtPrime(p, t)) == brute == [71, 130, 195]


def test_probe_passes_every_j_of_its_own_trace_at_every_small_prime():
    # every j of every prime 5 <= p < 400, with t from its exact count
    c_zero = 0
    for p in filter(is_prime, range(5, 400)):
        inv = inverse_table(p)
        for j in range(1, p):
            if j == 1728 % p:
                continue
            t = abs(p + 1 - point_count_naive(curve_from_j(j, p)))
            a4, a6 = _probe(p, t, j, inv)
            assert curve(p, a4, a6).j == j
            c_zero += (1 + a4 + a6) % p == 0
    assert c_zero > 0  # the probe's c = 0 branch was taken


def _isogeny_counts(entry: int) -> dict[int, int]:
    """An isogeny_table entry c2 + 4 c3 + 32 c5 as {l: c_l}."""
    return {2: entry & 3, 3: entry >> 2 & 7, 5: entry >> 5}


def _kronecker(D: int, l: int) -> int:
    if l == 2:
        return 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
    return legendre(D, l)


@pytest.mark.guard
def test_isogeny_table_against_torsion_and_trace_at_every_small_prime():
    # every j != 0, 1728 of every prime 5 <= p < 300: c2 is the number of
    # rational roots of the cubic, c3 that of psi_3 = 3x^4 + 6a4 x^2 +
    # 12a6 x - a4^2, and c_l = 1 + (Delta/l) for l != p not dividing
    # Delta = a^2 - 4p, a the trace from an exact count; _sieve_entry(p, a)
    # must predict the same c_l
    trace_checks = 0
    for p in filter(is_prime, range(5, 300)):
        tbl, xs = isogeny_table(p), range(p)
        for j in range(1, p):
            if j == 1728 % p:
                continue
            k = 1728 - j
            a4, a6 = 3 * j * k % p, 2 * j * k * k % p
            counts = _isogeny_counts(tbl[j])
            assert counts[2] == sum((x * x * x + a4 * x + a6) % p == 0 for x in xs)
            psi3 = ((3 * x * x + 6 * a4) * x * x + 12 * a6 * x - a4 * a4 for x in xs)
            assert counts[3] == sum(v % p == 0 for v in psi3)
            a = p + 1 - point_count_naive(curve(p, a4, a6))
            delta, predicted = a * a - 4 * p, _isogeny_counts(_sieve_entry(p, a))
            for l in (2, 3, 5):
                if l == p:
                    assert counts[l] == predicted[l] == 0, (p, j)
                elif delta % l:
                    assert counts[l] == predicted[l] == 1 + _kronecker(delta, l), (p, j, l)
                    trace_checks += 1
    assert trace_checks > 14000


def test_scan_at_p_5_leaves_out_the_l_5_count():
    # p = 5 splits for D = -19 and -11; X_0(5) tells nothing in
    # characteristic 5, so neither the table nor the wanted entry counts it
    assert all(entry < 32 for entry in isogeny_table(5))
    for D, t in ((-19, 1), (-11, 3)):
        brute = [j for j in (1, 2, 4)
                 if point_count_naive(curve_from_j(j, 5)) in (6 - t, 6 + t)]
        assert find_j_invariants(discriminant(D), CrtPrime(5, t)) == brute
        assert len(brute) == 1


def test_isogeny_tables_are_cached_like_the_other_tables():
    for p in (101, 103, 107, 109, 113):
        isogeny_table(p)
    info = isogeny_table.cache_info()
    assert info.maxsize == inverse_table.cache_info().maxsize == _TABLE_CACHE_MAX
    assert info.currsize <= _TABLE_CACHE_MAX
    assert isogeny_table(17) is isogeny_table(17)


def test_find_j_invariants_rejects_mismatched_prime():
    disc = discriminant(-59)
    with pytest.raises(ValueError):
        find_j_invariants(disc, CrtPrime(17, 5))


@pytest.mark.guard
def test_build_shards_refuses_jobs_below_one_on_a_cached_shard(tmp_path):
    disc, cp = discriminant(-59), CrtPrime(17, 3)
    build_shards(disc, [cp], cache_dir=tmp_path)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        build_shards(disc, [cp], jobs=0, cache_dir=tmp_path)


@pytest.mark.guard
def test_wrong_count_aborts():
    # class number forced wrong: the scan still finds 3 roots, not 4
    fake = Discriminant(D=-59, d=59, h=4, log_B=41.3, forms=())
    with pytest.raises(WrongCount):
        find_j_invariants(fake, CrtPrime(17, 3))


@pytest.mark.guard
def test_build_shard_matches_golden_rows():
    disc = discriminant(-59)
    for p, (t, js, coeffs) in D59_TABLE.items():
        shard = build_shards(disc, [CrtPrime(p, t)])[0]
        assert shard.j_set == tuple(js)
        assert shard.poly.coeffs == coeffs
        assert shard.h == 3


def test_shard_roots_confirmed_by_exact_count():
    disc = discriminant(-59)
    shard = build_shards(disc, [CrtPrime(3797, 123)])[0]
    for j in shard.j_set:
        n = point_count_naive(curve_from_j(j, 3797))
        assert n in (3798 - 123, 3798 + 123)


@pytest.mark.parametrize("D, cp", [
    (-59, CrtPrime(3797, 123)),  # 3 probe survivors, all roots
    (-59, CrtPrime(1907, 87)),  # 5 probe survivors for 3 roots
    (-2083, find_crt_primes(discriminant(-2083), gamma2=True).spare),  # 8 for 7 roots
])
def test_the_scan_counts_each_probe_survivor_once_and_no_order_filter(monkeypatch, D, cp):
    # the scan is sieve, probe, exact count: every j the probe keeps gets
    # one exact count, and the four-point order filter is never called
    def no_filter(E, t):
        raise AssertionError("the scan called order_filter")

    counted, real_count = [], classpoly.point_count_bsgs
    monkeypatch.setattr(classpoly, "order_filter", no_filter)
    monkeypatch.setattr(classpoly, "point_count_bsgs", lambda E: counted.append(E.j) or real_count(E))
    disc, (p, t) = discriminant(D), (cp.p, cp.t)
    shard = build_shards(disc, [cp])[0]
    inv = inverse_table(p)
    survivors = [j for j in classpoly._sieve(p, t) if _probe(p, t, j, inv)]
    assert counted == survivors
    assert set(shard.j_set) <= set(survivors) and shard.h == disc.h
    if D == -59:
        _, js, coeffs = D59_TABLE[p]
        assert shard.j_set == tuple(js) and shard.poly.coeffs == coeffs


def test_shard_poly_is_squarefree():
    disc = discriminant(-59)
    shard = build_shards(disc, [CrtPrime(827, 57)])[0]
    # distinct roots guarantee gcd(f, f') = 1
    from cmcurve.poly import _pgcd

    f = list(shard.poly.coeffs)
    fprime = [(i * c) % 827 for i, c in enumerate(f)][1:]
    assert _pgcd(f, fprime, 827) == [1]


def test_shard_json_roundtrip_is_bit_exact():
    disc = discriminant(-59)
    shard = build_shards(disc, [CrtPrime(71, 15)])[0]
    text = shard_to_json(shard)
    again = shard_from_json(text)
    assert again == shard
    assert shard_to_json(again) == text


def test_shard_json_rejects_corruption():
    disc = discriminant(-59)
    shard = build_shards(disc, [CrtPrime(71, 15)])[0]
    text = shard_to_json(shard).replace('"51"', '"52"')
    with pytest.raises(ValueError):
        shard_from_json(text)


def test_shard_cache_layout_and_reload(tmp_path):
    disc = discriminant(-59)
    shard = build_shards(disc, [CrtPrime(17, 3)])[0]
    path = save_shard(shard, tmp_path)
    assert path == tmp_path / "D59" / "p17.json"
    assert load_shard(path) == shard


@pytest.mark.guard
@pytest.mark.parametrize(
    "j_set, t",
    [
        ((70, 900, 2381), 123),
        ((70, 907, 2381), 123),
        ((70, 70, 2381), 123),
        ((70, 958, 2381), 125),
    ],
)
def test_load_shard_rejects_a_forged_shard(tmp_path, j_set, t):
    # D = -59, p = 3797 has roots (70, 958, 2381) and t = 123; each forged
    # file agrees with itself, since its coefficients are rewritten to match
    p = 3797
    for j in set(j_set) - {70, 958, 2381}:
        assert point_count_naive(curve_from_j(j, p)) not in (p + 1 - t, p + 1 + t)
    forged = Shard(D=-59, p=p, t=t, j_set=j_set, poly=poly_from_roots(j_set, p))
    path = save_shard(forged, tmp_path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_shard(path)


@pytest.mark.guard
def test_load_check_refuses_every_probe_survivor_that_is_no_root(tmp_path, capsys):
    # a cached j must pass the scan's exact count, not only its probe: each
    # j that the probe lets through at p = 3797 without being a root, put in
    # the place of the root 70 among D = -59's eight cached shards, is
    # refused by every way in to the cache, and nothing is printed
    p, t, roots, disc = 3797, 123, (70, 958, 2381), discriminant(-59)
    inv = inverse_table(p)
    survivors = [j for j in range(1, p) if j != 1728 % p and _probe(p, t, j, inv)]
    fakes = [j for j in survivors if j not in roots]
    assert len(survivors) == 16 and len(fakes) == 13  # the probe rejects the rest
    cache = tmp_path / "cache"
    build_shards(disc, find_crt_primes(disc).primes, cache_dir=cache)
    path = shard_path(cache, disc.D, p)
    commands = (
        ["hdmodp", "-D", "-59", "-p", str(p), "--cache", str(cache)],
        ["lift", "--shards", str(cache), "-n", "141767"],
    )
    for j in fakes:
        assert point_count_naive(curve_from_j(j, p)) not in (p + 1 - t, p + 1 + t)
        js = tuple(sorted((j, *roots[1:])))
        path.write_text(shard_to_json(Shard(-59, p, t, js, poly_from_roots(js, p))))
        refusal = f"cached shard {path}: j = {j} is not a root mod {p}"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            load_shard(path)
        with pytest.raises(ValueError, match=re.escape(refusal)):
            build_shards(disc, [CrtPrime(p, t)], cache_dir=cache)
        for argv in commands:
            out = io.StringIO()
            assert main(argv, out=out) == 1, argv
            assert out.getvalue() == ""
            assert refusal in capsys.readouterr().err


@pytest.mark.guard
@pytest.mark.parametrize(
    "D, p, t", [(-59, 15, 1), (-59, 21, 5), (-59, 35, 9), (-59, 45, 11), (-59, 57, 13),
                (-4, 2, 2), (-3, 3, 3)],
)
def test_load_shard_refuses_a_field_that_is_no_prime_above_3(tmp_path, monkeypatch, D, p, t):
    # 4p = t^2 - D holds, but no point count may run over such a p
    counted = []
    monkeypatch.setattr(classpoly, "point_count_bsgs", lambda E: counted.append(E) or 0)
    path = save_shard(Shard(D, p, t, (1,), poly_from_roots((1,), p)), tmp_path)
    refusal = f"cached shard {path}: p = {p} is not a prime greater than 3"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        load_shard(path)
    assert counted == []


@pytest.mark.guard
def test_load_shard_names_a_file_whose_field_is_above_the_count_cap(tmp_path):
    # a prime p > 2^72 with 4p = t^2 + 59: the count's TooLarge names the file
    t = math.isqrt(1 << 74) | 1
    while not is_prime((t * t + 59) // 4):
        t += 2
    p = (t * t + 59) // 4
    path = save_shard(Shard(-59, p, t, (2, 7, 13), poly_from_roots((2, 7, 13), p)), tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"cached shard {path}: p = {p} exceeds")):
        load_shard(path)


def test_load_shard_checks_a_big_shard_without_an_inverse_table(tmp_path, monkeypatch):
    # the h = 96 exact counts of a load must not build the O(p) scan tables
    from test_acceptance import BIG_J_SET, BIG_P, BIG_T

    built, counted = [], []
    real_inverse, real_count = classpoly.inverse_table, classpoly.point_count_bsgs
    real_isogeny = classpoly.isogeny_table
    monkeypatch.setattr(classpoly, "inverse_table", lambda p: built.append(p) or real_inverse(p))
    monkeypatch.setattr(classpoly, "isogeny_table", lambda p: built.append(p) or real_isogeny(p))
    monkeypatch.setattr(classpoly, "point_count_bsgs", lambda E: counted.append(E.j) or real_count(E))
    js = tuple(BIG_J_SET)
    shard = Shard(D=-832603, p=BIG_P, t=BIG_T, j_set=js, poly=poly_from_roots(js, BIG_P))
    classpoly._checked_shard.cache_clear()  # a check remembered from before proves nothing
    assert load_shard(save_shard(shard, tmp_path)) == shard
    assert counted == BIG_J_SET
    assert built == []


@pytest.mark.guard
def test_load_shard_rechecks_a_file_rewritten_in_place(tmp_path):
    # the check is remembered per file text: a forged file of the same
    # length and mtime at the same path must be checked afresh
    cp = CrtPrime(3797, 123)
    shard = build_shards(discriminant(-59), [cp])[0]
    path = save_shard(shard, tmp_path)
    assert load_shard(path) == shard
    stat, size = path.stat(), len(path.read_text())
    forgeries = (
        Shard(D=-59, p=cp.p, t=cp.t, j_set=js, poly=poly_from_roots(js, cp.p))
        for js in ((70, j, 2381) for j in range(900, 958))
    )
    forged = next(f for f in forgeries if len(shard_to_json(f)) == size)
    orders = (cp.p + 1 - cp.t, cp.p + 1 + cp.t)
    assert point_count_naive(curve_from_j(forged.j_set[1], cp.p)) not in orders
    path.write_text(shard_to_json(forged))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_shard(path)


@pytest.mark.guard
def test_build_shards_rejects_a_cached_shard_with_a_dropped_root(tmp_path):
    disc, cp = discriminant(-59), CrtPrime(3797, 123)
    shard = build_shards(disc, [cp])[0]
    save_shard(shard, tmp_path)
    assert build_shards(disc, [cp], cache_dir=tmp_path) == [shard]
    js = shard.j_set[:2]
    dropped = Shard(D=-59, p=cp.p, t=cp.t, j_set=js, poly=poly_from_roots(js, cp.p))
    path = save_shard(dropped, tmp_path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        build_shards(disc, [cp], cache_dir=tmp_path)


def test_build_shards_uses_cache(tmp_path):
    disc = discriminant(-59)
    ps = find_crt_primes(disc)
    first = build_shards(disc, ps.primes, cache_dir=tmp_path)
    stamp = [shard_path(tmp_path, disc.D, cp.p).stat().st_mtime_ns for cp in ps.primes]
    second = build_shards(disc, ps.primes, cache_dir=tmp_path)
    stamp2 = [shard_path(tmp_path, disc.D, cp.p).stat().st_mtime_ns for cp in ps.primes]
    assert first == second
    assert stamp == stamp2  # untouched on the second pass


def _cache_files(cache_dir) -> dict:
    return {f.name: f.read_bytes() for f in sorted(Path(cache_dir).rglob("*")) if f.is_file()}


def _stamps(cache_dir) -> dict:
    return {f.name: f.stat().st_mtime_ns for f in Path(cache_dir).rglob("*.json")}


def test_build_shards_parallel_matches_serial(tmp_path):
    # eight uncached primes and two workers: every shard is a pool task
    disc = discriminant(-59)
    primes = find_crt_primes(disc).primes
    serial = build_shards(disc, primes, jobs=1, cache_dir=tmp_path / "serial")
    parallel = build_shards(disc, primes, jobs=2, cache_dir=tmp_path / "parallel")
    assert serial == parallel
    assert [s.p for s in parallel] == sorted(cp.p for cp in primes)
    files = _cache_files(tmp_path / "serial")
    assert len(files) == len(primes)
    assert _cache_files(tmp_path / "parallel") == files


def test_build_shards_pool_builds_only_the_uncached_primes(tmp_path):
    disc = discriminant(-59)
    primes = find_crt_primes(disc).primes
    serial = build_shards(disc, primes)
    build_shards(disc, primes[::2], cache_dir=tmp_path)
    cached = _stamps(tmp_path)
    assert len(cached) == 4
    assert build_shards(disc, primes, jobs=2, cache_dir=tmp_path) == serial
    stamps = _stamps(tmp_path)
    assert {name: stamps[name] for name in cached} == cached
    assert set(stamps) == {f"p{cp.p}.json" for cp in primes}


# a patch of find_j_invariants reaches pool workers only when they fork
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="pool workers do not fork"
)


def _fail_at(monkeypatch, p, started=None):
    """find_j_invariants raising WrongCount at p; forked pool workers
    inherit the patch. With started, every call first leaves a file there
    and every other prime waits half a second."""
    real = classpoly.find_j_invariants

    def patched(disc, cp):
        if started is not None:
            (started / str(cp.p)).touch()
        if cp.p == p:
            raise WrongCount(f"forced at p = {p}")
        if started is not None:
            time.sleep(0.5)
        return real(disc, cp)

    monkeypatch.setattr(classpoly, "find_j_invariants", patched)


@needs_fork
def test_build_shards_pool_failure_keeps_the_saved_shards_for_a_rerun(tmp_path, monkeypatch):
    disc = discriminant(-59)
    primes = find_crt_primes(disc).primes
    serial = {s.p: s for s in build_shards(disc, primes)}
    bad = primes[3].p
    with monkeypatch.context() as patch:
        _fail_at(patch, bad)
        with pytest.raises(WrongCount, match=f"forced at p = {bad}"):
            build_shards(disc, primes, jobs=2, cache_dir=tmp_path)
    assert not shard_path(tmp_path, disc.D, bad).exists()
    for f in Path(tmp_path).rglob("*.json"):
        shard = load_shard(f)
        assert shard == serial[shard.p]
    before = _stamps(tmp_path)
    assert build_shards(disc, primes, jobs=2, cache_dir=tmp_path) == sorted(
        serial.values(), key=lambda s: s.p)
    after = _stamps(tmp_path)
    assert {name: after[name] for name in before} == before
    assert len(after) == len(primes)


@needs_fork
def test_build_shards_pool_failure_cancels_the_queued_shards(tmp_path, monkeypatch):
    # the smallest prime fails at once while every other task takes half a
    # second: the error comes out before two workers could reach the last
    # primes, and they never start
    disc = discriminant(-59)
    primes = find_crt_primes(disc).primes
    started = tmp_path / "started"
    started.mkdir()
    _fail_at(monkeypatch, primes[0].p, started)
    with pytest.raises(WrongCount):
        build_shards(disc, primes, jobs=2, cache_dir=tmp_path / "cache")
    assert str(primes[0].p) in {f.name for f in started.iterdir()}
    assert len(list(started.iterdir())) < len(primes)


def test_build_shards_pool_has_at_most_one_worker_per_missing_shard(monkeypatch):
    # a stand-in pool records its size and runs each task at once, so a
    # huge jobs starts no process
    sizes = []

    class InlinePool:
        def __init__(self, workers):
            sizes.append(workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(classpoly, "ProcessPoolExecutor", InlinePool)
    disc = discriminant(-59)
    primes = find_crt_primes(disc).primes[:3]
    assert build_shards(disc, primes, jobs=10**6) == build_shards(disc, primes)
    assert sizes == [3]
    build_shards(disc, primes[:1], jobs=10**6)
    assert sizes == [3]  # one missing shard is built in this process


def test_build_shards_saves_each_shard_before_the_next(tmp_path, monkeypatch):
    disc = discriminant(-59)
    primes = find_crt_primes(disc).primes
    real = classpoly.find_j_invariants

    def fail_at_fourth(disc, cp):
        if cp.p == primes[3].p:
            raise WrongCount("interrupted")
        return real(disc, cp)

    monkeypatch.setattr(classpoly, "find_j_invariants", fail_at_fourth)
    with pytest.raises(WrongCount):
        build_shards(disc, primes, cache_dir=tmp_path)
    saved = [shard_path(tmp_path, disc.D, cp.p).exists() for cp in primes]
    assert saved == [True] * 3 + [False] * 5


def test_integer_reconstruction_reduces_back_to_every_shard():
    from cmcurve.crt import crt_integer

    disc = discriminant(-59)
    shards = build_shards(disc, find_crt_primes(disc).primes)
    moduli = [s.p for s in shards]
    ints = [
        crt_integer(moduli, [s.poly.coeffs[i] for s in shards])
        for i in range(disc.h)
    ]
    for s in shards:
        assert tuple(v % s.p for v in ints) == s.poly.coeffs[:-1]


def test_gamma2_poly_takes_the_cube_roots_of_the_shard():
    disc = discriminant(-59)
    for p, (t, js, _) in D59_TABLE.items():
        shard = build_shards(disc, [CrtPrime(p, t)])[0]
        if p % 3 != 2:
            with pytest.raises(ValueError):
                gamma2_poly(shard)
            continue
        g = gamma2_poly(shard)
        roots = [x for x in range(p) if g.evaluate(x) == 0]
        assert len(roots) == 3
        assert sorted(pow(x, 3, p) for x in roots) == js


# Integer class polynomials from shards alone: H_D over the j search's
# primes, G_D (gamma_2 = j^(1/3)) over the gamma_2 search's, both by the
# classic integer CRT.
ORACLE_D = [-59, -83, -131, -523, -2083]
G59_INT = [720896, 68608, 3136, 1]


@pytest.fixture(scope="module")
def oracle_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle_shards")


def _integer_class_poly(disc, gamma2, cache):
    from cmcurve.crt import crt_integer

    primes = find_crt_primes(disc, gamma2=gamma2).primes
    shards = build_shards(disc, primes, cache_dir=cache)
    polys = [gamma2_poly(s) if gamma2 else s.poly for s in shards]
    moduli = [s.p for s in shards]
    return [
        crt_integer(moduli, [f.coeffs[i] for f in polys]) for i in range(disc.h)
    ] + [1]


@pytest.mark.guard
def test_gamma2_class_polynomial_d59(oracle_cache):
    assert _integer_class_poly(discriminant(-59), True, oracle_cache) == G59_INT


@pytest.mark.guard
@pytest.mark.parametrize("D", ORACLE_D)
def test_gamma2_class_polynomial_divides_h_of_x_cubed(D, oracle_cache):
    disc = discriminant(D)
    h = disc.h
    H = _integer_class_poly(disc, False, oracle_cache)
    G = _integer_class_poly(disc, True, oracle_cache)
    # long division of H(X^3) by the monic G over Z
    rem = [0] * (3 * h + 1)
    rem[::3] = H
    for k in range(3 * h, h - 1, -1):
        q = rem[k]
        for i, g in enumerate(G):
            rem[k - h + i] -= q * g
    assert not any(rem)
    # the roots of G cube to those of H, so the constant terms do too, and
    # the constant term is the largest coefficient of either
    assert G[0] ** 3 == H[0]
    height = [math.log(max(abs(c) for c in f)) for f in (G, H)]
    assert height[0] / height[1] == pytest.approx(1 / 3, rel=1e-9)
