#!/usr/bin/env python3
"""Exercise the class-number-96 discriminant D = -832603.

By default this prints the form/prime statistics and builds the single
largest shard (p = 1434707), 5-7 CPU-seconds in one process, as one
shard is never split: this build ignores --jobs. With --full-lift it
then runs construct_curve to n = 100959557, which lifts the gamma_2
class polynomial from the 146 shards of its own search (the primes
p = 2 mod 3 up to 539351) and the spare's: about 2 CPU-minutes, built
--jobs K shards at a time (2-core VM, Python 3.11; use --cache to make
the run resumable).

Usage: python scripts/big_classgroup_demo.py [--jobs K] [--cache DIR] [--full-lift]
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmcurve import (  # noqa: E402
    build_shards,
    construct_curve,
    discriminant,
    find_crt_primes,
    point_count_bsgs,
)
from cmcurve.curves import curve_from_j  # noqa: E402

D = -832603
N_TARGET = 100959557  # the field prime n: 4n = t^2 - D with t = 20075


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--cache", type=str, default=None)
    ap.add_argument("--full-lift", action="store_true")
    args = ap.parse_args()

    disc = discriminant(D)
    print(f"D = {D}: h = {disc.h}, log B = {disc.log_B:.2f}")

    prime_set = find_crt_primes(disc)
    big = prime_set.primes[-1]
    print(f"{len(prime_set.primes)} primes, largest {big.p}, "
          f"log product {prime_set.log_product:.2f}")
    print(f"ratios: |S| log d / log B = {prime_set.count_times_logd_over_logB:.3f}, "
          f"max p / (log B)^2 = {prime_set.max_p_over_logB_sq:.3f}")

    print(f"\nbuilding the shard at p = {big.p} (t = {big.t})")
    t0 = time.perf_counter()
    shard = build_shards(disc, [big], cache_dir=args.cache)[0]
    print(f"done in {time.perf_counter() - t0:.1f}s; "
          f"first j = {shard.j_set[0]}, last j = {shard.j_set[-1]}")
    print(f"X^{disc.h - 1} coefficient = {shard.poly.coeffs[-2]}, "
          f"constant = {shard.poly.coeffs[0]}")

    check = curve_from_j(shard.j_set[0], big.p)
    print(f"order of the j = {shard.j_set[0]} curve: "
          f"{point_count_bsgs(check)}"
          f" (p+1-t = {big.p + 1 - big.t}, p+1+t = {big.p + 1 + big.t})")

    if not args.full_lift:
        print("\n--full-lift not set; stopping here.")
        return

    n = N_TARGET
    N = n + 1 + math.isqrt(4 * n + D)  # t^2 = 4n - d
    shards = len(find_crt_primes(disc, gamma2=True).primes)
    print(f"\nfull pipeline: curve over F_{n} with {N} points "
          f"({shards} gamma_2 shards; minutes without a warm cache)")
    t0 = time.perf_counter()
    result = construct_curve(n, N, jobs=args.jobs, cache_dir=args.cache)
    E = result.curve
    print(f"done in {time.perf_counter() - t0:.1f}s")
    print(f"curve: y^2 = x^3 + {E.a4}x + {E.a6} over F_{n} (j = {result.j})")


if __name__ == "__main__":
    main()
