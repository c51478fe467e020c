#!/usr/bin/env python3
"""Walk the whole pipeline on the D = -59 example and print every stage.

Usage: python scripts/small_pipeline_demo.py [n N]  (defaults 141767 142521)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmcurve import (  # noqa: E402
    build_shards,
    construct_curve,
    crt_integer,
    derive_cm_params,
    find_crt_primes,
    lift_shards,
    point_count_naive,
)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 2 else 141767
    N = int(sys.argv[2]) if len(sys.argv) > 2 else 142521

    params = derive_cm_params(n, N)
    disc = params.disc
    print(f"n = {n}, N = {N} -> t = {params.t}, D = {disc.D}, h = {disc.h}")
    print(f"log B = {disc.log_B:.4f}")
    for f in disc.forms:
        print(f"  form ({f.a}, {f.b}, {f.c})")

    prime_set = find_crt_primes(disc)
    print(f"\n{len(prime_set.primes)} primes, log product "
          f"{prime_set.log_product:.3f} (target {prime_set.target_log:.3f})")

    t0 = time.perf_counter()
    shards = build_shards(disc, prime_set.primes)
    print(f"shards built in {time.perf_counter() - t0:.2f}s")
    for s in shards:
        print(f"  p = {s.p:>6}  t = {s.t:>4}  j = {list(s.j_set)}  "
              f"coeffs = {list(s.poly.coeffs)}")

    moduli = [s.p for s in shards]
    ints = [
        crt_integer(moduli, [s.poly.coeffs[i] for s in shards])
        for i in range(disc.h)
    ]
    print(f"\ninteger class polynomial coefficients (low to high): {ints} + [1]")

    lifted = lift_shards(shards, n)
    print(f"coefficients mod {n}: {list(lifted.coeffs)}")

    if disc.d % 3 and disc.d > 4:
        g_set = find_crt_primes(disc, gamma2=True)
        g_shards = build_shards(disc, g_set.primes)
        spare = build_shards(disc, [g_set.spare])[0]
        g_lifted = lift_shards(g_shards, n, gamma2=True, spare=spare)
        print(f"\ngamma_2 primes {[s.p for s in g_shards]}: G_D mod {n} = "
              f"{list(g_lifted.coeffs)} (certified), as construct lifts it")

    result = construct_curve(n, N)
    E = result.curve
    print(f"\ncurve: y^2 = x^3 + {E.a4}x + {E.a6} over F_{n} (j = {result.j})")
    if n <= 1 << 26:
        print(f"exhaustive count: {point_count_naive(E)} (wanted {N})")


if __name__ == "__main__":
    main()
