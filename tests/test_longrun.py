"""Opt-in long-running consistency check (tens of CPU-minutes).

Builds every shard for D = -832603 (h = 96) and lifts both class
polynomials of the 27-bit example prime n = 100959557 with the spare-prime
certificate: H_D over the 410 primes of the j search, checked at
q = 1436923, and the gamma_2 polynomial G_D over the 146 primes
p = 2 (mod 3) of its search, checked at the next such prime. The cubes of
the roots of G_D mod n must then be the roots of H_D mod n. Enable with
CMCURVE_RUN_LONG=1; shards are cached, so interrupted runs resume where
they stopped (set CM_CACHE_DIR to keep them).
"""

import os

import pytest

from cmcurve.classpoly import build_shards
from cmcurve.cm import find_all_roots, lift_shards
from cmcurve.primegen import find_crt_primes
from cmcurve.quadforms import discriminant

pytestmark = pytest.mark.skipif(
    not os.environ.get("CMCURVE_RUN_LONG"),
    reason="set CMCURVE_RUN_LONG=1 to run the long consistency check",
)

N = 100959557  # 4N = 20075^2 + 832603


def test_certified_j_and_gamma2_lifts_agree_at_n():
    jobs = int(os.environ.get("CMCURVE_JOBS", os.cpu_count() or 1))
    cache = os.environ.get("CM_CACHE_DIR")
    disc = discriminant(-832603)
    j_set = find_crt_primes(disc)
    g_set = find_crt_primes(disc, gamma2=True)
    j_primes, g_primes = j_set.primes, g_set.primes
    assert (len(j_primes), j_primes[-1].p) == (410, 1434707)
    assert (len(g_primes), g_primes[-1].p) == (146, 539351)
    assert set(g_primes) <= set(j_primes)

    def spare(prime_set):
        return build_shards(disc, [prime_set.spare], jobs=jobs, cache_dir=cache)[0]

    shards = build_shards(disc, j_primes, jobs=jobs, cache_dir=cache)
    H = lift_shards(shards, N, spare=spare(j_set))
    g_shards = [s for s in shards if s.p % 3 == 2 and s.p <= g_primes[-1].p]
    assert [s.p for s in g_shards] == [cp.p for cp in g_primes]
    G = lift_shards(g_shards, N, gamma2=True, spare=spare(g_set))
    h_roots = find_all_roots(H, N)
    assert len(h_roots) == 96
    assert sorted(pow(r, 3, N) for r in find_all_roots(G, N)) == h_roots
