"""Opt-in long-running consistency check (hours of CPU).

Builds every shard for D = -832603 and lifts the class polynomial to one
of the basis primes itself, which must reproduce that prime's shard
exactly. Enable with CMCURVE_RUN_LONG=1; shards are cached, so interrupted
runs resume where they stopped (set CM_CACHE_DIR to keep them).
"""

import os

import pytest

from cmcurve.cm import hilbert_mod_n
from cmcurve.classpoly import build_shards
from cmcurve.primegen import find_crt_primes
from cmcurve.quadforms import discriminant

pytestmark = pytest.mark.skipif(
    not os.environ.get("CMCURVE_RUN_LONG"),
    reason="set CMCURVE_RUN_LONG=1 to run the multi-hour consistency check",
)


def test_full_shard_set_lift_reproduces_basis_shard():
    jobs = int(os.environ.get("CMCURVE_JOBS", os.cpu_count() or 1))
    cache = os.environ.get("CM_CACHE_DIR")
    disc = discriminant(-832603)
    prime_set = find_crt_primes(disc)
    assert len(prime_set.primes) == 410
    shards = build_shards(disc, prime_set.primes, jobs=jobs, cache_dir=cache)
    target = shards[-1]
    assert target.p == 1434707
    poly = hilbert_mod_n(disc, target.p, jobs=jobs, cache_dir=cache)
    assert poly.coeffs == target.poly.coeffs
