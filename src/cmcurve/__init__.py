"""Construct elliptic curves over prime fields with a prescribed number of
points, assembling the required class polynomial modulo n directly from its
reductions at many small primes."""

from .arith import is_prime, legendre, sqrt_mod_p
from .classpoly import (
    Shard,
    build_shards,
    find_j_invariants,
    gamma2_poly,
    load_shard,
    save_shard,
    shard_path,
)
from .cm import (
    CmParams,
    CurveResult,
    construct_curve,
    derive_cm_params,
    find_root_mod_n,
    hilbert_mod_n,
    lift_shards,
    verify_order,
)
from .crt import CrtBasis, build_basis, crt_integer, crt_mod_n, round_quotient
from .curves import (
    CurveModP,
    Point,
    curve,
    curve_from_j,
    hasse_interval,
    order_filter,
    point_add,
    point_count_bsgs,
    point_count_naive,
    quadratic_twist,
    random_point,
    scalar_mul,
)
from .poly import PolyModM, find_all_roots, poly_from_roots
from .primegen import CrtPrime, PrimeSet, find_crt_primes
from .quadforms import (
    Discriminant,
    QuadForm,
    discriminant,
    is_fundamental,
    reduced_forms,
    sum_inverse_a,
)

__version__ = "0.1.0"
