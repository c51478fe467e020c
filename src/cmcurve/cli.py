"""Command-line front end.

Subcommands mirror the pipeline stages: forms, primes, hdmodp (one shard),
lift (shards to a polynomial mod n), count, construct and verify.
With --json every integer is emitted as a decimal string so consumers
never hit 64-bit overflow. Identical invocations print identical bytes;
wall-clock timings only appear under --timings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import classpoly, cm, crt, curves, primegen, quadforms
from .arith import is_prime
from .errors import DomainError


def _check_prime(name: str, m: int) -> None:
    if m <= 3 or not is_prime(m):
        raise ValueError(f"{name} = {m} is not a prime greater than 3")


def _emit(doc: dict, as_json: bool, out) -> None:
    """doc as one line of JSON, or as "key: value" lines; a list prints
    space-separated and each list nested in it comma-joined, a dict as
    space-separated key=value."""
    if as_json:
        print(json.dumps(doc, separators=(",", ":")), file=out)
        return
    for key, val in doc.items():
        if isinstance(val, dict):
            val = " ".join(f"{k}={v}" for k, v in val.items())
        elif isinstance(val, list):
            val = " ".join(",".join(v) if isinstance(v, list) else str(v) for v in val)
        print(f"{key}: {val}", file=out)


def _cmd_forms(args, out) -> int:
    disc = quadforms.discriminant(args.D)
    doc = {
        "D": str(disc.D),
        "h": str(disc.h),
        "forms": [[str(f.a), str(f.b), str(f.c)] for f in disc.forms],
        "sum_inv_a": float(quadforms.sum_inverse_a(disc)),
        "log_B": disc.log_B,
    }
    _emit(doc, args.json, out)
    return 0


def _cmd_primes(args, out) -> int:
    disc = quadforms.discriminant(args.D)
    ps = primegen.find_crt_primes(disc)
    doc = {
        "D": str(disc.D),
        "count": str(len(ps.primes)),
        "target_log": ps.target_log,
        "log_product": ps.log_product,
        "max_p": str(ps.primes[-1].p),
        "count_times_logd_over_logB": ps.count_times_logd_over_logB,
        "max_p_over_logB_sq": ps.max_p_over_logB_sq,
        "primes": [[str(cp.p), str(cp.t)] for cp in ps.primes],
    }
    _emit(doc, args.json, out)
    return 0


def _find_crt_prime(disc, p: int) -> primegen.CrtPrime:
    _check_prime("p", p)
    t2 = 4 * p - disc.d
    t = math.isqrt(t2) if t2 > 0 else -1
    if t <= 0 or t * t != t2:
        raise ValueError(f"4*{p} - {disc.d} is not a positive square")
    return primegen.CrtPrime(p=p, t=t)


def _cmd_hdmodp(args, out) -> int:
    disc = quadforms.discriminant(args.D)
    cp = _find_crt_prime(disc, args.p)
    [shard] = classpoly.build_shards(disc, [cp], jobs=args.jobs, cache_dir=args.cache)
    _emit(classpoly.shard_doc(shard), args.json, out)
    return 0


def _load_shard_dir(path: Path) -> list[classpoly.Shard]:
    files = sorted(path.rglob("p*.json"))
    if not files:
        raise ValueError(f"no shard files under {path}")
    shards = [classpoly.load_shard(f) for f in files]
    cm.check_shard_set(shards)
    return sorted(shards, key=lambda s: s.p)


def _cmd_lift(args, out) -> int:
    if not args.integer and args.n is None:
        raise ValueError("lift needs -n unless --integer is given")
    shards = _load_shard_dir(Path(args.shards))
    h = shards[0].h
    log_m = math.fsum(math.log(s.p) for s in shards)
    bound = primegen.default_target_log(quadforms.discriminant(shards[0].D))
    if log_m < bound:  # the lift would be some other polynomial, in either mode
        raise ValueError(f"shards reach log M = {log_m:.4f}, below the bound {bound:.4f}")
    if args.integer:
        moduli = [s.p for s in shards]
        ints = [
            crt.crt_integer(moduli, [s.poly.coeffs[i] for s in shards])
            for i in range(h)
        ]
        doc = {
            "D": str(shards[0].D),
            "degree": str(h),
            "coeffs_signed": [str(v) for v in ints] + ["1"],
        }
    else:
        poly = cm.lift_shards(shards, args.n)
        doc = {
            "D": str(shards[0].D),
            "n": str(args.n),
            "degree": str(h),
            "coeffs": [str(v) for v in poly.coeffs],
        }
    _emit(doc, args.json, out)
    return 0


def _cmd_count(args, out) -> int:
    _check_prime("p", args.p)
    E = curves.curve_from_j(args.j, args.p)
    if args.p <= curves.EXHAUSTIVE_COUNT_MAX:
        n_points = curves.point_count_naive(E)
    else:
        n_points = curves.point_count_bsgs(E)
    doc = {
        "p": str(args.p),
        "j": str(E.j),
        "a4": str(E.a4),
        "a6": str(E.a6),
        "points": str(n_points),
    }
    _emit(doc, args.json, out)
    return 0


def _cmd_construct(args, out) -> int:
    result = cm.construct_curve(args.n, args.N, jobs=args.jobs, cache_dir=args.cache)
    doc = {
        "n": str(args.n),
        "N": str(args.N),
        "t": str(result.t),
        "D": str(result.D),
        "h": str(result.h),
        "j": str(result.j),
        "a4": str(result.curve.a4),
        "a6": str(result.curve.a6),
        "primes_used": [str(p) for p in result.primes_used],
    }
    if args.timings:
        doc["wall_times"] = {k: round(v, 6) for k, v in result.timings.items()}
    _emit(doc, args.json, out)
    return 0


def _cmd_verify(args, out) -> int:
    _check_prime("n", args.n)
    E = curves.curve(args.n, args.a4, args.a6)
    ok = cm.verify_order(E, args.N)
    doc = {
        "n": str(args.n),
        "N": str(args.N),
        "a4": str(E.a4),
        "a6": str(E.a6),
        "verified": ok,
    }
    _emit(doc, args.json, out)
    return 0 if ok else 1


def _add_common(sub, *, jobs=False, cache=False):
    if jobs:
        sub.add_argument("--jobs", type=int, default=1)
    if cache:
        sub.add_argument("--cache", type=str, default=None)
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmcurve",
        description="Construct elliptic curves over F_n with a prescribed point count.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("forms", help="reduced quadratic forms, h and log B")
    s.add_argument("-D", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_forms)

    s = subs.add_parser("primes", help="split primes 4p = t^2 + d")
    s.add_argument("-D", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_primes)

    s = subs.add_parser("hdmodp", help="class polynomial shard at one prime")
    s.add_argument("-D", type=int, required=True)
    s.add_argument("-p", type=int, required=True)
    _add_common(s, jobs=True, cache=True)
    s.set_defaults(func=_cmd_hdmodp)

    s = subs.add_parser("lift", help="combine shards into the polynomial mod n")
    s.add_argument("--shards", type=str, required=True)
    s.add_argument("-n", type=int)
    s.add_argument("--integer", action="store_true",
                   help="reconstruct signed integer coefficients instead")
    _add_common(s)
    s.set_defaults(func=_cmd_lift)

    s = subs.add_parser("count", help="point count for the curve with a given j")
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-j", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_count)

    s = subs.add_parser("construct", help="curve over F_n with exactly N points")
    s.add_argument("-n", type=int, required=True)
    s.add_argument("-N", type=int, required=True)
    s.add_argument("--timings", action="store_true")
    _add_common(s, jobs=True, cache=True)
    s.set_defaults(func=_cmd_construct)

    s = subs.add_parser("verify", help="check a curve has the claimed order")
    s.add_argument("-n", type=int, required=True)
    s.add_argument("-N", type=int, required=True)
    s.add_argument("--a4", type=int, required=True)
    s.add_argument("--a6", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (DomainError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
