"""Per-prime class polynomial shards.

For a prime p with 4p = t^2 + d, exactly h of the j-invariants over F_p
belong to curves with p + 1 - t or p + 1 + t points. The scan tries every
j other than 0 and 1728 on the model y^2 = x^3 + a4 x + a6 with
k = 1728 - j, a4 = 3jk and a6 = 2jk^2, a twist of the `curve_from_j` model
that needs no inversion. Twists swap p + 1 - t and p + 1 + t, so each test
below may work on any twist:

- an isogeny-count sieve, one lookup in the p-entry isogeny_table(p). As
  D = t^2 - 4p is fundamental, a curve of trace +-t has exactly
  1 + (D/l) rational l-isogenies for every prime l != p (Kohel, PhD
  thesis, 1996); the table counts them for l = 2, 3, 5 as the points of
  X_0(l) above j; about 7 % of all j go on;
- a one-point probe with no random numbers and no square root.
  With c = 1 + a4 + a6, Q = (c, c^2) lies on the twist by c,
  y^2 = x^3 + a4 c^2 x + a6 c^3, and x([p+1]Q) = x([t]Q) holds iff
  p + 1 - t or p + 1 + t kills Q. For c = 0, (1, 0) has order 2 and the
  j goes on untested. Both multiples come from an affine double-and-add
  that reads each inverse from the p-entry inverse_table(p), so an
  inversion costs one lookup;
- the four-point order filter and an exact count for the few survivors.
  Both draw their points from fixed streams keyed on (p, j), and every j
  kept is confirmed by the exact count, so a shard depends only on
  (D, p, t).

The h roots assemble into the monic shard polynomial prod (X - j) mod p
(poly.poly_from_roots), which later gets lifted coefficient by coefficient.
A cached shard is checked on load by the scan's last step, the exact
count of each j's scan model, once per distinct file text in a process;
h counts in all, and no O(p) table.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from pathlib import Path

from .arith import is_prime, legendre
from .curves import (
    _TABLE_CACHE_MAX,
    CurveModP,
    _x_mul,
    inverse_table,
    order_filter,
    point_count_bsgs,
)
# unused here; perfbench/spans.py rebinds it on classpoly
from .curves import point_count_naive
from .errors import DomainError, WrongCount
from .poly import PolyModM, poly_from_roots
from .primegen import CrtPrime
from .quadforms import Discriminant


@dataclass(frozen=True)
class Shard:
    """The per-prime artifact: j-invariants and their product polynomial."""

    D: int
    p: int
    t: int
    j_set: tuple[int, ...]
    poly: PolyModM

    @property
    def h(self) -> int:
        return len(self.j_set)


# ---------------------------------------------------------------------------
# j-invariant scan
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_TABLE_CACHE_MAX)
def isogeny_table(p: int) -> bytearray:
    """Entry j is c2 + 4 c3 + 32 c5, where c_l counts the h in F_p* with
    j_l(h) = j for the hauptmoduln j_2 = (h + 16)^3/h,
    j_3 = (h + 27)(h + 3)^3/h and j_5 = (h^2 + 10h + 5)^3/h of X_0(l).
    For j != 0, 1728 and l != p, c_l is the number of rational l-isogenies
    of a curve with invariant j. The l = 5 term is left out at p = 5. As
    c2 <= 3, c3 <= 4 and c5 <= 6, an entry fits a byte. Cached per process
    like inverse_table, whose entries give each 1/h."""
    inv, tbl, w5 = inverse_table(p), bytearray(p), 32 if p != 5 else 0
    for h in range(1, p):
        i, hh = inv[h], h * h
        tbl[(hh + 48 * h + 768 + 4096 * i) % p] += 1
        tbl[((hh + 36 * h + 270) * h + 756 + 729 * i) % p] += 4
        s = hh + 10 * h + 5
        tbl[s * s * s * i % p] += w5
    return tbl


def _sieve_entry(p: int, t: int) -> int:
    """The isogeny_table(p) entry of every j whose curves have p + 1 +- t
    points, given that D = t^2 - 4p is fundamental: 1 + (D/l) for each l,
    with the Kronecker symbol (D/2) read from D mod 8."""
    D = t * t - 4 * p
    entry = 1 + (0, 1, 0, -1, 0, -1, 0, 1)[D % 8] + 4 * (1 + legendre(D, 3))
    return entry if p == 5 else entry + 32 * (1 + legendre(D, 5))


def _sieve(p: int, t: int):
    """The j other than 0 and 1728 that pass the isogeny-count sieve, in
    ascending order."""
    select, j1728 = bytearray(256), 1728 % p
    select[_sieve_entry(p, t)] = 1
    mask = isogeny_table(p).translate(select)
    return (j for j in compress(range(p), mask) if j and j != j1728)


def _scan_model(p: int, j: int) -> tuple[int, int]:
    """(a4, a6) = (3jk, 2jk^2) mod p with k = 1728 - j."""
    k = 1728 - j
    return 3 * j * k % p, 2 * j * k * k % p


def _probe(p: int, t: int, j: int, inv) -> tuple[int, int] | None:
    """The scan model of j != 0, 1728 if it passes the one-point probe, or
    None: then no twist of it has p + 1 +- t points. inv is
    inverse_table(p)."""
    a4, a6 = _scan_model(p, j)
    c = (1 + a4 + a6) % p
    if c:
        a4c, cc = a4 * c * c % p, c * c % p
        if _x_mul(p, a4c, c, cc, p + 1, inv) != _x_mul(p, a4c, c, cc, t, inv):
            return None
    return a4, a6


def _has_trace(E: CurveModP, t: int) -> bool:
    """Whether #E is p + 1 - t or p + 1 + t, by an exact count: the one
    test of a root, for the scan and for a cached shard alike."""
    return point_count_bsgs(E) in (E.p + 1 - t, E.p + 1 + t)


def _scan_range(p: int, t: int) -> list[int]:
    """Confirmed j-invariants whose curve order is p + 1 +- t, ascending."""
    inv, out = inverse_table(p), []
    for j in _sieve(p, t):
        model = _probe(p, t, j, inv)
        if model is None:
            continue
        E = CurveModP(p, *model, j)
        if order_filter(E, t) and _has_trace(E, t):
            out.append(j)
    return out


def check_jobs(jobs: int) -> None:
    """The shard pool needs at least one worker."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")


def find_j_invariants(disc: Discriminant, cp: CrtPrime) -> list[int]:
    """The h j-invariants over F_p whose curves have p + 1 +- t points.

    Every survivor of the probabilistic filter is confirmed with an exact
    count, so the result is exact and ascending; any number other than h
    raises WrongCount. It reads isogeny_table(p) and inverse_table(p).
    """
    p, t = cp.p, cp.t
    if 4 * p != t * t + disc.d:
        raise ValueError(f"prime {p} with trace {t} does not match d = {disc.d}")
    if disc.d <= 4:
        raise ValueError("d <= 4 is handled by the special curve models")
    found = _scan_range(p, t)
    if len(found) != disc.h:
        raise WrongCount(
            f"{len(found)} j-invariants survive for p = {p}, expected h = {disc.h}"
        )
    return found


def gamma2_poly(shard: Shard) -> PolyModM:
    """The shard's reduction of the gamma_2 = j^(1/3) class polynomial G_D.

    For p = 2 (mod 3) cubing permutes F_p, so the roots of G_D mod p are
    the unique cube roots j^((2p - 1)/3) of the shard's j: their cubes are
    j^(2(p - 1) + 1) = j. For 3 | d, gamma_2 is no class invariant.
    """
    p = shard.p
    if shard.D % 3 == 0:
        raise ValueError(f"gamma_2 is no class invariant for 3 | D = {shard.D}")
    if p % 3 != 2:
        raise ValueError(f"cube roots mod {p} are not unique: p != 2 (mod 3)")
    e = (2 * p - 1) // 3
    return poly_from_roots([pow(j, e, p) for j in shard.j_set], p)


# ---------------------------------------------------------------------------
# Shard persistence
# ---------------------------------------------------------------------------


def shard_doc(shard: Shard) -> dict:
    """The shard as a document with every integer as a decimal string."""
    return {
        "D": str(shard.D),
        "p": str(shard.p),
        "t": str(shard.t),
        "h": str(shard.h),
        "j_set": [str(j) for j in shard.j_set],
        "coeffs": [str(c) for c in shard.poly.coeffs],
    }


def shard_to_json(shard: Shard) -> str:
    """Canonical one-line JSON of shard_doc."""
    return json.dumps(shard_doc(shard), separators=(",", ":")) + "\n"


def shard_from_json(text: str) -> Shard:
    doc = json.loads(text)
    p = int(doc["p"])
    j_set = tuple(int(v) for v in doc["j_set"])
    shard = Shard(
        D=int(doc["D"]),
        p=p,
        t=int(doc["t"]),
        j_set=j_set,
        poly=PolyModM(modulus=p, coeffs=tuple(int(v) for v in doc["coeffs"])),
    )
    if len(j_set) != int(doc["h"]):
        raise ValueError("shard h field disagrees with its j_set")
    if shard.poly != poly_from_roots(j_set, p):
        raise ValueError("shard polynomial disagrees with its roots")
    return shard


def shard_path(cache_dir, D: int, p: int) -> Path:
    return Path(cache_dir) / f"D{-D}" / f"p{p}.json"


def save_shard(shard: Shard, cache_dir) -> Path:
    path = shard_path(cache_dir, shard.D, shard.p)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(shard_to_json(shard))
    os.replace(tmp, path)
    return path


def load_shard(path) -> Shard:
    """Read a cached shard and check it, raising a ValueError naming the file.

    Besides the file agreeing with itself (see shard_from_json), p must be
    a prime above 3 with 4p = t^2 - D, and the j distinct, none 0 or 1728,
    each passing the scan's exact count. The file is read on every load;
    the check is a function of its text alone and is remembered per text.
    """
    try:
        return _checked_shard(Path(path).read_text())
    except (ValueError, DomainError) as exc:
        raise ValueError(f"cached shard {path}: {exc}") from None


@lru_cache(maxsize=1024)
def _checked_shard(text: str) -> Shard:
    shard = shard_from_json(text)
    p, t = shard.p, shard.t
    if t <= 0 or 4 * p != t * t - shard.D:
        raise ValueError(f"4p = t^2 - D fails for p = {p}, t = {t}")
    if p <= 3 or not is_prime(p):
        raise ValueError(f"p = {p} is not a prime greater than 3")
    if len(set(shard.j_set)) != shard.h:
        raise ValueError("repeated j-invariants")
    for j in shard.j_set:
        if j in (0, 1728 % p) or not _has_trace(CurveModP(p, *_scan_model(p, j), j), t):
            raise ValueError(f"j = {j} is not a root mod {p}")
    return shard


def _new_shard(disc: Discriminant, cp: CrtPrime, cache_dir) -> Shard:
    """The one task of build_shards: a shard from its j-scan, then saved."""
    js = find_j_invariants(disc, cp)
    shard = Shard(disc.D, cp.p, cp.t, tuple(js), poly_from_roots(js, cp.p))
    if cache_dir is not None:
        save_shard(shard, cache_dir)
    return shard


def build_shards(
    disc: Discriminant, crt_primes, *, jobs: int = 1, cache_dir=None
) -> list[Shard]:
    """Shards for every prime, ordered by p ascending; the one way to build
    a shard, cached or not: build_shards(disc, [cp])[0].

    Cached shards are loaded and checked first. The rest are built and
    saved one per task: in ascending p in this process when jobs or the
    number missing is 1, else by a pool of min(jobs, missing) processes.
    An interrupted run resumes where it stopped; a failed task cancels
    those not yet started and raises its own error.
    """
    check_jobs(jobs)
    shards, todo = [], []
    for cp in sorted(crt_primes, key=lambda c: c.p):
        path = None if cache_dir is None else shard_path(cache_dir, disc.D, cp.p)
        if path is None or not path.exists():
            todo.append(cp)
            continue
        shard = load_shard(path)
        if (shard.D, shard.t, shard.h) != (disc.D, cp.t, disc.h):
            raise ValueError(f"cached shard {path} does not match request")
        shards.append(shard)
    workers = min(jobs, len(todo))
    if workers <= 1:
        shards += [_new_shard(disc, cp, cache_dir) for cp in todo]
    else:
        pool = ProcessPoolExecutor(workers)
        try:
            tasks = [pool.submit(_new_shard, disc, cp, cache_dir) for cp in todo]
            shards += [task.result() for task in as_completed(tasks)]
        finally:
            pool.shutdown(cancel_futures=True)
    return sorted(shards, key=lambda s: s.p)
