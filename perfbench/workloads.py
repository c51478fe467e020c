"""The three workloads: seeded inputs, program set-up, operations, checks.

Inputs come from the workload seed and the benchmark's own arithmetic
(refmath), never from cmcurve, except where an input is by definition the
program's output: lift_h96 lifts to the CRT primes the program's own prime
search picks for D = -832603. Every run repeats one fixed list of
operations in whole rounds.
"""

from __future__ import annotations

import math
import random
import shutil
from pathlib import Path

import refmath

COLD_MAX_D = 1000
COLD_MAX_SUM_P = 12000
COLD_MAX_H = 8
WARM_DISCRIMINANTS = (-59, -523, -2083)
WARM_PAIRS_PER_D = 14
LIFT_D = -832603
LIFT_DEGREE = 96
LIFT_OPS = 40
EPSILON = 0.001  # the program's default CRT epsilon


def cold_discriminants() -> list[int]:
    """Fundamental D = -d with 4 < d < 1000, d != 7 (mod 8), h <= 8 and a
    scan size (sum of the split primes) of at most COLD_MAX_SUM_P."""
    out = []
    for d in range(5, COLD_MAX_D):
        D = -d
        if d % 8 == 7 or not refmath.is_fundamental(D):
            continue
        if len(refmath.forms(D)) <= COLD_MAX_H and sum(refmath.split_primes(D)) <= COLD_MAX_SUM_P:
            out.append(D)
    return out


def cm_pair(D: int, bits: int, rng: random.Random) -> tuple[int, int]:
    """(n, N) with n = (t^2 - D)/4 a prime of exactly `bits` bits and
    N = n + 1 -+ t, the sign drawn at random."""
    d = -D
    lo = math.isqrt((1 << (bits + 1)) - d) + 1
    hi = math.isqrt((1 << (bits + 2)) - d)
    while True:
        t = rng.randrange(lo, hi + 1)
        t += (t - d) % 2
        n, rem = divmod(t * t + d, 4)
        if rem == 0 and n.bit_length() == bits and refmath.is_prime(n):
            return n, n + 1 - t if rng.random() < 0.5 else n + 1 + t


class Construct:
    """construct_curve over (n, N) pairs; outputs are checked against the
    classical H_D and the benchmark's own point arithmetic."""

    def __init__(self, seed: int, discs, bits: int, pairs_per_d: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.discs = list(discs)
        self.ops = [(D, *cm_pair(D, bits, rng))
                    for D in self.discs for _ in range(pairs_per_d)]

    def setup(self, prog, workdir: Path):
        """Program-side set-up: validate each D and pick its CRT primes."""
        discs = {}
        for D in self.discs:
            disc = prog.discriminant(D)
            discs[D] = (disc, prog.find_crt_primes(disc))
        return {"discs": discs}

    def prepare(self, state) -> None:
        pass

    def round_cache(self, workdir: Path, state, rnd: int) -> Path:
        raise NotImplementedError

    def run_op(self, prog, state, op, cache: Path):
        _, n, N = op
        res = prog.construct_curve(n, N, cache_dir=str(cache))
        E = res.curve
        return E.p, E.a4, E.a6, res.j, res.order, res.h

    def check(self, state, outputs) -> list[str]:
        errors = []
        H = {D: refmath.class_polynomial(D) for D in self.discs}
        for D, (disc, _) in state["discs"].items():
            if disc.h != len(H[D]) - 1:
                errors.append(f"D = {D}: program h = {disc.h}, reference {len(H[D]) - 1}")
        for i, out in outputs:
            D, n, N = self.ops[i]
            p, a4, a6, j, order, h = out
            if (p, order, h) != (n, N, len(H[D]) - 1):
                errors.append(f"op {i}: (p, order, h) = {(p, order, h)}")
                continue
            why = refmath.check_curve(n, N, a4, a6, j, H[D],
                                      random.Random(f"check:{self.seed}:{i}"))
            if why:
                errors.append(f"op {i} (D = {D}, n = {n}): {why}")
        return errors


class ConstructCold(Construct):
    name = "construct_cold"
    setup_reps = 5

    def __init__(self, seed: int):
        super().__init__(seed, cold_discriminants(), 64, 1)

    def round_cache(self, workdir, state, rnd):
        """An empty shard cache for every round: nothing is ever reused."""
        cache = workdir / f"cold-round{rnd}"
        shutil.rmtree(workdir / f"cold-round{rnd - 1}", ignore_errors=True)
        return cache


class ConstructWarm(Construct):
    name = "construct_warm"
    setup_reps = 3

    def __init__(self, seed: int):
        super().__init__(seed, WARM_DISCRIMINANTS, 256, WARM_PAIRS_PER_D)
        self._fills = 0

    def setup(self, prog, workdir):
        """As for the cold workload, plus filling a fresh shard cache."""
        state = super().setup(prog, workdir)
        cache = workdir / f"warm-fill{self._fills}"
        self._fills += 1
        for disc, prime_set in state["discs"].values():
            prog.build_shards(disc, prime_set.primes, cache_dir=str(cache))
        state["cache"] = cache
        return state

    def round_cache(self, workdir, state, rnd):
        return state["cache"]


class LiftH96:
    """build_basis, 96 crt_mod_n and find_all_roots on f = prod (X - a_i)
    of degree 96, over the 410 CRT primes of D = -832603, to fresh
    27-bit primes n."""

    name = "lift_h96"
    setup_reps = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = []

    def setup(self, prog, workdir):
        disc = prog.discriminant(LIFT_D)
        return {"disc": disc, "primes": prog.find_crt_primes(disc)}

    def prepare(self, state) -> None:
        """f, its residues and the n list; needs the moduli from set-up."""
        rng = random.Random(f"{self.name}:{self.seed}")
        moduli = [cp.p for cp in state["primes"].primes]
        if not all(refmath.is_prime(m) for m in moduli) or len(set(moduli)) != len(moduli):
            raise ValueError("CRT moduli are not distinct primes")
        M = math.prod(moduli)
        # every |coefficient| of prod (X - a_i) is at most (A + 1)^96
        bits = int((math.log2(M) + math.log2(0.5 - EPSILON)) / LIFT_DEGREE) - 2
        roots = set()
        while len(roots) < LIFT_DEGREE:
            roots.add(rng.randrange(-(1 << bits), 1 << bits))
        roots = sorted(roots)
        f = [1]
        for a in roots:
            f = [(f[i - 1] if i else 0) - a * (f[i] if i < len(f) else 0)
                 for i in range(len(f) + 1)]
        if not all(1000 * abs(c) < 499 * M for c in f):
            raise ValueError("a coefficient of f exceeds (1/2 - epsilon) M")
        self.moduli, self.f, self.roots = moduli, f, roots
        self.residues = [[c % m for m in moduli] for c in f[:-1]]
        while len(self.ops) < LIFT_OPS:
            n = rng.randrange(1 << 26, 1 << 27)
            if (refmath.is_prime(n) and n not in moduli
                    and len({a % n for a in roots}) == LIFT_DEGREE):
                self.ops.append(n)

    def round_cache(self, workdir, state, rnd):
        return None

    def run_op(self, prog, state, n, cache):
        basis = prog.build_basis(self.moduli, n, EPSILON)
        lifted = [prog.crt_mod_n(basis, r) for r in self.residues]
        roots = prog.find_all_roots(prog.PolyModM(n, tuple(lifted) + (1,)), n)
        return lifted, roots

    def check(self, state, outputs) -> list[str]:
        errors = []
        for i, (lifted, roots) in outputs:
            why = refmath.check_lift(self.ops[i], self.f, self.roots, lifted, roots)
            if why:
                errors.append(f"op {i} (n = {self.ops[i]}): {why}")
        return errors


WORKLOADS = {w.name: w for w in (ConstructCold, ConstructWarm, LiftH96)}
