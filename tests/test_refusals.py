"""Refusals across the library, each an explicit raise that must also hold
under python -O (tests/test_python_o.py reruns the guard tests)."""

import pytest

from cmcurve import cli
from cmcurve.classpoly import (
    Shard,
    find_j_invariants,
    gamma2_poly,
    poly_from_roots,
    shard_from_json,
    shard_to_json,
)
from cmcurve.crt import build_basis
from cmcurve.curves import CurveModP, curve, curve_from_j, scalar_mul
from cmcurve.poly import PolyModM, find_all_roots
from cmcurve.primegen import CrtPrime
from cmcurve.quadforms import QuadForm, discriminant, reduced_forms


def _empty_shard(D, p, t):
    return Shard(D, p, t, (), poly_from_roots((), p))


REFUSALS = {
    "scan of d <= 4": (
        lambda tmp: find_j_invariants(discriminant(-4), CrtPrime(5, 4)),
        "d <= 4 is handled by the special curve models"),
    "gamma_2 for 3 | D": (
        lambda tmp: gamma2_poly(_empty_shard(-24, 7, 2)),
        "gamma_2 is no class invariant"),
    "gamma_2 for p = 1 (mod 3)": (
        lambda tmp: gamma2_poly(_empty_shard(-19, 7, 3)),
        "cube roots mod 7 are not unique"),
    "shard h field": (
        lambda tmp: shard_from_json(shard_to_json(
            Shard(-59, 17, 3, (2, 7, 13), poly_from_roots((2, 7, 13), 17))
        ).replace('"h":"3"', '"h":"2"')),
        "shard h field disagrees with its j_set"),
    "CLI prime with no trace": (
        lambda tmp: cli._find_crt_prime(discriminant(-59), 19),
        r"4\*19 - 59 is not a positive square"),
    "CLI empty shard directory": (
        lambda tmp: cli._load_shard_dir(tmp),
        "no shard files under"),
    "CRT with no moduli": (
        lambda tmp: build_basis([], 7),
        "at least one modulus required"),
    "CRT modulus below 2": (
        lambda tmp: build_basis([1, 5], 7),
        "moduli must be >= 2"),
    "CRT target below 2": (
        lambda tmp: build_basis([5, 7], 1),
        "target modulus must be >= 2"),
    "singular curve": (
        lambda tmp: CurveModP(7, 0, 0, 0),
        "singular curve"),
    "curve from j over p <= 3": (
        lambda tmp: curve_from_j(1, 3),
        "field characteristic must exceed 3"),
    "negative scalar": (
        lambda tmp: scalar_mul(curve(7, 1, 1), None, -1),
        "scalar must be nonnegative"),
    "polynomial modulus below 2": (
        lambda tmp: PolyModM(modulus=1, coeffs=()),
        "modulus must be >= 2"),
    "unreduced root": (
        lambda tmp: poly_from_roots([7], 7),
        "roots must be reduced mod the modulus"),
    "roots mod a different n": (
        lambda tmp: find_all_roots(PolyModM(7, (1, 1)), 11),
        "polynomial modulus does not match n"),
    "roots mod an even n": (
        lambda tmp: find_all_roots(PolyModM(4, (1, 1)), 4),
        "root finding needs an odd prime modulus"),
    "roots of the zero polynomial": (
        lambda tmp: find_all_roots(PolyModM(7, ()), 7),
        "zero polynomial has every residue as a root"),
    "forms of D >= 0": (
        lambda tmp: reduced_forms(0),
        "discriminant must be negative"),
}


@pytest.mark.guard
@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(case, tmp_path):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


@pytest.mark.guard
def test_reduced_forms_skip_an_imprimitive_form():
    # D = -12 also has the reduced form (2, 2, 2), which is not primitive
    assert reduced_forms(-12) == [QuadForm(1, 0, 3)]
