"""The guard tests again under python -O, which strips assert statements.

Every check these tests exercise must be an explicit raise, never an
assert. Hypothesis tests are left out, so the run writes no example
database.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GUARD_TESTS = [
    "tests/test_classpoly.py::test_build_shard_matches_golden_rows",
    "tests/test_classpoly.py::test_find_j_invariants_golden_rows",
    "tests/test_classpoly.py::test_load_shard_rejects_a_forged_shard",
    "tests/test_classpoly.py::test_load_shard_rechecks_a_file_rewritten_in_place",
    "tests/test_classpoly.py::test_build_shards_rejects_a_cached_shard_with_a_dropped_root",
    "tests/test_classpoly.py::test_wrong_count_aborts",
    "tests/test_classpoly.py::test_isogeny_table_against_torsion_and_trace_at_every_small_prime",
    "tests/test_primegen.py::test_prime_lists_match_the_recorded_digests",
    "tests/test_primegen.py::test_log_b_matches_the_recorded_value",
    "tests/test_primegen.py::test_gamma2_prime_lists_match_the_recorded_digests",
    "tests/test_classpoly.py::test_gamma2_class_polynomial_d59",
    "tests/test_classpoly.py::test_gamma2_class_polynomial_divides_h_of_x_cubed",
    "tests/test_cm.py::test_certified_lift_equals_the_plain_lift",
    "tests/test_cm.py::test_certificate_rejects_a_residue_off_by_one",
    "tests/test_cm.py::test_certificate_rejects_a_basis_cut_below_a_coefficient",
    "tests/test_cm.py::test_certificate_refuses_a_spare_from_the_basis",
    "tests/test_cm.py::test_construct_curve_rejects_a_j_that_is_no_root",
    "tests/test_cm.py::test_construct_curve_rejects_a_shard_residue_off_by_one",
    "tests/test_cm.py::test_construct_curve_rejects_the_wrong_twist_alone",
    "tests/test_cm.py::test_lift_refuses_shards_of_two_discriminants",
    "tests/test_cm.py::test_lift_refuses_shards_of_two_degrees",
    "tests/test_crt.py::test_crt_mod_n_rejects_unreduced_residues",
    "tests/test_crt.py::test_crt_integer_refuses_in_order",
    "tests/test_cm.py::test_derive_cm_params_rejects_a_ramified_n",
    "tests/test_curves.py::test_scalar_mul_matches_repeated_addition_on_every_point",
    "tests/test_cm.py::test_construct_curve_checks_jobs_for_every_d",
    "tests/test_classpoly.py::test_find_j_invariants_refuses_jobs_below_one",
    "tests/test_classpoly.py::test_build_shards_refuses_jobs_below_one_on_a_cached_shard",
    "tests/test_crt.py::test_build_basis_refuses_epsilon_outside_the_open_interval",
    "tests/test_arith.py::test_sqrt_mod_p_refuses_a_composite_modulus",
    "tests/test_poly.py::test_find_all_roots_refuses_a_composite_modulus",
    "tests/test_poly.py::test_worst_slots_stay_below_3n_and_inside_d_slots",
    "tests/test_cm.py::test_lift_refuses_a_spare_of_another_discriminant",
    "tests/test_cm.py::test_construct_curve_refuses_a_huge_discriminant_up_front",
]


def test_guard_tests_pass_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *GUARD_TESTS],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # parametrized cases: 4 forged shards, 4 pinned log B values, 5 oracle
    # discriminants, 10 certified lifts, 2 of each certificate mutant, 1
    # spare refusal, 2 pairs for each construct_curve mutant and 4 primes
    # of scalar multiplication on every point, then 2 jobs refusals of
    # construct_curve, 2 of the shard scan, 4 epsilon refusals of
    # build_basis, 6 composite moduli refused by the square root, 6 moduli
    # of packed residues at the slot maximum, 4 orders of two
    # discriminants, 1 mix of degrees and 1 foreign spare refused by the
    # lift, and 1 discriminant above the cap refused by construct_curve
    assert re.search(r"^77 passed\b", proc.stdout, re.MULTILINE), proc.stdout
