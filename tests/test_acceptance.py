"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All arithmetic is exact over GF(2), so every comparison is exact equality.
Each check runs with the sizes it states itself; the gate asserts that it
passes, within its runtime target, and that its details still name the
bound it certifies.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete.
"""

from heckemod2 import checks


def _report(number: int, result, budget: float, bound: str = ""):
    """Print the criterion's line and assert it passed within its runtime
    target, at the bound its details state."""
    status = "PASS" if result.passed else "FAIL"
    print(f"[criterion {number:2d}] {status}  {result.name}"
          f"  ({result.seconds:.1f}s, target {budget:.0f}s)"
          f"{'  ' + result.details if result.details else ''}")
    assert result.passed, f"criterion {number}: {result.name}: {result.details}"
    assert bound in result.details, (
        f"criterion {number}: {result.name} no longer checks {bound!r}: "
        f"{result.details}")
    assert result.seconds < budget, (
        f"criterion {number} exceeded its runtime target: "
        f"{result.seconds:.1f}s >= {budget:.0f}s")


def test_criterion_01_m_table():
    _report(1, checks.check_m_table(), 60)


def test_criterion_02_algebra_dimension():
    _report(2, checks.check_algebra_dimension(), 60, "n<=64")


def test_criterion_03_commutant():
    _report(3, checks.check_commutant(), 60, "n<=32")


def test_criterion_04_tp_tables():
    _report(4, checks.check_tp_tables(), 120)


def test_criterion_05_parity_and_frobenian():
    _report(5, checks.check_frobenian(), 300, "p < 1000, degree <= 8")


def test_criterion_06_theta_tables():
    _report(6, checks.check_theta_tables(), 60, "precision 4096")


def test_criterion_07_span_equalities():
    _report(7, checks.check_span_equalities(), 120)


def test_criterion_08_hecke_on_theta():
    _report(8, checks.check_hecke_on_theta(), 300, "precision 256")


def test_criterion_09_composition_groups():
    _report(9, checks.check_composition_groups(), 10, "n<=10")


def test_criterion_10_structure_suite():
    _report(10, checks.check_structure_suite(), 120)
