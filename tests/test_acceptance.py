"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 1-7 time the ``crosscap audit`` suites that hold each sweep, its
pinned values and its mesh tolerances.  Each test prints a single PASS/FAIL
line with its runtime; run with ``pytest tests/test_acceptance.py -v -s`` to
see them as they complete.
"""

import time

from crosscap import audit, words


class _Criterion:
    def __init__(self, number: int, description: str, budget_seconds: float):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"{status} criterion {self.number}: {self.description} "
            f"({elapsed:.2f}s, budget {self.budget:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} overran its {self.budget}s budget: "
                f"{elapsed:.2f}s"
            )
        return False


def test_criterion_1_family_values():
    with _Criterion(1, "gamma values on T(2k,2k-1) for k=2..10", 1.0):
        audit._gap_growth()


def test_criterion_2_decision_surface():
    with _Criterion(2, "gamma_I decision surface, torus <=30 and cables <=10", 5.0):
        audit._gamma_i_decision_surface()
        audit._gamma_i_cables()


def test_criterion_3_mesh_certification():
    with _Criterion(3, "swept band certification at theta_steps=256", 30.0):
        audit._mesh_certification()


def test_criterion_4_parity_obstruction():
    with _Criterion(4, "Z/2 maps match the obstruction for |p|, |q| <= 200", 2.0):
        audit._z2_homomorphisms()
        assert words.square_conjugate_obstruction(3, 5) is True
        assert words.square_conjugate_obstruction(4, 3) is False


def test_criterion_5_strand_counts():
    with _Criterion(5, "transitive strand counts up to 10000", 1.0):
        audit._strand_counts()


def test_criterion_6_formula_consistency():
    with _Criterion(6, "genus and crosscap formulas on the twisted families", 1.0):
        audit._genus_families()


def test_criterion_7_homology_gap():
    with _Criterion(7, "embedded component bound for n=2..100", 1.0):
        audit._gap_reports()


def test_criterion_8_audit_runs_clean():
    with _Criterion(8, "full audit under one minute", 60.0):
        results = audit.run_audit()
        failures = [r for r in results if not r.ok]
        assert not failures, "; ".join(f"{r.name}: {r.detail}" for r in failures)
