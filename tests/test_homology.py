"""Surgery slopes, the lens-space chi bound, and the twist contradiction."""

import pytest

from crosscap import homology, invariants
from crosscap.knots import TorusParams


class TestSlope:
    @pytest.mark.parametrize("n, slope", [(2, 12), (3, 30), (10, 380)])
    def test_values(self, n, slope):
        assert homology.surgery_slope(n) == slope

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            homology.surgery_slope(1)


class TestBredonWood:
    @pytest.mark.parametrize("n, chi", [(2, 0), (5, -3)])
    def test_values(self, n, chi):
        assert homology.bredon_wood_chi_max(n) == chi

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            homology.bredon_wood_chi_max(1)


class TestEmbeddedBound:
    def test_n2(self):
        report = homology.embedded_component_bound(2)
        assert report.chi_embedded_component_max == -1
        assert report.gap == 2

    def test_n10(self):
        report = homology.embedded_component_bound(10)
        assert report.chi_embedded_component_max == -9
        assert report.gap == 10

    def test_slope_in_report(self):
        assert homology.embedded_component_bound(3).surgery_slope == 30

    def test_gap_exact_and_increasing(self):
        gaps = [homology.embedded_component_bound(n).gap for n in range(2, 101)]
        assert gaps == list(range(2, 101))

    def test_chain_endpoints(self):
        for n in range(2, 101):
            report = homology.embedded_component_bound(n)
            assert report.chi_embedded_component_max + 1 == (
                homology.bredon_wood_chi_max(n)
            )
            assert report.chi_immersed == 1


def _contradicts(chi, n, p):
    """Both spanning-surface readings fail for T(2n-1, 2n+p(2n-1)), by the
    genus and crosscap formulas of the invariants module."""
    t = TorusParams(2 * n - 1, 2 * n + p * (2 * n - 1))
    orientable_dead = 1 - 2 * invariants.seifert_genus_torus(t).value < chi
    nonorientable_dead = invariants.gamma3_torus(t).value > 1 - chi
    return orientable_dead and nonorientable_dead


def _scan(chi, n):
    """The least even p >= 0 that contradicts chi, found by trying each."""
    p = 0
    while not _contradicts(chi, n, p):
        p += 2
    return p


class TestTwistContradiction:
    @pytest.mark.parametrize(
        "chi, n, expected", [(-4, 2, 8), (1, 2, 0), (0, 3, 0)]
    )
    def test_examples(self, chi, n, expected):
        assert homology.minimal_twist_contradiction(chi, n) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            homology.minimal_twist_contradiction(2, 2)
        with pytest.raises(ValueError):
            homology.minimal_twist_contradiction(0, 1)

    def test_minimality_oracle(self):
        # The returned p must satisfy both contradiction inequalities while
        # p-2 (when nonnegative) fails at least one of them.
        for chi in range(-20, 2):
            for n in range(2, 11):
                p = homology.minimal_twist_contradiction(chi, n)
                assert p % 2 == 0
                assert _contradicts(chi, n, p)
                if p >= 2:
                    assert not _contradicts(chi, n, p - 2)

    def test_closed_form_matches_scan(self):
        for chi in range(-150, 2):
            for n in range(2, 13):
                assert homology.minimal_twist_contradiction(chi, n) == _scan(chi, n)

    def test_monotone_in_chi_and_n(self):
        for n in range(2, 11):
            values = [
                homology.minimal_twist_contradiction(chi, n)
                for chi in range(1, -21, -1)
            ]
            assert values == sorted(values)
        for chi in range(-20, 2):
            values = [
                homology.minimal_twist_contradiction(chi, n) for n in range(2, 11)
            ]
            assert values == sorted(values, reverse=True)


class TestCrossModuleConsistency:
    """The twisted-family formulas that minimal_twist_contradiction's closed
    form is solved from agree with the invariants module."""

    def test_seifert_genus_matches_invariants_module(self):
        for n in range(2, 11):
            for p in range(0, 11, 2):
                t = TorusParams(2 * n - 1, 2 * n + p * (2 * n - 1))
                assert invariants.seifert_genus_torus(t).value == (
                    (n - 1) * (2 * n - 1) * (1 + p)
                )
                u = TorusParams(2 * n, 2 * n - 1 + 2 * p * n)
                assert invariants.seifert_genus_torus(u).value == (
                    (2 * n - 1) * (n - 1 + p * n)
                )

    def test_crosscap_matches_invariants_module(self):
        for n in range(2, 11):
            for p in range(0, 11, 2):
                t = TorusParams(2 * n - 1, 2 * n + p * (2 * n - 1))
                assert invariants.gamma3_torus(t).value == (p + 2 * n) // 2
