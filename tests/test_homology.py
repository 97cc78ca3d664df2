"""Surgery slopes, the lens-space chi bound, and the twist contradiction."""

import pytest

from crosscap import homology
from crosscap.audit import _twist_contradicts


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


def _scan(chi, n):
    """The least even p >= 0 that contradicts chi, found by trying each."""
    p = 0
    while not _twist_contradicts(chi, n, p):
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

    def test_closed_form_matches_scan(self):
        for chi in range(-150, 2):
            for n in range(2, 13):
                assert homology.minimal_twist_contradiction(chi, n) == _scan(chi, n)

