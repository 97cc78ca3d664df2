"""The Z/2 maps of the torus-knot group, the obstruction, and strand orbits."""

from math import gcd

import pytest

from crosscap import words
from crosscap.words import LENGTH_PARITY, Z2_MAPS


class TestHomomorphisms:
    def test_against_letter_count(self):
        # Independent oracle: spell the relator x^p y^-q out letter by letter
        # and count the letters each map sends to 1.
        for p in range(-12, 13):
            for q in range(-12, 13):
                if gcd(p, q) != 1:
                    continue
                letters = ["x"] * abs(p) + ["y"] * abs(q)
                expected = [
                    (a, b) for a, b in Z2_MAPS
                    if sum(a if g == "x" else b for g in letters) % 2 == 0
                ]
                assert words.z2_homomorphisms(p, -q) == expected
                assert words.z2_homomorphisms(-p, q) == expected

    @pytest.mark.parametrize("phi", Z2_MAPS)
    def test_images_of_exponent_sums(self, phi):
        # The empty word and every commutator have exponent sums (0, 0).
        assert words.z2_image(phi, 0, 0) == 0
        # A square w*w has exponent sums (2u, 2v) when w has (u, v); the
        # four classes of (u, v) mod 2 cover every w.
        for u, v in Z2_MAPS:
            assert words.z2_image(phi, 2 * u, 2 * v) == 0
        # x^3 has exponent sums (3, 0), so it goes to phi(x): to 1 under
        # word-length parity.
        assert words.z2_image(phi, 3, 0) == phi[0]
        assert words.z2_image(LENGTH_PARITY, 3, 0) == 1


class TestObstruction:
    @pytest.mark.parametrize("p, q, expected", [(3, 5, True), (4, 3, False), (3, 7, True)])
    def test_examples(self, p, q, expected):
        assert words.square_conjugate_obstruction(p, q) is expected

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            words.square_conjugate_obstruction(3, 9)

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            words.square_conjugate_obstruction(1, 3)


def orbit_partition(n):
    """Independent oracle: full orbit partition of {1..n} under j -> n+1-j."""
    unassigned = set(range(1, n + 1))
    orbits = []
    while unassigned:
        j = unassigned.pop()
        orbit = {j}
        k = n + 1 - j
        while k not in orbit:
            orbit.add(k)
            unassigned.discard(k)
            k = n + 1 - k
        orbits.append(orbit)
    return orbits


class TestStrandCounts:
    def test_small(self):
        assert words.transitive_strand_counts(2) == {1, 2}
        assert words.transitive_strand_counts(3) == {1, 2}

    def test_against_orbit_partition_oracle(self):
        oracle = {n for n in range(1, 301) if len(orbit_partition(n)) == 1}
        assert words.transitive_strand_counts(300) == oracle == {1, 2}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            words.transitive_strand_counts(0)
