"""The Z/2 maps of the torus-knot group, the obstruction, and strand orbits."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosscap import words
from crosscap.words import LENGTH_PARITY, Z2_MAPS, GroupWord, parse_word

letters = st.tuples(st.sampled_from(("x", "y")), st.sampled_from((1, -1)))
word_strategy = st.builds(GroupWord, st.tuples()) | st.builds(
    lambda ls: GroupWord(tuple(ls)), st.lists(letters, max_size=60)
)


def reduce_freely(w):
    """Cancel adjacent inverse pairs until none is left (test oracle)."""
    stack = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return GroupWord(tuple(stack))


def exponent_sums(w):
    """(x_sum, y_sum) of a spelled-out word (test oracle)."""
    x_sum = sum(e for g, e in w.letters if g == "x")
    y_sum = sum(e for g, e in w.letters if g == "y")
    return x_sum, y_sum


class TestParity:
    def test_commutator_is_even(self):
        w = parse_word("x y x^-1 y^-1")
        assert words.algebraic_length_parity(w) == 0
        assert words.z2_image(LENGTH_PARITY, *exponent_sums(w)) == 0

    def test_cube_is_odd(self):
        w = parse_word("x^3")
        assert words.algebraic_length_parity(w) == 1
        assert words.z2_image(LENGTH_PARITY, *exponent_sums(w)) == 1

    def test_empty_word(self):
        assert words.algebraic_length_parity(GroupWord()) == 0
        assert all(words.z2_image(phi, 0, 0) == 0 for phi in Z2_MAPS)

    @given(w=word_strategy)
    def test_squares_have_parity_zero(self, w):
        square = w * w
        assert words.algebraic_length_parity(square) == 0
        for phi in Z2_MAPS:
            assert words.z2_image(phi, *exponent_sums(square)) == 0

    @given(w=word_strategy)
    def test_free_reduction_preserves_parity(self, w):
        reduced = reduce_freely(w)
        assert words.algebraic_length_parity(reduced) == (
            words.algebraic_length_parity(w)
        )
        assert words.algebraic_length_parity(w) == words.z2_image(
            LENGTH_PARITY, *exponent_sums(w)
        )


class TestParseWord:
    def test_expansion(self):
        assert parse_word("x y^-1 x^3").letters == (
            ("x", 1), ("y", -1), ("x", 1), ("x", 1), ("x", 1)
        )

    def test_zero_power_vanishes(self):
        assert parse_word("x^0 y").letters == (("y", 1),)

    def test_bad_generator(self):
        with pytest.raises(ValueError):
            parse_word("z^2")

    def test_str_round_trips(self):
        w = parse_word("x y^-1 x^2")
        assert str(w) == "x y^-1 x x"
        assert parse_word(str(w)) == w
        assert str(GroupWord()) == "1"

    def test_words_are_frozen(self):
        w = parse_word("x y")
        with pytest.raises(AttributeError):
            w.letters = ()
        assert hash(w) == hash(parse_word("x^1 y^1"))

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            GroupWord((("x", 2),))


class TestInsertRelator:
    def test_even_relator_changes_parity(self):
        # With an even parameter the relator length p+q is odd, so splicing
        # it in is a parity-changing rewrite: no obstruction can exist.
        for p, q in ((4, 3), (3, 4), (2, 9), (8, 5)):
            w = parse_word("y x y")
            rel = parse_word(f"x^{p} y^{-q}")
            spliced = GroupWord(w.letters[:2] + rel.letters + w.letters[2:])
            assert words.algebraic_length_parity(spliced) == 0
            assert LENGTH_PARITY not in words.z2_homomorphisms(p, -q)


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
