"""Parity invariance under the relator rewriting, and strand orbits."""

import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosscap import words
from crosscap.words import GroupWord, parse_word

letters = st.tuples(st.sampled_from(("x", "y")), st.sampled_from((1, -1)))
word_strategy = st.builds(GroupWord, st.tuples()) | st.builds(
    lambda ls: GroupWord(tuple(ls)), st.lists(letters, max_size=60)
)


class TestParity:
    def test_commutator_is_even(self):
        assert words.algebraic_length_parity(parse_word("x y x^-1 y^-1")) == 0

    def test_cube_is_odd(self):
        assert words.algebraic_length_parity(parse_word("x^3")) == 1

    def test_empty_word(self):
        assert words.algebraic_length_parity(GroupWord()) == 0

    @given(w=word_strategy)
    def test_squares_have_parity_zero(self, w):
        assert words.algebraic_length_parity(w * w) == 0

    @given(w=word_strategy)
    def test_free_reduction_preserves_parity(self, w):
        assert words.algebraic_length_parity(words.free_reduce(w)) == (
            words.algebraic_length_parity(w)
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


class TestInsertRelator:
    def test_forward_into_empty(self):
        w = words.insert_relator(GroupWord(), 0, 3, 5)
        assert w.letters == parse_word("x^3 y^-5").letters
        assert words.algebraic_length_parity(w) == 0

    def test_insert_preserves_parity_marker(self):
        base = parse_word("x")
        w = words.insert_relator(base, 1, 3, 3)
        assert len(w) == 7
        assert words.algebraic_length_parity(w) == 1

    def test_backward_direction(self):
        w = words.insert_relator(GroupWord(), 0, 3, 5, "backward")
        assert w.letters == parse_word("y^5 x^-3").letters

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            words.insert_relator(parse_word("x y"), 5, 3, 5)

    @given(
        w=word_strategy,
        p=st.sampled_from((-9, -7, -5, -3, -1, 1, 3, 5, 7, 9)),
        q=st.sampled_from((-9, -7, -5, -3, -1, 1, 3, 5, 7, 9)),
        direction=st.sampled_from(("forward", "backward")),
        data=st.data(),
    )
    def test_odd_relators_preserve_parity(self, w, p, q, direction, data):
        if gcd(abs(p), abs(q)) != 1:
            return
        position = data.draw(st.integers(min_value=0, max_value=len(w)))
        spliced = words.insert_relator(w, position, p, q, direction)
        assert words.algebraic_length_parity(spliced) == (
            words.algebraic_length_parity(w)
        )

    def test_even_relator_changes_parity(self):
        # With an even parameter the relator length p+q is odd, so splicing
        # it in is a parity-changing rewrite: no obstruction can exist.
        for p, q in ((4, 3), (3, 4), (2, 9), (8, 5)):
            w = parse_word("y x y")
            spliced = words.insert_relator(w, 2, p, q)
            assert words.algebraic_length_parity(spliced) == 0

    def test_seeded_randomized_invariance(self):
        rng = random.Random(1234)
        for p, q in ((3, 5), (3, 7), (5, 7), (5, 9), (7, 9), (-3, 5), (3, -5)):
            for _ in range(200):
                w = words.random_word(rng)
                parity = words.algebraic_length_parity(w)
                pos = rng.randrange(len(w) + 1)
                w2 = words.insert_relator(w, pos, p, q, rng.choice(("forward", "backward")))
                assert words.algebraic_length_parity(w2) == parity
                spots = words.cancellable_positions(w2)
                if spots:
                    w3 = words.cancel_pair(w2, rng.choice(spots))
                    assert words.algebraic_length_parity(w3) == parity


class TestCancellation:
    def test_cancel_pair(self):
        w = parse_word("x y y^-1 x")
        assert words.cancellable_positions(w) == [1]
        assert words.cancel_pair(w, 1).letters == (("x", 1), ("x", 1))

    def test_cancel_rejects_noninverse(self):
        with pytest.raises(ValueError):
            words.cancel_pair(parse_word("x y"), 0)

    def test_free_reduce(self):
        assert words.free_reduce(parse_word("x y y^-1 x^-1 x x")).letters == (
            ("x", 1), ("x", 1)
        )


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
