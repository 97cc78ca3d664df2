"""Word arithmetic in the two-generator torus-knot group, and strand orbits.

The group of a (p,q)-torus knot exterior is <x, y | x^p = y^q>.  When p and
q are both odd the relator has even algebraic length, so length-parity
descends to a homomorphism onto Z/2; squares land on 0 while conjugates of
x^p land on 1, which rules out an immersed Moebius band.  The strand-orbit
computation classifies simple closed curves on the Moebius band: only 1 or
2 strands can be permuted transitively by the edge identification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Literal

Generator = Literal["x", "y"]
Letter = tuple[Generator, int]

_GENERATORS = ("x", "y")


_VALID_LETTERS = frozenset(
    (gen, exp) for gen in _GENERATORS for exp in (1, -1)
)


@dataclass(frozen=True)
class GroupWord:
    """A word over {x, y} stored one letter at a time, exponents +-1."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if not _VALID_LETTERS.issuperset(self.letters):
            bad = next(l for l in self.letters if l not in _VALID_LETTERS)
            raise ValueError(f"bad letter {bad!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for gen, exp in self.letters:
            parts.append(gen if exp == 1 else f"{gen}^-1")
        return " ".join(parts)


def power(gen: str, exponent: int) -> GroupWord:
    """gen**exponent expanded into |exponent| letters of sign(exponent)."""
    sign = 1 if exponent >= 0 else -1
    return GroupWord(tuple((gen, sign) for _ in range(abs(exponent))))  # type: ignore[arg-type]


def parse_word(text: str) -> GroupWord:
    """Parse words like ``x y^-1 x^3``; powers expand to repeated letters."""
    letters: list[Letter] = []
    for token in text.split():
        gen, _, exp_text = token.partition("^")
        if gen not in _GENERATORS:
            raise ValueError(f"unknown generator {gen!r} in {text!r}")
        exponent = 1
        if exp_text:
            try:
                exponent = int(exp_text)
            except ValueError:
                raise ValueError(f"bad exponent {exp_text!r} in {text!r}") from None
        sign = 1 if exponent >= 0 else -1
        letters.extend((gen, sign) for _ in range(abs(exponent)))
    return GroupWord(tuple(letters))


def algebraic_length_parity(w: GroupWord) -> int:
    """Letter count mod 2; each letter counts 1 regardless of its sign."""
    return len(w.letters) % 2


def relator(p: int, q: int, direction: str = "forward") -> GroupWord:
    """The relator as a word: x^p y^-q (forward) or y^q x^-p (backward)."""
    if direction == "forward":
        return power("x", p) * power("y", -q)
    if direction == "backward":
        return power("y", q) * power("x", -p)
    raise ValueError(f"direction must be forward or backward, got {direction!r}")


def insert_relator(
    w: GroupWord, position: int, p: int, q: int, direction: str = "forward"
) -> GroupWord:
    """Splice the relator into ``w`` at ``position``.

    The result represents the same element of <x, y | x^p = y^q>.  No free
    reduction is performed; the letters are inserted as written.
    """
    if position < 0 or position > len(w.letters):
        raise ValueError(
            f"position {position} out of range for a word of length {len(w.letters)}"
        )
    rel = relator(p, q, direction)
    return GroupWord(w.letters[:position] + rel.letters + w.letters[position:])


def cancellable_positions(w: GroupWord) -> list[int]:
    """Indices i where letters i, i+1 are a generator and its inverse."""
    out = []
    for i in range(len(w.letters) - 1):
        (g1, e1), (g2, e2) = w.letters[i], w.letters[i + 1]
        if g1 == g2 and e1 == -e2:
            out.append(i)
    return out


def cancel_pair(w: GroupWord, position: int) -> GroupWord:
    """Remove the inverse pair at ``position``; the element is unchanged."""
    if position not in cancellable_positions(w):
        raise ValueError(f"letters at {position} do not cancel")
    return GroupWord(w.letters[:position] + w.letters[position + 2:])


def free_reduce(w: GroupWord) -> GroupWord:
    """Fully reduce ``w`` by cancelling adjacent inverse pairs."""
    stack: list[Letter] = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return GroupWord(tuple(stack))


def random_word(rng: random.Random, max_len: int = 40) -> GroupWord:
    n = rng.randrange(max_len + 1)
    return GroupWord(
        tuple(
            (rng.choice(_GENERATORS), rng.choice((1, -1))) for _ in range(n)
        )
    )


def square_conjugate_obstruction(p: int, q: int) -> bool:
    """Whether length parity obstructs an immersed Moebius band for T(p,q).

    True iff p and q are both odd: then the relator x^p y^-q has even
    length, parity is a well-defined homomorphism to Z/2, every square w*w
    has parity 0, and every conjugate u x^p u^-1 has parity 1 -- so the
    square of the band's core can never equal a conjugate of x^p.  With an
    even parameter the relator itself has odd length and no obstruction
    arises.
    """
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"({p}, {q}) must be coprime")
    if abs(p) < 2 or abs(q) < 2:
        raise ValueError("obstruction needs |p| >= 2 and |q| >= 2")
    return p % 2 == 1 and q % 2 == 1


def _orbit_size(start: int, step, universe_size: int) -> int:
    """Size of the orbit of ``start`` under iterating ``step`` (BFS closure)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = step(frontier.pop())
        if nxt not in seen:
            seen.add(nxt)
            frontier.append(nxt)
        if len(seen) == universe_size:
            break
    return len(seen)


def transitive_strand_counts(n_max: int) -> set[int]:
    """All n in 1..n_max where <j -> n+1-j> acts transitively on {1..n}.

    A connected curve lifting to n strands forces this transitivity.  The
    map j -> n+1-j is an involution, so the group it generates has order
    at most 2 and every orbit has at most 2 elements: the action can be
    transitive only for n <= 2, and it is for n = 1 and n = 2, the core
    and the boundary-parallel curve of the Moebius band.  The orbit search
    below checks this for each n rather than assuming it.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = set()
    for n in range(1, n_max + 1):
        if _orbit_size(1, lambda j: n + 1 - j, n) == n:
            out.add(n)
    return out
