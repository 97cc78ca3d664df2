"""The Z/2 obstruction in the torus-knot group, and strand orbits.

The group of a (p,q)-torus knot exterior is <x, y | x^p = y^q>.  A map to
Z/2 is fixed by phi(x) = a and phi(y) = b, and it is a homomorphism when it
sends the relator x^p y^-q to pa - qb = 0 (mod 2); the four candidates are
enumerated directly.  When p and q are both odd, word-length parity
(a = b = 1) is one of them: it sends every square to 0 and x^p to 1, which
rules out an immersed Moebius band.  The strand-orbit computation
classifies simple closed curves on the Moebius band: only 1 or 2 strands
can be permuted transitively by the edge identification.
"""

from __future__ import annotations

from math import gcd

# The four maps from the free group on {x, y} to Z/2, as (phi(x), phi(y)).
Z2_MAPS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Word-length parity: every letter counts 1, whatever its sign.
LENGTH_PARITY = (1, 1)


def z2_image(phi: tuple[int, int], x_sum, y_sum):
    """phi(w) in Z/2 for a word w whose exponent sums in x and y are given.

    A map to Z/2 sees only exponent sums, so this is a*x_sum + b*y_sum
    mod 2.  It works elementwise on numpy integer arrays.
    """
    a, b = phi
    return (a * x_sum + b * y_sum) % 2


def z2_homomorphisms(x_sum: int, y_sum: int) -> list[tuple[int, int]]:
    """The maps of ``Z2_MAPS`` that send a relator with these exponent sums
    to 0: Hom(<x, y | relator>, Z/2).

    The relator x^p y^-q has exponent sums (p, -q); written y^q x^-p it
    has (-p, q).
    """
    return [phi for phi in Z2_MAPS if z2_image(phi, x_sum, y_sum) == 0]


def square_conjugate_obstruction(p: int, q: int) -> bool:
    """Whether a map to Z/2 obstructs an immersed Moebius band for T(p,q).

    True iff some homomorphism phi from <x, y | x^p = y^q> to Z/2 sends x^p
    to 1.  Every homomorphism sends a square w*w to 2 phi(w) = 0, so the
    square of the band's core can then never equal a conjugate of x^p.
    Such a phi exists iff p and q are both odd, and it is word-length
    parity; with an even parameter every homomorphism sends x^p to 0.
    """
    if gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) must be coprime")
    if abs(p) < 2 or abs(q) < 2:
        raise ValueError("obstruction needs |p| >= 2 and |q| >= 2")
    return any(z2_image(phi, p, 0) for phi in z2_homomorphisms(p, -q))


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
