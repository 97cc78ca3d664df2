"""Immersed-vs-embedded Euler characteristic gaps for surgered manifolds.

Surgery on T(2n, 2n-1) along its cabling-annulus slope produces a manifold
in which one mod-2 homology class is represented by an immersed projective
plane (chi = 1), while every embedded representative has a component of
chi <= 1-n.  The bound chains the Bredon-Wood maximum 2-n for closed
nonorientable surfaces in L(2n, 2n-1) with a capping step that costs one
more unit of Euler characteristic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

CHI_IMMERSED = 1  # an immersed projective plane


@dataclass(frozen=True)
class HomologyGapReport:
    n: int
    surgery_slope: int
    chi_immersed: int
    chi_embedded_component_max: int
    gap: int

    def to_dict(self) -> dict:
        return asdict(self)


def _require_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"the construction needs n >= 2, got {n}")


def surgery_slope(n: int) -> int:
    """Framing coefficient of the cabling annulus of T(2n, 2n-1): pq = 2n(2n-1)."""
    _require_n(n)
    return 2 * n * (2 * n - 1)


def bredon_wood_chi_max(n: int) -> int:
    """Maximal chi of a closed connected nonorientable surface embedded in
    the lens space L(2n, 2n-1)."""
    _require_n(n)
    return 2 - n


def embedded_component_bound(n: int) -> HomologyGapReport:
    """Full gap report for index n.

    Capping an embedded representative's essential component off inside the
    lens space costs at least one unit of chi, so the closed-surface bound
    2-n forces a component with chi <= 1-n against the immersed chi of 1.
    """
    _require_n(n)
    chi_max = bredon_wood_chi_max(n) - 1
    return HomologyGapReport(
        n=n,
        surgery_slope=surgery_slope(n),
        chi_immersed=CHI_IMMERSED,
        chi_embedded_component_max=chi_max,
        gap=CHI_IMMERSED - chi_max,
    )


def minimal_twist_contradiction(chi_surface: int, n: int) -> int:
    """Smallest even twist count p that contradicts a spanning surface of
    the given Euler characteristic in the twisted family T(2n-1, 2n+p(2n-1)).

    A surface with one boundary component and chi = chi_surface would be a
    Seifert surface (chi = 1-2g with genus g = (n-1)(2n-1)(1+p), dead once
    1 - 2g < chi) or a nonorientable spanning surface (first Betti number
    1-chi, dead once the crosscap number (p+2n)/2 exceeds it).  Solving the
    two inequalities for even p >= 0 gives the least p where both fail,
    quantifying "p sufficiently large".
    """
    if chi_surface > 1:
        raise ValueError("a connected spanning surface has chi <= 1")
    _require_n(n)
    # Orientable reading dies once 1 + p > (1-chi) / (2(n-1)(2n-1)).
    f = (1 - chi_surface) // (2 * (n - 1) * (2 * n - 1))
    # Nonorientable reading dies once p/2 + n > 1 - chi: at even
    # p >= 4 - 2chi - 2n.
    return max(max(0, 4 - 2 * chi_surface - 2 * n), f + f % 2)
