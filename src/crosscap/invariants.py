"""Crosscap and genus invariants on the knot families with pinned values.

The immersed crosscap number gamma_I is decided completely on torus and
cable presentations: it is 1 exactly on the nontrivial even-winding ones,
and at least 2 otherwise.  The embedded invariants gamma_3 and gamma_4 are
only known in closed form on specific torus-knot families, so results are
tri-state values (known / one-sided bound / unknown) carrying a provenance
string that names the producing argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .knots import (
    CableKnot,
    ExternalKnot,
    KnotPresentation,
    TorusKnot,
    TorusParams,
    format_knot,
    is_trivial,
    normalize_torus,
    winding_is_even,
)


class ValueKind(enum.Enum):
    KNOWN = "known"
    LOWER_BOUND = "lower_bound"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class InvariantValue:
    """Exact value, one-sided bound, or unknown, with provenance text."""

    kind: ValueKind
    value: Optional[int]
    provenance: str

    def __post_init__(self) -> None:
        if self.kind is ValueKind.UNKNOWN:
            if self.value is not None:
                raise ValueError("unknown values carry no number")
        else:
            if self.value is None or self.value < 0:
                raise ValueError("invariant values are nonnegative integers")
            if not self.provenance:
                raise ValueError("known values and bounds need provenance")

    @classmethod
    def known(cls, value: int, provenance: str) -> "InvariantValue":
        return cls(ValueKind.KNOWN, value, provenance)

    @classmethod
    def lower_bound(cls, value: int, provenance: str) -> "InvariantValue":
        return cls(ValueKind.LOWER_BOUND, value, provenance)

    @classmethod
    def unknown(cls, provenance: str = "") -> "InvariantValue":
        return cls(ValueKind.UNKNOWN, None, provenance)

    @property
    def is_known(self) -> bool:
        return self.kind is ValueKind.KNOWN

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "value": self.value,
            "provenance": self.provenance,
        }

    def __str__(self) -> str:
        if self.kind is ValueKind.KNOWN:
            return str(self.value)
        if self.kind is ValueKind.LOWER_BOUND:
            return f">= {self.value}"
        return "unknown"


_UNKNOT_PROV = "the unknot spans a disk; all of its crosscap and genus invariants are 0"
_EVEN_TORUS_PROV = (
    "nontrivial even-winding torus knot: sweeping the diameters of the meridian "
    "disks yields an immersed Moebius band embedded near its boundary"
)
_ODD_TORUS_PROV = (
    "odd-odd torus knot: the parity homomorphism of the knot group separates "
    "squares from conjugates of the core, so no immersed Moebius band exists; "
    "a nontrivial knot therefore needs at least two crosscaps"
)
_EVEN_CABLE_PROV = (
    "even-winding cable knot: the swept Moebius band construction applies "
    "inside the knotted companion torus"
)
_ODD_CABLE_PROV = (
    "odd-winding cable: the one-crosscap classification requires even winding, "
    "taking the given cable structure as the knot's unique one; a nontrivial "
    "knot therefore needs at least two crosscaps"
)
_HYPERBOLIC_PROV = (
    "hyperbolic knots are neither torus nor cable knots, so they bound no "
    "immersed Moebius band embedded near the boundary"
)
_SEIFERT_PROV = "torus-knot Seifert genus closed form (a-1)(b-1)/2"
_GAMMA3_PROV = (
    "crosscap-number formula gamma_3 = (p+2n)/2 for the twisted torus-knot "
    "family T(2n-1, 2n+p(2n-1)) with p even"
)
_GAMMA4_PROV = (
    "nonorientable 4-ball genus gamma_4(T(2k-1,2k)) = k-1 from the "
    "signature and d-invariant lower bound, matched by an explicit surface"
)
_SLICE_PROV = "slice knots bound a disk in the 4-ball, so gamma_4 = 0"


def gamma_I(k: KnotPresentation) -> InvariantValue:
    """Immersed crosscap number via the even-winding classification.

    Known(0) for trivial presentations, Known(1) for nontrivial torus/cable
    presentations with even winding, LowerBound(2) for the odd-winding ones
    and for knots asserted hyperbolic, Unknown otherwise.
    """
    if is_trivial(k):
        return InvariantValue.known(0, _UNKNOT_PROV)
    if isinstance(k, ExternalKnot):
        if k.flags.hyperbolic:
            return InvariantValue.lower_bound(2, _HYPERBOLIC_PROV)
        return InvariantValue.unknown("no structural information about this knot")
    if isinstance(k, TorusKnot):
        even_prov, odd_prov = _EVEN_TORUS_PROV, _ODD_TORUS_PROV
    else:
        even_prov, odd_prov = _EVEN_CABLE_PROV, _ODD_CABLE_PROV
    if winding_is_even(k):
        return InvariantValue.known(1, even_prov)
    return InvariantValue.lower_bound(2, odd_prov)


def seifert_genus_torus(t: TorusParams) -> InvariantValue:
    """Seifert genus of the torus knot with the given parameters."""
    norm = normalize_torus(t)
    if norm is None:
        return InvariantValue.known(0, _UNKNOT_PROV)
    a, b = norm.winding, norm.meridional
    return InvariantValue.known((a - 1) * (b - 1) // 2, _SEIFERT_PROV)


def _twist_family_match(norm: TorusParams) -> Optional[tuple[int, int]]:
    """Match (a, b) against T(2n-1, 2n+p(2n-1)), n >= 2, even p >= 0.

    Returns (n, p) on success.  The p = 0 slice of the family is exactly the
    T(2k-1, 2k) family, so a single matcher covers both pinned shapes.
    """
    a, b = norm.winding, norm.meridional
    if a % 2 == 0 or a < 3:
        return None
    rem = b - a - 1
    if rem < 0 or rem % a != 0:
        return None
    p = rem // a
    if p % 2 != 0:
        return None
    return (a + 1) // 2, p


def gamma3_torus(t: TorusParams) -> InvariantValue:
    """Embedded crosscap number where a closed form is pinned down.

    Known on the twisted family T(2n-1, 2n+p(2n-1)) (n >= 2, even p >= 0),
    whose p = 0 slice gives gamma_3(T(2k-1, 2k)) = k.  No general algorithm
    is implemented, so anything else is Unknown rather than guessed.
    """
    norm = normalize_torus(t)
    if norm is None:
        return InvariantValue.known(0, _UNKNOT_PROV)
    match = _twist_family_match(norm)
    if match is None:
        return InvariantValue.unknown(
            "outside the torus-knot families with a pinned crosscap formula"
        )
    n, p = match
    return InvariantValue.known((p + 2 * n) // 2, _GAMMA3_PROV)


def gamma4_torus(t: TorusParams) -> InvariantValue:
    """4-dimensional crosscap number on the T(2k-1, 2k) family."""
    norm = normalize_torus(t)
    if norm is None:
        return InvariantValue.known(0, _UNKNOT_PROV)
    match = _twist_family_match(norm)
    if match is not None and match[1] == 0:  # T(2k-1, 2k) with k = n
        return InvariantValue.known(match[0] - 1, _GAMMA4_PROV)
    return InvariantValue.unknown(
        "outside the torus-knot family with a pinned 4-dimensional value"
    )


def primality(k: KnotPresentation) -> Optional[bool]:
    """Primality when it follows from the presentation's structure.

    Nontrivial torus and cable knots are prime.  Trivial presentations
    return None (the unknot is neither prime nor composite), as do opaque
    external names.
    """
    if is_trivial(k):
        return None
    if isinstance(k, (TorusKnot, CableKnot)):
        return True
    return None


@dataclass(frozen=True)
class InvariantReport:
    """Bundle of the four invariants plus primality; the gaps derive from them."""

    knot: KnotPresentation
    gamma_i: InvariantValue
    gamma_3: InvariantValue
    gamma_4: InvariantValue
    g_3: InvariantValue
    prime: Optional[bool]

    def __post_init__(self) -> None:
        if self.gap_3i is not None and self.gap_3i < 0:
            raise ValueError("gamma_3 must dominate gamma_I")
        if self.gamma_3.is_known and self.gamma_4.is_known:
            if self.gamma_3.value < self.gamma_4.value:
                raise ValueError("gamma_3 must dominate gamma_4")

    @property
    def gap_3i(self) -> Optional[int]:
        """gamma_3 - gamma_I, or None unless both are known."""
        known = self.gamma_3.is_known and self.gamma_i.is_known
        return self.gamma_3.value - self.gamma_i.value if known else None

    @property
    def gap_4i(self) -> Optional[int]:
        """gamma_4 - gamma_I, or None unless both are known."""
        known = self.gamma_4.is_known and self.gamma_i.is_known
        return self.gamma_4.value - self.gamma_i.value if known else None

    def to_dict(self) -> dict:
        return {
            "knot": format_knot(self.knot),
            "gamma_i": self.gamma_i.to_dict(),
            "gamma_3": self.gamma_3.to_dict(),
            "gamma_4": self.gamma_4.to_dict(),
            "g_3": self.g_3.to_dict(),
            "prime": self.prime,
            "gap_3i": self.gap_3i,
            "gap_4i": self.gap_4i,
        }


def invariant_report(k: KnotPresentation) -> InvariantReport:
    """Compute every implemented invariant of one presentation."""
    gi = gamma_I(k)
    if is_trivial(k):
        g3v = c3 = c4 = InvariantValue.known(0, _UNKNOT_PROV)
    elif isinstance(k, TorusKnot):
        g3v = seifert_genus_torus(k.params)
        c3 = gamma3_torus(k.params)
        c4 = gamma4_torus(k.params)
    else:
        reason = (
            "no closed form implemented for cables"
            if isinstance(k, CableKnot)
            else "no formula for a knot known only by name"
        )
        g3v = c3 = c4 = InvariantValue.unknown(reason)
        if isinstance(k, ExternalKnot) and k.flags.slice:
            c4 = InvariantValue.known(0, _SLICE_PROV)
    return InvariantReport(
        knot=k,
        gamma_i=gi,
        gamma_3=c3,
        gamma_4=c4,
        g_3=g3v,
        prime=primality(k),
    )


# gap_table holds every report in memory, about 1.25 KB a row, so k_max is
# capped at MAX_GAP_K: a larger table is refused rather than left to grow
# until the process runs out of memory.
MAX_GAP_K = 100_000


def gap_table(k_max: int) -> list[InvariantReport]:
    """Reports for T(2k, 2k-1), k = 2..k_max: gamma_I stays 1 while the
    embedded crosscap numbers grow linearly, so both gaps are unbounded."""
    if k_max < 2:
        raise ValueError("gap_table needs k_max >= 2; the family starts at k = 2")
    if k_max > MAX_GAP_K:
        raise ValueError(f"gap_table needs k_max <= {MAX_GAP_K}, got {k_max}")
    return [
        invariant_report(TorusKnot(TorusParams(2 * k, 2 * k - 1)))
        for k in range(2, k_max + 1)
    ]
