"""Crosscap-number invariants of torus and cable knots.

The package decides the immersed crosscap number on torus and cable
presentations, evaluates the embedded 3- and 4-dimensional crosscap numbers
on the torus-knot families where closed forms are pinned down, constructs
and certifies the swept immersed Moebius band as a triangle mesh, runs the
word-parity and strand-orbit obstructions, and tabulates the
immersed-vs-embedded Euler characteristic gaps of the surgered manifolds.

Only the mesh layer (``crosscap.mobius``) needs numpy. Its public names are
served from this package on first access, so ``import crosscap`` and every
CLI command other than ``build-mobius``, ``verify-mesh`` and ``audit`` run
without loading numpy, and start in about half the time.
"""

from .homology import (
    HomologyGapReport,
    bredon_wood_chi_max,
    embedded_component_bound,
    minimal_twist_contradiction,
    surgery_slope,
)
from .invariants import (
    InvariantReport,
    InvariantValue,
    ValueKind,
    gamma3_torus,
    gamma4_torus,
    gamma_I,
    gap_table,
    invariant_report,
    primality,
    seifert_genus_torus,
)
from .knots import (
    CableKnot,
    ExternalKnot,
    InvalidPresentationError,
    KnotGrammarError,
    KnotPresentation,
    PropertyFlags,
    TorusKnot,
    TorusParams,
    UNKNOT,
    Unknot,
    ValidationResult,
    format_knot,
    is_trivial,
    normalize_torus,
    parse_knot,
    validate,
    winding_is_even,
)
from .words import (
    GroupWord,
    algebraic_length_parity,
    insert_relator,
    parse_word,
    square_conjugate_obstruction,
    transitive_strand_counts,
)

__version__ = "0.1.0"

# Public names of the numpy-backed mesh layer, imported on first access.
_MOBIUS_NAMES = frozenset({
    "ImmersedMobiusMesh",
    "MeshParameterError",
    "MeshResolutionError",
    "MeshStructureError",
    "MeshVerificationReport",
    "SweepParams",
    "build_mobius",
    "export_mesh",
    "verify_mesh",
})

__all__ = [
    "CableKnot",
    "ExternalKnot",
    "GroupWord",
    "HomologyGapReport",
    "ImmersedMobiusMesh",
    "InvalidPresentationError",
    "InvariantReport",
    "InvariantValue",
    "KnotGrammarError",
    "KnotPresentation",
    "MeshParameterError",
    "MeshResolutionError",
    "MeshStructureError",
    "MeshVerificationReport",
    "PropertyFlags",
    "SweepParams",
    "TorusKnot",
    "TorusParams",
    "UNKNOT",
    "Unknot",
    "ValidationResult",
    "ValueKind",
    "algebraic_length_parity",
    "bredon_wood_chi_max",
    "build_mobius",
    "embedded_component_bound",
    "export_mesh",
    "format_knot",
    "gamma3_torus",
    "gamma4_torus",
    "gamma_I",
    "gap_table",
    "insert_relator",
    "invariant_report",
    "is_trivial",
    "minimal_twist_contradiction",
    "normalize_torus",
    "parse_knot",
    "parse_word",
    "primality",
    "seifert_genus_torus",
    "square_conjugate_obstruction",
    "surgery_slope",
    "transitive_strand_counts",
    "validate",
    "verify_mesh",
    "winding_is_even",
]


def __getattr__(name: str):
    # Not cached here, so a name always reads what ``crosscap.mobius`` binds.
    if name in _MOBIUS_NAMES:
        from . import mobius

        return getattr(mobius, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
