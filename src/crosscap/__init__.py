"""Crosscap-number invariants of torus and cable knots.

The package decides the immersed crosscap number on torus and cable
presentations, evaluates the embedded 3- and 4-dimensional crosscap numbers
on the torus-knot families where closed forms are pinned down, constructs
and certifies the swept immersed Moebius band as a triangle mesh, runs the
Z/2 and strand-orbit obstructions, and tabulates the immersed-vs-embedded
Euler characteristic gaps of the surgered manifolds.

``import crosscap`` loads no submodule.  Each public name is served from
this package on first access, by importing the one submodule that defines
it, and ``crosscap.knots`` and the other submodules load the same way when
first read, so a CLI command loads only the modules it runs; only the mesh
layer (``crosscap.mobius``) needs numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "homology": (
        "HomologyGapReport",
        "bredon_wood_chi_max",
        "embedded_component_bound",
        "minimal_twist_contradiction",
        "surgery_slope",
    ),
    "invariants": (
        "InvariantReport",
        "InvariantValue",
        "ValueKind",
        "gamma3_torus",
        "gamma4_torus",
        "gamma_I",
        "gap_table",
        "invariant_report",
        "primality",
        "seifert_genus_torus",
    ),
    "knots": (
        "CableKnot",
        "ExternalKnot",
        "InvalidPresentationError",
        "KnotGrammarError",
        "KnotPresentation",
        "PropertyFlags",
        "TorusKnot",
        "TorusParams",
        "UNKNOT",
        "Unknot",
        "format_knot",
        "is_trivial",
        "normalize_torus",
        "parse_knot",
        "winding_is_even",
    ),
    "mobius": (
        "ImmersedMobiusMesh",
        "MeshParameterError",
        "MeshResolutionError",
        "MeshStructureError",
        "MeshVerificationReport",
        "SweepParams",
        "build_mobius",
        "export_mesh",
        "verify_mesh",
    ),
    "words": (
        "square_conjugate_obstruction",
        "transitive_strand_counts",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # Not cached here, so a name always reads what its submodule binds now.
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
