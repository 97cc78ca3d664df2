"""Self-contained property suites for every module, run by ``crosscap audit``.

Each check re-derives an invariant by brute force or exhaustive enumeration
and compares it against the library path.  The whole suite is sized to
finish in well under a minute on default scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from . import homology, invariants, knots, mobius, words


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, fn: Callable[[], None]) -> CheckResult:
    try:
        fn()
    except AssertionError as exc:
        return CheckResult(name, False, str(exc) or "assertion failed")
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, True)


# --- knot model -------------------------------------------------------------


def _knot_normalization() -> None:
    # Row order, so a failure names the first failing pair.
    box = [n for n in range(-40, 41) if n]
    for a in box:
        for b in box:
            try:
                t = knots.TorusParams(a, b)
            except knots.InvalidPresentationError:
                assert gcd(a, b) != 1, f"TorusParams refused coprime ({a}, {b})"
                continue
            assert gcd(a, b) == 1, f"TorusParams accepted gcd violation on ({a}, {b})"
            norm = knots.normalize_torus(t)
            again = knots.normalize_torus(norm)
            assert norm == again, f"normalization not idempotent on ({a}, {b})"
            swapped = knots.normalize_torus(knots.TorusParams(b, a))
            mirrored = knots.normalize_torus(knots.TorusParams(-a, -b))
            assert norm == swapped == mirrored, (
                f"normalization asymmetric on ({a}, {b})"
            )


def _knot_grammar() -> None:
    samples = [
        "unknot",
        "torus(3,4)",
        "torus(-5,-3)",
        "cable(4,3; torus(2,3))",
        "cable(6,5; cable(4,3; torus(2,3)))",
        "external(6_1; hyperbolic=yes, slice=yes)",
        "external(granny)",
    ]
    for text in samples:
        k = knots.parse_knot(text)
        assert knots.parse_knot(knots.format_knot(k)) == k, f"round-trip broke {text}"


# --- invariants -------------------------------------------------------------


def _gamma_i_decision_surface() -> None:
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a == 0 or b == 0 or gcd(abs(a), abs(b)) != 1:
                continue
            value = invariants.gamma_I(knots.TorusKnot(knots.TorusParams(a, b)))
            if min(abs(a), abs(b)) == 1:
                assert value.is_known and value.value == 0, f"unknot case ({a},{b})"
            elif a % 2 == 0 or b % 2 == 0:
                assert value.is_known and value.value == 1, f"even case ({a},{b})"
            else:
                assert value.kind is invariants.ValueKind.LOWER_BOUND
                assert value.value == 2, f"odd-odd case ({a},{b})"


def _gamma_i_cables() -> None:
    trefoil = knots.TorusKnot(knots.TorusParams(2, 3))
    companions = [
        trefoil,
        knots.TorusKnot(knots.TorusParams(2, 5)),
        knots.TorusKnot(knots.TorusParams(3, 5)),
        knots.CableKnot(knots.TorusParams(4, 3), trefoil),
    ]
    # Every torus presentation of the unknot inside |m| <= 10.
    unknots = [
        knots.TorusKnot(knots.TorusParams(a, b))
        for m in (*range(1, 11), *range(-10, 0))
        for a, b in ((1, m), (-1, m), (m, 1), (m, -1))
    ]
    patterns = [
        knots.TorusParams(winding, meridional)
        for winding in (*range(2, 11), *range(-10, -1))
        for meridional in range(-10, 11)
        if meridional and gcd(winding, meridional) == 1
    ]
    for companion in companions:
        for params in patterns:
            k = knots.CableKnot(params, companion)
            value = invariants.gamma_I(k)
            if params.winding % 2 == 0:
                assert value.is_known and value.value == 1, f"cable {k}"
            else:
                assert value.kind is invariants.ValueKind.LOWER_BOUND, f"cable {k}"
                assert value.value == 2, f"cable {k}"
    for unknot in unknots:
        for params in patterns:
            try:
                k = knots.CableKnot(params, unknot)
            except knots.InvalidPresentationError:
                continue
            raise AssertionError(f"cable over the unknot accepted: {k}")


def _genus_families() -> None:
    for n in range(2, 11):
        for p in range(0, 11, 2):
            first = knots.TorusParams(2 * n - 1, 2 * n + p * (2 * n - 1))
            g = invariants.seifert_genus_torus(first)
            assert g.value == (n - 1) * (2 * n - 1) * (1 + p), f"genus {first}"
            c = invariants.gamma3_torus(first)
            assert c.is_known and c.value == (p + 2 * n) // 2, f"gamma3 {first}"
            second = knots.TorusParams(2 * n, 2 * n - 1 + 2 * p * n)
            g2 = invariants.seifert_genus_torus(second)
            assert g2.value == (2 * n - 1) * (n - 1 + p * n), f"genus {second}"


def _gap_growth() -> None:
    rows = invariants.gap_table(50)
    previous = None
    for k, row in zip(range(2, 51), rows):
        assert row.gamma_i.is_known and row.gamma_i.value == 1
        assert row.gamma_3.is_known and row.gamma_3.value == k
        assert row.gamma_4.is_known and row.gamma_4.value == k - 1
        assert row.gamma_3.value >= row.gamma_4.value
        assert row.gap_3i == k - 1 and row.gap_4i == k - 2
        if previous is not None:
            assert row.gap_3i > previous[0] and row.gap_4i > previous[1]
        previous = (row.gap_3i, row.gap_4i)


# --- swept band -------------------------------------------------------------

_AUDIT_MESH_CASES = [(1, 3), (1, 5), (2, 3), (2, 5), (3, 5)]


def _mesh_certification() -> None:
    for p, q in _AUDIT_MESH_CASES:
        params = mobius.SweepParams(p=p, q=q, theta_steps=256)
        mesh = mobius.build_mobius(params)
        report = mobius.verify_mesh(mesh, params)
        assert report.certified, f"({p},{q}) failed {', '.join(report.failed_checks)}"
        if p == 1:
            points = mobius.self_intersection_points(mesh, params)
            assert len(points) == 0, "p=1 band must be embedded"


# Every valid (p, q) with 2p|q| <= 40, both signs of q.
_SMALL_BANDS = [
    (p, q)
    for p in range(1, 21)
    for q in range(-20, 21)
    if q != 0 and gcd(2 * p, abs(q)) == 1 and 2 * p * abs(q) <= 40
]


def _mesh_monodromy() -> None:
    for p, q in _SMALL_BANDS:
        length, flipped = mobius.chord_cycle(p, q)
        assert length == p, f"chord cycle for ({p},{q}) has length {length}"
        assert flipped, f"chord cycle for ({p},{q}) came back unflipped"


def _mesh_small_parameter_sweep() -> None:
    for p, q in _SMALL_BANDS:
        params = mobius.SweepParams(
            p=p, q=q, theta_steps=max(8, 4 * p * abs(q)), chord_steps=3
        )
        mesh = mobius.build_mobius(params)
        assert mobius.euler_characteristic(mesh) == 0, f"chi ({p},{q})"
        assert len(mobius.boundary_cycles(mesh)) == 1, f"boundary ({p},{q})"
        assert not mobius.is_orientable(mesh), f"orientable ({p},{q})"


def _mesh_refinement_stability() -> None:
    # Both resolutions certify, so both carry the band's integer report.
    for theta_steps, chord_steps in ((32, 4), (64, 8)):
        params = mobius.SweepParams(2, 3, theta_steps, chord_steps)
        report = mobius.verify_mesh(mobius.build_mobius(params), params)
        assert report.certified, f"{params} failed {', '.join(report.failed_checks)}"


# --- group words ------------------------------------------------------------


def _first_miss(ok, p, q, claim: str) -> None:
    misses = np.flatnonzero(~ok)
    if len(misses):
        i = misses[0]
        raise AssertionError(f"{claim} fails at (p, q) = ({p[i]}, {q[i]})")


def _z2_homomorphisms() -> None:
    """Hom(<x, y | x^p = y^q>, Z/2) on every coprime (p, q) with
    1 <= |p|, |q| <= 200, with the relator written both ways, against the
    obstruction."""
    # Both signs of every magnitude, smallest first, so a failure names the
    # smallest disagreeing pair.
    grid = np.array([s * m for m in range(1, 201) for s in (1, -1)], np.int16)
    p, q = (axis.ravel() for axis in np.meshgrid(grid, grid, indexing="ij"))
    coprime = np.gcd(p, q) == 1
    p, q = p[coprime], q[coprime]
    both_odd = (p % 2 == 1) & (q % 2 == 1)
    # phi(w) depends only on w's exponent sums mod 2: four classes of w.
    for phi in words.Z2_MAPS:
        for u, v in words.Z2_MAPS:
            assert words.z2_image(phi, 2 * u, 2 * v) == 0, (
                f"{phi} sends the square of a word of class {(u, v)} to 1"
            )
    for relator, (x_sum, y_sum) in (("x^p y^-q", (p, -q)), ("y^q x^-p", (-p, q))):
        kept = {phi: words.z2_image(phi, x_sum, y_sum) == 0 for phi in words.Z2_MAPS}
        _first_miss(kept[(0, 0)], p, q, f"the trivial map kills {relator}")
        _first_miss(kept[words.LENGTH_PARITY] == ((p + q) % 2 == 0), p, q,
                    f"length parity kills {relator} iff p + q is even")
        sends_x_p_to_1 = np.zeros_like(both_odd)
        for phi, k in kept.items():
            sends_x_p_to_1 |= k & (words.z2_image(phi, p, 0) == 1)
        _first_miss(sends_x_p_to_1 == both_odd, p, q,
                    f"some phi killing {relator} sends x^p to 1 iff p, q are odd")
    big = (np.abs(p) >= 2) & (np.abs(q) >= 2)
    p, q, both_odd = p[big], q[big], both_odd[big]
    # map(int, ...) hands over one Python int at a time; two .tolist()
    # copies would hold ~190k int objects at once.
    obstructed = np.fromiter(
        map(words.square_conjugate_obstruction, map(int, p), map(int, q)),
        bool, count=len(p),
    )
    _first_miss(obstructed == both_odd, p, q,
                "square_conjugate_obstruction iff p, q are odd")


def _strand_counts() -> None:
    assert words.transitive_strand_counts(10_000) == {1, 2}


# --- homology ---------------------------------------------------------------


def _gap_reports() -> None:
    previous = None
    for n in range(2, 101):
        report = homology.embedded_component_bound(n)
        assert report.surgery_slope == 2 * n * (2 * n - 1)
        assert report.chi_immersed == 1
        assert report.chi_embedded_component_max == 1 - n
        assert report.gap == n
        assert report.chi_embedded_component_max + 1 == homology.bredon_wood_chi_max(n)
        if previous is not None:
            assert report.gap > previous
        previous = report.gap


def _twist_monotonicity() -> None:
    for n in range(2, 11):
        prev = None
        for chi in range(1, -21, -1):
            p = homology.minimal_twist_contradiction(chi, n)
            if prev is not None:
                assert p >= prev, f"twist count dropped as chi fell at ({chi},{n})"
            prev = p
    for chi in range(-20, 2):
        prev = None
        for n in range(2, 11):
            p = homology.minimal_twist_contradiction(chi, n)
            if prev is not None:
                assert p <= prev, f"twist count rose with n at ({chi},{n})"
            prev = p


def _twist_contradicts(chi: int, n: int, p: int) -> bool:
    """Both spanning-surface readings fail for T(2n-1, 2n+p(2n-1)), by the
    genus and crosscap formulas of the invariants module."""
    t = knots.TorusParams(2 * n - 1, 2 * n + p * (2 * n - 1))
    genus = invariants.seifert_genus_torus(t).value
    return 1 - 2 * genus < chi and invariants.gamma3_torus(t).value > 1 - chi


def _genus_cross_check() -> None:
    # The closed-form twist count is the least even p at which invariants'
    # genus and crosscap formulas both rule the surface out.
    for n in range(2, 11):
        for chi in range(1, -21, -1):
            p = homology.minimal_twist_contradiction(chi, n)
            assert p % 2 == 0, f"odd twist count at ({chi},{n})"
            assert _twist_contradicts(chi, n, p), f"no contradiction at ({chi},{n})"
            assert p == 0 or not _twist_contradicts(chi, n, p - 2), (
                f"not least at ({chi},{n})"
            )


def run_audit() -> list[CheckResult]:
    """Run every property suite; results carry one line per check."""
    suites: list[tuple[str, Callable[[], None]]] = [
        ("knots: normalization idempotent and symmetric, gcd checked, "
         "on every (a, b) with 1 <= |a|, |b| <= 40", _knot_normalization),
        ("knots: grammar round-trip", _knot_grammar),
        ("invariants: gamma_I decision surface, entries <= 30",
         _gamma_i_decision_surface),
        ("invariants: gamma_I on cables, winding <= 10", _gamma_i_cables),
        ("invariants: genus/crosscap twisted families", _genus_families),
        ("invariants: gap table strictly increasing to k = 50", _gap_growth),
        ("mobius: certify swept bands at theta_steps = 256", _mesh_certification),
        ("mobius: every band with 2p|q| <= 40 is one Moebius band",
         _mesh_small_parameter_sweep),
        ("mobius: chord monodromy is one flipped cycle", _mesh_monodromy),
        ("mobius: refinement leaves integer report unchanged",
         _mesh_refinement_stability),
        ("words: Hom(<x, y | x^p = y^q>, Z/2) for coprime |p|, |q| <= 200",
         _z2_homomorphisms),
        ("words: transitive strand counts up to 10000", _strand_counts),
        ("homology: gap reports for n = 2..100", _gap_reports),
        ("homology: twist contradiction monotone", _twist_monotonicity),
        ("homology: genus formulas agree across modules", _genus_cross_check),
    ]
    return [_check(name, fn) for name, fn in suites]
