"""Mutant matrix: meshes that are not the swept band, and a certificate that
should refuse them.

Each row edits the vertices of a build_mobius mesh, or replaces a piece of
the self-intersection scan, and calls verify_mesh directly.  A row names the
ROADMAP item whose landing must catch it and, where that item names one, the
check that must appear in failed_checks.  Until the item lands the row is a
strict xfail, so a catch that comes early shows as a strict XPASS; the
landing change drops its rows' markers.  The control rows check that every
base band certifies unmutated, and a guard checks that every mutant changes
its mesh or its scan, so no row can xfail by breaking its band or by doing
nothing.

Vertex (i, j, m), sample m of chord j in slice i, has id
(i*p + j)*chord_steps + m.
"""

import numpy as np
import pytest

from crosscap import mobius
from crosscap.mobius import ImmersedMobiusMesh, RING_RADIUS, SweepParams


def vertex_id(s, i, j, m):
    return (i * s.p + j) * s.chord_steps + m


def empty_scan(s, vertices, monkeypatch):
    monkeypatch.setattr(mobius, "self_intersection_points",
                        lambda mesh, params: np.empty((0, 3)))


def drop_every_50th_pair(s, vertices, monkeypatch):
    candidate_pairs = mobius._candidate_pairs

    def dropping(mesh, s):
        seen = 0
        for pairs in candidate_pairs(mesh, s):
            yield pairs[(np.arange(seen, seen + len(pairs)) + 1) % 50 != 0]
            seen += len(pairs)

    monkeypatch.setattr(mobius, "_candidate_pairs", dropping)


def fold(edges):
    """Drag vertex (10, 0, 2) along its chord by `edges` times its edge to
    (10, 0, 3), past that vertex: two of its six star triangles flip."""
    def mutate(s, vertices, monkeypatch):
        a, b = vertex_id(s, 10, 0, 2), vertex_id(s, 10, 0, 3)
        vertices[a] += edges * (vertices[b] - vertices[a])
    return mutate


def strand_swap(slices):
    """Exchange boundary samples (i, 0, 0) and (i, 1, 0) in each given slice i."""
    def mutate(s, vertices, monkeypatch):
        for i in slices:
            a, b = vertex_id(s, i, 0, 0), vertex_id(s, i, 1, 0)
            vertices[[a, b]] = vertices[[b, a]]
    return mutate


def spike(m):
    """Move vertex (10, 0, m) of a p = 1 band onto vertex (40, 0, m)."""
    def mutate(s, vertices, monkeypatch):
        vertices[vertex_id(s, 10, 0, m)] = vertices[vertex_id(s, 40, 0, m)]
    return mutate


def quad_corners(s):
    """Vertices a, b, c, d = (10, 0, 5), (11, 0, 5), (10, 0, 6), (11, 0, 6)
    of one quad, whose triangles are (a, b, d) and (a, d, c)."""
    return [vertex_id(s, i, 0, m) for i, m in ((10, 5), (11, 5), (10, 6), (11, 6))]


def coplanar_fold(s, vertices, monkeypatch):
    """Move c to the centroid of (a, b, d): triangle (a, d, c) then lies
    inside (a, b, d), facing the other way."""
    a, b, c, d = quad_corners(s)
    vertices[c] = (vertices[a] + vertices[b] + vertices[d]) / 3


def through_link(s, vertices, monkeypatch):
    """Reflect a through the midpoint of its link edge b-d."""
    a, b, _, d = quad_corners(s)
    vertices[a] = vertices[b] + vertices[d] - vertices[a]


def boundary_lift(s, vertices, monkeypatch):
    """Move boundary vertex (10, 0, 0) 1e-6 outward along its meridian
    radius, off the torus."""
    theta = 2 * np.pi * 10 / s.theta_steps
    core = RING_RADIUS * np.array([np.cos(theta), np.sin(theta), 0.0])
    a = vertex_id(s, 10, 0, 0)
    outward = vertices[a] - core
    vertices[a] += 1e-6 * outward / np.linalg.norm(outward)


OFFCORE = "max_offcore_selfintersection_distance"

# (id, ROADMAP item, check to name or None, base band, mutant)
ROWS = [
    ("empty-scan", 9, None, (3, 5, 256, 8), empty_scan),
    ("scan-drops-1-in-50", 9, None, (3, 5, 256, 8), drop_every_50th_pair),
    *[(f"fold-{edges}", 15, "immersion", (2, 3, 64, 16), fold(edges))
      for edges in (2.5, 3.0, 3.5)],
    ("coplanar-fold", 15, "immersion", (2, 3, 64, 16), coplanar_fold),
    ("through-link", 15, "immersion", (2, 3, 64, 16), through_link),
    *[(f"strand-swap-p{base[0]}-over-{len(slices)}", 2, OFFCORE, base, strand_swap(slices))
      for base in ((2, 3, 64, 8), (3, 5, 256, 8)) for slices in ((10,), (10, 11, 12))],
    *[(f"p1-spike-{m}", 4, OFFCORE, (1, 3, 64, 8), spike(m)) for m in (1, 6)],
    ("boundary-lift", 16, "boundary_knot", (2, 3, 64, 8), boundary_lift),
]
BASES = sorted({row[3] for row in ROWS})


def mutant(base, mutate, monkeypatch):
    params = SweepParams(*base)
    band = mobius.build_mobius(params)
    vertices = band.vertices.copy()
    mutate(params, vertices, monkeypatch)
    return params, band, ImmersedMobiusMesh(vertices, band.triangles)


@pytest.mark.parametrize("check, base, mutate", [
    pytest.param(check, base, mutate, id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {item}"))
    for name, item, check, base, mutate in ROWS
])
def test_mutant_is_refused(check, base, mutate, monkeypatch):
    params, _, mesh = mutant(base, mutate, monkeypatch)
    report = mobius.verify_mesh(mesh, params)
    assert not report.certified
    if check is not None:
        assert check in report.failed_checks


@pytest.mark.parametrize("base", BASES, ids=str)
def test_unmutated_band_certifies(base):
    params = SweepParams(*base)
    assert mobius.verify_mesh(mobius.build_mobius(params), params).certified


@pytest.mark.parametrize("base, mutate", [
    pytest.param(base, mutate, id=name) for name, _, _, base, mutate in ROWS
])
def test_mutant_changes_its_mesh_or_its_scan(base, mutate, monkeypatch):
    params = SweepParams(*base)
    rows = len(mobius.self_intersection_points(mobius.build_mobius(params), params))
    _, band, mesh = mutant(base, mutate, monkeypatch)
    moved = not np.array_equal(mesh.vertices, band.vertices)
    assert moved or len(mobius.self_intersection_points(mesh, params)) != rows
