"""Swept immersed Moebius band with boundary T(2p, q), as a triangle mesh.

Every meridian disk of the standard solid torus meets the boundary knot in
2p evenly spaced points; joining antipodal pairs with p diameters and
letting the disk angle advance with the sweep angle produces a band whose
single boundary curve is the (2p, q) torus knot.  The p diameters of one
disk meet only at its center, so the band is embedded away from the core
circle of the solid torus, and all self-intersections of a faithful mesh
must stay within discretization distance of that core.

The solid torus has ring radius RING_RADIUS = 2 and tube radius
TUBE_RADIUS = 1, fixed for every band.

The mesh stores only ambient vertices and triangles.  The surface is
immersed, so distinct domain points may share an ambient point, and the
sweep-specific checks read the abstract domain from the numbering that
build_mobius fixes instead.  The vertex ids form one (slice, chord, sample)
grid of shape (theta_steps, p, chord_steps): sample m of chord j in slice i
is vertex (i*p + j)*chord_steps + m.  Quad (i, j, m) joins samples m and
m+1 of chord j in slices i and i+1, and its two triangles are consecutive
and both start at vertex (i, j, m).  Vertices are identified only at the
sweep wraparound, where slice theta_steps stands for slice 0: chord j at
the full angle matches chord (j+q) mod p at angle zero with the induced
endpoint map.  The generic checks (structure, Euler characteristic,
boundary cycles, orientability, edge lengths) read nothing but the vertices
and triangles.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import gcd, inf, pi
from typing import Callable, NamedTuple, Optional

import numpy as np

DEFAULT_MAX_TRIANGLES = 2_000_000
MAX_MESH_ENV = "CROSSCAP_MAX_MESH"
RING_RADIUS = 2.0  # distance from the axis to the core circle
TUBE_RADIUS = 1.0  # radius of each meridian disk


class MeshParameterError(ValueError):
    """Sweep parameters violate an arithmetic or budget constraint."""


class MeshResolutionError(MeshParameterError):
    """Angular resolution too small to separate adjacent boundary points."""


class MeshStructureError(ValueError):
    """Mesh is not a two-manifold with boundary in the abstract domain."""


def max_triangle_budget() -> int:
    raw = os.environ.get(MAX_MESH_ENV)
    if raw is None:
        return DEFAULT_MAX_TRIANGLES
    try:
        value = int(raw)
    except ValueError:
        raise MeshParameterError(f"{MAX_MESH_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise MeshParameterError(f"{MAX_MESH_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SweepParams:
    """Boundary class and resolution of the swept band.

    p >= 1 is half the boundary winding (the number of chords per disk), q
    the meridional coefficient, nonzero with gcd(2p, q) = 1, theta_steps >= 8
    the number of sweep slices, chord_steps >= 2 the number of samples along
    each chord.  A value that breaks a rule raises MeshParameterError when
    it is built, so every SweepParams is a valid sweep.  build_mobius then
    checks the triangle budget, read from the environment, and the
    resolution floor theta_steps >= 4p|q| that measuring the band needs.
    """

    p: int
    q: int
    theta_steps: int = 128
    chord_steps: int = 8

    def __post_init__(self) -> None:
        if self.p < 1:
            raise MeshParameterError(f"p must be >= 1, got {self.p}")
        if self.q == 0:
            raise MeshParameterError("q must be nonzero")
        if gcd(2 * self.p, abs(self.q)) != 1:
            raise MeshParameterError(
                f"gcd(2p, q) must be 1, got gcd({2 * self.p}, {abs(self.q)}) != 1"
            )
        if self.theta_steps < 8:
            raise MeshParameterError(f"theta_steps must be >= 8, got {self.theta_steps}")
        if self.chord_steps < 2:
            raise MeshParameterError(f"chord_steps must be >= 2, got {self.chord_steps}")

    @property
    def triangle_count(self) -> int:
        return 2 * self.theta_steps * self.p * (self.chord_steps - 1)


def _check_triangle_budget(count: int, subject: str) -> None:
    budget = max_triangle_budget()
    if count > budget:
        raise MeshParameterError(
            f"{subject} {count} triangles, over the budget {budget}"
        )


def chord_successor(p: int, q: int, j: int) -> tuple[int, bool]:
    """Chord that continues chord j across the sweep wraparound.

    Returns (next chord index, flip), where flip means the chord comes back
    with its endpoints exchanged.
    """
    nxt = (j + q) % (2 * p)
    if nxt < p:
        return nxt, False
    return nxt - p, True


def chord_cycle(p: int, q: int) -> tuple[int, bool]:
    """Follow chord 0 around the sweep until it first returns.

    Returns (number of sweeps, net endpoint exchange).  A single Moebius
    band needs the cycle to visit all p chords and come back flipped.
    """
    j, flipped, steps = 0, False, 0
    while True:
        j, f = chord_successor(p, q, j)
        flipped ^= f
        steps += 1
        if j == 0:
            return steps, flipped


@dataclass(frozen=True, eq=False)
class ImmersedMobiusMesh:
    """Triangulated immersed band: ambient vertices and triangles.

    A mesh from build_mobius carries its abstract domain in its numbering
    (see the module docstring), which the sweep checks read together with
    the SweepParams.  The edge table, the boundary and its cycles are
    derived from the triangles, each at most once per mesh.
    """

    vertices: np.ndarray   # (V, 3) float64 ambient coordinates
    triangles: np.ndarray  # (F, 3) int32

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    @cached_property
    def _edge_table(self) -> _EdgeTable:
        return _build_edge_table(self.triangles, self.vertex_count)

    @property
    def boundary_edges(self) -> np.ndarray:
        """(B, 2) int32 (lo, hi) edges on exactly one triangle, in order."""
        table = self._edge_table
        return table.edges[table.counts == 1]

    @cached_property
    def _boundary_cycles(self) -> list[list[int]]:
        return _walk_cycles(self.boundary_edges)


class _EdgeTable(NamedTuple):
    """Undirected edges of a triangle list, from one stable sort of their
    keys lo * V + hi; an index outside [0, V) would alias another edge, so
    _build_edge_table rejects it.  Each edge (lo, hi) is the divmod of its
    key by V, read from the sorted keys where they change.

    Half-edge 3t + k runs from corner k of triangle t to corner (k + 1) % 3.
    by_edge lists the half-edge ids grouped by edge, in edge order, so edge
    e owns the run of counts[e] ids that starts at the sum of the earlier
    counts; within a run the ids increase."""

    edges: np.ndarray    # (E, 2) int32 (lo, hi) pairs in lexicographic order
    counts: np.ndarray   # (E,) int32 triangles on each edge
    by_edge: np.ndarray  # (3F,) int32 half-edge ids, grouped by edge
    forward: np.ndarray  # (F, 3) bool, half-edge runs from lo to hi


def _build_edge_table(triangles: np.ndarray, vertex_count: int) -> _EdgeTable:
    if len(triangles) and (triangles.min() < 0 or triangles.max() >= vertex_count):
        raise MeshStructureError("triangle index out of range")
    heads = triangles[:, [1, 2, 0]]
    forward = triangles < heads
    keys = np.minimum(triangles, heads).ravel().astype(np.int64)
    keys *= vertex_count
    keys += np.maximum(triangles, heads, out=heads).ravel()
    del heads
    # int32 halves the table, which lives as long as its mesh.
    by_edge = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[by_edge]
    # Each edge's run of half-edges opens where the sorted keys change.
    opens_edge = np.empty(len(keys), dtype=bool)
    opens_edge[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=opens_edge[1:])
    starts = np.flatnonzero(opens_edge)
    del opens_edge
    counts = np.diff(starts, append=len(keys)).astype(np.int32)
    keys = keys[starts]
    del starts
    edges = np.empty((len(keys), 2), dtype=np.int32)
    np.divmod(keys, vertex_count, out=(edges[:, 0], edges[:, 1]))
    return _EdgeTable(edges, counts, by_edge, forward)


def build_mobius(s: SweepParams) -> ImmersedMobiusMesh:
    """Construct the swept band mesh for the given parameters.

    Boundary samples of slice i sit at disk angles (2*pi*j + q*theta_i)/(2p);
    chord j joins the antipodal pair (j, j+p) and is sampled uniformly in
    the signed position parameter.  A disk point at radius rho and angle phi
    embeds at ((R + rho*r*cos phi)*cos theta, (R + rho*r*cos phi)*sin theta,
    rho*r*sin phi), with R = RING_RADIUS and r = TUBE_RADIUS.

    The triangles come from one (theta_steps + 1, p, chord_steps) grid of
    vertex ids: the (slice, chord, sample) grid of the module docstring,
    plus a wraparound row that holds, for each chord j, slice 0 of chord
    chord_successor(p, q, j), with its samples reversed when the chord
    comes back flipped.  Each quad splits along the diagonal from its
    (slice i, sample m) corner to its (slice i+1, sample m+1) corner.
    """
    _check_triangle_budget(s.triangle_count, "mesh would have")
    if s.theta_steps < 4 * s.p * abs(s.q):
        raise MeshResolutionError(
            f"theta_steps={s.theta_steps} cannot separate adjacent boundary "
            f"points; need at least 4*p*|q| = {4 * s.p * abs(s.q)}"
        )
    p, q, n_theta, n_chord = s.p, s.q, s.theta_steps, s.chord_steps
    theta = 2.0 * pi * np.arange(n_theta).reshape(-1, 1, 1) / n_theta
    alpha = (2.0 * pi * np.arange(p).reshape(-1, 1) + q * theta) / (2.0 * p)
    pos = -1.0 + 2.0 * np.arange(n_chord) / (n_chord - 1)
    disk_x = pos * np.cos(alpha)
    disk_y = pos * np.sin(alpha)
    ring = RING_RADIUS + TUBE_RADIUS * disk_x
    vertices = np.stack(
        [ring * np.cos(theta), ring * np.sin(theta), TUBE_RADIUS * disk_y], axis=-1
    ).reshape(-1, 3)

    ids = np.arange(n_theta * p * n_chord, dtype=np.int32).reshape(n_theta, p, n_chord)
    wrap = np.empty((1, p, n_chord), dtype=np.int32)
    for j in range(p):
        nxt, flip = chord_successor(p, q, j)
        wrap[0, j] = ids[0, nxt, ::-1] if flip else ids[0, nxt]
    grid = np.concatenate([ids, wrap])
    a, c = grid[:-1, :, :-1], grid[:-1, :, 1:]
    b, d = grid[1:, :, :-1], grid[1:, :, 1:]
    triangles = np.stack([a, b, d, a, d, c], axis=-1).reshape(-1, 3)
    return ImmersedMobiusMesh(vertices=vertices, triangles=triangles)


class Check(NamedTuple):
    name: str
    measured: object
    expected: object
    passed: bool


@dataclass(frozen=True)
class MeshVerificationReport:
    checks: tuple[Check, ...]
    tolerance: float

    def __getattr__(self, name: str):
        # Each check's measured value reads as the attribute of its name.
        for check in self.__dict__.get("checks", ()):
            if check.name == name:
                return check.measured
        raise AttributeError(name)

    @property
    def failed_checks(self) -> tuple[str, ...]:
        return tuple(check.name for check in self.checks if not check.passed)

    @property
    def certified(self) -> bool:
        return not self.failed_checks

    def to_dict(self) -> dict:
        def plain(value):
            return list(value) if isinstance(value, tuple) else value

        return {**{check.name: plain(check.measured) for check in self.checks},
                "expected": {check.name: plain(check.expected) for check in self.checks},
                "failed_checks": list(self.failed_checks),
                "certified": self.certified, "tolerance": self.tolerance}


def _check_structure(mesh: ImmersedMobiusMesh) -> None:
    table = mesh._edge_table  # rejects indices out of range
    if (table.edges[:, 0] == table.edges[:, 1]).any():
        raise MeshStructureError("degenerate triangle (repeated vertex)")
    if (table.counts > 2).any():
        raise MeshStructureError("edge shared by more than two triangles")


def boundary_cycles(mesh: ImmersedMobiusMesh) -> list[list[int]]:
    """Boundary edge cycles as ordered vertex lists."""
    return [list(cycle) for cycle in mesh._boundary_cycles]


def _walk_cycles(boundary_edges: np.ndarray) -> list[list[int]]:
    """Cycles of the boundary, ordered by their smallest vertex, each
    starting there and stepping first to its smaller neighbor.

    Every boundary vertex has two boundary edges, so one walk over the
    vertices in ascending order finds the cycles: each vertex not yet seen
    starts one, which leaves every vertex by the neighbor it did not come
    from."""
    ends = boundary_edges.ravel()
    vertices, slot, degree = np.unique(ends, return_inverse=True, return_counts=True)
    bad = degree[slot] != 2
    if bad.any():
        first = int(np.argmax(bad))  # the first vertex met along the edge list
        raise MeshStructureError(
            f"boundary vertex {ends[first]} has {degree[slot[first]]} boundary "
            "edges, expected 2"
        )
    # Slot v's neighbors, in ascending order, are nbr[2v] and nbr[2v + 1].
    a, b = slot.reshape(-1, 2).T
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    nbr = dst[np.lexsort((dst, src))].tolist()
    ids, seen, cycles = vertices.tolist(), bytearray(len(vertices)), []
    for start in range(len(ids)):
        if seen[start]:
            continue
        seen[start] = 1
        cycle, prev, here = [ids[start]], start, nbr[2 * start]
        while here != start:
            seen[here] = 1
            cycle.append(ids[here])
            nxt = nbr[2 * here]
            prev, here = here, nbr[2 * here + 1] if nxt == prev else nxt
        cycles.append(cycle)
    return cycles


def euler_characteristic(mesh: ImmersedMobiusMesh) -> int:
    """V - E + F over the vertices actually referenced by triangles."""
    edge_count = len(mesh._edge_table.counts)  # rejects indices out of range
    used = np.zeros(mesh.vertex_count, dtype=bool)
    used[mesh.triangles] = True
    return int(np.count_nonzero(used) - edge_count + mesh.triangle_count)


def is_orientable(mesh: ImmersedMobiusMesh) -> bool:
    """True iff the triangles can be oriented so that the two triangles on
    each interior edge traverse it in opposite directions; an edge on three
    or more triangles allows no such orientation.

    An interior edge asks its two triangles to keep or to flip their
    relative orientation: to flip (odd parity) when both traverse it in
    the same direction.  Consecutive triangles t - 1 and t that share an
    interior edge are first contracted into runs, with one cumulative sum
    (each triangle's run) and one XOR prefix (each triangle's flip against
    the first of its run, composed along the joining edges).  Every
    interior edge then joins the runs of its ends, its parity corrected by
    both ends' flips.  The joining edges, and any other edge within a run,
    become self loops, which must ask for no flip, and drop out.  The
    contraction follows real interior edges only and re-checks every edge,
    so it is exact for any triangle order; in the order of build_mobius a
    run is one chord of one slice, and a shuffled order leaves runs of
    about one triangle.

    A union-find over the runs stores, per run, link = 2 * parent + parity,
    the parity being its flip relative to its parent.  At the start of
    each round every run links to its root, so each edge moves onto the
    roots of its ends, with the flip those roots need.  An edge whose ends
    share a root then asks for no flip, or it refutes the orientation;
    either way it drops out.  An edge between two roots hooks the larger
    onto the smaller with that flip, and stays until a later round finds
    its ends merged.

    Many edges may hook one root in the same scatter, and numpy does not
    say which of the repeated writes wins; with parent and parity packed
    in one int32 (there are fewer than 2**30 runs wherever the int32
    half-edge ids of the edge table fit), the winning write sets both.
    Pointer jumping, link = link[parent] ^ parity, then composes the
    parities along each path until every run links to its root again."""
    table = mesh._edge_table
    if (table.counts > 2).any():
        return False
    # The last half-edge of each interior edge's run in by_edge.
    last = np.cumsum(table.counts, dtype=np.int32)[table.counts == 2] - 1
    h1, h2 = table.by_edge[last - 1], table.by_edge[last]
    del last
    # Interior edge (a, b, odd): the orientations of a and b differ by odd,
    # and a <= b, since the ids in a run increase.
    forward = table.forward.ravel()
    a, b, odd = h1 // 3, h2 // 3, forward[h1] == forward[h2]
    del h1, h2
    joining = b - a == 1  # the edges between triangles b - 1 and b
    joined = np.zeros(mesh.triangle_count, dtype=bool)
    joined[b[joining]] = True
    run = np.cumsum(~joined, dtype=np.int32) - 1
    # A triangle may join its predecessor by more than one edge; whichever
    # write wins, the others are checked as self loops.
    flip = np.zeros_like(joined)
    flip[b[joining]] = odd[joining]
    flip = np.bitwise_xor.accumulate(flip)
    odd ^= flip[a]
    odd ^= flip[b]
    a, b = run[a], run[b]
    link = 2 * np.arange(len(joined) - np.count_nonzero(joined), dtype=np.int32)
    del joining, joined, run, flip
    loop = a == b
    if odd[loop].any():
        return False
    a, b, odd = a[~loop], b[~loop], odd[~loop]
    del loop
    while len(a):
        la, lb = link[a], link[b]
        a, b, odd = la >> 1, lb >> 1, odd ^ ((la ^ lb) & 1)
        apart = a != b
        if odd[~apart].any():
            return False
        a, b, odd = a[apart], b[apart], odd[apart]
        link[np.maximum(a, b)] = 2 * np.minimum(a, b) + odd
        while True:
            jumped = link[link >> 1] ^ (link & 1)
            if np.array_equal(jumped, link):
                break
            link = jumped
    return True


def _wrap_angle(delta: np.ndarray) -> np.ndarray:
    return (delta + pi) % (2.0 * pi) - pi


def boundary_winding_angles(mesh: ImmersedMobiusMesh) -> tuple[float, float]:
    """Total longitudinal and meridional angle along the boundary polyline.

    Each cycle is traversed in the direction of positive longitudinal
    winding; for the swept band the totals are 2*pi*2p and 2*pi*q up to
    discretization roundoff.
    """
    total_theta = 0.0
    total_phi = 0.0
    for cycle in mesh._boundary_cycles:
        pts = mesh.vertices[np.array(cycle, dtype=np.int64)]
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        radial = np.hypot(pts[:, 0], pts[:, 1]) - RING_RADIUS
        phi = np.arctan2(pts[:, 2], radial)
        d_theta = _wrap_angle(np.diff(theta, append=theta[:1]))
        d_phi = _wrap_angle(np.diff(phi, append=phi[:1]))
        cycle_theta = float(d_theta.sum())
        cycle_phi = float(d_phi.sum())
        if cycle_theta < 0:
            cycle_theta, cycle_phi = -cycle_theta, -cycle_phi
        total_theta += cycle_theta
        total_phi += cycle_phi
    return total_theta, total_phi


def max_edge_length(mesh: ImmersedMobiusMesh) -> float:
    """The square root of the largest squared edge length; 0.0 without edges."""
    a, b = mesh._edge_table.edges.T
    # ((0 + dx*dx) + dy*dy) + dz*dz, one coordinate at a time, is the order
    # in which sum(axis=1) adds a row, and the root is monotone, so this is
    # the longest edge length to the bit.
    length2 = np.zeros(len(a))
    for column in mesh.vertices.T:
        d = column[a] - column[b]
        d *= d
        length2 += d
    return float(np.sqrt(length2.max(initial=0.0)))


def _core_multiplicity(mesh: ImmersedMobiusMesh, s: SweepParams) -> int:
    """Count, per slice, the chords whose polyline passes through the core
    point of that slice, and return the smallest count.  The sweep puts
    every chord through the core, so a slice counts at most p chords and
    the result is p exactly when every slice has all p sheets.

    The distances are computed on coordinate columns.  Each sum over the
    three coordinates adds x, y, then z, the order in which sum(axis=-1)
    adds a row, and the root is taken after the minimum over each chord's
    segments, which the monotone root does not change."""
    n_theta, p, n_chord = s.theta_steps, s.p, s.chord_steps
    theta = 2.0 * pi * np.arange(n_theta) / n_theta
    core = [RING_RADIUS * np.cos(theta), RING_RADIUS * np.sin(theta), np.zeros(n_theta)]
    columns = np.ascontiguousarray(mesh.vertices.T).reshape(3, n_theta, p, n_chord)
    start = columns[..., :-1]
    seg = columns[..., 1:] - start
    to_core = [c[:, None, None] - a for c, a in zip(core, start)]
    seg_len2 = (seg[0] * seg[0] + seg[1] * seg[1]) + seg[2] * seg[2]
    along = (to_core[0] * seg[0] + to_core[1] * seg[1]) + to_core[2] * seg[2]
    t_par = np.clip(along / seg_len2, 0.0, 1.0)
    off = [a + d * t_par - c[:, None, None] for a, d, c in zip(start, seg, core)]
    dist2 = (off[0] * off[0] + off[1] * off[1]) + off[2] * off[2]
    chord_dist = np.sqrt(dist2.min(axis=2))
    eps = 1e-9 * RING_RADIUS
    return int((chord_dist < eps).sum(axis=1).min())


def _strip_columns(triangles: np.ndarray, s: SweepParams) -> np.ndarray:
    """Column of each triangle along the strip of length p*theta_steps that
    unrolls the sweep.  A triangle starts at the vertex (i, j, m) of its
    quad; pass k of the sweep runs along chord (k*q) mod p, so chord j
    belongs to pass j*q^{-1} mod p, whose columns start at pass*theta_steps."""
    slice_index, chord = np.divmod(triangles[:, 0] // s.chord_steps, s.p)
    q_inv = pow(s.q % s.p, -1, s.p)
    # int32 keeps the strip-distance temporaries over candidate pairs small.
    return ((chord * q_inv) % s.p * s.theta_steps + slice_index).astype(np.int32)


_SWEEP_CHUNK = 1024  # sorted blocks whose partner runs are expanded at once
_CROSSING_BATCH = 8192  # box-survivor pairs gathered before a crossing test
_HITS_PER_TRIANGLE = 10  # hit rows the scan may keep per budgeted triangle


def _triangle_boxes(mesh: ImmersedMobiusMesh) -> np.ndarray:
    """Bounding boxes as a (6, F) column array: rows 0-2 the lowest x, y,
    z of each triangle, rows 3-5 the highest plus the 1e-12 margin.  Each
    coordinate column gathers its three corners on its own, so no
    (F, 3, 3) array is built."""
    box = np.empty((6, len(mesh.triangles)))
    corners = mesh.triangles.T
    for k in range(3):
        column = np.ascontiguousarray(mesh.vertices[:, k])
        a, b, c = (column.take(corner) for corner in corners)
        np.minimum(np.minimum(a, b, out=box[k]), c, out=box[k])
        np.maximum(np.maximum(a, b, out=box[k + 3]), c, out=box[k + 3])
    box[3:] += 1e-12
    return box


def _dot(a, b) -> np.ndarray:
    # The order in which einsum("ij,ij->i") sums a row of three, into a +0.0
    # accumulator that turns a -0.0 sum into +0.0.  The crossing points, and
    # the off-core distances in tests/golden/cli.json, depend on it to the
    # last bit: (x + y) + z moves them.
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1] + 0.0


def _cross(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _crossing_points(mesh: ImmersedMobiusMesh, pairs: np.ndarray) -> list[np.ndarray]:
    """Points where an edge of one triangle of a pair crosses the other,
    one (n, 3) array per edge probe: the three edges of each side probe
    the other side's triangle (Moeller-Trumbore: a crossing needs
    |det| > 1e-14 and its barycentric and segment parameters within 1e-10
    of their ranges).

    The narrow phase works on coordinate columns.  Each side's corners are
    gathered once into a (3 coordinates, 3 corners, n) array; a target's
    two edge vectors are formed once per direction, not once per probe.
    Cross and dot products are written out per component, and each dot
    product is summed as (x*x' + z*z') + y*y' + 0.0 (_dot), so the points
    equal those of an einsum over (n, 3) rows to the bit, signs of zero
    included.
    """
    corners = mesh.vertices.take(mesh.triangles.take(pairs, axis=0), axis=0)
    corners = np.ascontiguousarray(corners.transpose(3, 2, 1, 0))
    sides = corners[:, :, 0], corners[:, :, 1]
    eps = 1e-10
    found = []
    for probe, target in (sides, sides[::-1]):
        base = target[:, 0]
        e1, e2 = target[:, 1] - base, target[:, 2] - base
        for i, j in ((0, 1), (1, 2), (2, 0)):
            p0 = probe[:, i]
            d = probe[:, j] - p0
            h = _cross(d, e2)
            det = _dot(e1, h)
            ok = np.abs(det) > 1e-14
            inv = 1.0 / np.where(ok, det, 1.0)
            svec = p0 - base
            u = _dot(svec, h) * inv
            qv = _cross(svec, e1)
            v = _dot(d, qv) * inv
            t = _dot(e2, qv) * inv
            hit = np.flatnonzero(
                ok
                & (u >= -eps)
                & (v >= -eps)
                & (u + v <= 1.0 + eps)
                & (t >= -eps)
                & (t <= 1.0 + eps)
            )
            t = t.take(hit)
            found.append(np.stack(
                [p0[k].take(hit) + d[k].take(hit) * t for k in range(3)], axis=1
            ))
    return found


def _sweep_order(mesh: ImmersedMobiusMesh, s: SweepParams) -> tuple:
    """The blocks of the sweep, sorted by the key sector*B + rank.

    A block is one triangle or two: triangle 2k+1 joins triangle 2k when
    their strip columns are equal, and every other triangle is a block of
    its own.  build_mobius writes the two triangles of a quad one after
    the other, both starting at the quad's first vertex, so its B blocks
    are its F/2 quads; any other triangle order gives singleton blocks
    where columns differ.  A block has one strip column, so its sector
    and its strip distance to another block are exactly its triangles'.
    Its box is the elementwise min and max of its triangles'
    _triangle_boxes columns, so it holds both boxes, margin included.  A
    block's rank is its place in an argsort of the blocks' lowest z.

    Returns, in key order, each block's two triangle ids as a (2, B)
    int32 array (a singleton repeats its one), the keys, each block's
    reach (how many blocks have a lowest z at most its highest z plus the
    margin), the strip columns and the lowest x, y and highest x, y; then
    the triangle boxes, which split block pairs into triangle pairs."""
    box = _triangle_boxes(mesh)
    cols = _strip_columns(mesh.triangles, s)
    count = len(cols)
    joins = np.zeros(count + 1, dtype=bool)
    joins[1:count:2] = cols[1::2] == cols[:count - 1:2]
    first = np.flatnonzero(~joins[:count]).astype(np.int32)
    pair = np.stack([first, first + joins[first + 1]])
    block = np.concatenate([np.minimum(box[:3, pair[0]], box[:3, pair[1]]),
                            np.maximum(box[3:, pair[0]], box[3:, pair[1]])])
    blocks = len(first)
    by_z = np.argsort(block[2])
    reach = np.searchsorted(block[2, by_z], block[5, by_z], side="right")
    cols = cols[first]
    key = (cols[by_z] % s.theta_steps).astype(np.int64) * blocks + np.arange(blocks)
    order = np.argsort(key)  # the keys are distinct, so any sort gives this
    key, reach, order = key[order], reach[order], by_z[order]
    xy_box = [block[row].take(order) for row in (0, 1, 3, 4)]
    return pair[:, order], key, reach, cols[order], xy_box, box


def self_intersection_points(mesh: ImmersedMobiusMesh, s: SweepParams) -> np.ndarray:
    """Ambient points where triangles from different domain neighborhoods
    cross, as an (n, 3) array.  Aggregation is order-independent.

    Each triangle occupies the angular wedge of its strip column, so only
    same-sector or adjacent-sector pairs can meet in space; domain-adjacent
    pairs (circular strip distance <= 1) share mesh edges by construction
    and are excluded.  Each triangle's bounding box is computed once
    (_triangle_boxes), so two boxes touch on an axis when each one's low
    row is at most the other's high row, which carries the 1e-12 margin.
    A pair is crossed when it is strip-far, its sectors are equal or
    adjacent, and its boxes touch on all three axes.

    The broad phase sweeps blocks, then splits the block pairs it keeps.
    A block is a quad of build_mobius, its two triangles, or a lone
    triangle of any other mesh (_sweep_order); it has one strip column
    and a box that holds its triangles' boxes.  So a triangle pair passes
    the tests above only if its blocks pass the same tests on sector,
    strip distance and block boxes: the block sweep is a necessary
    condition, and the split then applies the triangle test itself.  The
    pairs crossed are exactly the pairs that pass, each once, only in
    another order.

    The block sweep is a sort-and-sweep on z (Baraff 1992) that builds
    each candidate block pair once, with no loop over sectors.  A block's
    rank is its place in one argsort of the lowest z (ties in any order),
    and its reach is the number of blocks whose lowest z is at most its
    highest z plus the margin (one searchsorted).  For rank[t] < rank[u]
    the z-ranges touch exactly when the integer test rank[u] < reach[t]
    holds: lo_z[u] <= hi_z[t] + margin is that test, and lo_z[t] <=
    lo_z[u] <= hi_z[u] gives the other half.  So each pair is found from
    its member t of lower rank, as one of three runs of u: in t's sector,
    in the next sector and in the previous one (circularly), each with
    rank[t] < rank[u] < reach[t].  The blocks are sorted once by the key
    sector*B + rank, so each run is contiguous in that order and its ends
    are searchsorted bounds on the key.  The runs of _SWEEP_CHUNK sorted
    blocks are found at a time, searching only the keys of the chunk's
    sectors and their neighbours, and expanded; then circular strip
    distance > 1 and the x/y block box overlap compress the expanded
    pairs once.  Each kept block pair gives its (first, first), (first,
    second), (second, first) and (second, second) triangle pairs, less
    the slots a singleton lacks, and keeps those whose triangle boxes
    touch on all three axes.

    The narrow phase (_crossing_points) runs as the chunks go by: the
    broad phase is a generator (_candidate_pairs).  Triangle pairs wait
    in a pending list; once it holds at least _CROSSING_BATCH pairs, or
    after the last chunk, they are crossed _CROSSING_BATCH pairs at a
    time and the list is cleared.  The cost is O(F log F + block pairs
    overlapping in z): on build_mobius meshes a quad pair stands for four
    triangle pairs, so the sweep builds about a quarter of the pairs that
    a sweep over triangles would.  Memory holds the triangle boxes, the
    per-block columns of _sweep_order, one chunk's runs, expanded block
    pairs and split triangle pairs, the pending list (fewer than
    _CROSSING_BATCH pairs plus one chunk's split survivors), one crossing
    batch and the hit rows; no array spans every box survivor.  The
    sweep's arrays go with the spent generator, before the hit rows are
    joined into one array.  The hit rows are counted as each batch comes
    in: past _HITS_PER_TRIANGLE times the triangle budget of
    CROSSCAP_MAX_MESH (20M rows, 480 MB, by default) the scan raises
    MeshParameterError rather than run out of memory.

    For p = 1 the strip has length theta_steps, so a triangle's sector is
    its column, and a pair in the same or adjacent sectors is at circular
    strip distance at most 1: no pair can pass, and the scan returns no
    points without reading the mesh.
    """
    if s.p == 1:
        return np.empty((0, 3))
    budget = _HITS_PER_TRIANGLE * max_triangle_budget()
    found, rows = [np.empty((0, 3))], 0
    for pairs in _candidate_pairs(mesh, s):
        batch = _crossing_points(mesh, pairs)
        found += batch
        rows += sum(map(len, batch))
        if rows > budget:
            raise MeshParameterError(
                f"self-intersection scan reached {rows} hit rows, over the "
                f"budget {budget} ({_HITS_PER_TRIANGLE} per triangle of "
                f"{MAX_MESH_ENV})"
            )
    return np.concatenate(found)


def _candidate_pairs(mesh: ImmersedMobiusMesh, s: SweepParams):
    """The broad phase of self_intersection_points: yields the triangle
    pairs to cross, as (n, 2) arrays of at most _CROSSING_BATCH pairs."""
    n_theta, length = s.theta_steps, s.p * s.theta_steps
    pair, key, reach, cols, (lo_x, lo_y, hi_x, hi_y), box = _sweep_order(mesh, s)
    count = len(key)
    pending, pending_count = [], 0
    for start in range(0, count, _SWEEP_CHUNK):
        stop = min(start + _SWEEP_CHUNK, count)
        t = np.arange(start, stop)
        sector, rank = np.divmod(key[t], count)
        # The key of rank 0 in t's sector, the next and the previous.
        base = count * np.stack([sector, (sector + 1) % n_theta,
                                 (sector - 1) % n_theta])
        # Every run lies in the keys of these sectors: search only those.
        lo, hi = np.searchsorted(key, [base.min(), base.max() + count])
        # The keys are distinct sorted integers, so the first key above
        # key[t] = base[0] + rank is key[t + 1]: t's same-sector run starts
        # at t + 1 without a search.
        first = np.empty_like(base)
        first[0] = t + 1
        first[1:] = np.searchsorted(key[lo:hi], base[1:] + (rank + 1)) + lo
        size = (np.searchsorted(key[lo:hi], base + reach[t]) + lo - first).ravel()
        first = first.ravel()
        ends = np.cumsum(size)
        # Block pair k joins sorted blocks i[k] and j[k].
        i = np.repeat(np.tile(t, 3), size)
        j = np.arange(ends[-1]) + np.repeat(first + size - ends, size)
        raw = np.abs(cols[i] - cols[j])
        keep = np.minimum(raw, length - raw) > 1
        keep &= lo_x[i] <= hi_x[j]
        keep &= lo_x[j] <= hi_x[i]
        keep &= lo_y[i] <= hi_y[j]
        keep &= lo_y[j] <= hi_y[i]
        # Rows of a and b: the (first, first), (first, second),
        # (second, first) and (second, second) triangle pairs.
        a = pair[:, i[keep]][[0, 0, 1, 1]]
        b = pair[:, j[keep]][[0, 1, 0, 1]]
        touch = np.ones(a.shape, dtype=bool)
        touch[2:] = a[2:] != a[:2]  # a singleton has no second triangle
        touch[1::2] &= b[1::2] != b[::2]
        for k in range(3):
            touch &= box[k].take(a) <= box[k + 3].take(b)
            touch &= box[k].take(b) <= box[k + 3].take(a)
        pending.append(np.stack([a[touch], b[touch]], axis=1))
        pending_count += len(pending[-1])
        if pending_count >= _CROSSING_BATCH or stop == count:
            pairs = np.concatenate(pending)
            for k in range(0, len(pairs), _CROSSING_BATCH):
                yield pairs[k:k + _CROSSING_BATCH]
            pending, pending_count = [], 0


def distance_to_core_circle(points: np.ndarray) -> np.ndarray:
    """Distance from each point to the core circle x^2 + y^2 = R^2, z = 0,
    R = RING_RADIUS."""
    radial = np.hypot(points[:, 0], points[:, 1]) - RING_RADIUS
    return np.hypot(radial, points[:, 2])


def verify_mesh(
    mesh: ImmersedMobiusMesh, s: SweepParams, tol: Optional[float] = None
) -> MeshVerificationReport:
    """Certify that the mesh is the swept (2p, q) band of s.

    The report holds one Check per entry of the list at the end: the
    measured value, the band's value and whether it passed.  The last
    check bounds how far a double point strays from the core circle by
    tol.  With tol=None the tolerance is three times the longest mesh edge,
    a loose bound: the double points of the swept bands stay hundreds of
    times closer.  The report carries the tol used.
    """
    if tol is not None and not 0 < tol < inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    expected_vertices = s.theta_steps * s.p * s.chord_steps
    if mesh.vertex_count != expected_vertices:
        raise MeshStructureError(
            f"mesh has {mesh.vertex_count} vertices, parameters imply "
            f"{expected_vertices}"
        )
    _check_structure(mesh)
    cycles = boundary_cycles(mesh)  # walked once; the winding reuses them
    theta_total, phi_total = boundary_winding_angles(mesh)
    longitudinal = int(round(theta_total / (2.0 * pi)))
    meridional = int(round(phi_total / (2.0 * pi)))

    if tol is None:
        tol = 3.0 * max_edge_length(mesh)
    points = self_intersection_points(mesh, s)
    distances = distance_to_core_circle(points)
    max_offcore = float(distances.max(initial=0.0))

    equal = [  # each passes when the measured value equals the band's
        ("euler_characteristic", euler_characteristic(mesh), 0),
        ("boundary_component_count", len(cycles), 1),
        ("orientable", is_orientable(mesh), False),
        ("boundary_class", (longitudinal, meridional), (2 * s.p, s.q)),
        ("core_multiplicity", _core_multiplicity(mesh, s), s.p),
    ]
    checks = [Check(name, got, want, got == want) for name, got, want in equal]
    checks.append(Check("max_offcore_selfintersection_distance", max_offcore, tol,
                        max_offcore <= tol))
    return MeshVerificationReport(checks=tuple(checks), tolerance=tol)


# --- mesh file formats ------------------------------------------------------


def export_mesh(mesh: ImmersedMobiusMesh, format: str) -> str:
    """Serialize to OFF or OBJ text: each coordinate as "%.9f", each
    vertex index as "%d", byte for byte.

    Each block (vertex rows, then face rows) is written into one zeroed
    (rows, row width) byte buffer and its 0 pad bytes are dropped at the
    end.  A row is the optional tag ("v", "f" or OFF's "3") and a space,
    then one right-aligned slot per field, each followed by a space or the
    newline.  A slot's first column holds the sign; once the padding between
    them is dropped, the sign touches the digits.  The slot width is taken
    from the data: the digits of the largest integer part.  Index digits
    are computed in the narrowest unsigned type that holds the largest.

    "%.9f" prints the exact product |x| * 10**9 rounded half to even, as
    an integer part and nine fraction digits.  The float y = fl(|x| * 1e9)
    is within spacing(y) / 2 of that product.  So wherever y lies more than
    spacing(y) from the nearest half-integer, the exact product lies
    strictly on the same side of it, and rint(y) is the correct integer.
    The test fails only near a tie, for every |x| >= 2**52 / 1e9 (where
    spacing(y) >= 1), and for values that are not finite or overflow; the
    row of such an element is printed by Python's own "%.9f" and takes the
    place of its slots, so the long string of 1e300 widens no other row.
    For |x| < 4 the band covers under 10**-6 of each unit step; none of
    the 537,600 coordinates of four benchmark-sized bands falls in it.
    """
    fmt = format.lower()
    if fmt == "off":
        head = f"OFF\n{mesh.vertex_count} {mesh.triangle_count} 0\n"
        vertex_tag, face_tag, base = "", "3", 0
    elif fmt == "obj":
        head, vertex_tag, face_tag, base = "", "v", "f", 1
    else:
        raise ValueError(f"unknown mesh format {format!r}")
    text = "".join([
        head,
        _rows(vertex_tag, np.asarray(mesh.vertices, np.float64), _fixed_slots),
        _rows(face_tag, mesh.triangles + base, _integer_slots),
    ])
    return text or "\n"  # an empty OBJ file is one empty line


# (width, fill the cells, the (row, text) of each row that Python prints)
_Slots = tuple[int, Callable[[np.ndarray], None], list[tuple[int, bytes]]]
_ZERO, _MINUS = ord("0"), np.uint8(ord("-"))


def _rows(tag: str, values: np.ndarray, slots: Callable[[np.ndarray], _Slots]) -> str:
    """One text row per row of values, laid out as export_mesh describes."""
    width, fill, printed = slots(values)
    rows, fields = values.shape
    lead = f"{tag} ".encode() if tag else b""
    buffer = np.zeros((rows, len(lead) + fields * (width + 1)), np.uint8)
    buffer[:, :len(lead)] = np.frombuffer(lead, np.uint8)
    cells = buffer[:, len(lead):].reshape(rows, fields, width + 1)  # a view
    fill(cells[..., :width])
    cells[:, :-1, width] = ord(" ")
    cells[:, -1, width] = ord("\n")
    # Copy the buffer out once and free it with the slots' digits; then
    # drop the 0 pad bytes, with each printed row in place of its slots.
    stride, raw = buffer.shape[1], buffer.tobytes()
    del fill, buffer, cells
    pieces, start = [], 0
    for row, text in printed:
        pieces += [raw[start * stride:row * stride].translate(None, b"\0"), lead + text]
        start = row + 1
    pieces.append(raw[start * stride:].translate(None, b"\0"))
    del raw
    return b"".join(pieces).decode("ascii")


def _write_digits(cells: np.ndarray, n: np.ndarray, always: int) -> None:
    """Write the unsigned integers n in decimal, one digit per column of
    cells from the right; a leading zero left of the last `always` columns
    stays a 0 byte."""
    width = cells.shape[-1]
    for col in range(width - 1, -1, -1):
        quotient = n // 10
        digit = n - quotient * 10
        digit += _ZERO
        if col < width - always:
            digit *= n > 0
        cells[..., col] = digit
        n = quotient


def _integer_slots(n: np.ndarray) -> _Slots:
    """"%d" slots: a sign column, then the digits of |n|, computed in the
    narrowest unsigned type that holds them."""
    # abs wraps the most negative value to itself, which reads correctly
    # as unsigned of the same size.
    magnitude = np.abs(n).view(f"u{n.itemsize}")
    top = magnitude.max(initial=0)
    magnitude = magnitude.astype(np.min_scalar_type(top))

    def fill(cells: np.ndarray) -> None:
        cells[..., 0] = (n < 0) * _MINUS
        _write_digits(cells[..., 1:], magnitude, 1)

    return 1 + len(str(top)), fill, []


def _fixed_slots(x: np.ndarray) -> _Slots:
    """"%.9f" slots: a sign column, the integer digits, "." and nine
    fraction digits.  A row with an element that fails export_mesh's
    exactness test is printed by Python's "%.9f" instead, so a long string
    such as that of 1e300 widens its own row only."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(x) * 1e9
        exact = np.abs(scaled - np.floor(scaled) - 0.5) > np.spacing(scaled)
    rare = np.unique(np.flatnonzero(~exact) // x.shape[1])  # rows, in order
    printed = [(row, b" ".join([b"%.9f" % v for v in values]) + b"\n")
               for row, values in zip(rare.tolist(), x[rare].tolist())]
    scaled[~exact] = 0.0
    n = np.rint(scaled).astype(np.uint64)  # below 2**52 where exact
    whole = n // 10**9
    fraction = (n - whole * 10**9).astype(np.uint32)
    whole = whole.astype(np.uint32)

    def fill(cells: np.ndarray) -> None:
        cells[..., 0] = np.signbit(x) * _MINUS
        _write_digits(cells[..., 1:-10], whole, 1)
        cells[..., -10] = ord(".")
        _write_digits(cells[..., -9:], fraction, 9)

    return 11 + len(str(whole.max(initial=0))), fill, printed


_NOT_TRIANGLES = "only triangle faces are supported"
_OBJ_FACE = np.dtype([("tag", "U1"), ("index", np.int32, (3,))])
_BLANKS = np.frombuffer(b" \t\v\f", np.uint8)  # may indent a line or end its tag


def parse_mesh_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read OFF or OBJ text back into (vertices, triangles) arrays; the face
    count must fit the triangle budget before any row is converted.

    A line ends at "\n", "\r" or "\r\n"; blank lines and the blanks that
    indent a line are skipped.  The first nonblank line "OFF" opens an OFF
    file: a line of vertex and face counts, then exactly that many vertex
    and face rows.  A vertex row gives its first three numbers.  A face
    row lists exactly three vertex indices: "3 i j k" in OFF, maybe
    followed by a color, or "f i j k" in OBJ, where an index may carry
    /texture/normal references.  OBJ skips other lines and trailing #
    comments; an OFF body has none, and nothing may follow its counted rows.

    Each block of rows is read by one np.loadtxt over a UTF-8 byte buffer
    read as text lines (_text_lines), so no line becomes a Python object
    outside numpy's reader, and the buffer holds one byte per character of
    a plain-ASCII file where a str stream would hold four.  numpy still
    gets str lines, so a number, a blank and an error message read as in
    the text.  An OFF file is one stream: its header lines, then its
    vertex and face rows, split by max_rows.  An OBJ file is scanned in
    numpy over its bytes, with int32 line offsets below 2 GiB: a line's
    tag is its first nonblank byte when a blank or the end of the line
    follows it.  The "v" lines and the "f" lines are each gathered into
    one block, one slice per run of consecutive lines, so the blocks of an
    exported file are two slices.  When numpy's reader fails on face rows,
    a recount of their fields tells a non-triangle face from a bad number.
    """
    first_line = re.match(r"\s*([^\r\n]*)", text)[1].rstrip()
    if not first_line:
        raise ValueError("empty mesh file")
    if first_line == "OFF":
        return _parse_off(text)
    return _parse_obj(text)


def _text_lines(raw: bytes) -> io.TextIOWrapper:
    """The UTF-8 bytes raw as a stream of str lines, each ending at "\n",
    "\r" or "\r\n" and read as "\n"; surrogatepass lets the bytes of any
    str read back as that str."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                            errors="surrogatepass", newline=None)


def _parse_off(text: str) -> tuple[np.ndarray, np.ndarray]:
    raw = text.encode("utf-8", "surrogatepass")
    stream = _text_lines(raw)
    header = list(islice(filter(str.strip, stream), 2))  # "OFF", then the counts
    counts = header[1].split() if len(header) > 1 else []
    if len(counts) < 2:
        raise ValueError("OFF header needs vertex and face counts")
    n_verts, n_faces = int(counts[0]), int(counts[1])
    _check_triangle_budget(n_faces, "mesh file has")
    # A negative count reads no rows and fails the length check below.
    vertices = _load_rows(stream, max(n_verts, 0), usecols=(0, 1, 2))
    try:
        faces = _load_rows(stream, max(n_faces, 0), dtype=np.int32, usecols=(0, 1, 2, 3))
    except ValueError:
        # A text stream cannot tell() once iterated: read the face rows
        # again, past the header and the vertex rows.
        skip = 2 + max(n_verts, 0)
        face_rows = islice(filter(str.strip, _text_lines(raw)), skip, skip + n_faces)
        if any(len(row.split()) < 4 for row in face_rows):
            raise ValueError(_NOT_TRIANGLES) from None
        raise
    if len(vertices) != n_verts or len(faces) != n_faces:
        raise ValueError("OFF body shorter than its header counts")
    if stream.read().strip():
        raise ValueError("OFF body longer than its header counts")
    if (faces[:, 0] != 3).any():
        raise ValueError(_NOT_TRIANGLES)
    return vertices, np.ascontiguousarray(faces[:, 1:])


def _load_rows(stream: io.TextIOWrapper, rows: int, **kwargs) -> np.ndarray:
    """np.loadtxt over the next `rows` nonblank lines of stream; an OFF
    body has no comments."""
    with warnings.catch_warnings():
        # numpy warns that blank lines do not count towards max_rows, and
        # of a block with no rows; both are what the OFF reader wants.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(stream, comments=None, ndmin=2, max_rows=rows, **kwargs)


def _parse_obj(text: str) -> tuple[np.ndarray, np.ndarray]:
    raw = text.encode()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"  # so that every line ends in one
    # Each block is one slice of raw per run of its lines, gathered once
    # the scan's arrays are gone.
    vertex_rows, face_rows = (b"".join([raw[begin:end] for begin, end in runs])
                              for runs in _obj_line_runs(raw))
    del raw
    vertices = np.loadtxt(_text_lines(vertex_rows), usecols=(1, 2, 3),
                          comments="#", ndmin=2)
    del vertex_rows
    if b"/" in face_rows:  # drop the /texture/normal references of face indices
        face_rows = re.sub(r"(?<=\S)/\S*", "", face_rows.decode()).encode()
    try:
        faces = np.loadtxt(_text_lines(face_rows), dtype=_OBJ_FACE, comments="#", ndmin=1)
    except ValueError:
        rows = face_rows.decode().splitlines()
        if any(len(row.split("#", 1)[0].split()) != 4 for row in rows):
            raise ValueError(_NOT_TRIANGLES) from None
        raise
    return vertices, faces["index"] - 1


_SCAN_BYTES = 1 << 20  # bytes of an OBJ file searched for "\n" at a time


def _obj_line_runs(raw: bytes) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The (begin, end) byte offsets of each run of consecutive "v" lines
    and of "f" lines in raw, whose every line ends in "\n", once the face
    count fits the budget."""
    data = np.frombuffer(raw, np.uint8)
    # Offsets go up to len(raw), which int32 holds below 2 GiB.
    offset = np.int32 if len(raw) < 2**31 else np.int64
    ends = np.concatenate([
        np.flatnonzero(data[k:k + _SCAN_BYTES] == ord("\n")).astype(offset) + k
        for k in range(0, len(data), _SCAN_BYTES)
    ])
    starts = np.empty_like(ends)  # raw ends in "\n", so ends is not empty
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    first = starts.copy()  # each line's first nonblank byte, or its "\n"
    indented = np.flatnonzero(np.isin(data[starts], _BLANKS))
    if len(indented):  # move each to the end of its run of blanks
        blank = np.isin(data, _BLANKS)
        run_ends = np.flatnonzero(blank[:-1] > blank[1:]) + 1
        first[indented] = run_ends[np.searchsorted(run_ends, first[indented])]
    after = data.take(first + 1, mode="clip")  # clipped only past a final empty line
    tag = np.where(np.isin(after, _BLANKS) | (after == ord("\n")), data[first], 0)
    is_face = tag == ord("f")
    n_faces = int(np.count_nonzero(is_face))
    _check_triangle_budget(n_faces, "mesh file has")
    is_vertex = tag == ord("v")
    if not n_faces or not is_vertex.any():
        raise ValueError("not an OFF or OBJ triangle mesh")

    def runs(lines: np.ndarray) -> list[tuple[int, int]]:
        bounds = np.flatnonzero(np.diff(lines, prepend=False, append=False))
        return list(zip(starts[bounds[::2]].tolist(), (ends[bounds[1::2] - 1] + 1).tolist()))

    return runs(is_vertex), runs(is_face)


def rebuild_for_file(
    p: int, q: int, vertices: np.ndarray, triangles: np.ndarray
) -> tuple[ImmersedMobiusMesh, SweepParams]:
    """Rebuild the swept mesh whose file contents were given, or fail.

    Resolution is inferred from the counts: V = N*p*C and F = 2*N*p*(C-1)
    force N*p = V - F/2 columns, so F must be even, the columns a positive
    multiple of p and V a multiple of the columns; SweepParams then refuses
    an inferred N < 8 or C < 2.  The rebuilt mesh must reproduce the file's
    triangles exactly and its coordinates to printing precision.
    """
    if p < 1:
        raise MeshParameterError(f"p must be >= 1, got {p}")
    n_verts, n_faces = len(vertices), len(triangles)
    columns = n_verts - n_faces // 2
    if n_faces % 2 or columns < p or columns % p or n_verts % columns:
        raise ValueError("vertex/face counts do not match a sweep over this p")
    params = SweepParams(p, q, columns // p, n_verts // columns)
    mesh = build_mobius(params)
    if not np.array_equal(mesh.triangles, triangles):
        raise ValueError("triangle list does not match the swept construction")
    gap = mesh.vertices - vertices
    # NaN fails the comparison, so a file with NaN is refused as well.
    if not np.abs(gap, out=gap).max() <= 2e-9:
        raise ValueError("vertex coordinates do not match the swept construction")
    return mesh, params
