"""Swept band meshes: topology, boundary class, double-point locus, formats.

The self-intersection scan in the library prunes by angular sector and uses
batched edge-triangle crossings; the oracle here tests every domain-far
triangle pair with the scalar plane-interval method, so the two routes share
no code.
"""

import tracemalloc
from fractions import Fraction
from math import cos, floor, gcd, pi, sin

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscap import mobius
from crosscap.mobius import (
    ImmersedMobiusMesh,
    MeshParameterError,
    MeshResolutionError,
    MeshStructureError,
    RING_RADIUS,
    SweepParams,
    TUBE_RADIUS,
)


def small_mesh(p, q, theta=None, chord=3):
    params = SweepParams(
        p=p, q=q, theta_steps=theta or max(8, 4 * p * abs(q)), chord_steps=chord
    )
    return mobius.build_mobius(params), params


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- independent intersection oracle ----------------------------------------


def _plane_crossings(tri, sd, eps):
    points = []
    for i in range(3):
        if abs(sd[i]) <= eps:
            points.append(tri[i])
    for i in range(3):
        for j in range(i + 1, 3):
            if (sd[i] > eps and sd[j] < -eps) or (sd[i] < -eps and sd[j] > eps):
                lam = sd[i] / (sd[i] - sd[j])
                points.append(tri[i] + lam * (tri[j] - tri[i]))
    return points


def oracle_pair_points(t1, t2, eps=1e-12):
    """Intersection points of two triangles by interval overlap on the
    common plane-intersection line; [] when disjoint."""
    n2 = np.cross(t2[1] - t2[0], t2[2] - t2[0])
    sd1 = np.array([np.dot(n2, v - t2[0]) for v in t1])
    if all(sd1 > eps) or all(sd1 < -eps):
        return []
    n1 = np.cross(t1[1] - t1[0], t1[2] - t1[0])
    sd2 = np.array([np.dot(n1, v - t1[0]) for v in t2])
    if all(sd2 > eps) or all(sd2 < -eps):
        return []
    if all(abs(x) <= eps for x in sd1) and all(abs(x) <= eps for x in sd2):
        raise AssertionError("coplanar pair; oracle does not expect these meshes")
    axis = np.cross(n1, n2)
    norm = np.linalg.norm(axis)
    if norm < eps:
        return []
    axis = axis / norm
    pts1 = _plane_crossings(t1, sd1, eps)
    pts2 = _plane_crossings(t2, sd2, eps)
    if not pts1 or not pts2:
        return []
    s1 = [float(np.dot(axis, p)) for p in pts1]
    s2 = [float(np.dot(axis, p)) for p in pts2]
    lo, hi = max(min(s1), min(s2)), min(max(s1), max(s2))
    if hi - lo <= eps:
        return []
    out = []
    for s, p in zip(s1 + s2, pts1 + pts2):
        if lo - eps <= s <= hi + eps:
            out.append(p)
    return out


def oracle_strip_columns(mesh, params):
    """Column of each triangle along the unrolled strip: follow chord 0
    across the wraparound, pass after pass, to number the chords' passes;
    a triangle's slice and chord are those of its first vertex."""
    p, theta = params.p, params.theta_steps
    pass_of_chord, chord = {}, 0
    for k in range(p):
        pass_of_chord[chord] = k
        chord = mobius.chord_successor(p, params.q, chord)[0]
    slice_index, chord = np.divmod(mesh.triangles[:, 0] // params.chord_steps, p)
    passes = np.array([pass_of_chord[j] for j in range(p)])
    return passes[chord] * theta + slice_index


def oracle_offcore_points(mesh, params):
    """All-pairs scan over domain-far triangles (bounding-sphere reject only)."""
    coords = mesh.vertices[mesh.triangles]
    centers = coords.mean(axis=1)
    radii = np.sqrt(((coords - centers[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
    cols = oracle_strip_columns(mesh, params)
    n = len(coords)
    ia, ib = np.triu_indices(n, k=1)
    raw = np.abs(cols[ia] - cols[ib])
    far = np.minimum(raw, params.p * params.theta_steps - raw) > 1
    ia, ib = ia[far], ib[far]
    gap = np.sqrt(((centers[ia] - centers[ib]) ** 2).sum(axis=1))
    touching = gap <= radii[ia] + radii[ib]
    points = []
    for a, b in zip(ia[touching], ib[touching]):
        points.extend(oracle_pair_points(coords[a], coords[b]))
    return np.array(points).reshape(-1, 3)


def all_pairs_scan_rows(mesh, params):
    """Every strip-far triangle pair whose margin-expanded boxes touch on
    all three axes, crossed by the library's narrow phase in one call: the
    rows the scan must return, each pair exactly once, whatever the broad
    phase prunes or however it batches."""
    margin = 1e-12
    coords = mesh.vertices[mesh.triangles]
    lo, hi = coords.min(axis=1), coords.max(axis=1)
    cols = oracle_strip_columns(mesh, params)
    ia, ib = np.triu_indices(len(coords), k=1)
    raw = np.abs(cols[ia] - cols[ib])
    far = np.minimum(raw, params.p * params.theta_steps - raw) > 1
    touch = np.all((lo[ia] <= hi[ib] + margin) & (lo[ib] <= hi[ia] + margin), axis=1)
    pairs = np.stack([ia[far & touch], ib[far & touch]], axis=1)
    return np.concatenate(
        [np.empty((0, 3))] + mobius._crossing_points(mesh, pairs)
    )


def sorted_row_bytes(rows):
    """Rows sorted by their bit patterns, as bytes: equal exactly when the
    two arrays hold the same rows, repeats included, in any order."""
    bits = np.ascontiguousarray(rows).view(np.uint64)
    return rows[np.lexsort(bits.T[::-1])].tobytes()


def assert_same_point_sets(fast, slow, tol=1e-9):
    """Every oracle point lies within tol of a library point, and the
    reverse; the library repeats points, so only the sets are compared."""
    assert (len(fast) == 0) == (len(slow) == 0)
    for points, reference in ((slow, fast), (fast, slow)):
        for start in range(0, len(points), 128):
            chunk = points[start:start + 128]
            gaps = np.linalg.norm(chunk[:, None, :] - reference[None, :, :], axis=2)
            nearest = gaps.min(axis=1)
            assert nearest.max() <= tol, chunk[nearest.argmax()]


# --- brute-force topology reference ------------------------------------------


def reference_edge_counts(triangles):
    """Triangles per undirected edge, by a dict over every triangle side."""
    counts = {}
    for a, b, c in triangles.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
    return counts


def reference_euler(triangles):
    used = set(triangles.ravel().tolist())
    return len(used) - len(reference_edge_counts(triangles)) + len(triangles)


def reference_is_orientable(triangles):
    """Propagate a coherent orientation across shared edges, triangle by
    triangle; a contradiction anywhere means nonorientable."""
    edge_to_tris = {}
    for t, (a, b, c) in enumerate(triangles.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_to_tris.setdefault((min(u, v), max(u, v)), []).append((t, u < v))
    tri_edges = [[] for _ in range(len(triangles))]
    for key, hits in edge_to_tris.items():
        for t, forward in hits:
            tri_edges[t].append((key, forward))
    flags = [0] * len(triangles)
    for seed in range(len(triangles)):
        if flags[seed]:
            continue
        flags[seed] = 1
        stack = [seed]
        while stack:
            t = stack.pop()
            for key, forward in tri_edges[t]:
                for other, other_forward in edge_to_tris[key]:
                    if other == t:
                        continue
                    # Consistently oriented neighbors traverse a shared
                    # edge in opposite directions.
                    needed = -flags[t] if forward == other_forward else flags[t]
                    if flags[other] == 0:
                        flags[other] = needed
                        stack.append(other)
                    elif flags[other] != needed:
                        return False
    return True


def reference_walk_cycles(boundary_edges):
    """Boundary cycles by walking a vertex -> neighbors dict, each from its
    smallest vertex toward the smaller of that vertex's neighbors."""
    neighbors = {}
    for a, b in boundary_edges:
        neighbors.setdefault(int(a), []).append(int(b))
        neighbors.setdefault(int(b), []).append(int(a))
    for v, around in neighbors.items():
        if len(around) != 2:
            raise MeshStructureError(
                f"boundary vertex {v} has {len(around)} boundary edges, expected 2"
            )
        around.sort()
    cycles = []
    remaining = set(neighbors)
    while remaining:
        start = min(remaining)
        cycle = [start]
        remaining.discard(start)
        prev, cur = None, start
        while True:
            a, b = neighbors[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            cycle.append(nxt)
            remaining.discard(nxt)
            prev, cur = cur, nxt
        cycles.append(cycle)
    return cycles


def cycles_or_error(walk, boundary_edges):
    try:
        return walk(boundary_edges)
    except MeshStructureError as exc:
        return str(exc)


@st.composite
def disjoint_cycle_edges(draw):
    """1-20 disjoint cycles of 3-50 distinct ids in [0, 10**6), as int32
    (lo, hi) rows in random order."""
    lengths = draw(st.lists(st.integers(3, 50), min_size=1, max_size=20), label="lengths")
    ids = draw(st.lists(st.integers(0, 10**6 - 1), min_size=sum(lengths),
                        max_size=sum(lengths), unique=True), label="ids")
    rows, start = [], 0
    for n in lengths:
        cycle = ids[start:start + n]
        rows += [sorted(pair) for pair in zip(cycle, cycle[1:] + cycle[:1])]
        start += n
    return np.array(draw(st.permutations(rows), label="order"), dtype=np.int32)


def assert_topology_matches_reference(mesh):
    """Edge table, Euler characteristic and orientability against the
    dict references; each run of by_edge holds increasing half-edge ids
    3t + k whose sides are that run's edge."""
    tris = mesh.triangles
    counts = reference_edge_counts(tris)
    table = mesh._edge_table
    assert table.edges.tolist() == [list(e) for e in sorted(counts)]
    assert table.counts.tolist() == [counts[e] for e in sorted(counts)]
    assert table.by_edge.dtype == np.int32
    assert sorted(table.by_edge.tolist()) == list(range(3 * len(tris)))
    runs = np.split(table.by_edge, np.cumsum(table.counts)[:-1])
    for edge, run in zip(table.edges.tolist(), runs):
        assert (np.diff(run) > 0).all()
        for half in run.tolist():
            t, k = divmod(half, 3)
            assert sorted([tris[t, k], tris[t, (k + 1) % 3]]) == edge
    assert mobius.euler_characteristic(mesh) == reference_euler(tris)
    assert mobius.is_orientable(mesh) == reference_is_orientable(tris)


def draw_triangle_soup(data):
    """Up to 16 triangles with distinct corners on 3-12 vertices, with no
    other structure: several components, unused vertices, and repeats of
    earlier triangles in any corner order, so an edge may carry three or
    more triangles."""
    n = data.draw(st.integers(3, 12), label="vertices")
    fresh = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    triangles = []
    for _ in range(data.draw(st.integers(0, 16), label="triangles")):
        if triangles and data.draw(st.integers(0, 3), label="repeat") == 3:
            earlier = data.draw(st.sampled_from(triangles))
            triangles.append(data.draw(st.permutations(earlier)))
        else:
            triangles.append(data.draw(fresh))
    triangles = np.array(triangles, dtype=np.int32).reshape(-1, 3)
    return ImmersedMobiusMesh(vertices=np.zeros((n, 3)), triangles=triangles)


SEVEN_VERTEX_TORUS = np.array(
    [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
    + [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)],
    dtype=np.int32,
)


# The 6-vertex projective plane: the antipodal quotient of the icosahedron.
SIX_VERTEX_RP2 = np.array(
    [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
     [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3]],
    dtype=np.int32,
)


def klein_bottle_grid(n=4):
    """An n x n grid of squares, each split along a diagonal, glued with
    (i + n, j) ~ (i, j) and (i, j + n) ~ (-i, j)."""

    def vid(i, j):
        if j == n:
            i, j = -i, 0
        return (i % n) * n + j

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles += [[a, b, c], [a, c, d]]
    return np.array(triangles, dtype=np.int32)


def reordered(triangles, block, rng):
    """The triangles cut into blocks of `block` consecutive ones, the blocks
    shuffled and about half of them reversed, then about half of the
    triangles reversed: a neighbour t - 1 of t survives only within a
    block, so block 1 is a plain shuffle."""
    blocks = [triangles[k:k + block] for k in range(0, len(triangles), block)]
    tris = np.concatenate([
        blocks[k][::-1] if rng.random() < 0.5 else blocks[k]
        for k in rng.permutation(len(blocks))
    ])
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip][:, ::-1]
    return tris


def surfaces():
    """Closed surfaces, swept bands, a band cut open into a strip, and the
    five-triangle Moebius band, whose triangles i, i + 1 share an edge for
    every i, its last closing the twist onto its first."""
    band, params = small_mesh(2, 3, theta=24)
    p1_band, p1_params = small_mesh(1, -3, theta=16, chord=4)
    return {
        "five-triangle-band": np.array([[i, (i + 1) % 5, (i + 2) % 5] for i in range(5)],
                                       dtype=np.int32),
        "torus": SEVEN_VERTEX_TORUS,
        "projective-plane": SIX_VERTEX_RP2,
        "klein-bottle": klein_bottle_grid(),
        "band": band.triangles,
        "p1-band": p1_band.triangles,
        "strip": cut_open(p1_band, p1_params).triangles,
    }


# --- per-line mesh-file reference ------------------------------------------


def reference_export_mesh(mesh, format):
    """One f-string per vertex and face row, over numpy scalars."""
    fmt = format.lower()
    verts = mesh.vertices
    tris = mesh.triangles
    if fmt == "off":
        lines = ["OFF", f"{len(verts)} {len(tris)} 0"]
        lines.extend(f"{v[0]:.9f} {v[1]:.9f} {v[2]:.9f}" for v in verts)
        lines.extend(f"3 {t[0]} {t[1]} {t[2]}" for t in tris)
    elif fmt == "obj":
        lines = [f"v {v[0]:.9f} {v[1]:.9f} {v[2]:.9f}" for v in verts]
        lines.extend(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in tris)
    else:
        raise ValueError(f"unknown mesh format {format!r}")
    return "\n".join(lines) + "\n"


def percent_format_export(mesh, format):
    """One %-format over the .tolist() values of the whole mesh: the text
    the byte kernel must reproduce."""
    fmt = format.lower()
    if fmt == "off":
        head = f"OFF\n{mesh.vertex_count} {mesh.triangle_count} 0\n"
        vertex_row, face_row, base = "%.9f %.9f %.9f\n", "3 %d %d %d\n", 0
    elif fmt == "obj":
        head, vertex_row, face_row, base = "", "v %.9f %.9f %.9f\n", "f %d %d %d\n", 1
    else:
        raise ValueError(f"unknown mesh format {format!r}")
    text = (
        head
        + (vertex_row * mesh.vertex_count) % tuple(mesh.vertices.ravel().tolist())
        + (face_row * mesh.triangle_count)
        % tuple((mesh.triangles + base).ravel().tolist())
    )
    return text or "\n"


def exact_product(x):
    """x * 10**9 without rounding."""
    return Fraction(*x.as_integer_ratio()) * 10**9


def near_ties():
    """Coordinates x whose float product fl(x * 1e9) lies within one ulp of
    a half-integer h while the exact product is not h, keyed by whether the
    exact product lies above h."""
    found = {True: [], False: []}
    for k in range(500):
        for base in (0.0, 3.0, 1000.0):
            middle = base + (k + 0.5) / 1e9
            for x in (np.nextafter(middle, 0.0), middle, np.nextafter(middle, 2e3)):
                x = float(x)
                product = x * 1e9
                half = floor(product) + 0.5
                if abs(product - half) <= np.spacing(product) and exact_product(x) != half:
                    found[exact_product(x) > half].append(x)
    return found


def reference_parse_mesh_text(text):
    """Python conversion of every field, line by line.  It truncates an OBJ
    quad to its first three indices and reshapes the extra columns of OFF
    vertex rows into extra vertices; the library rejects the first and
    reads the first three numbers of each row."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty mesh file")
    if lines[0] == "OFF":
        counts = lines[1].split() if len(lines) > 1 else []
        if len(counts) < 2:
            raise ValueError("OFF header needs vertex and face counts")
        n_verts, n_faces = int(counts[0]), int(counts[1])
        mobius._check_triangle_budget(n_faces, "mesh file has")
        verts = [[float(x) for x in ln.split()] for ln in lines[2:2 + n_verts]]
        faces = []
        for ln in lines[2 + n_verts:2 + n_verts + n_faces]:
            parts = ln.split()
            if parts[0] != "3":
                raise ValueError("only triangle faces are supported")
            faces.append([int(x) for x in parts[1:4]])
        if len(verts) != n_verts or len(faces) != n_faces:
            raise ValueError("OFF body shorter than its header counts")
    else:
        kinds = [ln.split(None, 1)[0] for ln in lines]
        mobius._check_triangle_budget(kinds.count("f"), "mesh file has")
        verts, faces = [], []
        for kind, ln in zip(kinds, lines):
            if kind == "v":
                verts.append([float(x) for x in ln.split()[1:4]])
            elif kind == "f":
                faces.append([int(x.split("/")[0]) - 1 for x in ln.split()[1:4]])
        if not verts or not faces:
            raise ValueError("not an OFF or OBJ triangle mesh")
    return (
        np.array(verts, dtype=np.float64).reshape(-1, 3),
        np.array(faces, dtype=np.int32).reshape(-1, 3),
    )


def parsed_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


_OBJ_OTHER_LINES = ["vn 0 0 1", "vt 0.5 0.5", "o band", "g side", "s off", "# made by hand"]
_BLANKS = ["", " ", "\t", " \t "]


def relaid_mesh_text(rnd, text, fmt):
    """The rows of an exported file in another layout that a reader must
    take the same way: CRLF line ends, blank lines, blanks and tabs around
    a row, and for OBJ v and f rows interleaved (each kind in order),
    other statements and trailing # comments."""
    lines = text.splitlines()
    if fmt == "obj":
        if rnd.random() < 0.5:
            kinds = [[ln for ln in lines if ln[0] == tag][::-1] for tag in "vf"]
            lines = []
            while any(kinds):
                rows = rnd.choice([rows for rows in kinds if rows])
                lines.append(rows.pop())
        lines = [ln + " # note" if rnd.random() < 0.2 else ln for ln in lines]
        for _ in range(rnd.randrange(4)):
            lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(_OBJ_OTHER_LINES))
    lines = [rnd.choice(_BLANKS) + ln + rnd.choice(_BLANKS) if rnd.random() < 0.3 else ln
             for ln in lines]
    for _ in range(rnd.randrange(4)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(_BLANKS))
    newline = rnd.choice(["\n", "\r\n"])
    return newline.join(lines) + newline


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def with_triangles(mesh, triangles):
    """The mesh's vertices with a new triangle list."""
    return ImmersedMobiusMesh(vertices=mesh.vertices, triangles=triangles)


def disjoint_union(a, b):
    """Two meshes side by side, b's vertex indices shifted past a's."""
    return ImmersedMobiusMesh(
        vertices=np.concatenate([a.vertices, b.vertices]),
        triangles=np.concatenate([a.triangles, b.triangles + a.vertex_count]),
    )


def cut_open(mesh, params):
    """Drop every quad that crosses the sweep wraparound (slice
    theta_steps - 1, the slice of its first vertex): p strips."""
    slice_index = mesh.triangles[:, 0] // (params.p * params.chord_steps)
    return with_triangles(mesh, mesh.triangles[slice_index != params.theta_steps - 1])


def draw_small_sweep(data):
    """A band with p <= 3, either sign of q, chord_steps 2-4 (both
    parities), whole or cut open."""
    p = data.draw(st.integers(1, 3), label="p")
    # 2p|q| <= 12 keeps the all-pairs oracle under a second.
    q = data.draw(
        st.integers(-6 // p, 6 // p).filter(
            lambda q: q != 0 and gcd(2 * p, abs(q)) == 1
        ),
        label="q",
    )
    low = max(8, 4 * p * abs(q))
    theta = data.draw(st.integers(low, low + 8), label="theta")
    chord = data.draw(st.integers(2, 4), label="chord")
    mesh, params = small_mesh(p, q, theta=theta, chord=chord)
    if data.draw(st.booleans(), label="cut"):
        mesh = cut_open(mesh, params)
    return mesh, params


def reference_sweep(p, q, theta_steps, chord_steps):
    """Vertices and triangles of the swept band, one quad at a time, from
    the module docstring: sample m of chord j in slice i is vertex
    (i*p + j)*chord_steps + m, slice theta_steps is slice 0 with chord j
    continued by the chord whose boundary ends sit at disk angle
    2*pi*(j+q)/(2p), and quad (i, j, m) is the pair of triangles
    (i,m) (i+1,m) (i+1,m+1) and (i,m) (i+1,m+1) (i,m+1) of chord j."""

    def vertex_id(i, j, m):
        if i == theta_steps:
            i, end = 0, (j + q) % (2 * p)
            j, m = (end, m) if end < p else (end - p, chord_steps - 1 - m)
        return (i * p + j) * chord_steps + m

    vertices, triangles = [], []
    for i in range(theta_steps):
        theta = 2 * pi * i / theta_steps
        for j in range(p):
            alpha = (2 * pi * j + q * theta) / (2 * p)
            for m in range(chord_steps):
                rho = -1 + 2 * m / (chord_steps - 1)
                ring = RING_RADIUS + TUBE_RADIUS * rho * cos(alpha)
                height = TUBE_RADIUS * rho * sin(alpha)
                vertices.append((ring * cos(theta), ring * sin(theta), height))
            for m in range(chord_steps - 1):
                a, c = vertex_id(i, j, m), vertex_id(i, j, m + 1)
                b, d = vertex_id(i + 1, j, m), vertex_id(i + 1, j, m + 1)
                triangles += [(a, b, d), (a, d, c)]
    return np.array(vertices), np.array(triangles, dtype=np.int32)


# --- parameter validation ----------------------------------------------------


class TestParams:
    def test_gcd_violation(self):
        with pytest.raises(MeshParameterError):
            mobius.build_mobius(SweepParams(p=2, q=4, theta_steps=64))

    def test_resolution_floor(self):
        with pytest.raises(MeshResolutionError):
            mobius.build_mobius(SweepParams(p=2, q=5, theta_steps=32))

    def test_triangle_budget(self, monkeypatch):
        monkeypatch.setenv(mobius.MAX_MESH_ENV, "100")
        with pytest.raises(MeshParameterError):
            mobius.build_mobius(SweepParams(p=1, q=3, theta_steps=64))

    def test_budget_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(mobius.MAX_MESH_ENV, "lots")
        with pytest.raises(MeshParameterError):
            mobius.max_triangle_budget()

    @pytest.mark.parametrize("args, message", [
        ((0, 3, 24, 3), "p must be >= 1, got 0"),
        ((2, 0, 24, 3), "q must be nonzero"),
        ((2, 4, 24, 3), "gcd(2p, q) must be 1, got gcd(4, 4) != 1"),
        ((2, 3, 7, 3), "theta_steps must be >= 8, got 7"),
        ((2, 3, 24, 1), "chord_steps must be >= 2, got 1"),
    ], ids=["p", "q", "gcd", "theta_steps", "chord_steps"])
    def test_rules_checked_when_built(self, args, message):
        with pytest.raises(MeshParameterError) as raised:
            SweepParams(*args)
        assert str(raised.value) == message

    @pytest.mark.parametrize("args", [(2, 4, 24, 3), (2, 0, 24, 3)])
    def test_checks_cannot_be_handed_an_invalid_sweep(self, args):
        mesh, _ = small_mesh(2, 3, theta=24)
        with pytest.raises(MeshParameterError):
            mobius.verify_mesh(mesh, SweepParams(*args))
        with pytest.raises(MeshParameterError):
            mobius.self_intersection_points(mesh, SweepParams(*args))


class TestConstruction:
    def test_counts(self):
        mesh, params = small_mesh(2, 3, theta=24, chord=4)
        assert mesh.vertex_count == 24 * 2 * 4
        assert mesh.triangle_count == 2 * 24 * 2 * 3
        assert len(mesh.boundary_edges) == 2 * 2 * 24

    def test_single_chord_per_slice_when_p1(self):
        # Vertex (i, 0, m) is i*chord_steps + m: each slice's samples lie on
        # one straight chord in the meridian plane of that slice.
        mesh, params = small_mesh(1, 3)
        pts = mesh.vertices.reshape(params.theta_steps, params.chord_steps, 3)
        spans = pts[:, -1] - pts[:, 0]
        offsets = pts - pts[:, :1]
        assert np.allclose(np.cross(offsets, spans[:, None]), 0.0, atol=1e-12)
        theta = 2 * np.pi * np.arange(params.theta_steps) / params.theta_steps
        tangent = np.stack([-np.sin(theta), np.cos(theta), 0 * theta], axis=1)
        assert np.allclose((offsets * tangent[:, None]).sum(axis=2), 0.0, atol=1e-12)

    def test_domain_positions_span_chord(self):
        # Positions -1, -0.5, 0, 0.5, 1: the ends sit on the torus, the
        # middle sample on the core circle, evenly spaced in between.
        mesh, params = small_mesh(1, 3, chord=5)
        pts = mesh.vertices.reshape(params.theta_steps, params.chord_steps, 3)
        core = mobius.distance_to_core_circle(pts.reshape(-1, 3)).reshape(
            params.theta_steps, params.chord_steps
        )
        assert np.allclose(core[:, [0, -1]], TUBE_RADIUS, atol=1e-12)
        assert np.allclose(core[:, 2], 0.0, atol=1e-12)
        steps = np.linalg.norm(np.diff(pts, axis=1), axis=2)
        assert np.allclose(steps, TUBE_RADIUS / 2, atol=1e-12)

    def test_boundary_vertices_sit_on_torus(self):
        mesh, params = small_mesh(2, 3, theta=24)
        on_boundary = np.unique(mesh.boundary_edges)
        pts = mesh.vertices[on_boundary]
        radial = np.hypot(pts[:, 0], pts[:, 1]) - RING_RADIUS
        meridian_r = np.hypot(radial, pts[:, 2])
        assert np.allclose(meridian_r, TUBE_RADIUS, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_numbering_matches_per_quad_reference(self, data):
        p = data.draw(st.integers(1, 4), label="p")
        q = data.draw(
            st.integers(-7, 7).filter(lambda q: q != 0 and gcd(2 * p, abs(q)) == 1),
            label="q",
        )
        low = max(8, 4 * p * abs(q))
        theta = data.draw(st.integers(low, low + 9), label="theta")
        chord = data.draw(st.integers(2, 5), label="chord")
        mesh, _ = small_mesh(p, q, theta=theta, chord=chord)
        vertices, triangles = reference_sweep(p, q, theta, chord)
        assert mesh.triangles.dtype == np.int32
        assert np.array_equal(mesh.triangles, triangles)
        assert mesh.vertices.shape == vertices.shape
        assert np.abs(mesh.vertices - vertices).max() <= 1e-12

    def test_chord_monodromy(self):
        for p, q in [(1, 3), (2, 3), (3, 5), (5, 3), (4, 7)]:
            length, flipped = mobius.chord_cycle(p, q)
            assert length == p
            assert flipped


class TestVerification:
    @pytest.mark.parametrize("p, q", [(1, 3), (2, 3), (3, 5)])
    def test_band_topology(self, p, q):
        mesh, params = small_mesh(p, q)
        report = mobius.verify_mesh(mesh, params)
        assert report.euler_characteristic == 0
        assert report.boundary_component_count == 1
        assert not report.orientable
        assert report.boundary_class == (2 * p, q)
        assert report.core_multiplicity == p
        assert report.certified and report.failed_checks == ()

    def test_negative_q_mirror(self):
        mesh, params = small_mesh(2, -3, theta=24)
        report = mobius.verify_mesh(mesh, params)
        assert report.boundary_class == (4, -3)
        assert not report.orientable
        assert report.certified

    def test_sheet_pushed_off_the_core_is_not_certified(self):
        # Sample 3 of chord 0 in slice 5 ends the segment that crosses the
        # core (chord_steps 8 puts no sample on it); lifting it leaves that
        # slice one sheet short.
        mesh, params = small_mesh(2, 3, theta=64, chord=8)
        vertices = mesh.vertices.copy()
        vertices[(5 * params.p + 0) * params.chord_steps + 3, 2] += 0.05
        moved = ImmersedMobiusMesh(vertices=vertices, triangles=mesh.triangles)
        report = mobius.verify_mesh(moved, params)
        assert report.core_multiplicity == 1
        assert report.failed_checks == ("core_multiplicity",)
        assert not report.certified

    def test_p1_has_no_self_intersections(self):
        mesh, params = small_mesh(1, 3, theta=16)
        assert len(mobius.self_intersection_points(mesh, params)) == 0
        assert len(oracle_offcore_points(mesh, params)) == 0

    @pytest.mark.parametrize("p, q, theta", [(2, 3, 24), (3, 5, 60)])
    def test_intersections_match_brute_force_oracle(self, p, q, theta):
        mesh, params = small_mesh(p, q, theta=theta)
        fast = mobius.self_intersection_points(mesh, params)
        slow = oracle_offcore_points(mesh, params)
        assert len(fast) > 0 and len(slow) > 0
        d_fast = mobius.distance_to_core_circle(fast)
        d_slow = mobius.distance_to_core_circle(slow)
        assert abs(d_fast.max() - d_slow.max()) < 1e-9
        tol = 3.0 * mobius.max_edge_length(mesh)
        assert d_slow.max() <= tol
        assert_same_point_sets(fast, slow)

    def test_cut_open_band_matches_oracle(self):
        # The strip columns come from each triangle's first vertex, so they
        # hold for any subset of the built triangles: here p disks.
        band, params = small_mesh(2, 3, theta=24)
        cut = cut_open(band, params)
        report = mobius.verify_mesh(cut, params)
        assert report.euler_characteristic == 2
        assert report.boundary_component_count == 2
        assert report.orientable
        assert report.core_multiplicity == 2
        assert not report.certified
        assert {
            "euler_characteristic", "boundary_component_count", "orientable"
        } <= set(report.failed_checks)
        fast = mobius.self_intersection_points(cut, params)
        slow = oracle_offcore_points(cut, params)
        d_fast = mobius.distance_to_core_circle(fast)
        d_slow = mobius.distance_to_core_circle(slow)
        assert len(fast) > 0 and abs(d_fast.max() - d_slow.max()) < 1e-9
        assert_same_point_sets(fast, slow)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_scan_matches_oracle_on_random_sweeps(self, data):
        mesh, params = draw_small_sweep(data)
        fast = mobius.self_intersection_points(mesh, params)
        slow = oracle_offcore_points(mesh, params)
        assert (len(fast) == 0) == (len(slow) == 0)
        if len(fast):
            d_fast = mobius.distance_to_core_circle(fast)
            d_slow = mobius.distance_to_core_circle(slow)
            assert abs(d_fast.max() - d_slow.max()) < 1e-9
        assert_same_point_sets(fast, slow)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_scan_keeps_every_candidate_pair_once(self, data):
        # Point-set comparisons cannot see a pair that is lost or repeated
        # when other pairs produce the same points; the rows can.
        mesh, params = draw_small_sweep(data)
        fast = mobius.self_intersection_points(mesh, params)
        slow = all_pairs_scan_rows(mesh, params)
        assert sorted_row_bytes(fast) == sorted_row_bytes(slow)

    @pytest.mark.parametrize("batch", [1, 7])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_scan_rows_do_not_depend_on_batch_boundaries(self, batch, data):
        # A batch of 1 flushes after every window with a box survivor; 7
        # flushes mid-run and leaves a remainder for the final flush.
        mesh, params = draw_small_sweep(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mobius, "_CROSSING_BATCH", batch)
            fast = mobius.self_intersection_points(mesh, params)
        slow = all_pairs_scan_rows(mesh, params)
        assert sorted_row_bytes(fast) == sorted_row_bytes(slow)

    @pytest.mark.parametrize("chunk", [1, 7])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_scan_rows_do_not_depend_on_sweep_chunks(self, chunk, data):
        # A chunk of 1 finds each block's three runs alone; 7 splits
        # sectors, and the last chunk is short.
        mesh, params = draw_small_sweep(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mobius, "_SWEEP_CHUNK", chunk)
            fast = mobius.self_intersection_points(mesh, params)
        slow = all_pairs_scan_rows(mesh, params)
        assert sorted_row_bytes(fast) == sorted_row_bytes(slow)

    @pytest.mark.parametrize("chunk", [mobius._SWEEP_CHUNK, 1])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_scan_rows_do_not_depend_on_quad_blocks(self, chunk, data):
        # Rolled by one, triangle 2k+1 is the first triangle of a quad and
        # 2k the second of the one before: a block that straddles two
        # quads where their columns are equal, two lone triangles where
        # they differ.  With one triangle dropped, the blocks after it
        # straddle quads and the last triangle is alone.
        mesh, params = draw_small_sweep(data)
        triangles = mesh.triangles
        if data.draw(st.booleans(), label="roll"):
            triangles = np.roll(triangles, 1, axis=0)
        else:
            drop = data.draw(st.integers(0, len(triangles) - 1), label="drop")
            triangles = np.delete(triangles, drop, axis=0)
        mesh = with_triangles(mesh, triangles)
        pair = mobius._sweep_order(mesh, params)[0]
        assert (pair[0] == pair[1]).any()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mobius, "_SWEEP_CHUNK", chunk)
            fast = mobius.self_intersection_points(mesh, params)
        slow = all_pairs_scan_rows(mesh, params)
        assert sorted_row_bytes(fast) == sorted_row_bytes(slow)

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize(
        "p, q, chord", [(2, 3, 2), (2, -3, 3), (3, 5, 4), (3, -5, 5), (5, -9, 16)]
    )
    def test_sweep_blocks_are_the_quads(self, p, q, chord, cut):
        # Lone-triangle blocks would keep the rows right and lose the
        # speed, so no rows test sees them: every build_mobius block must
        # be the two triangles of one quad, which start at one vertex.
        mesh, params = small_mesh(p, q, chord=chord)
        if cut:
            mesh = cut_open(mesh, params)
        pair = mobius._sweep_order(mesh, params)[0]
        assert pair.shape == (2, len(mesh.triangles) // 2)
        assert np.array_equal(np.sort(pair[0]), np.arange(0, len(mesh.triangles), 2))
        assert np.array_equal(pair[1], pair[0] + 1)
        starts = mesh.triangles[:, 0]
        assert np.array_equal(starts[pair[0]], starts[pair[1]])

    @pytest.mark.parametrize(
        "p, q, theta, chord",
        [(2, 1, 8, 2), (2, -1, 8, 2), (2, 1, 8, 3), (3, -1, 12, 3), (3, 1, 12, 4)],
    )
    def test_scan_runs_cross_the_sector_wraparound(self, p, q, theta, chord):
        # With few slices every chord spans the wrap from sector
        # theta_steps - 1 to 0, so the previous-sector and next-sector runs
        # wrap too; odd chord_steps put a sample on the core, where lowest
        # z ties exactly; both signs of q.
        mesh, params = small_mesh(p, q, theta=theta, chord=chord)
        fast = mobius.self_intersection_points(mesh, params)
        slow = all_pairs_scan_rows(mesh, params)
        assert len(slow) > 0
        assert sorted_row_bytes(fast) == sorted_row_bytes(slow)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_scan_keeps_pair_touching_only_within_margin(self, axis, side):
        # Triangle b's edge along the axis stops 5e-13 short of triangle
        # a's plane through the origin, on either side of it; the crossing
        # tolerance still finds the point, so the boxes must touch through
        # the margin on that axis alone.  On the other two they overlap.
        # With p = 2 and theta_steps = 8 the first vertices 0 and 2 sit in
        # sector 0 at strip columns 0 and 8: strip-far, and the pair comes
        # from the lower-z triangle's same-sector run.
        params = SweepParams(p=2, q=3, theta_steps=8, chord_steps=2)
        vertices = np.array([
            [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5e-13, 0.2, 0.2],
            [1.0, 0.2, 0.2], [0.0, 0.0, 1.0], [1.0, 0.3, 0.3],
        ]) * [side, 1.0, 1.0]
        vertices = np.roll(vertices, axis, axis=1)
        triangles = np.array([[0, 1, 4], [2, 3, 5]], dtype=np.int32)
        mesh = ImmersedMobiusMesh(vertices=vertices, triangles=triangles)
        coords = vertices[triangles]
        lo, hi = coords.min(axis=1), coords.max(axis=1)
        gap = np.maximum(lo[1] - hi[0], lo[0] - hi[1])
        assert 0 < gap[axis] <= 1e-12
        assert np.all(np.delete(gap, axis) < 0)
        fast = mobius.self_intersection_points(mesh, params)
        slow = all_pairs_scan_rows(mesh, params)
        assert len(slow) > 0
        assert sorted_row_bytes(fast) == sorted_row_bytes(slow)

    def test_scan_memory_is_bounded_by_one_sector(self):
        # 19,200 triangles, 150 per sector, swept as 9,600 quad blocks:
        # every z-overlapping triangle pair of the same or adjacent sectors
        # at once would take about 200 MB; the scan expands the runs of one
        # chunk of blocks at a time and splits only the pairs it keeps.
        mesh, params = small_mesh(3, 5, theta=128, chord=26)
        assert traced_peak(mobius.self_intersection_points, mesh, params) < 32 * 2**20

    def test_verify_memory_is_bounded_by_crossing_batches(self):
        # 76,800 triangles and 61,440 hit rows; holding every box survivor
        # and every triangle's corners at once peaks at 40 MB.
        mesh, params = small_mesh(5, -9, theta=512, chord=16)
        assert traced_peak(mobius.verify_mesh, mesh, params) < 24 * 2**20

    # The shape of the benchmark's band files: 90,112 triangles, 49,152
    # vertices, 3.6 MB of OFF or 3.7 MB of OBJ text.
    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_parse_memory_is_bounded_by_text_length(self, fmt):
        # A str stream holds four bytes per character, 5.0-5.2 times the
        # text; the UTF-8 byte buffers hold one.
        mesh, _ = small_mesh(1, 3, theta=4096, chord=12)
        text = mobius.export_mesh(mesh, fmt)
        assert traced_peak(mobius.parse_mesh_text, text) <= 3.5 * len(text)

    def test_edge_table_memory_per_triangle(self):
        # Holding heads, lo and hi through the sort peaks at 131 B.
        mesh, _ = small_mesh(1, 3, theta=4096, chord=12)
        peak = traced_peak(mobius._build_edge_table, mesh.triangles, mesh.vertex_count)
        assert peak <= 125 * mesh.triangle_count

    def test_orientation_memory_per_triangle(self):
        # A union-find over the triangles, not their runs, peaks at 134 B.
        mesh, _ = small_mesh(1, 3, theta=4096, chord=12)
        mesh._edge_table  # built before the trace: only the check counts
        assert traced_peak(mobius.is_orientable, mesh) <= 105 * mesh.triangle_count

    def test_report_carries_tolerance(self):
        mesh, params = small_mesh(2, 3, theta=24)
        report = mobius.verify_mesh(mesh, params)
        assert report.tolerance == 3.0 * mobius.max_edge_length(mesh)
        assert report.to_dict()["tolerance"] == report.tolerance
        assert list(report.to_dict())[-1] == "tolerance"
        assert list(report.to_dict())[-3:-1] == ["failed_checks", "certified"]
        assert mobius.verify_mesh(mesh, params, tol=0.5).tolerance == 0.5

    def test_winding_angles_near_exact_multiples(self):
        mesh, params = small_mesh(2, 3, theta=48)
        theta_total, phi_total = mobius.boundary_winding_angles(mesh)
        assert abs(theta_total - 2 * np.pi * 4) < 1e-6
        assert abs(phi_total - 2 * np.pi * 3) < 1e-6

    def test_refinement_stability(self):
        base = SweepParams(p=2, q=3, theta_steps=24, chord_steps=4)
        fine = SweepParams(p=2, q=3, theta_steps=48, chord_steps=8)
        a = mobius.verify_mesh(mobius.build_mobius(base), base)
        b = mobius.verify_mesh(mobius.build_mobius(fine), fine)
        assert a.euler_characteristic == b.euler_characteristic
        assert a.boundary_component_count == b.boundary_component_count
        assert a.orientable == b.orientable
        assert a.boundary_class == b.boundary_class
        assert a.core_multiplicity == b.core_multiplicity

    def test_orientation_check_accepts_orientable_patch(self):
        # Cut the band open: drop the wraparound columns and the strip is an
        # orientable rectangle, which the orientation check must accept.
        mesh, params = small_mesh(1, 3, theta=16)
        assert mobius.is_orientable(cut_open(mesh, params))

    def test_structure_error_on_corrupt_triangles(self):
        mesh, params = small_mesh(1, 3, theta=16)
        bad_tris = mesh.triangles.copy()
        bad_tris[0] = bad_tris[1]  # duplicates an edge pairing
        bad = ImmersedMobiusMesh(vertices=mesh.vertices, triangles=bad_tris)
        with pytest.raises(MeshStructureError):
            mobius.verify_mesh(bad, params)

    def test_edgeless_mesh_is_reported(self):
        # No triangles: no edges, no boundary and no double points, so the
        # longest edge and the off-core distance are both 0.0.
        band, params = small_mesh(2, 3, theta=24)
        mesh = ImmersedMobiusMesh(band.vertices, np.empty((0, 3), np.int32))
        assert mobius.max_edge_length(mesh) == 0.0
        report = mobius.verify_mesh(mesh, params)
        assert report.failed_checks == (
            "boundary_component_count", "orientable", "boundary_class"
        )
        assert report.max_offcore_selfintersection_distance == 0.0

    def test_tolerance_must_be_positive(self):
        mesh, params = small_mesh(1, 3, theta=16)
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                mobius.verify_mesh(mesh, params, tol=tol)


class TestEdgeTable:
    """Every check that reads the mesh's edge table, against the references."""

    @pytest.mark.parametrize("bad_index", [-1, "V", "V+1"])
    def test_index_out_of_range_rejected_before_keying(self, bad_index):
        mesh, params = small_mesh(1, 3, theta=16)
        v = mesh.vertex_count
        tris = mesh.triangles.copy()
        # Index V + 1 in edge (lo, V + 1) would alias edge (lo + 1, 1) under
        # the key lo * V + hi.
        tris[0, 2] = {"V": v, "V+1": v + 1}.get(bad_index, bad_index)
        bad = with_triangles(mesh, tris)
        for check in (
            mobius.euler_characteristic,
            mobius.is_orientable,
            mobius.max_edge_length,
            lambda m: mobius.verify_mesh(m, params),
        ):
            with pytest.raises(MeshStructureError, match="index out of range"):
                check(bad)

    def test_degenerate_triangle(self):
        mesh, params = small_mesh(1, 3, theta=16)
        tris = mesh.triangles.copy()
        tris[0, 1] = tris[0, 0]
        bad = with_triangles(mesh, tris)
        with pytest.raises(MeshStructureError, match="degenerate triangle"):
            mobius.verify_mesh(bad, params)

    def test_edge_on_three_triangles(self):
        # On an orientable strip, so only the branching edge can make the
        # orientation check fail.
        band, params = small_mesh(1, 3, theta=16)
        mesh = cut_open(band, params)
        tris = np.concatenate([mesh.triangles, mesh.triangles[:1]])
        bad = with_triangles(mesh, tris)
        with pytest.raises(MeshStructureError, match="more than two triangles"):
            mobius.verify_mesh(bad, params)
        assert not mobius.is_orientable(bad)
        assert not reference_is_orientable(tris)

    def test_boundary_vertex_without_two_boundary_edges(self):
        # Removing the second triangle of the first quad (a, d, c) exposes
        # both of its chord-interior edges at the boundary vertex a, which
        # then has four boundary edges.
        mesh, params = small_mesh(1, 3, theta=16, chord=4)
        keep = np.arange(mesh.triangle_count) != 1
        bad = with_triangles(mesh, mesh.triangles[keep])
        a = int(mesh.triangles[1, 0])
        with pytest.raises(
            MeshStructureError, match=f"boundary vertex {a} has 4 boundary edges"
        ):
            mobius.verify_mesh(bad, params)

    @staticmethod
    def _calls_per_mesh(monkeypatch, builder):
        """Calls of mobius.<builder> while two meshes with the same triangles
        each run every table reader, verify_mesh and boundary_cycles."""
        mesh, params = small_mesh(2, 3, theta=24)
        calls = []
        real = getattr(mobius, builder)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mobius, builder, counting)
        for m in (mesh, with_triangles(mesh, mesh.triangles)):
            mobius.max_edge_length(m)
            mobius.verify_mesh(m, params)
            mobius.boundary_cycles(m)
        return len(calls) / 2

    def test_table_is_built_once_per_mesh(self, monkeypatch):
        assert self._calls_per_mesh(monkeypatch, "_build_edge_table") == 1

    def test_boundary_cycles_walked_once_per_mesh(self, monkeypatch):
        # verify_mesh needs the cycles twice: to count them and to wind
        # along them.
        assert self._calls_per_mesh(monkeypatch, "_walk_cycles") == 1

    def test_two_component_orientation(self):
        band, params = small_mesh(1, 3, theta=16)
        cut = cut_open(band, params)
        assert not mobius.is_orientable(disjoint_union(band, cut))
        assert not mobius.is_orientable(disjoint_union(cut, band))
        assert mobius.is_orientable(disjoint_union(cut, cut))
        assert mobius.euler_characteristic(disjoint_union(cut, cut)) == 2

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_reference(self, data):
        p = data.draw(st.integers(1, 3), label="p")
        q = data.draw(
            st.integers(-7, 7).filter(lambda q: q != 0 and gcd(2 * p, abs(q)) == 1),
            label="q",
        )
        theta = data.draw(st.integers(max(8, 4 * p * abs(q)), 96), label="theta")
        chord = data.draw(st.integers(2, 5), label="chord")
        params = SweepParams(p=p, q=q, theta_steps=theta, chord_steps=chord)
        mesh = mobius.build_mobius(params)
        counts = reference_edge_counts(mesh.triangles)
        boundary = [list(e) for e in sorted(counts) if counts[e] == 1]
        assert mesh.boundary_edges.tolist() == boundary
        assert mesh.boundary_edges.dtype == np.int32
        if data.draw(st.booleans(), label="cut"):
            mesh = cut_open(mesh, params)
        # Split some quads along their other diagonal, so the triangle
        # adjacency graph has odd cycles; then relabel vertices, reorder
        # triangles and reverse some of them.  None of that changes chi or
        # orientability.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        quads = mesh.triangles.reshape(-1, 2, 3).copy()  # (a, b, d), (a, d, c)
        a, b, d, c = quads[:, 0, 0], quads[:, 0, 1], quads[:, 0, 2], quads[:, 1, 2]
        other = np.stack([np.stack([a, b, c], 1), np.stack([b, d, c], 1)], 1)
        resplit = rng.random(len(quads)) < 0.5
        quads[resplit] = other[resplit]
        relabel = rng.permutation(mesh.vertex_count)
        order = rng.permutation(mesh.triangle_count)
        tris = relabel[quads.reshape(-1, 3)[order]].astype(np.int32)
        flip = rng.random(len(tris)) < 0.5
        tris[flip] = tris[flip][:, ::-1]
        mesh = with_triangles(mesh, tris)
        assert_topology_matches_reference(mesh)
        edges = mesh.boundary_edges
        assert mobius._walk_cycles(edges) == reference_walk_cycles(edges)

    # Orientation contracts runs of consecutive neighbours first; any
    # triangle order, whole runs, broken runs or none, must not matter.
    @settings(max_examples=100, deadline=None)
    @given(surface=st.sampled_from(sorted(surfaces())), block=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(surface="klein-bottle", block=1, seed=1)
    @example(surface="band", block=1, seed=2)
    @example(surface="five-triangle-band", block=5, seed=3)
    def test_any_triangle_order_matches_brute_force_reference(self, surface, block, seed):
        tris = reordered(surfaces()[surface], block, np.random.default_rng(seed))
        mesh = ImmersedMobiusMesh(vertices=np.zeros((tris.max() + 1, 3)), triangles=tris)
        assert_topology_matches_reference(mesh)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_triangle_soup_matches_brute_force_reference(self, data):
        assert_topology_matches_reference(draw_triangle_soup(data))

    @pytest.mark.parametrize("triangles, chi, orientable", [
        pytest.param(SEVEN_VERTEX_TORUS, 0, True, id="torus"),
        pytest.param(SIX_VERTEX_RP2, 1, False, id="projective-plane"),
        pytest.param(klein_bottle_grid(), 0, False, id="klein-bottle"),
    ])
    def test_closed_surface(self, triangles, chi, orientable):
        mesh = ImmersedMobiusMesh(
            vertices=np.zeros((triangles.max() + 1, 3)), triangles=triangles
        )
        assert set(reference_edge_counts(triangles).values()) == {2}
        assert len(mesh.boundary_edges) == 0
        assert mobius.boundary_cycles(mesh) == []
        assert mobius.euler_characteristic(mesh) == chi
        assert mobius.is_orientable(mesh) == orientable
        assert_topology_matches_reference(mesh)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cycles_match_dict_walk_with_triangles_removed(self, data):
        # Holes add boundary cycles; a removed triangle that meets the
        # boundary, or two holes touching at a vertex, leaves a vertex with
        # four or more boundary edges, which both must report alike.
        p = data.draw(st.integers(1, 2), label="p")
        q = data.draw(st.sampled_from([-3, -1, 1, 3, 5]), label="q")
        mesh, params = small_mesh(p, q, chord=data.draw(st.integers(2, 6), label="chord"))
        if data.draw(st.booleans(), label="cut"):
            mesh = cut_open(mesh, params)  # p strips, p boundary cycles
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        relabel = rng.permutation(mesh.vertex_count).astype(np.int32)
        keep = rng.random(mesh.triangle_count) >= data.draw(
            st.sampled_from([0.0, 0.005, 0.02, 0.3]), label="drop"
        )
        edges = with_triangles(mesh, relabel[mesh.triangles[keep]]).boundary_edges
        assert cycles_or_error(mobius._walk_cycles, edges) == cycles_or_error(
            reference_walk_cycles, edges
        )

    @settings(max_examples=200, deadline=None)
    @given(edges=disjoint_cycle_edges())
    @example(edges=np.array([[7, 7]], dtype=np.int32))
    @example(edges=np.empty((0, 2), dtype=np.int32))
    @example(edges=np.array([[4, 5], [0, 2], [3, 5], [1, 2], [3, 4], [0, 1]], dtype=np.int32))
    def test_cycles_match_dict_walk_on_disjoint_cycles(self, edges):
        assert mobius._walk_cycles(edges) == reference_walk_cycles(edges)

    def test_single_long_cycle_matches_dict_walk(self):
        edges = mobius.build_mobius(SweepParams(1, 3, 100_000, 2)).boundary_edges
        cycles = mobius._walk_cycles(edges)
        assert [len(cycle) for cycle in cycles] == [200_000]
        assert cycles == reference_walk_cycles(edges)


# Signed zeros, values that round to +-0 or sit near a 9-decimal rounding
# tie, exact binary ties (k/1024 has ten decimals ending in 5), huge
# magnitudes, and non-finite values.
_COORDINATE = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1.5e-9, -2.5e-9,
        1 / 1024, -3 / 1024, 1 + 5 / 1024, 1e300, -1.7976931348623157e308,
        float("nan"), float("inf"), float("-inf"),
    ]),
    st.floats(),
)
_INDEX = st.integers(0, 2**31 - 2)

_TRIANGLE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_SQUARE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
_OBJ_TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
_OFF_TRIANGLE = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
_ONE_FACE = (_TRIANGLE, np.array([[0, 1, 2]], dtype=np.int32))
_NOT_TRIANGLES = "only triangle faces are supported"

# (text, what parse_mesh_text gives: arrays, or an error pattern with ""
# for any message, whether the per-line reference agrees).  The reference
# misreads the cases marked False: it truncates the OBJ quad, turns 4
# colored vertices into 8 and drops the rows past an OFF header's counts.
MESH_FILE_CASES = [
    pytest.param(_OBJ_TRIANGLE + "v 1 1 0\nf 1 2 3 4\n", _NOT_TRIANGLES, False,
                 id="obj-quad"),
    pytest.param(_OBJ_TRIANGLE + "f 1 2\n", _NOT_TRIANGLES, True, id="obj-two-indices"),
    pytest.param(_OBJ_TRIANGLE + "f 1 2 3\nf\n", _NOT_TRIANGLES, True,
                 id="obj-bare-f"),
    pytest.param("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n4 0 1 3 2\n",
                 _NOT_TRIANGLES, True, id="off-quad"),
    pytest.param("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n", _NOT_TRIANGLES,
                 True, id="off-two-indices"),
    pytest.param(
        "OFF\n4 2 0\n0 0 0 255 0 0\n1 0 0 0 255 0\n0 1 0 0 0 255\n1 1 0 9 9 9\n"
        "3 0 1 2\n3 1 3 2\n",
        (_SQUARE, np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int32)), False,
        id="off-vertex-colors"),
    pytest.param(_OFF_TRIANGLE + "3 0 1 2 255 0 0\n", _ONE_FACE, True, id="off-face-color"),
    pytest.param(_OBJ_TRIANGLE + "f 1/4/7 2/5/8 3/6/9\n", _ONE_FACE, True,
                 id="obj-texture-normal"),
    pytest.param(_OBJ_TRIANGLE + "f 1//7 2//8 3//9\n", _ONE_FACE, True, id="obj-normal"),
    pytest.param("# made by hand\no tri\n" + _OBJ_TRIANGLE
                 + "vn 0 0 1\nvt 0.5 0.5\ng side\ns off\nf 1 2 3\n",
                 _ONE_FACE, True, id="obj-other-lines"),
    pytest.param("v 0 0 0 # origin\nv 1 0 0 1.0\nv 0 1 0\nf 1 2 3 # the face\n",
                 _ONE_FACE, True, id="obj-trailing-comment-and-w"),
    pytest.param("\r\n  OFF\r\n3 1 0\r\n\r\n 0 0 0\r\n1\t0 0\r\n0 1 0\r\n3 0 1 2\r\n",
                 _ONE_FACE, True, id="off-blank-lines-crlf"),
    pytest.param("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "", True,
                 id="off-two-column-row"),
    pytest.param("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", "", True, id="obj-two-column-row"),
    pytest.param("OFF\n3 1 0\n# a comment\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "",
                 True, id="off-comment-line"),
    pytest.param(_OFF_TRIANGLE + "# a comment\n3 0 1 2\n", _NOT_TRIANGLES, True,
                 id="off-comment-line-among-faces"),
    pytest.param(_OFF_TRIANGLE, "shorter than its header", True, id="off-short-body"),
    pytest.param(_OFF_TRIANGLE + "3 0 1 2\n3 0 5 9\n\n1 2 3\n", "longer than its header",
                 False, id="off-long-body"),
    pytest.param(_OBJ_TRIANGLE + "f 1 2 x\n", "", True, id="obj-bad-index"),
    pytest.param(_OBJ_TRIANGLE + "f 1/1 /2 2 3\n", "", True, id="obj-index-without-vertex"),
]


# (text, None when parse_mesh_text must give the per-line reference's
# arrays, else the exact ValueError message it must raise).  The messages
# are numpy's and Python's own, each naming the text's characters as they
# are: a reader that handed numpy raw bytes would garble the "é" and split
# no number at a no-break space.
ENCODING_CASES = [
    pytest.param("# fait à Zürich\n" + _OBJ_TRIANGLE + "f 1 2 3\n", None,
                 id="obj-utf8-comment"),
    pytest.param("v 0 0 0\nv 1é 0 0\nv 0 1 0\nf 1 2 3\n",
                 "could not convert string '1é' to float64 at row 1, column 2.",
                 id="obj-accent-in-number"),
    pytest.param("OFF\n3é 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
                 "invalid literal for int() with base 10: '3é'", id="off-accent-in-count"),
    pytest.param("v 0 0 0\rv 1 0 0\rv 0 1 0\rf 1 2 3\r", None, id="obj-cr-only"),
    pytest.param("OFF\r3 1 0\r0 0 0\r1 0 0\r0 1 0\r3 0 1 2\r", None, id="off-cr-only"),
    pytest.param("v 0\xa00\xa00\nv 1\xa00 0\nv 0 1\xa00\nf 1\xa02\xa03\n", None,
                 id="obj-no-break-spaces"),
    pytest.param("OFF\n3\xa01\xa00\n0\xa00\xa00\n1 0\xa00\n0 1 0\n3\xa00\xa01\xa02\n", None,
                 id="off-no-break-spaces"),
    pytest.param(_OBJ_TRIANGLE + "v 1 1 0\nf 1 2 3 4\n", _NOT_TRIANGLES, id="obj-quad"),
    pytest.param("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n4 0 1 3 2\n", _NOT_TRIANGLES,
                 id="off-quad"),
    pytest.param(_OFF_TRIANGLE + "3 0 1 x\n",
                 "could not convert string 'x' to int32 at row 0, column 4.",
                 id="off-bad-face-number"),
]


class TestMeshFormats:
    def _tiny_mesh(self):
        return ImmersedMobiusMesh(
            vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            triangles=np.array([[0, 1, 2]], dtype=np.int32),
        )

    def test_off_exact(self):
        text = mobius.export_mesh(self._tiny_mesh(), "off")
        assert text == (
            "OFF\n"
            "3 1 0\n"
            "0.000000000 0.000000000 0.000000000\n"
            "1.000000000 0.000000000 0.000000000\n"
            "0.000000000 1.000000000 0.000000000\n"
            "3 0 1 2\n"
        )

    def test_obj_exact(self):
        text = mobius.export_mesh(self._tiny_mesh(), "obj")
        assert text == (
            "v 0.000000000 0.000000000 0.000000000\n"
            "v 1.000000000 0.000000000 0.000000000\n"
            "v 0.000000000 1.000000000 0.000000000\n"
            "f 1 2 3\n"
        )

    def test_empty_off(self):
        empty = ImmersedMobiusMesh(
            vertices=np.empty((0, 3)), triangles=np.empty((0, 3), dtype=np.int32)
        )
        assert mobius.export_mesh(empty, "off") == "OFF\n0 0 0\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            mobius.export_mesh(self._tiny_mesh(), "stl")

    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_parse_round_trip(self, fmt):
        mesh, params = small_mesh(1, 3, theta=16)
        verts, tris = mobius.parse_mesh_text(mobius.export_mesh(mesh, fmt))
        assert np.array_equal(tris, mesh.triangles)
        assert np.allclose(verts, mesh.vertices, atol=2e-9)

    def test_rebuild_from_file(self):
        mesh, params = small_mesh(2, 3, theta=24)
        verts, tris = mobius.parse_mesh_text(mobius.export_mesh(mesh, "off"))
        rebuilt, rebuilt_params = mobius.rebuild_for_file(2, 3, verts, tris)
        assert rebuilt_params.theta_steps == params.theta_steps
        assert rebuilt_params.chord_steps == params.chord_steps
        report = mobius.verify_mesh(rebuilt, rebuilt_params)
        assert report.boundary_class == (4, 3)

    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_face_budget_checked_before_rows_convert(self, fmt, monkeypatch):
        # Eleven faces over a budget of ten; the unparsable vertex rows
        # show that no row was converted first.
        monkeypatch.setenv(mobius.MAX_MESH_ENV, "10")
        if fmt == "off":
            text = "OFF\n3 11 0\n" + "x y z\n" * 3 + "3 0 1 2\n" * 11
        else:
            text = "v x y z\n" * 3 + "f 1 2 3\n" * 11
        with pytest.raises(MeshParameterError, match="11 triangles, over the budget 10"):
            mobius.parse_mesh_text(text)

    @settings(max_examples=200, deadline=None)
    @given(
        vertices=st.lists(st.tuples(_COORDINATE, _COORDINATE, _COORDINATE), max_size=12),
        triangles=st.lists(st.tuples(_INDEX, _INDEX, _INDEX), max_size=12),
        fmt=st.sampled_from(["off", "obj", "OFF"]),
    )
    @example(vertices=[], triangles=[], fmt="obj")  # an empty OBJ file is "\n"
    def test_matches_per_line_reference(self, vertices, triangles, fmt):
        mesh = ImmersedMobiusMesh(
            vertices=np.array(vertices, dtype=np.float64).reshape(-1, 3),
            triangles=np.array(triangles, dtype=np.int32).reshape(-1, 3),
        )
        text = mobius.export_mesh(mesh, fmt)
        assert text == reference_export_mesh(mesh, fmt)
        got = parsed_or_error(mobius.parse_mesh_text, text)
        want = parsed_or_error(reference_parse_mesh_text, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_arrays(got, want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(["off", "obj"]))
    def test_layout_matches_per_line_reference(self, data, fmt):
        mesh, _ = draw_small_sweep(data)
        rnd = data.draw(st.randoms(use_true_random=False), label="layout")
        text = relaid_mesh_text(rnd, mobius.export_mesh(mesh, fmt), fmt)
        got = parsed_or_error(mobius.parse_mesh_text, text)
        want = parsed_or_error(reference_parse_mesh_text, text)
        assert isinstance(got, str) == isinstance(want, str)
        if not isinstance(want, str):
            assert_same_arrays(got, want)
            assert_same_arrays(got, mobius.parse_mesh_text(mobius.export_mesh(mesh, fmt)))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_obj_scan_does_not_depend_on_chunk_size(self, chunk, data):
        # The OBJ scan looks for line ends _SCAN_BYTES at a time: chunks of
        # 1 byte end at every byte, of 7 and 64 bytes inside lines.
        mesh, _ = draw_small_sweep(data)
        rnd = data.draw(st.randoms(use_true_random=False), label="layout")
        text = relaid_mesh_text(rnd, mobius.export_mesh(mesh, "obj"), "obj")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mobius, "_SCAN_BYTES", chunk)
            got = mobius.parse_mesh_text(text)
        assert_same_arrays(got, reference_parse_mesh_text(text))

    def test_wide_value_widens_its_own_row(self):
        # One value printed by Python's "%.9f" (311 characters for 1e300)
        # must not widen the slots of the other rows.
        vertices = np.random.default_rng(7).uniform(-3.0, 3.0, (20_000, 3))
        peaks = []
        for wide in (False, True):
            mesh = ImmersedMobiusMesh(
                vertices=vertices.copy(), triangles=np.empty((0, 3), dtype=np.int32)
            )
            if wide:
                mesh.vertices[12_345, 1] = 1e300
            tracemalloc.start()
            try:
                text = mobius.export_mesh(mesh, "obj")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert text == percent_format_export(mesh, "obj")
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rebuild_refuses_nonfinite_coordinates(self, bad):
        mesh, _ = small_mesh(2, 3, theta=24)
        verts, tris = mobius.parse_mesh_text(mobius.export_mesh(mesh, "off"))
        verts[5, 2] = bad
        with pytest.raises(ValueError, match="vertex coordinates do not match"):
            mobius.rebuild_for_file(2, 3, verts, tris)

    def test_rounding_band_prints_as_python(self):
        found = near_ties()
        for above, values in found.items():
            # Rounding the float product would misprint some of them.
            assert any(round(x * 1e9) != round(exact_product(x)) for x in values), above
        values = [*found[True], *found[False]]
        values += [k / 1024 for k in range(-2048, 2049)]  # exact ties
        values += [1.5 * 2**52 / 1e9, -(2**53 / 1e9 + 0.25)]  # above 2**52 / 1e9
        values += [-0.0, -1e-12, -4.9e-10, -(2.0**-31)]  # print as -0.000000000
        values += [0.0] * (-len(values) % 3)
        mesh = ImmersedMobiusMesh(
            vertices=np.array(values).reshape(-1, 3),
            triangles=np.empty((0, 3), dtype=np.int32),
        )
        want = "".join(
            "v %s %s %s\n" % tuple("%.9f" % x for x in row)
            for row in np.array(values).reshape(-1, 3).tolist()
        )
        assert want.count("-0.000000000") == 4
        assert mobius.export_mesh(mesh, "obj") == want

    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_band_bytes_match_percent_format(self, fmt):
        mesh, _ = small_mesh(1, 3, theta=4096, chord=12)
        assert mobius.export_mesh(mesh, fmt) == percent_format_export(mesh, fmt)

    @pytest.mark.parametrize("text, expected, reference_agrees", MESH_FILE_CASES)
    def test_accepts_and_rejects(self, text, expected, reference_agrees):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected or None):
                mobius.parse_mesh_text(text)
            if reference_agrees:
                assert isinstance(parsed_or_error(reference_parse_mesh_text, text), str)
            return
        got = mobius.parse_mesh_text(text)
        assert_same_arrays(got, expected)
        if reference_agrees:
            assert_same_arrays(got, reference_parse_mesh_text(text))

    @pytest.mark.parametrize("text, message", ENCODING_CASES)
    def test_reads_text_as_the_reference_does(self, text, message):
        if message is None:
            assert_same_arrays(mobius.parse_mesh_text(text), reference_parse_mesh_text(text))
            return
        with pytest.raises(ValueError) as raised:
            mobius.parse_mesh_text(text)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message

    @pytest.mark.parametrize("vertex_count, face_count", [
        (144, 193),  # odd F, though the other counts would fit
        (146, 192),  # 50 columns: a multiple of p, not a divisor of V
        (96, 192),   # 0 columns
        (90, 192),   # a negative column count
    ])
    def test_rebuild_refuses_counts_of_no_sweep(self, vertex_count, face_count):
        # The (2, 3, 24, 3) band has V = 144 and F = 192.
        with pytest.raises(ValueError) as raised:
            mobius.rebuild_for_file(
                2, 3, np.zeros((vertex_count, 3)), np.zeros((face_count, 3), np.int32)
            )
        assert str(raised.value) == "vertex/face counts do not match a sweep over this p"

    def test_rebuild_refuses_an_inferred_sweep_below_its_rules(self):
        # V = 21 and F = 28 at p = 1 imply 7 slices of 3 samples.
        with pytest.raises(MeshParameterError, match="theta_steps must be >= 8, got 7"):
            mobius.rebuild_for_file(1, 3, np.zeros((21, 3)), np.zeros((28, 3), np.int32))

    def test_rebuild_rejects_wrong_parameters(self):
        mesh, _ = small_mesh(2, 3, theta=24)
        verts, tris = mobius.parse_mesh_text(mobius.export_mesh(mesh, "off"))
        with pytest.raises(ValueError):
            mobius.rebuild_for_file(2, 5, verts, tris)
