"""Expected values, computed here from the paper's statements, not by crosscap.

Every check returns a list of human-readable problems; an empty list means
the output is correct.  JSON payloads are read by field name and extra keys
are ignored, so a report that grows a field (say, a ``certified`` verdict)
is still judged only on the fields below.
"""

from __future__ import annotations

import json

import numpy as np


# --- mesh certificates ---------------------------------------------------------


def max_edge_length(vertices: np.ndarray, triangles: np.ndarray) -> float:
    """Longest triangle side, from the raw arrays."""
    longest = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        d = vertices[triangles[:, a]] - vertices[triangles[:, b]]
        longest = max(longest, float(np.sqrt((d * d).sum(axis=1)).max()))
    return longest


def edge_count(triangles: np.ndarray) -> int:
    """Distinct undirected triangle sides."""
    sides = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]]).astype(np.int64)
    sides.sort(axis=1)
    return len(np.unique(sides[:, 0] * (int(triangles.max()) + 1) + sides[:, 1]))


def certificate_problems(report: dict, p: int, q: int, max_edge: float) -> list[str]:
    """The swept band's certificate: chi 0, one boundary cycle,
    nonorientable, boundary class (2p, q), p sheets through the core, and
    every double point within three longest edges of the core circle."""
    expected = {
        "euler_characteristic": 0,
        "boundary_component_count": 1,
        "orientable": False,
        "boundary_class": [2 * p, q],
        "core_multiplicity": p,
    }
    problems = []
    for key, want in expected.items():
        got = report.get(key)
        if isinstance(got, tuple):
            got = list(got)
        if got != want or isinstance(want, bool) is not isinstance(got, bool):
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    offcore = report.get("max_offcore_selfintersection_distance")
    if not isinstance(offcore, (int, float)) or not offcore <= 3.0 * max_edge:
        problems.append(
            f"max_offcore_selfintersection_distance {offcore!r} exceeds "
            f"3 * max edge = {3.0 * max_edge!r}"
        )
    return problems


def read_mesh_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Minimal OFF/OBJ triangle reader for the oracle's own edge lengths."""
    with open(path) as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    if rows[0] == ["OFF"]:
        n_verts, n_faces = int(rows[1][0]), int(rows[1][1])
        verts = [list(map(float, r[:3])) for r in rows[2:2 + n_verts]]
        faces = [list(map(int, r[1:4])) for r in rows[2 + n_verts:2 + n_verts + n_faces]]
    else:
        verts = [list(map(float, r[1:4])) for r in rows if r[0] == "v"]
        faces = [[int(x) - 1 for x in r[1:4]] for r in rows if r[0] == "f"]
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64)


# --- closed forms for the CLI ---------------------------------------------------


def normalized_torus(a: int, b: int):
    """(min, max) of |a|, |b|, or None for an unknotted pair."""
    a, b = sorted((abs(a), abs(b)))
    return None if a <= 1 else (a, b)


def expected_twist(chi: int, n: int) -> int:
    """Smallest even p >= 0 at which a chi-surface spanning
    T(2n-1, 2n+p(2n-1)) is neither a Seifert surface, 1 - 2g < chi with
    g = (n-1)(2n-1)(1+p), nor a nonorientable one, (p+2n)/2 > 1 - chi."""
    nonorientable = max(0, 4 - 2 * chi - 2 * n)
    floor = (1 - chi) // (2 * (n - 1) * (2 * n - 1))
    orientable = floor + (floor % 2)
    return max(nonorientable, orientable)


def _value(entry) -> tuple:
    return (entry.get("kind"), entry.get("value")) if isinstance(entry, dict) else (None, None)


def _classify_problems(out: dict, data: tuple) -> list[str]:
    problems = []
    want: dict[str, tuple] = {}
    if data[0] == "unknot":
        want = {"gamma_i": ("known", 0), "g_3": ("known", 0)}
    elif data[0] == "torus":
        norm = normalized_torus(data[1], data[2])
        if norm is None:
            want = {"gamma_i": ("known", 0), "g_3": ("known", 0)}
        else:
            a, b = norm
            gamma_i = ("known", 1) if a % 2 == 0 or b % 2 == 0 else ("lower_bound", 2)
            want = {"gamma_i": gamma_i, "g_3": ("known", (a - 1) * (b - 1) // 2)}
    elif data[0] == "cable":
        want = {"gamma_i": ("known", 1) if data[1] % 2 == 0 else ("lower_bound", 2)}
    elif data[0] == "external":
        hyperbolic, slice_ = data[1], data[2]
        want = {"gamma_i": ("lower_bound", 2) if hyperbolic else ("unknown", None)}
        if slice_:
            want["gamma_4"] = ("known", 0)
    for key, expected in want.items():
        got = _value(out.get(key))
        if got != expected:
            problems.append(f"{key}: expected {expected}, got {got}")
    return problems


def _gaps_problems(out, k_max: int) -> list[str]:
    if not isinstance(out, list) or len(out) != k_max - 1:
        return [f"expected {k_max - 1} gap rows, got {out!r:.80}"]
    problems = []
    for k, row in zip(range(2, k_max + 1), out):
        want = {"gamma_i": ("known", 1), "gamma_3": ("known", k),
                "gamma_4": ("known", k - 1)}
        for key, expected in want.items():
            if _value(row.get(key)) != expected:
                problems.append(f"row k={k} {key}: expected {expected}")
        if row.get("gap_3i") != k - 1 or row.get("gap_4i") != k - 2:
            problems.append(f"row k={k}: gaps expected ({k - 1}, {k - 2})")
    return problems


def command_problems(cmd, exit_code: int, stdout: str) -> list[str]:
    """Judge one CLI command from its exit code and standard output."""
    if exit_code != cmd.expect_exit:
        return [f"exit code {exit_code}, expected {cmd.expect_exit}"]
    if cmd.kind == "invalid":
        return []
    if cmd.kind == "audit":
        lines = stdout.strip().splitlines()
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        passed = [ln for ln in lines if ln.startswith("ok ")]
        if failed or not passed or not lines[-1].startswith(f"{len(passed)}/{len(passed)} "):
            return [f"audit reported failures: {failed or lines[-1:]}"]
        return []
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {stdout[:80]!r}"]
    if cmd.kind != "gaps" and not isinstance(out, dict):
        return [f"stdout is not a JSON object: {stdout[:80]!r}"]
    if cmd.kind == "classify":
        return _classify_problems(out, cmd.data)
    if cmd.kind == "gaps":
        return _gaps_problems(out, cmd.data[0])
    if cmd.kind == "obstruction":
        p, q = cmd.data
        want = p % 2 == 1 and q % 2 == 1
        return [] if out.get("obstructed") is want else [f"obstructed: expected {want}"]
    if cmd.kind == "homology":
        n = cmd.data[0]
        want = {"gap": n, "surgery_slope": 2 * n * (2 * n - 1), "chi_immersed": 1,
                "chi_embedded_component_max": 1 - n}
        return [f"{k}: expected {v}, got {out.get(k)!r}"
                for k, v in want.items() if out.get(k) != v]
    if cmd.kind == "twist":
        want = expected_twist(*cmd.data)
        got = out.get("minimal_even_twists")
        return [] if got == want else [f"minimal_even_twists: expected {want}, got {got!r}"]
    if cmd.kind in ("build-mobius", "verify-mesh"):
        p, q, path = cmd.data
        vertices, triangles = read_mesh_file(path)
        return certificate_problems(out, p, q, max_edge_length(vertices, triangles))
    return [f"no oracle for command kind {cmd.kind!r}"]
