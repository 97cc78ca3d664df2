"""The three workloads, each a closed loop with one client.

A crosscap user runs one certificate or one command and waits for it, so
every operation starts only after the previous one finished.  Certificates
cycle through the seed's case list and CLI sessions repeat the seed's
script until ``seconds`` have passed.  A traced run alternates traced and
untraced certificates (or sessions), starting with a traced one; the
difference of their means is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import cases
import oracle
import spans

SHIM = Path(__file__).resolve().parent / "cli_shim.py"

# Longest a run may keep going before the remaining work is declared failed,
# so that a hanging command cannot push the run past its time limit.
RUN_DEADLINE_S = 140.0
COMMAND_TIMEOUT_S = 30.0
AUDIT_TIMEOUT_S = 90.0


@dataclass
class Outcome:
    """What one run measured; ``run.py`` turns it into metrics."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    ops: list[tuple[bool, str, float]] = field(default_factory=list)  # (traced, kind, s)
    rates: list[float] = field(default_factory=list)         # work units per second
    units: int = 0                  # traced certificates or traced sessions
    stages: dict[str, float] = field(default_factory=dict)   # summed over units
    counts: dict[str, dict] = field(default_factory=dict)    # per case or session
    startup: list[float] = field(default_factory=list)
    own: list[float] = field(default_factory=list)
    not_measured: set[str] = field(default_factory=set)
    spans: list[list] = field(default_factory=list)
    failed_ops: set = field(default_factory=set)

    def walls(self, traced: bool) -> list[float]:
        """Wall times of the operations the latency metrics cover: all but
        ``audit``, which is one long command per session."""
        return [t for tr, kind, t in self.ops if tr == traced and kind != "audit"]

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op, message: str) -> None:
        """Mark operation ``op`` failed; it counts once however many problems."""
        self.failed_ops.add(op)
        self.problems.append(message)

    def add_stages(self, sums: dict[str, float]) -> None:
        for key, value in sums.items():
            self.stages[key] = self.stages.get(key, 0.0) + value

    def repeat(self, key: str, counts: dict) -> list[str]:
        """Counts for one case must come out the same every time; returns
        the counts that changed."""
        seen = self.counts.setdefault(key, {})
        changed = [f"{name} was {seen[name]!r}, now {value!r}"
                   for name, value in counts.items()
                   if name in seen and seen[name] != value]
        for name, value in counts.items():
            seen.setdefault(name, value)
        return changed


class Pace:
    """Decides whether to start another operation (a certificate, or a
    whole CLI session).

    A run does at least ``minimum`` of them, then starts another only while
    it would end within half an operation of ``seconds``, judged by the
    last one's length, so runs last about ``seconds`` whatever the
    operation costs.  Nothing new starts after ``RUN_DEADLINE_S``.
    """

    def __init__(self, start: float, seconds: float, minimum: int) -> None:
        self.start, self.seconds, self.minimum = start, seconds, minimum
        self.last = start

    def another(self, done: int) -> bool:
        now = time.perf_counter()
        last, self.last = now - self.last, now
        if now - self.start > RUN_DEADLINE_S:
            return False
        return done < self.minimum or now - self.start + last / 2 < self.seconds


# --- band_dense and band_sparse_file --------------------------------------------


def _params(mobius, case: cases.BandCase):
    return mobius.SweepParams(p=case.p, q=case.q, theta_steps=case.theta_steps,
                              chord_steps=case.chord_steps)


def _certify_in_memory(mobius, case, work_dir):
    params = _params(mobius, case)
    mesh = mobius.build_mobius(params)
    return mesh, mobius.verify_mesh(mesh, params), {}


def _certify_via_file(mobius, case, work_dir):
    """What ``build-mobius`` then ``verify-mesh`` do, in one process."""
    mesh = mobius.build_mobius(_params(mobius, case))
    text = mobius.export_mesh(mesh, case.fmt)
    path = work_dir / f"band.{case.fmt}"
    path.write_text(text)
    vertices, triangles = mobius.parse_mesh_text(path.read_text())
    rebuilt, params = mobius.rebuild_for_file(case.p, case.q, vertices, triangles)
    tol = 3.0 * mobius.max_edge_length(rebuilt)
    report = mobius.verify_mesh(rebuilt, params, tol=tol)
    return rebuilt, report, {"mesh_bytes": len(text.encode()),
                             "file_vertices": len(vertices),
                             "file_triangles": len(triangles)}


CERTIFY = {"band_dense": _certify_in_memory, "band_sparse_file": _certify_via_file}


def _band_counts(case, mesh, report, extra, edges) -> tuple[dict, list[str]]:
    rep = report.to_dict()
    counts = {
        "vertices": len(mesh.vertices),
        "triangles": len(mesh.triangles),
        "edges": edges,
        "euler_characteristic": rep.get("euler_characteristic"),
        "boundary_class": list(rep.get("boundary_class") or []),
        "core_multiplicity": rep.get("core_multiplicity"),
        **extra,
    }
    problems = oracle.certificate_problems(
        rep, case.p, case.q, oracle.max_edge_length(mesh.vertices, mesh.triangles))
    expected = {"vertices": case.vertices, "triangles": case.triangles,
                "edges": case.edges}
    if "file_vertices" in extra:
        expected.update(file_vertices=case.vertices, file_triangles=case.triangles)
    problems += [f"{k}: expected {v}, got {counts[k]}"
                 for k, v in expected.items() if counts[k] != v]
    return counts, problems


def run_band(workload: str, case_list: list, seconds: float, trace: bool,
             work_dir: Path) -> Outcome:
    from crosscap import mobius

    certify = CERTIFY[workload]
    out = Outcome()
    tracer = spans.Tracer()
    edges: dict[str, int] = {}
    n = len(case_list)
    pace = Pace(time.perf_counter(), seconds, (2 if trace else 1) * n)
    try:
        while pace.another(out.attempted):
            cert_id = out.attempted
            case = case_list[cert_id % n]
            # Alternate traced and untraced certificates so that each case is
            # traced once and untraced once in every 2n of them.
            shift = cert_id // n if n % 2 == 0 else 0
            traced = trace and (cert_id + shift) % 2 == 0
            if traced and not tracer.installed:
                tracer.install()
                out.not_measured.update(tracer.not_measured)
            elif not traced:
                tracer.uninstall()
            tracer.case = cert_id
            tracer.results = {}
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                mesh, report, extra = certify(mobius, case, work_dir)
            except Exception:
                out.fail(cert_id, f"{case.key}: {traceback.format_exc(limit=3)}")
                continue
            elapsed = time.perf_counter() - t0
            if case.key not in edges:
                edges[case.key] = oracle.edge_count(mesh.triangles)
            counts, problems = _band_counts(case, mesh, report, extra, edges[case.key])
            if traced:
                counts.update(_observed_band_counts(tracer.results))
                if case.p == 1 and counts.get("hits") != 0:
                    problems.append(f"p = 1 band must be embedded, "
                                    f"found {counts.get('hits')} double points")
            problems += out.repeat(case.key, counts)
            if problems:
                out.fail(cert_id, f"{case.key}: " + "; ".join(problems))
            out.ops.append((traced, "certificate", elapsed))
            if traced:
                out.units += 1
            else:
                out.rates.append(len(mesh.triangles) / elapsed)
    finally:
        tracer.uninstall()
    out.spans = tracer.spans
    for sums in spans.sum_by_case(tracer.spans).values():
        out.add_stages(sums)
    return out


def _observed_band_counts(results: dict) -> dict:
    observed = {}
    if results.get("mobius.self_intersection_points"):
        observed["hits"] = results["mobius.self_intersection_points"][0]
    if results.get("mobius.boundary_cycles"):
        observed["boundary_cycle_count"] = results["mobius.boundary_cycles"][0]
    return observed


# --- cli_session -----------------------------------------------------------------


def _run_command(argv: list[str], root: Path, env: dict, timeout: float):
    """(exit code, stdout, wall seconds, start reading); exit code None on timeout."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - t0, t0
    return proc.returncode, proc.stdout, time.perf_counter() - t0, t0


def run_cli_session(commands: list, seconds: float, trace: bool, root: Path,
                    work_dir: Path, env: dict) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    session = 0
    pace = Pace(start, seconds, 2 if trace else 1)
    while pace.another(session):
        traced = trace and session % 2 == 0
        session_counts: dict = {}
        session_wall = 0.0
        for i, cmd in enumerate(commands):
            op = (session, i)
            shown = " ".join(cmd.argv)
            out.attempted += 1
            left = RUN_DEADLINE_S - (time.perf_counter() - start)
            if left <= 1.0:
                out.fail(op, f"{shown}: not started before the run deadline")
                continue
            limit = AUDIT_TIMEOUT_S if cmd.kind == "audit" else COMMAND_TIMEOUT_S
            span_file = work_dir / f"command-{i}.json"
            if traced:
                argv = [sys.executable, str(SHIM), str(span_file), f"{session}:{i}",
                        "--", *cmd.argv]
            else:
                argv = [sys.executable, "-m", "crosscap.cli", *cmd.argv]
            code, stdout, wall, t0 = _run_command(argv, root, env, min(limit, left))
            session_wall += wall
            if code is None:
                out.fail(op, f"{shown}: timed out after {min(limit, left):.0f} s")
                continue
            problems = oracle.command_problems(cmd, code, stdout)
            if problems:
                out.fail(op, f"{shown}: " + "; ".join(problems))
            session_counts[f"exit[{i}]"] = code
            out.ops.append((traced, cmd.kind, wall))
            if traced:
                try:
                    with open(span_file) as fh:
                        record = json.load(fh)
                    os.remove(span_file)
                except (OSError, ValueError) as exc:
                    out.fail(op, f"{shown}: no trace record ({exc})")
                    continue
                out.add_stages(record["stages"])
                out.not_measured.update(record["not_measured"])
                _merge_session_counts(session_counts, record)
                if cmd.kind != "audit":
                    out.startup.append(record["imported"] - t0)
                    out.own.append(record["ended"] - record["imported"])
        if session_wall > 0 and not traced:
            out.rates.append(len(commands) / session_wall)
        if traced:
            out.units += 1
        changed = out.repeat("traced session" if traced else "session", session_counts)
        if changed:
            out.fail((session, len(commands) - 1),
                     f"session {session}: " + "; ".join(changed))
        session += 1
    return out


def _merge_session_counts(acc: dict, record: dict) -> None:
    calls = record["calls"]

    def seen(name: str) -> list:
        return [v for v in record["results"].get(name, []) if v is not None]

    def add(name: str, value) -> None:
        acc[name] = acc.get(name, 0) + value

    for v, f in seen("mobius.build_mobius"):
        add("vertices", v)
        add("triangles", f)
        add("edges", v + f)  # a swept band has V + F edges by construction
    add("hits", sum(seen("mobius.self_intersection_points")))
    add("boundary_cycle_count", sum(seen("mobius.boundary_cycles")))
    add("mesh_bytes", sum(seen("mobius.export_mesh")))
    add("expressions", calls.get("knots.parse_knot", 0))
    add("reports", calls.get("invariants.invariant_report", 0))
    add("suites_failed", sum(seen("audit.run_audit")))
    twists = seen("homology.minimal_twist_contradiction")
    if twists:
        acc["twist_max_p"] = max(acc.get("twist_max_p", 0), max(twists))


def median_or_zero(values: list[float]) -> float:
    return median(values) if values else 0.0


def mean_or_zero(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
