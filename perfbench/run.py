"""crosscap benchmark: one command, every metric, outputs checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload band_dense --seed 1 --seconds 30 --trace 0

Workloads are ``band_dense``, ``band_sparse_file`` and ``cli_session`` (see
perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer ones, from a separate run with spans around
every public stage call.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the seed, the generated cases and the software versions, and
the same record goes to perfbench/.work/results/.

The program is always the one under ``src/`` of this checkout; the run
fails, printing no result, if it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("band_dense", "band_sparse_file", "cli_session")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60.0

# One process, no helper threads: pin the numeric libraries to one thread
# here and in every command the benchmark starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, stage whose functions it needs, or None)
PER_LAYER = {
    "mobius.build_s": ("s", "mobius.build"),
    "mobius.vertices": ("count", "mobius.build"),
    "mobius.triangles": ("count", "mobius.build"),
    "mobius.euler_s": ("s", "mobius.euler"),
    "mobius.boundary_cycles_s": ("s", "mobius.boundary_cycles"),
    "mobius.orientable_s": ("s", "mobius.orientable"),
    "mobius.max_edge_s": ("s", "mobius.max_edge"),
    "mobius.edges": ("count", None),
    "mobius.boundary_cycle_count": ("count", "mobius.boundary_cycles"),
    "mobius.winding_s": ("s", "mobius.winding"),
    "mobius.intersect_s": ("s", "mobius.intersect"),
    "mobius.core_distance_s": ("s", "mobius.core_distance"),
    "mobius.hits": ("count", "mobius.intersect"),
    "mobius.hits_per_ktri": ("count", "mobius.intersect"),
    "mobius.verify_s": ("s", "mobius.verify"),
    "mobius.verify_unattributed_s": ("s", "mobius.verify"),
    "mobius.export_s": ("s", "mobius.export"),
    "mobius.parse_s": ("s", "mobius.parse"),
    "mobius.rebuild_s": ("s", "mobius.rebuild"),
    "mobius.mesh_bytes": ("count", None),
    "cli.startup_s": ("s", None),
    "cli.self_s": ("s", None),
    "knots.parse_s": ("s", "knots.parse"),
    "knots.expressions": ("count", "knots.parse"),
    "invariants.report_s": ("s", "invariants.report"),
    "invariants.reports": ("count", "invariants.report"),
    "words.parity_s": ("s", "words.parity"),
    "words.strand_counts_s": ("s", "words.strand_counts"),
    "homology.twist_s": ("s", "homology.twist"),
    "homology.twist_max_p": ("count", "homology.twist"),
    "homology.bound_s": ("s", "homology.bound"),
    "audit.run_s": ("s", "audit.run"),
    "audit.suites_failed": ("count", "audit.run"),
    "trace.overhead_s": ("s", None),
}

# Stage times reported inclusive of the stages they call; every other
# ``<stage>_s`` metric is the stage's self time.
INCLUSIVE = {"mobius.verify_s": "mobius.verify", "audit.run_s": "audit.run"}
SELF_OF = {"mobius.verify_unattributed_s": "mobius.verify"}

# per-layer count metric -> key in the per-case or per-session counts
COUNT_KEYS = {
    "mobius.vertices": "vertices",
    "mobius.triangles": "triangles",
    "mobius.edges": "edges",
    "mobius.boundary_cycle_count": "boundary_cycle_count",
    "mobius.hits": "hits",
    "mobius.mesh_bytes": "mesh_bytes",
    "knots.expressions": "expressions",
    "invariants.reports": "reports",
    "homology.twist_max_p": "twist_max_p",
    "audit.suites_failed": "suites_failed",
}


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when a run has fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crosscap").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_commit() -> str | None:
    """HEAD of this checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CROSSCAP_MAX_MESH", None)  # stay on the library's default budget
    env["TMPDIR"] = str(WORK)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters finishing ``import crosscap.cli``.

    One unmeasured run first fills the bytecode cache, as any installed
    copy has it."""
    argv = [sys.executable, "-c", "import crosscap.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True,
                       timeout=SETUP_TIMEOUT_S)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(out, setup: list[float], workload: str) -> dict[str, float]:
    times = out.walls(traced=False)
    return {
        "setup_s": median(setup),
        "op_p50_s": median(times) if times else 0.0,
        "op_tail_s": tail(times) if times else 0.0,
        "work_per_s": median(out.rates) if out.rates else 0.0,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def per_layer(out, workload: str) -> dict[str, float]:
    import spans
    from workloads import mean_or_zero, median_or_zero

    units = max(out.units, 1)
    values: dict[str, float] = {}
    if workload == "cli_session":
        counts = out.counts.get("traced session", {})
        triangles = counts.get("triangles", 0)
        hits_per_ktri = 1000.0 * counts.get("hits", 0) / triangles if triangles else 0.0
    else:
        per_case = [c for c in out.counts.values() if "hits" in c]
        counts = {key: sum(c.get(key, 0) for c in per_case) / max(len(per_case), 1)
                  for key in COUNT_KEYS.values()}
        hits_per_ktri = sum(1000.0 * c["hits"] / c["triangles"] for c in per_case
                            ) / max(len(per_case), 1)
    for name, (_, stage) in PER_LAYER.items():
        if stage is not None and spans.stage_missing(stage, out.not_measured):
            continue
        if name in COUNT_KEYS:
            values[name] = counts.get(COUNT_KEYS[name], 0)
        elif name == "mobius.hits_per_ktri":
            values[name] = hits_per_ktri
        elif name in INCLUSIVE:
            values[name] = out.stages.get(INCLUSIVE[name] + "@total", 0.0) / units
        elif name in SELF_OF:
            values[name] = out.stages.get(SELF_OF[name], 0.0) / units
        elif name == "cli.startup_s":
            values[name] = median_or_zero(out.startup)
        elif name == "cli.self_s":
            values[name] = median_or_zero(out.own)
        elif name == "trace.overhead_s":
            values[name] = (mean_or_zero([t for traced, _, t in out.ops if traced])
                            - mean_or_zero([t for traced, _, t in out.ops if not traced]))
        else:
            values[name] = out.stages.get(stage, 0.0) / units
    return values


def check_against_earlier_runs(out, workload: str, seed: int, digest: str) -> list[str]:
    """Counts for a seed must repeat across runs of the same program too."""
    store = WORK / "counts" / f"{workload}-seed{seed}-{digest[:16]}.json"
    earlier = json.loads(store.read_text()) if store.exists() else {}
    problems = []
    for key, counts in out.counts.items():
        before = earlier.setdefault(key, {})
        for name, value in counts.items():
            if name in before and before[name] != value:
                problems.append(f"{key}: {name} was {before[name]!r} in an earlier "
                                f"run, now {value!r}")
            before.setdefault(name, value)
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(earlier, indent=1, sort_keys=True))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crosscap" / "__init__.py").is_file():
        print(f"perfbench: no crosscap sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CROSSCAP_MAX_MESH", None)
    sys.path.insert(0, str(SRC))
    import crosscap
    import numpy

    if Path(crosscap.__file__).resolve().parent != SRC / "crosscap":
        print(f"perfbench: imported crosscap from {crosscap.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import cases
    import workloads

    os.chdir(ROOT)
    work_dir = (WORK / f"run-{args.workload}").relative_to(ROOT)
    work_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        setup = measure_setup(env)
        if args.workload == "cli_session":
            case_list = cases.cli_session_commands(args.seed, str(work_dir / "session_band"))
            out = workloads.run_cli_session(case_list, args.seconds, bool(args.trace),
                                            ROOT, work_dir, env)
        else:
            make = (cases.band_dense_cases if args.workload == "band_dense"
                    else cases.band_sparse_cases)
            case_list = make(args.seed)
            out = workloads.run_band(args.workload, case_list, args.seconds,
                                     bool(args.trace), work_dir)
    finally:
        for leftover in work_dir.glob("*"):
            leftover.unlink()
        work_dir.rmdir()

    digest = src_digest()
    problems = out.problems + check_against_earlier_runs(out, args.workload,
                                                         args.seed, digest)
    if args.trace:
        metrics = per_layer(out, args.workload)
        units = {name: PER_LAYER[name][0] for name in metrics}
    else:
        metrics = end_to_end(out, setup, args.workload)
        units = END_TO_END_UNITS
    correct = not problems and out.attempted > 0 and out.failed == 0

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": [asdict(c) for c in case_list],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": read_commit(),
        "src_sha256": digest,
        "setup_samples": setup,
        "operations": len(out.ops),
        "latency_samples": len(out.walls(traced=False)),
        "fail_share": out.failed / out.attempted if out.attempted else 1.0,
        "not_measured": sorted(out.not_measured),
        "problems": problems[:20],
    }
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "ops": out.ops,
                                  "counts": out.counts, "spans": out.spans}))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
