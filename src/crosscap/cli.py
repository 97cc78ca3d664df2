"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation or input error or out
of memory, 3 a check failed: an ``audit`` property suite, or the mesh
certificate of ``build-mobius`` or ``verify-mesh``.

Each command returns its JSON payload, its text lines and its exit code,
and ``main`` prints the one that ``--format`` asks for.

Each command imports the modules it runs inside its own body, so a command
loads only those: ``classify`` loads ``knots`` and ``invariants``,
``obstruction`` loads ``words``, and only the mesh commands and ``audit``
load ``mobius`` and with it numpy.  Only those commands load ``dataclasses``
(and the ``inspect`` it imports) too: the value classes of the light
commands are written out by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:
    from . import invariants, mobius

USAGE_EXIT = 1
VALIDATION_EXIT = 2
CHECK_FAILED_EXIT = 3

_JSON_BLOCK_CHUNKS = 4096  # encoder chunks joined per write of --format json

# What a command returns: (JSON payload, text lines, exit code).  A command
# whose output is large may leave the form --format does not ask for empty.
_Result = tuple[Any, list[str], int]


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: error: {message}")


def _value_line(label: str, value: invariants.InvariantValue) -> str:
    return f"{label}: {value}  [{value.provenance or 'n/a'}]"


def _report_lines(report: invariants.InvariantReport) -> list[str]:
    from . import knots

    prime = "unknown" if report.prime is None else ("yes" if report.prime else "no")
    return [
        f"knot: {knots.format_knot(report.knot)}",
        _value_line("gamma_I", report.gamma_i),
        _value_line("gamma_3", report.gamma_3),
        _value_line("gamma_4", report.gamma_4),
        _value_line("g_3", report.g_3),
        f"prime: {prime}",
        f"gap_3I: {'n/a' if report.gap_3i is None else report.gap_3i}",
        f"gap_4I: {'n/a' if report.gap_4i is None else report.gap_4i}",
    ]


def _cmd_classify(args: argparse.Namespace) -> _Result:
    from . import invariants, knots

    report = invariants.invariant_report(knots.parse_knot(args.knot))
    return report.to_dict(), _report_lines(report), 0


def _cmd_gaps(args: argparse.Namespace) -> _Result:
    from . import invariants

    # The table can run to 100,000 rows, so build only the output printed.
    rows = invariants.gap_table(args.k_max)
    if args.format == "json":
        return [row.to_dict() for row in rows], [], 0
    lines = [f"{'k':>3} {'gamma_I':>8} {'gamma_3':>8} {'gamma_4':>8} "
             f"{'gap_3I':>7} {'gap_4I':>7}"]
    lines += [
        f"{k:>3} {row.gamma_i.value:>8} {row.gamma_3.value:>8} "
        f"{row.gamma_4.value:>8} {row.gap_3i:>7} {row.gap_4i:>7}"
        for k, row in zip(range(2, args.k_max + 1), rows)
    ]
    return None, lines, 0


def _mesh_report_lines(report: mobius.MeshVerificationReport) -> list[str]:
    def shown(value) -> str:  # an int, a bool or an (a, b) class
        return ("yes" if value else "no") if isinstance(value, bool) else str(value)

    lines, missed = [], []
    for name, measured, expected, passed in report.checks:
        label = "boundary_components" if name == "boundary_component_count" else name
        if isinstance(measured, float):  # a bound, not a value to equal
            lines.append(f"{label}: {measured:.3e} (tolerance {expected:.3e})")
            miss = f"{label} {measured:.3e} > tolerance {expected:.3e}"
        else:
            lines.append(f"{label}: {shown(measured)}")
            miss = f"{label} {shown(measured)} != {shown(expected)}"
        if not passed:
            missed.append(miss)
    return [*lines, f"certified: no ({', '.join(missed)})" if missed
            else "certified: yes"]


def _cmd_build_mobius(args: argparse.Namespace) -> _Result:
    from pathlib import Path

    from . import mobius

    params = mobius.SweepParams(
        p=args.p, q=args.q, theta_steps=args.theta_steps, chord_steps=args.chord_steps
    )
    mesh = mobius.build_mobius(params)
    # Verify first: a rejected --tol or an uncertified band writes no file.
    report = mobius.verify_mesh(mesh, params, tol=args.tol)
    if not report.certified:
        lines = _mesh_report_lines(report)
        return {**report.to_dict(), "mesh_file": None}, lines, CHECK_FAILED_EXIT
    out = Path(args.out)
    by_suffix = "obj" if out.suffix.lower() == ".obj" else "off"
    export_text = mobius.export_mesh(
        mesh, args.format if args.format in ("off", "obj") else by_suffix
    )
    out.write_text(export_text)
    line_count = export_text.count("\n")
    lines = [f"wrote {line_count} lines to {out}", *_mesh_report_lines(report)]
    return {**report.to_dict(), "mesh_file": str(out)}, lines, 0


def _cmd_verify_mesh(args: argparse.Namespace) -> _Result:
    from pathlib import Path

    from . import mobius

    vertices, triangles = mobius.parse_mesh_text(Path(args.out).read_text())
    mesh, params = mobius.rebuild_for_file(args.p, args.q, vertices, triangles)
    del vertices, triangles  # matched by the rebuilt mesh, which verify reads
    report = mobius.verify_mesh(mesh, params, tol=args.tol)
    code = 0 if report.certified else CHECK_FAILED_EXIT
    return report.to_dict(), _mesh_report_lines(report), code


def _cmd_obstruction(args: argparse.Namespace) -> _Result:
    from . import words

    obstructed = words.square_conjugate_obstruction(args.p, args.q)
    group = f"<x, y | x^{args.p} = y^{args.q}>"
    if obstructed:
        reason = (
            f"word-length parity (x, y -> 1) is a homomorphism from {group} "
            f"onto Z/2; it sends every square to 0 and x^{args.p} to 1, so no "
            f"square is conjugate to x^{args.p} and no immersed Moebius band exists"
        )
    else:
        reason = (
            f"every homomorphism from {group} to Z/2 sends x^{args.p} to 0, "
            "so the Z/2 argument gives no obstruction"
        )
    verdict = f"obstruction for T({args.p},{args.q}): {'yes' if obstructed else 'no'}"
    return {"p": args.p, "q": args.q, "obstructed": obstructed}, [verdict, reason], 0


def _cmd_homology(args: argparse.Namespace) -> _Result:
    from . import homology

    payload = homology.embedded_component_bound(args.n).to_dict()
    return payload, [f"{name}: {value}" for name, value in payload.items()], 0


def _cmd_twist(args: argparse.Namespace) -> _Result:
    from . import homology

    p = homology.minimal_twist_contradiction(args.chi, args.n)
    line = f"minimal even twist count contradicting chi={args.chi} at n={args.n}: {p}"
    return {"chi": args.chi, "n": args.n, "minimal_even_twists": p}, [line], 0


def _cmd_audit(args: argparse.Namespace) -> _Result:
    from dataclasses import asdict

    from . import audit

    results = audit.run_audit()
    failures = sum(not result.ok for result in results)
    passed = len(results) - failures
    lines = [
        f"ok   {result.name}" if result.ok else f"FAIL {result.name}: {result.detail}"
        for result in results
    ]
    lines.append(f"{passed}/{len(results)} property suites passed")
    suites = [asdict(result) for result in results]
    payload = {"suites": suites, "passed": passed, "failed": failures}
    return payload, lines, CHECK_FAILED_EXIT if failures else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "invariants": _cmd_classify,
    "gaps": _cmd_gaps,
    "build-mobius": _cmd_build_mobius,
    "verify-mesh": _cmd_verify_mesh,
    "obstruction": _cmd_obstruction,
    "homology": _cmd_homology,
    "twist": _cmd_twist,
    "audit": _cmd_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="crosscap",
        description=(
            "Crosscap-number invariants of torus and cable knots, swept "
            "immersed Moebius band construction and verification, and "
            "nonorientable homology gap calculators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    for name in ("classify", "invariants"):
        p = add(name, "full invariant report for a knot expression")
        p.add_argument("--knot", required=True,
                       help='e.g. "torus(4,3)" or "cable(4,3; torus(2,3))"')

    p = add("gaps", "gap table for the family T(2k, 2k-1)")
    p.add_argument("--k-max", dest="k_max", type=int, required=True)

    # Only build-mobius writes a mesh file, so only it takes a file format.
    p = sub.add_parser(
        "build-mobius", help="build a swept band mesh, verify it, and write it"
    )
    p.add_argument("--format", choices=("text", "json", "off", "obj"), default="text")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta-steps", dest="theta_steps", type=int, default=128)
    p.add_argument("--chord-steps", dest="chord_steps", type=int, default=8)
    p.add_argument("--out", required=True,
                   help="mesh file to write (OFF unless --format/extension says OBJ)")
    p.add_argument("--tol", type=float)

    p = add("verify-mesh", "re-verify a previously written mesh file against (p, q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", required=True, help="mesh file to read")
    p.add_argument("--tol", type=float)

    p = add("obstruction", "parity obstruction in the torus-knot group")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("homology", "immersed-vs-embedded Euler characteristic gap report")
    p.add_argument("--n", type=int, required=True)

    p = add("twist", "minimal even twist count contradicting a given chi")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    add("audit", "run every property suite; nonzero exit on any failure")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines, code = _COMMANDS[args.command](args)
        # Printing stays in the try: a closed stdout is an OSError, exit 2.
        if args.format == "json":
            # Written in blocks of encoder chunks, so the text is never held
            # whole; one write per chunk would triple the time of a large
            # table.  With fd 1 closed at start-up sys.stdout is None and
            # print() drops its output; the JSON is dropped with it.
            if sys.stdout is not None:
                chunks = json.JSONEncoder(indent=2).iterencode(payload)
                while block := "".join(islice(chunks, _JSON_BLOCK_CHUNKS)):
                    sys.stdout.write(block)
            print()
        else:
            print("\n".join(lines))
        return code
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError) as exc:  # knot and mesh errors are ValueErrors
        print(f"crosscap: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"crosscap: out of memory: {detail}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
