"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation or input error,
3 property-suite failure (``audit`` only).

The numpy-backed modules ``mobius`` and ``audit`` are imported inside the
commands that use them, so every other command starts without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import homology, invariants, knots, words

if TYPE_CHECKING:
    from . import mobius

USAGE_EXIT = 1
VALIDATION_EXIT = 2
AUDIT_EXIT = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: error: {message}")


def _canonical_json(payload) -> str:
    return json.dumps(payload, indent=2)


def _require(args: argparse.Namespace, names: Sequence[str], command: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise _UsageError(f"crosscap {command}: missing required {flags}")


def _print_value(label: str, value: invariants.InvariantValue) -> None:
    print(f"{label}: {value}  [{value.provenance or 'n/a'}]")


def _print_report(report: invariants.InvariantReport) -> None:
    print(f"knot: {knots.format_knot(report.knot)}")
    _print_value("gamma_I", report.gamma_i)
    _print_value("gamma_3", report.gamma_3)
    _print_value("gamma_4", report.gamma_4)
    _print_value("g_3", report.g_3)
    prime = "unknown" if report.prime is None else ("yes" if report.prime else "no")
    print(f"prime: {prime}")
    print(f"gap_3I: {'n/a' if report.gap_3i is None else report.gap_3i}")
    print(f"gap_4I: {'n/a' if report.gap_4i is None else report.gap_4i}")


def _cmd_classify(args: argparse.Namespace) -> int:
    _require(args, ["knot"], args.command)
    report = invariants.invariant_report(knots.parse_knot(args.knot))
    if args.format == "json":
        print(_canonical_json(report.to_dict()))
    else:
        _print_report(report)
    return 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    _require(args, ["k_max"], "gaps")
    rows = invariants.gap_table(args.k_max)
    if args.format == "json":
        print(_canonical_json([row.to_dict() for row in rows]))
        return 0
    header = f"{'k':>3} {'gamma_I':>8} {'gamma_3':>8} {'gamma_4':>8} {'gap_3I':>7} {'gap_4I':>7}"
    print(header)
    for k, row in zip(range(2, args.k_max + 1), rows):
        print(
            f"{k:>3} {row.gamma_i.value:>8} {row.gamma_3.value:>8} "
            f"{row.gamma_4.value:>8} {row.gap_3i:>7} {row.gap_4i:>7}"
        )
    return 0


def _print_mesh_report(report: mobius.MeshVerificationReport) -> None:
    print(f"euler_characteristic: {report.euler_characteristic}")
    print(f"boundary_components: {report.boundary_component_count}")
    print(f"orientable: {'yes' if report.orientable else 'no'}")
    print(f"boundary_class: ({report.boundary_class[0]}, {report.boundary_class[1]})")
    print(f"core_multiplicity: {report.core_multiplicity}")
    print(
        "max_offcore_selfintersection_distance: "
        f"{report.max_offcore_selfintersection_distance:.3e} "
        f"(tolerance {report.tolerance:.3e})"
    )


def _mesh_file_format(args: argparse.Namespace, out: Path) -> str:
    if args.format in ("off", "obj"):
        return args.format
    return "obj" if out.suffix.lower() == ".obj" else "off"


def _cmd_build_mobius(args: argparse.Namespace) -> int:
    _require(args, ["p", "q", "out"], "build-mobius")
    from . import mobius

    params = mobius.SweepParams(
        p=args.p,
        q=args.q,
        theta_steps=args.theta_steps,
        chord_steps=args.chord_steps,
    )
    mesh = mobius.build_mobius(params)
    # Verify first: a rejected --tol must leave no file behind.
    report = mobius.verify_mesh(mesh, params, tol=args.tol)
    out = Path(args.out)
    export_text = mobius.export_mesh(mesh, _mesh_file_format(args, out))
    out.write_text(export_text)
    if args.format == "json":
        print(_canonical_json({**report.to_dict(), "mesh_file": str(out)}))
    else:
        line_count = export_text.count("\n")
        print(f"wrote {line_count} lines to {out}")
        _print_mesh_report(report)
    return 0


def _cmd_verify_mesh(args: argparse.Namespace) -> int:
    _require(args, ["p", "q", "out"], "verify-mesh")
    from . import mobius

    text = Path(args.out).read_text()
    vertices, triangles = mobius.parse_mesh_text(text)
    mesh, params = mobius.rebuild_for_file(args.p, args.q, vertices, triangles)
    report = mobius.verify_mesh(mesh, params, tol=args.tol)
    if args.format == "json":
        print(_canonical_json(report.to_dict()))
    else:
        _print_mesh_report(report)
    return 0


def _cmd_obstruction(args: argparse.Namespace) -> int:
    _require(args, ["p", "q"], "obstruction")
    obstructed = words.square_conjugate_obstruction(args.p, args.q)
    if args.format == "json":
        print(_canonical_json({"p": args.p, "q": args.q, "obstructed": obstructed}))
        return 0
    relator_len = abs(args.p) + abs(args.q)
    if obstructed:
        print(f"obstruction for T({args.p},{args.q}): yes")
        print(
            f"the relator has even length {relator_len}, so word-length parity "
            "is a homomorphism to Z/2; squares have parity 0 while conjugates "
            f"of x^{args.p} have parity 1, so no immersed Moebius band exists"
        )
    else:
        print(f"obstruction for T({args.p},{args.q}): no")
        print(
            f"the relator has odd length {relator_len}, so word-length parity "
            "is not invariant and the parity argument gives no obstruction"
        )
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    _require(args, ["n"], "homology")
    report = homology.embedded_component_bound(args.n)
    if args.format == "json":
        print(_canonical_json(report.to_dict()))
        return 0
    print(f"n: {report.n}")
    print(f"surgery_slope: {report.surgery_slope}")
    print(f"chi_immersed: {report.chi_immersed}")
    print(f"chi_embedded_component_max: {report.chi_embedded_component_max}")
    print(f"gap: {report.gap}")
    return 0


def _cmd_twist(args: argparse.Namespace) -> int:
    _require(args, ["chi", "n"], "twist")
    p = homology.minimal_twist_contradiction(args.chi, args.n)
    if args.format == "json":
        print(_canonical_json({"chi": args.chi, "n": args.n, "minimal_even_twists": p}))
    else:
        print(f"minimal even twist count contradicting chi={args.chi} at n={args.n}: {p}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from . import audit

    results = audit.run_audit(seed=args.seed)
    failures = sum(not result.ok for result in results)
    exit_code = AUDIT_EXIT if failures else 0
    if args.format == "json":
        suites = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
        payload = {"suites": suites, "passed": len(results) - failures,
                   "failed": failures}
        print(_canonical_json(payload))
        return exit_code
    for result in results:
        if result.ok:
            print(f"ok   {result.name}")
        else:
            print(f"FAIL {result.name}: {result.detail}")
    print(f"{len(results) - failures}/{len(results)} property suites passed")
    return exit_code


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
        p.add_argument("--knot", help='e.g. "torus(4,3)" or "cable(4,3; torus(2,3))"')

    p = add("gaps", "gap table for the family T(2k, 2k-1)")
    p.add_argument("--k-max", dest="k_max", type=int)

    # Only build-mobius writes a mesh file, so only it takes a file format.
    p = sub.add_parser(
        "build-mobius", help="build a swept band mesh, verify it, and write it"
    )
    p.add_argument("--format", choices=("text", "json", "off", "obj"), default="text")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--theta-steps", dest="theta_steps", type=int, default=128)
    p.add_argument("--chord-steps", dest="chord_steps", type=int, default=8)
    p.add_argument("--out", help="mesh file to write (OFF unless --format/extension says OBJ)")
    p.add_argument("--tol", type=float)

    p = add("verify-mesh", "re-verify a previously written mesh file against (p, q)")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--out", help="mesh file to read")
    p.add_argument("--tol", type=float)

    p = add("obstruction", "parity obstruction in the torus-knot group")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)

    p = add("homology", "immersed-vs-embedded Euler characteristic gap report")
    p.add_argument("--n", type=int)

    p = add("twist", "minimal even twist count contradicting a given chi")
    p.add_argument("--chi", type=int)
    p.add_argument("--n", type=int)

    p = add("audit", "run every property suite; nonzero exit on any failure")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError) as exc:  # knot and mesh errors are ValueErrors
        print(f"crosscap: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
