#!/usr/bin/env python3
"""Build and certify a gallery of swept immersed Moebius bands.

Writes one OFF file per (p, q) pair and prints the verification report:
Euler characteristic, boundary count, orientability, boundary class,
core sheet count, and how far the mesh's double points stray from the
core circle.  Usage:

    python scripts/build_mobius_gallery.py --out-dir meshes --theta-steps 256
"""

import argparse
from pathlib import Path

from crosscap import mobius


DEFAULT_CASES = [(1, 3), (1, 5), (2, 3), (2, 5), (3, 5)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("meshes"))
    parser.add_argument("--theta-steps", type=int, default=256)
    parser.add_argument("--chord-steps", type=int, default=8)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for p, q in DEFAULT_CASES:
        params = mobius.SweepParams(
            p=p, q=q, theta_steps=args.theta_steps, chord_steps=args.chord_steps
        )
        mesh = mobius.build_mobius(params)
        path = args.out_dir / f"mobius_p{p}_q{q}.off"
        path.write_text(mobius.export_mesh(mesh, "off"))
        report = mobius.verify_mesh(mesh, params)
        print(
            f"T({2 * p},{q}): chi={report.euler_characteristic} "
            f"boundaries={report.boundary_component_count} "
            f"orientable={report.orientable} "
            f"class={report.boundary_class} "
            f"core_sheets={report.core_multiplicity} "
            f"max_offcore={report.max_offcore_selfintersection_distance:.2e} "
            f"(tol {report.tolerance:.2e}) -> {path}"
        )


if __name__ == "__main__":
    main()
