#!/usr/bin/env python3
"""Build and certify a gallery of swept immersed Moebius bands.

Runs ``crosscap build-mobius`` for each (p, q) pair, which writes one OFF
file and prints its verification report: Euler characteristic, boundary
count, orientability, boundary class, core sheet count, and how far the
mesh's double points stray from the core circle, and the verdict
``certified: yes`` or ``certified: no (<failed checks>)``.  Stops at the
first command that fails, an uncertified band included, and exits with its
code.  Usage:

    python scripts/build_mobius_gallery.py --out-dir meshes --theta-steps 256
"""

import argparse
import sys
from pathlib import Path

from crosscap import cli


DEFAULT_CASES = [(1, 3), (1, 5), (2, 3), (2, 5), (3, 5)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("meshes"))
    parser.add_argument("--theta-steps", type=int, default=256)
    parser.add_argument("--chord-steps", type=int, default=8)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for p, q in DEFAULT_CASES:
        code = cli.main([
            "build-mobius", "--p", str(p), "--q", str(q),
            "--theta-steps", str(args.theta_steps),
            "--chord-steps", str(args.chord_steps),
            "--out", str(args.out_dir / f"mobius_p{p}_q{q}.off"),
        ])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
