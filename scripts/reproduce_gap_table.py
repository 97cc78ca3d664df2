#!/usr/bin/env python3
"""Print the invariant gap table for the family T(2k, 2k-1).

The immersed crosscap number of every member is 1, while the embedded
3- and 4-dimensional crosscap numbers are k and k-1, so both gaps grow
without bound.  The table is printed by ``crosscap gaps``.  Usage:

    python scripts/reproduce_gap_table.py --k-max 10
"""

import argparse
import sys

from crosscap import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=10)
    args = parser.parse_args()
    return cli.main(["gaps", "--k-max", str(args.k_max)])


if __name__ == "__main__":
    sys.exit(main())
